"""Enumerate group elements, classify them, and build conjugacy-class data.

Walks through the discrete-group layer for the Picard group PSL(2, Z[i]):
finite enumeration by bottom-row height, the four-way motion classification,
and the three class inventories (loxodromic, cuspidal elliptic, non-cuspidal
elliptic) that feed the trace formula.

Run:  python3 demos/enumeration_and_classes.py
"""

from collections import Counter

from selberg3.arithmetic_group import (
    PICARD,
    build_group_data,
    classify,
    enumerate_elements,
    from_ints,
)


def rule(title):
    print()
    print(f"--- {title} ---")


def main():
    print("Group:", PICARD.name, " ring:", PICARD.ring.name,
          " fundamental volume:", f"{PICARD.volume:.12f}")

    rule("Enumeration by bottom-row height")
    for height in (1, 2, 4):
        elems = enumerate_elements(PICARD, height)
        kinds = Counter(classify(g).kind for g in elems)
        print(f"height {height}: {len(elems):5d} elements  "
              + "  ".join(f"{k}={v}" for k, v in sorted(kinds.items())))

    rule("Classification of a few familiar elements")
    def mat(a, b, c, d):
        return from_ints(PICARD.ring, [[(a, 0), (b, 0)], [(c, 0), (d, 0)]])

    samples = {
        "identity": mat(1, 0, 0, 1),
        "translation z -> z+1": mat(1, 1, 0, 1),
        "inversion z -> -1/z": mat(0, -1, 1, 0),
        "a hyperbolic word": mat(2, 1, 1, 1),
    }
    for label, g in samples.items():
        c = classify(g)
        extra = f" order={c.order}" if c.order else ""
        extra += f" norm={c.norm:.6f}" if c.norm is not None else ""
        print(f"{label:24s} -> {c.kind}{extra}  cuspidal={c.cuspidal}")

    rule("Conjugacy-class inventories (height 6, norm bound 14)")
    gd = build_group_data(PICARD, height=6, norm_bound=14.0)
    print("element kinds:", gd.counts())
    print(f"primitive loxodromic families : {len(gd.loxodromic)}")
    for cls in sorted(gd.loxodromic, key=lambda c: c.N0)[:5]:
        angle = "-" if cls.zeta0_angle is None else str(cls.zeta0_angle)
        print(f"  N0={cls.N0:9.5f}  axis torsion m={cls.m}  "
              f"torsion eigenvalue angle={angle}")
    print(f"cuspidal elliptic classes     : {len(gd.cuspidal_elliptic)}")
    for cls in gd.cuspidal_elliptic:
        print(f"  order={cls.order}  |1-eps^2|^2={cls.one_minus_eps_sq_norm}  "
              f"witness |c|^2={cls.c_norm}")
    print(f"non-cuspidal elliptic classes : {len(gd.non_cuspidal_elliptic)}")
    for cls in gd.non_cuspidal_elliptic:
        n0 = "-" if cls.N0 is None else f"{cls.N0:.5f}"
        print(f"  axis order m={cls.order_primitive}  sin^2 = {cls.sin_sq}  "
              f"minimal axis norm N0={n0}")

    rule("Conjugation invariance spot check")
    g = samples["a hyperbolic word"]
    u = samples["translation z -> z+1"]
    conj = g.conjugate_by(u)
    print("classify(g)      :", classify(g).kind, f"{classify(g).norm:.12f}")
    print("classify(u g u~1):", classify(conj).kind, f"{classify(conj).norm:.12f}")


if __name__ == "__main__":
    main()
