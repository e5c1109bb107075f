"""The Selberg zeta function: Euler product, log derivative, and divisor.

The loxodromic classes define Z(s) through an Euler product over class
powers twisted by axis torsion.  This demo evaluates the truncated product,
cross-checks its logarithmic derivative two independent ways, assembles the
completed function Xi whose resolvent combination is purely spectral, and
prints the exact rational divisor contributed by the non-spectral terms --
including the meromorphy-order contrast between the two groups.

Run:  python3 demos/zeta_divisor.py
"""

from selberg3.arithmetic_group import EISENSTEIN_GROUP, PICARD, build_group_data
from selberg3.representation import singular_spaces, trivial_rep
from selberg3.trace_formula import geometric_side
from selberg3.transform import resolvent_pair
from selberg3.zeta import (
    build_zeta_class_data,
    central_difference_check,
    geometric_blocks,
    log_derivative_series,
    meromorphy_report,
    topological_divisor,
    xi_log_derivative,
    zeta_tail_bound,
    zeta_truncated,
)


def rule(title):
    print()
    print(f"--- {title} ---")


def main():
    gd = build_group_data(PICARD, height=6, norm_bound=14.0)
    chi = trivial_rep(PICARD.ring)
    data = build_zeta_class_data(gd.loxodromic, chi)

    rule("Euler product over loxodromic classes (Picard, trivial character)")
    n_factors = sum(len(zcd.t_eigen) for zcd in data)
    print(f"{len(data)} primitive class families, {n_factors} eigenvalue "
          f"slots, norms up to {gd.norm_bound}")
    for s in (2.0, 2.5, 3.0):
        z = zeta_truncated(s, data)
        tail = zeta_tail_bound(s, data, 40)
        print(f"Z({s}) = {z.real:.15f}  (truncation tail bound {tail:.1e})")

    rule("Z'/Z: series route vs Euler-factor route vs central difference")
    for s in (2.0, 2.5):
        classes = log_derivative_series(s, data, route="classes")
        factors = log_derivative_series(s, data, route="factors")
        cdc = central_difference_check(s, data)
        print(f"s = {s}: classes route  {classes.real:.15f}")
        print(f"         factors route  {factors.real:.15f}  "
              f"(|diff| = {abs(classes - factors):.1e})")
        print(f"         central diff   {cdc.central_difference.real:.15f}  "
              f"(relative error {cdc.relative_error:.1e})")

    rule("The completed function Xi meets the geometric side")
    print("(1/2s) Xi'/Xi(s) - (1/2B) Xi'/Xi(B) must equal the trace-formula")
    print("finite part minus its trS0 term -- two very different programs.")
    s, B = 2.0, 3.0
    triple = resolvent_pair(s, B)
    sing = singular_spaces(chi, gd.stabilizer)
    trS0 = float(sing.k_infinity % 2)
    blocks = geometric_blocks(gd, chi)
    xi_pair = (xi_log_derivative(s, data, blocks, trS0,
                                 power_norm_bound=gd.norm_bound) / (2 * s)
               - xi_log_derivative(B, data, blocks, trS0,
                                   power_norm_bound=gd.norm_bound) / (2 * B))
    rep = geometric_side(triple, gd, chi, A=5.0, norm_bound=gd.norm_bound)
    geo = rep.finite_part - trS0 * (1.0 / (4 * s * s) - 1.0 / (4 * B * B))
    print(f"zeta side     : {xi_pair.real:.15f}")
    print(f"geometric side: {geo.real:.15f}")
    print(f"|difference|  : {abs(xi_pair - geo):.2e}")

    rule("Topological divisor of 2s Xi'/Xi (exact rationals)")
    print("Picard, trivial character (cusp index 2, k = l = 1):")
    records = topological_divisor(2, 1, 1, trS0=1.0, depth=6)
    for rec in records:
        print(f"  s = {rec.location.real:4.0f}: residue {rec.residue} "
              f"({rec.source})")
    print("Eisenstein, trivial character (cusp index 3, k = l = 1):")
    records_e = topological_divisor(3, 1, 1, trS0=1.0, depth=6)
    for rec in records_e:
        print(f"  s = {rec.location.real:4.0f}: residue {rec.residue} "
              f"({rec.source})")

    rule("Meromorphy order: computed vs documented")
    rp = meromorphy_report(records, documented_order=1)
    print(f"Picard     : computed lcm of residue denominators = {rp.computed}, "
          f"documented = {rp.documented}, matches = {rp.matches}")
    re_ = meromorphy_report(records_e, documented_order=6)
    print(f"Eisenstein : computed lcm of residue denominators = {re_.computed}, "
          f"documented = {re_.documented}, matches = {re_.matches}")
    if re_.note:
        print(f"             note: {re_.note}")

    rule("Contrast: the Eisenstein group's own Euler product")
    ge = build_group_data(EISENSTEIN_GROUP, height=6, norm_bound=14.0)
    chi_e = trivial_rep(EISENSTEIN_GROUP.ring)
    data_e = build_zeta_class_data(ge.loxodromic, chi_e)
    torsion = [zcd for zcd in data_e if zcd.m > 1]
    print(f"{len(data_e)} class families; {len(torsion)} carry axis torsion "
          f"(m = {[zcd.m for zcd in torsion]})")
    print(f"Z(2) = {zeta_truncated(2.0, data_e).real:.15f}")


if __name__ == "__main__":
    main()
