"""Assembling the geometric side of the trace formula.

For a resolvent test pair the geometric side is the sum of five terms --
identity, non-cuspidal elliptic, loxodromic, cuspidal elliptic, parabolic.
The last two each diverge with the cusp truncation height A; their log A
coefficients cancel exactly (the coefficient equals g(0) k_infinity, and the
cuspidal elliptic classes contribute the matching -g(0) k_infinity through
an exact rational identity).  This demo verifies the exact identity, prints
the term table, and checks that the A-independent finite part really does
not move when A changes.

Run:  python3 demos/trace_formula_geometric.py
"""

import math

import numpy as np

from selberg3.arithmetic_group import (EISENSTEIN_GROUP, PICARD,
                                       build_group_data, from_ints)
from selberg3.representation import (congruence_table_rep, direct_sum,
                                     find_character, singular_spaces,
                                     trivial_rep)
from selberg3.trace_formula import cuspidal_identity_check, geometric_side
from selberg3.transform import resolvent_pair


def rule(title):
    print()
    print(f"--- {title} ---")


def s3_rep(stab):
    """The 2-dimensional representation of PSL(2, Z[i]/(1+i)) = S3, by
    reflections on R and on J = [[0, -1], [1, 0]]."""
    th = 2 * math.pi / 3
    refl_r = np.diag([1.0, -1.0])
    refl_j = np.array([[math.cos(th), math.sin(th)],
                       [math.sin(th), -math.cos(th)]])
    j = from_ints(PICARD.ring, (((0, 0), (-1, 0)), ((1, 0), (0, 0))))
    return congruence_table_rep(PICARD, (1, 1),
                                [(stab.R, refl_r), (j, refl_j)])


def main():
    gd = build_group_data(PICARD, height=6, norm_bound=14.0)
    chi = trivial_rep(PICARD.ring)
    sing = singular_spaces(chi, gd.stabilizer)
    print(f"Picard group, trivial character: k_infinity = {sing.k_infinity}, "
          f"l_infinity = {sing.l_infinity}, cusp index = {gd.group.index}")

    rule("Exact cuspidal identity (traces from eigen-angles, in Q(omega))")
    sign = find_character(PICARD, (1, 1), -1, -1, 1)
    for group, gdata, char_label, char in (
            (PICARD, gd, "trivial", chi),
            (PICARD, gd, "sign", sign),
            (PICARD, gd, "S3 (2-dim)", s3_rep(gd.stabilizer)),
            (PICARD, gd, "trivial+sign", direct_sum([chi, sign])),
    ):
        s = singular_spaces(char, gdata.stabilizer)
        residual = cuspidal_identity_check(
            gdata.cuspidal_elliptic, char, s.k_infinity, s.l_infinity,
            gdata.group.index)
        print(f"{group.name}/{char_label:12s}: "
              f"2 Sum tr chi(g_i)/(|C_i| |1-eps_i^2|^2) + l/idx - k = "
              f"{residual.a} + ({residual.b}) omega"
              f"  (exact zero: {residual.is_zero})")

    rule("Geometric side at truncation height A = 5 (resolvent pair s=2, B=3)")
    triple = resolvent_pair(2.0, 3.0)
    rep = geometric_side(triple, gd, chi, A=5.0, norm_bound=14.0)
    for label, val in (
            ("identity", rep.identity_term),
            ("non-cuspidal elliptic", rep.nce_term),
            ("loxodromic", rep.loxodromic_term),
            ("cuspidal elliptic", rep.cuspidal_elliptic_term),
            ("parabolic", rep.parabolic_term),
    ):
        print(f"{label:22s} {complex(val).real:+.12f}")
    print(f"{'total':22s} {complex(rep.total).real:+.12f}")
    print(f"{'finite part':22s} {complex(rep.finite_part).real:+.12f}")
    print(f"loxodromic tail bound beyond norm 14: {rep.loxodromic_tail:.2e}")

    rule("log A cancellation")
    print(f"measured log A coefficient : {rep.logA_coefficient:+.3e}")
    print(f"expected g(0) k_infinity   : {rep.expected_logA_coefficient:+.3e}")
    print(f"(g(0) = 1/(2s) - 1/(2B) = {triple.g(0.0):.6f}, k_infinity = "
          f"{sing.k_infinity})")

    rule("The finite part does not depend on A")
    values = {}
    for A in (5.0, 8.0, 12.0):
        values[A] = complex(geometric_side(triple, gd, chi, A=A,
                                           norm_bound=14.0).finite_part)
        print(f"A = {A:4.1f}: finite part = {values[A].real:.15f}")
    spread = max(abs(values[a] - values[b]) for a in values for b in values)
    print(f"max pairwise difference: {spread:.2e}")

    rule("Same run for the Eisenstein group")
    ge = build_group_data(EISENSTEIN_GROUP, height=6, norm_bound=14.0)
    chi_e = trivial_rep(EISENSTEIN_GROUP.ring)
    rep_e = geometric_side(triple, ge, chi_e, A=5.0, norm_bound=14.0)
    print(f"finite part = {complex(rep_e.finite_part).real:+.12f}, "
          f"log A cancellation error = "
          f"{abs(rep_e.logA_coefficient - rep_e.expected_logA_coefficient):.1e}")


if __name__ == "__main__":
    main()
