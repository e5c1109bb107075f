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

from selberg3.arithmetic_group import EISENSTEIN_GROUP, PICARD, build_group_data
from selberg3.representation import find_character, singular_spaces, trivial_rep
from selberg3.trace_formula import cuspidal_identity_check, geometric_side
from selberg3.transform import resolvent_pair

def rule(title):
    print()
    print(f"--- {title} ---")


def main():
    gd = build_group_data(PICARD, height=6, norm_bound=14.0)
    chi = trivial_rep(PICARD.ring)
    sing = singular_spaces(chi, gd.stabilizer)
    print(f"Picard group, trivial character: k_infinity = {sing.k_infinity}, "
          f"l_infinity = {sing.l_infinity}, cusp index = {gd.group.index}")

    rule("Exact cuspidal identity (rational arithmetic, no floats)")
    for group, gdata, char_label, char in (
            (PICARD, gd, "trivial", chi),
            (PICARD, gd, "sign", find_character(PICARD, (1, 1), -1, -1, 1)),
    ):
        s = singular_spaces(char, gdata.stabilizer)
        residual = cuspidal_identity_check(
            gdata.cuspidal_elliptic, char, s.k_infinity, s.l_infinity,
            gdata.group.index)
        print(f"{group.name}/{char_label:7s}: "
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
