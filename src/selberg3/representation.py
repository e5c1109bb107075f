"""Finite-dimensional unitary representations of the Bianchi groups.

Supported representations either are trivial or factor through the finite
quotient PSL(2, O/q) of a congruence ideal (q).  That restriction is what
makes exact evaluation possible on any enumerated matrix: no word problem,
just reduction mod q and a finite lookup.  Every such representation is
one table over the quotient, closed by breadth first search from values on
generators.  One-dimensional characters try every finite-order angle on
the images of R, S and J, which generate the quotient; higher dimensions
are supplied as generator-image tables.  A representation is only its
dimension and its evaluator.

The image being finite, the joint eigen-angles of commuting images, the
cusp dimensions k_infinity, l_infinity and the lattice characters are
exact trace averages over it, with no numerical diagonalization.

A sum of sixth roots of unity is an exact element a + b*omega of Q(omega)
(CyclotomicValue); the cuspidal identity sums the eigen-angles of order-2
and order-3 images into one.
"""
from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .arithmetic_group import (
    GroupDescriptor,
    GroupElement,
    StabilizerData,
    _mat_mul,
    stabilizer_data,
)
from .lattice_lfn import LatticeCharacter
from .rings import Pair, Ring

UNITARY_TOL = 1e-12
DIAG_TOL = 1e-10


# ---------------------------------------------------------------------------
# exact cyclotomic values (order dividing 6)

# j-th power of exp(pi i/3) in the basis {1, omega}
_SIXTH_POWERS = {
    0: (1, 0), 1: (1, 1), 2: (0, 1), 3: (-1, 0), 4: (-1, -1), 5: (0, -1),
}


@dataclass(frozen=True)
class CyclotomicValue:
    """a + b*omega with rational coordinates, omega = exp(2 pi i/3)."""

    a: Fraction
    b: Fraction

    def __add__(self, other: "CyclotomicValue") -> "CyclotomicValue":
        return CyclotomicValue(self.a + other.a, self.b + other.b)

    def __mul__(self, scalar) -> "CyclotomicValue":
        return CyclotomicValue(self.a * scalar, self.b * scalar)

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    @classmethod
    def from_rational(cls, a) -> "CyclotomicValue":
        return cls(Fraction(a), Fraction(0))

    @classmethod
    def from_angle(cls, angle: Fraction) -> Optional["CyclotomicValue"]:
        """exp(2 pi i angle) when the order divides 6, else None."""
        angle = Fraction(angle) % 1
        if 6 % angle.denominator != 0:
            return None
        j = (angle.numerator * (6 // angle.denominator)) % 6
        x, y = _SIXTH_POWERS[j]
        return cls(Fraction(x), Fraction(y))


def _unit_value(angle: Fraction) -> complex:
    """exp(2 pi i angle), exactly +-1 or +-i when 4 angle is an integer;
    the angle is taken in (-1/2, 1/2], so -angle gives the exact conjugate."""
    q = angle.denominator
    p = angle.numerator % q
    if 2 * p > q:
        p -= q
    if 4 % q:
        return cmath.exp(2j * math.pi * (p / q))
    return 1j ** (4 * p // q)


def snap_unit_angle(z: complex, tol: float = 1e-8,
                    max_den: int = 1000) -> Optional[Fraction]:
    """Nearest rational angle a with exp(2 pi i a) = z within tol, or None."""
    if abs(abs(z) - 1.0) > tol:
        return None
    raw = cmath.phase(z) / (2.0 * math.pi) % 1.0
    cand = Fraction(raw).limit_denominator(max_den) % 1
    if abs(cmath.exp(2j * math.pi * float(cand)) - z) <= tol:
        return cand
    return None


# ---------------------------------------------------------------------------
# representations

class UnitaryRep:
    """dim, an evaluator M -> dim x dim unitary matrix, and a label.

    The evaluator must be a pure function of the element: each image is
    evaluated once, made read-only and kept for the rep's lifetime, keyed
    by the element (whose hash includes its ring).  The same memo holds
    what depends on chi alone: the cusp data of singular_spaces and the
    per-class eigen-data of zeta.build_zeta_class_data.

    Exact data (cusp dimensions, lattice characters, the traces of
    finite-order images) come from the eigen-angles of its images.
    """

    def __init__(self, dim: int,
                 evaluator: Callable[[GroupElement], np.ndarray],
                 label: str = ""):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = dim
        self._evaluator = evaluator
        self.label = label
        self._memo: dict = {}

    def __call__(self, M: GroupElement) -> np.ndarray:
        out = self._memo.get(M)
        if out is None:
            out = np.asarray(self._evaluator(M), dtype=complex)
            if out.shape != (self.dim, self.dim):
                raise ValueError(f"evaluator returned shape {out.shape}")
            out.flags.writeable = False
            self._memo[M] = out
        return out

    def trace(self, M: GroupElement) -> complex:
        return complex(np.trace(self(M)))

    def __repr__(self):
        return f"UnitaryRep(dim={self.dim}, label={self.label!r})"


def trivial_rep(ring: Ring, dim: int = 1) -> UnitaryRep:
    eye = np.eye(dim, dtype=complex)

    def evaluator(M: GroupElement) -> np.ndarray:
        if M.ring.name != ring.name:
            raise ValueError("element from the wrong ring")
        return eye

    return UnitaryRep(dim, evaluator, label=f"trivial({dim})")


def direct_sum(reps: Sequence[UnitaryRep]) -> UnitaryRep:
    reps = list(reps)
    if not reps:
        raise ValueError("empty direct sum")
    dim = sum(r.dim for r in reps)

    def evaluator(M: GroupElement) -> np.ndarray:
        out = np.zeros((dim, dim), dtype=complex)
        at = 0
        for r in reps:
            out[at:at + r.dim, at:at + r.dim] = r(M)
            at += r.dim
        return out

    return UnitaryRep(dim, evaluator, label="+".join(r.label for r in reps))


# ---------------------------------------------------------------------------
# residue rings and congruence quotients

def _xgcd_int(a: int, b: int):
    """(g, u, w) with u*a + w*b = g = gcd(a, b) > 0 for (a, b) != (0, 0)."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_w, w = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_w, w = w, old_w - q * w
    if old_r < 0:
        old_r, old_u, old_w = -old_r, -old_u, -old_w
    return old_r, old_u, old_w

class ResidueRing:
    """O/(q) with a canonical residue system.

    Nearest-division remainders are small but not canonical (mod 1+i both
    1 and i are fixed points yet congruent), so residues come from a
    Hermite-style basis ((d1, 0), (s, d2)) of the ideal lattice qO:
    canonical coordinates satisfy 0 <= x < d1, 0 <= y < d2, and the count
    d1*d2 equals N(q) exactly.
    """

    def __init__(self, ring: Ring, modulus: Pair):
        modulus = tuple(modulus)
        if ring.norm(modulus) == 0:
            raise ValueError("zero modulus")
        self.ring = ring
        self.modulus = modulus
        self.size = int(ring.norm(modulus))
        self._d1, self._s, self._d2 = self._hnf(modulus)
        if self._d1 * self._d2 != self.size:
            raise AssertionError("ideal lattice index mismatch")
        self._elements: Optional[tuple] = None

    def _hnf(self, q: Pair):
        v1 = q
        v2 = self.ring.mul(q, (0, 1))
        g, u, w = _xgcd_int(v1[1], v2[1])
        # row with y-component g, and row with y-component 0
        row_g = (u * v1[0] + w * v2[0], g)
        t = (v1[1] // g) * v2[0] - (v2[1] // g) * v1[0]
        d1 = abs(t)
        return d1, row_g[0] % d1, g

    def reduce(self, x: Pair) -> Pair:
        a, b = int(x[0]), int(x[1])
        k = b // self._d2
        a -= k * self._s
        b -= k * self._d2
        return (a % self._d1, b)

    def elements(self) -> tuple:
        if self._elements is None:
            self._elements = tuple((x, y) for x in range(self._d1)
                                   for y in range(self._d2))
        return self._elements


class CongruenceQuotient:
    """PSL(2, O/q): canonical keys, multiplication, and the reduction map.

    Keys are 8-integer tuples of residue coordinates, canonicalized over
    the central +-I just like GroupElement does over O.  Products are
    formed exactly over O, and the key reduces each entry once.
    """

    def __init__(self, ring: Ring, modulus: Pair):
        self.residues = ResidueRing(ring, modulus)
        self.ring = ring
        self.modulus = tuple(modulus)
        one = self.residues.reduce((1, 0))
        keys = set()
        elems = self.residues.elements()
        for a in elems:
            for b in elems:
                for c in elems:
                    for d in elems:
                        det = ring.sub(ring.mul(a, d), ring.mul(b, c))
                        if self.residues.reduce(det) == one:
                            keys.add(self._canonical((a, b, c, d)))
        self.element_keys = tuple(sorted(keys))
        self.identity_key = self._canonical(((1, 0), (0, 0), (0, 0), (1, 0)))

    def _canonical(self, quad) -> tuple:
        """Key of a matrix over O: each entry and its negative reduced once,
        the lesser sign kept."""
        reduce = self.residues.reduce
        flat = tuple(v for p in quad for v in reduce(p))
        neg = tuple(v for p in quad for v in reduce(self.ring.neg(p)))
        return min(flat, neg)

    @staticmethod
    def _unflatten(key) -> tuple:
        return ((key[0], key[1]), (key[2], key[3]), (key[4], key[5]), (key[6], key[7]))

    def order(self) -> int:
        return len(self.element_keys)

    def reduce_element(self, M: GroupElement) -> tuple:
        if M.ring.name != self.ring.name:
            raise ValueError("element from the wrong ring")
        return self._canonical(M.entries())

    def multiply(self, k1: tuple, k2: tuple) -> tuple:
        return self._canonical(
            _mat_mul(self.ring, self._unflatten(k1), self._unflatten(k2)))

    def invert(self, k: tuple) -> tuple:
        a, b, c, d = self._unflatten(k)
        return self._canonical((d, self.ring.neg(b), self.ring.neg(c), a))

    def element_order(self, k: tuple) -> int:
        n = 1
        cur = k
        while cur != self.identity_key:
            cur = self.multiply(cur, k)
            n += 1
            if n > 4 * len(self.element_keys):
                raise AssertionError("order computation ran away")
        return n


def _close(quotient: CongruenceQuotient, gens, one, mul, agree):
    """{quotient key: value} of the homomorphism fixed by generator values.

    gens are (key, value) pairs.  Breadth first search from the identity
    sets table[x g] = mul(table[x], value of g) and checks every edge
    (x, g), so a table that comes back is a homomorphism.  Returns None
    when some edge disagrees (the values break a relation of the
    quotient); raises when the generators do not reach every element.
    """
    table = {quotient.identity_key: one}
    frontier = [quotient.identity_key]
    while frontier:
        nxt = []
        for x in frontier:
            for gk, gv in gens:
                y = quotient.multiply(x, gk)
                cand = mul(table[x], gv)
                if y not in table:
                    table[y] = cand
                    nxt.append(y)
                elif not agree(table[y], cand):
                    return None
        frontier = nxt
    if len(table) != quotient.order():
        raise ValueError(
            f"generators reach {len(table)} of {quotient.order()} quotient elements")
    return table


def quotient_characters(quotient: CongruenceQuotient) -> list:
    """Every character of PSL(2, O/q), as a table {key: Fraction angle}.

    SL(2) of a finite ring is generated by elementary matrices (and Swan,
    Adv. Math. 6 (1971), generates PSL(2, O) by the cusp stabilizer and J),
    so the images of R = [[1, 1], [0, 1]], S = [[1, u], [0, 1]] (u = i or
    omega) and J = [[0, -1], [1, 0]] generate the quotient and a character
    is fixed by its angles on them.  Every angle e/n, n the element order,
    is tried; the assignments that close to a homomorphism are the
    characters.
    """
    one, zero, u = (1, 0), (0, 0), (0, 1)
    gens = [quotient.reduce_element(GroupElement(quotient.ring, *entries))
            for entries in ((one, one, zero, one), (one, u, zero, one),
                            (zero, (-1, 0), one, zero))]
    choices = [[Fraction(e, n) for e in range(n)]
               for n in map(quotient.element_order, gens)]
    tables = (_close(quotient, list(zip(gens, angles)), Fraction(0),
                     lambda a, b: (a + b) % 1, operator.eq)
              for angles in itertools.product(*choices))
    return [t for t in tables if t is not None]


def find_character(group: GroupDescriptor, modulus: Pair,
                   on_R: complex, on_S: complex, on_E: complex) -> UnitaryRep:
    """The 1-dim congruence character mod (q) with the requested values.

    Values are matched within 1e-9 on the images of the three stabilizer
    generators.  The characters come from quotient_characters, which fixes
    each by its angles on R, S and J (these generate the quotient; Swan
    1971).  Raises if no character matches, or if the match does not pin
    the character down (possible when the values on R, S and E leave its
    value on J open).
    """
    stab = stabilizer_data(group)
    quotient = CongruenceQuotient(group.ring, modulus)
    chars = quotient_characters(quotient)
    targets = [(quotient.reduce_element(elem), complex(want))
               for elem, want in ((stab.R, on_R), (stab.S, on_S), (stab.E, on_E))]
    # a NaN target matches nothing
    matches = [table for table in chars
               if all(abs(cmath.exp(2j * math.pi * float(table[k])) - want) <= 1e-9
                      for k, want in targets)]
    if not matches:
        shown = sorted({tuple(table[k] for k, _ in targets) for table in chars})
        raise ValueError(
            f"no congruence character mod {tuple(modulus)} takes those values; "
            f"available (R,S,E) angle triples: {shown}")
    if len(matches) > 1:
        raise ValueError("generator values do not determine the character")
    table = matches[0]

    def evaluator(M: GroupElement) -> np.ndarray:
        return np.array([[_unit_value(table[quotient.reduce_element(M)])]])

    return UnitaryRep(1, evaluator,
                      label=f"congruence-character mod {tuple(modulus)}")


def congruence_table_rep(group: GroupDescriptor, modulus: Pair,
                         generator_images: Sequence[tuple],
                         label: str = "") -> UnitaryRep:
    """Representation of PSL(2, O/q) from images of generating elements.

    generator_images: (GroupElement, unitary ndarray) pairs.  The table is
    closed by the same search as quotient_characters; a collision that
    disagrees beyond 1e-10 means the images violate the quotient
    relations, and an unreached element means the given elements do not
    generate.
    """
    quotient = CongruenceQuotient(group.ring, modulus)
    gens = []
    dim = None
    for elem, image in generator_images:
        image = np.asarray(image, dtype=complex)
        if dim is None:
            dim = image.shape[0]
        if image.shape != (dim, dim):
            raise ValueError("generator images have mismatched shapes")
        # written so that a NaN image counts as not unitary
        if not np.max(np.abs(image @ image.conj().T - np.eye(dim))) <= UNITARY_TOL * 10:
            raise ValueError("generator image is not unitary")
        k = quotient.reduce_element(elem)
        gens.append((k, image))
        gens.append((quotient.invert(k), image.conj().T))

    if dim is None:
        raise ValueError("no generator images given")
    table = _close(quotient, gens, np.eye(dim, dtype=complex), operator.matmul,
                   lambda a, b: np.max(np.abs(a - b)) <= DIAG_TOL)
    if table is None:
        raise ValueError("generator images do not satisfy the quotient relations")

    def evaluator(M: GroupElement) -> np.ndarray:
        return table[quotient.reduce_element(M)]

    return UnitaryRep(dim, evaluator,
                      label=label or f"congruence-table mod {tuple(modulus)}")


# ---------------------------------------------------------------------------
# joint eigen-angles, singular subspaces and lattice restriction

# an image with no finite order up to this has none; the element orders
# of the quotients in the tests reach 10
_MAX_ORDER = 120


def _cyclic_powers(stack: np.ndarray):
    """(orders, powers) of a (K, d, d) stack of finite-order matrices:
    orders[k] is the least n >= 1 with stack[k]^n = I, and powers[i, k] is
    stack[k]^i for i below the largest order."""
    eye = np.eye(stack.shape[-1], dtype=complex)
    powers = [np.broadcast_to(eye, stack.shape)]
    orders = np.zeros(len(stack), dtype=int)
    while not orders.all():
        if len(powers) > _MAX_ORDER:
            raise ValueError(
                f"no finite order up to {_MAX_ORDER}: an eigenvalue is "
                "non-unimodular or not a root of unity")
        powers.append(powers[-1] @ stack)
        at_one = np.abs(powers[-1] - eye).max(axis=(1, 2)) <= DIAG_TOL
        orders[at_one & (orders == 0)] = len(powers) - 1
    return orders, np.array(powers[:-1])


def _joint_angles(a: np.ndarray, b: np.ndarray) -> list:
    """Joint eigen-angles of commuting finite-order unitaries, batched.

    a and b are (K, d, d) stacks, a[k] commuting with b[k].  With n and m
    the orders of a[k] and b[k], the multiplicity of the angle pair
    (x/n, y/m) is the integer DFT of the traces
    (1/nm) sum_{i<n, j<m} tr(a[k]^i b[k]^j) exp(-2 pi i (xi/n + yj/m)),
    one batch per distinct (n, m).  Returns, for each k, its d pairs of
    Fractions, ascending and repeated by multiplicity; raises ValueError
    when a multiplicity is not a non-negative integer (the pair does not
    commute) or an image has no finite order.
    """
    return _joint_angles_of(_cyclic_powers(a), _cyclic_powers(b))


def _joint_angles_of(cyclic_a, cyclic_b) -> list:
    """_joint_angles from the _cyclic_powers of a and of b; the powers may
    run past the orders."""
    (order_a, pow_a), (order_b, pow_b) = cyclic_a, cyclic_b
    out = [[] for _ in range(len(order_a))]
    for n, m in set(zip(order_a.tolist(), order_b.tolist())):
        ks = np.flatnonzero((order_a == n) & (order_b == m))
        dft_n, dft_m = (np.exp(-2j * math.pi * np.arange(e) / e)[
            np.outer(np.arange(e), np.arange(e)) % e] for e in (n, m))
        mult = dft_n @ np.einsum("ikpq,jkqp->kij", pow_a[:n, ks],
                                 pow_b[:m, ks]) @ dft_m / (n * m)
        counts = np.rint(mult.real)
        if np.abs(mult - counts).max() > DIAG_TOL or counts.min() < 0:
            raise ValueError("joint eigen-angle multiplicities are not "
                             "non-negative integers; the images do not "
                             "commute")
        for k, x, y in zip(*(v.tolist() for v in np.nonzero(counts))):
            out[ks[k]] += ([(Fraction(x, n), Fraction(y, m))]
                           * int(counts[k, x, y]))
    return out


@dataclass(frozen=True, eq=False)
class SingularData:
    """Cusp data of chi: V_infinity inside V_prime_infinity inside C^n."""

    V_infinity: np.ndarray         # (n, k) orthonormal columns
    V_prime_infinity: np.ndarray   # (n, l) orthonormal columns
    k_infinity: int
    l_infinity: int
    lattice_characters: tuple      # the first l_infinity are trivial


def _range_basis(proj: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal basis of the range of a projector of known rank:
    Gram-Schmidt on its columns, the longest remaining column first."""
    cols = proj.copy()
    basis = np.empty((proj.shape[0], rank), dtype=complex)
    for r in range(rank):
        q = cols[:, np.argmax(np.linalg.norm(cols, axis=0))]
        basis[:, r] = q / np.linalg.norm(q)
        cols -= np.outer(basis[:, r], basis[:, r].conj() @ cols)
    return basis


def singular_spaces(chi: UnitaryRep, stab: StabilizerData) -> SingularData:
    """V'_infinity (translations-fixed) and V_infinity (stabilizer-fixed),
    computed once per stab and kept in chi's memo, the bases read-only.

    The averages P' = mean chi(R)^i chi(S)^j over the finite image of the
    translations and P = P' mean chi(E)^k project onto V'_infinity and
    V_infinity, so l_infinity = tr P', k_infinity = tr P, and the bases
    come from their columns.  Checks that chi(R), chi(S) and chi(E) are
    unitary and that chi(E) preserves V'_infinity (it must, since the
    torsion generator normalizes the translations).  The same powers of
    chi(R) and chi(S) give the lattice characters psi(m + n tau) =
    exp(2 pi i (m u + n v)), one per joint eigen-angle pair (u, v); the
    pairs ascend, so the trivial ones come first, as the parabolic term reads.
    """
    sing = chi._memo.get(stab)
    if sing is None:
        sing = chi._memo[stab] = _singular_spaces(chi, stab)
    return sing


def _singular_spaces(chi: UnitaryRep, stab: StabilizerData) -> SingularData:
    n = chi.dim
    images = np.array([chi(stab.R), chi(stab.S), chi(stab.E)])
    for name, m in zip("RSE", images):
        if np.max(np.abs(m @ m.conj().T - np.eye(n))) > UNITARY_TOL * 10:
            raise ValueError(f"chi({name}) is not unitary")
    orders, powers = _cyclic_powers(images)
    mean_r, mean_s, mean_e = (powers[:o, k].mean(axis=0)
                              for k, o in enumerate(orders.tolist()))
    p_prime = mean_r @ mean_s
    moved = images[2] @ p_prime
    if np.max(np.abs(moved - p_prime @ moved)) > DIAG_TOL:
        raise ValueError("chi(E) does not preserve V'_infinity; invalid chi")
    p = p_prime @ mean_e
    l_inf, k_inf = (round(np.trace(x).real) for x in (p_prime, p))
    (angles,) = _joint_angles_of((orders[:1], powers[:, :1]),
                                 (orders[1:2], powers[:, 1:2]))
    v, v_prime = _range_basis(p, k_inf), _range_basis(p_prime, l_inf)
    v.flags.writeable = v_prime.flags.writeable = False
    return SingularData(V_infinity=v, V_prime_infinity=v_prime,
                        k_infinity=k_inf, l_infinity=l_inf,
                        lattice_characters=tuple(LatticeCharacter(u, v)
                                                 for u, v in angles))
