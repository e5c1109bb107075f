"""Finite-dimensional unitary representations of the Bianchi groups.

Supported representations either are trivial or factor through the finite
quotient PSL(2, O/q) of a congruence ideal (q).  That restriction is what
makes exact evaluation possible on any enumerated matrix: no word problem,
just reduction mod q and a finite lookup.  One-dimensional characters are
found from the abelianized quotient and carry exact phase angles; higher
dimensions are supplied as generator-image tables and closed by breadth
first search over the quotient.

A third kind, "cusp-local", is defined only on the stabilizer of infinity
(needed for singular-space examples where no congruence character has the
requested torsion value).  Its evaluator raises outside that subgroup.

Character values of order dividing 6 are also carried exactly as elements
a + b*omega of Q(omega), which is what downstream rational identities
consume.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .arithmetic_group import (
    GroupDescriptor,
    GroupElement,
    StabilizerData,
    stabilizer_data,
)
from .lattice_lfn import LatticeCharacter
from .rings import Pair, Ring

UNITARY_TOL = 1e-12
DIAG_TOL = 1e-10
SNAP_TOL = 1e-8


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

    def __sub__(self, other: "CyclotomicValue") -> "CyclotomicValue":
        return CyclotomicValue(self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        if isinstance(other, CyclotomicValue):
            # omega^2 = -1 - omega
            cross = self.b * other.b
            return CyclotomicValue(self.a * other.a - cross,
                                   self.a * other.b + self.b * other.a - cross)
        return CyclotomicValue(self.a * other, self.b * other)

    __rmul__ = __mul__

    def __neg__(self):
        return CyclotomicValue(-self.a, -self.b)

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def rational_part(self) -> Fraction:
        """The value as a rational; raises if omega survives."""
        if self.b != 0:
            raise ValueError(f"{self} is irrational")
        return self.a

    def to_complex(self) -> complex:
        return complex(self.a) + complex(self.b) * complex(-0.5, math.sqrt(3.0) / 2.0)

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


def snap_unit_angle(z: complex, tol: float = SNAP_TOL,
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
    """dim, evaluator M -> unitary matrix, and optional exact phase data.

    kind is "trivial", "congruence", "cusp-local", or "sum".  For 1-dim
    representations with snapped finite-order values, exact_angle maps an
    element to the Fraction a with chi(M) = exp(2 pi i a).
    """

    def __init__(self, dim: int, kind: str,
                 evaluator: Callable[[GroupElement], np.ndarray], *,
                 exact_angle: Optional[Callable[[GroupElement], Fraction]] = None,
                 label: str = ""):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = dim
        self.kind = kind
        self._evaluator = evaluator
        self._exact_angle = exact_angle
        self.label = label or kind

    def __call__(self, M: GroupElement) -> np.ndarray:
        out = np.asarray(self._evaluator(M), dtype=complex)
        if out.shape != (self.dim, self.dim):
            raise ValueError(f"evaluator returned shape {out.shape}")
        return out

    def trace(self, M: GroupElement) -> complex:
        return complex(np.trace(self(M)))

    def exact_trace(self, M: GroupElement) -> Optional[CyclotomicValue]:
        """Trace as an exact Q(omega) element when available."""
        if self.kind == "trivial":
            return CyclotomicValue.from_rational(self.dim)
        if self._exact_angle is not None:
            return CyclotomicValue.from_angle(self._exact_angle(M))
        return None

    def angle(self, M: GroupElement) -> Optional[Fraction]:
        if self._exact_angle is None:
            return None
        return self._exact_angle(M)

    def __repr__(self):
        return f"UnitaryRep(dim={self.dim}, kind={self.kind!r}, label={self.label!r})"


def trivial_rep(ring: Ring, dim: int = 1) -> UnitaryRep:
    eye = np.eye(dim, dtype=complex)

    def evaluator(M: GroupElement) -> np.ndarray:
        if M.ring.name != ring.name:
            raise ValueError("element from the wrong ring")
        return eye

    return UnitaryRep(dim, "trivial", evaluator,
                      exact_angle=(lambda M: Fraction(0)) if dim == 1 else None,
                      label=f"trivial({dim})")


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

    return UnitaryRep(dim, "sum", evaluator,
                      label="+".join(r.label for r in reps))


def verify_unitary_rep(rep: UnitaryRep,
                       elements: Sequence[GroupElement]) -> dict:
    """Sampled homomorphism/unitarity residuals; all should sit at 1e-12."""
    rng = np.random.default_rng(7)
    elements = list(elements)
    hom = 0.0
    uni = 0.0
    for _ in range(40):
        M = elements[rng.integers(len(elements))]
        N = elements[rng.integers(len(elements))]
        a, b = rep(M), rep(N)
        hom = max(hom, float(np.max(np.abs(rep(M * N) - a @ b))))
        uni = max(uni, float(np.max(np.abs(a @ a.conj().T - np.eye(rep.dim)))))
    return {"homomorphism": hom, "unitarity": uni}


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

    def add(self, x: Pair, y: Pair) -> Pair:
        return self.reduce(self.ring.add(x, y))

    def sub(self, x: Pair, y: Pair) -> Pair:
        return self.reduce(self.ring.sub(x, y))

    def mul(self, x: Pair, y: Pair) -> Pair:
        return self.reduce(self.ring.mul(x, y))

    def neg(self, x: Pair) -> Pair:
        return self.reduce(self.ring.neg(x))

    def elements(self) -> tuple:
        if self._elements is None:
            self._elements = tuple((x, y) for x in range(self._d1)
                                   for y in range(self._d2))
        return self._elements

    def inverse(self, x: Pair) -> Optional[Pair]:
        x = self.reduce(x)
        one = self.reduce((1, 0))
        for y in self.elements():
            if self.mul(x, y) == one:
                return y
        return None


class CongruenceQuotient:
    """PSL(2, O/q): canonical keys, multiplication, and the reduction map.

    Keys are 8-integer tuples of residue coordinates, canonicalized over
    the central +-I just like GroupElement does over O.
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
                        det = self.residues.sub(
                            self.residues.mul(a, d), self.residues.mul(b, c))
                        if det == one:
                            keys.add(self._canonical((a, b, c, d)))
        self.element_keys = tuple(sorted(keys))
        self.identity_key = self._canonical(
            (one, self.residues.reduce((0, 0)), self.residues.reduce((0, 0)), one))

    def _canonical(self, quad) -> tuple:
        flat = tuple(v for p in quad for v in p)
        neg = tuple(v for p in quad for v in self.residues.neg(p))
        return min(flat, neg)

    @staticmethod
    def _unflatten(key) -> tuple:
        return ((key[0], key[1]), (key[2], key[3]), (key[4], key[5]), (key[6], key[7]))

    def order(self) -> int:
        return len(self.element_keys)

    def reduce_element(self, M: GroupElement) -> tuple:
        if M.ring.name != self.ring.name:
            raise ValueError("element from the wrong ring")
        return self._canonical(tuple(self.residues.reduce(p) for p in M.entries()))

    def multiply(self, k1: tuple, k2: tuple) -> tuple:
        a1, b1, c1, d1 = self._unflatten(k1)
        a2, b2, c2, d2 = self._unflatten(k2)
        r = self.residues
        return self._canonical((
            r.add(r.mul(a1, a2), r.mul(b1, c2)),
            r.add(r.mul(a1, b2), r.mul(b1, d2)),
            r.add(r.mul(c1, a2), r.mul(d1, c2)),
            r.add(r.mul(c1, b2), r.mul(d1, d2)),
        ))

    def invert(self, k: tuple) -> tuple:
        a, b, c, d = self._unflatten(k)
        r = self.residues
        return self._canonical((d, r.neg(b), r.neg(c), a))

    def element_order(self, k: tuple) -> int:
        n = 1
        cur = k
        while cur != self.identity_key:
            cur = self.multiply(cur, k)
            n += 1
            if n > 4 * len(self.element_keys):
                raise AssertionError("order computation ran away")
        return n

    def commutator_subgroup(self) -> frozenset:
        seed = {self.identity_key}
        for x in self.element_keys:
            xi = self.invert(x)
            for y in self.element_keys:
                seed.add(self.multiply(self.multiply(x, y),
                                       self.multiply(xi, self.invert(y))))
        # close under multiplication (finite, so inverses come for free)
        closed = set(seed)
        frontier = list(seed)
        while frontier:
            nxt = []
            for x in frontier:
                for y in seed:
                    z = self.multiply(x, y)
                    if z not in closed:
                        closed.add(z)
                        nxt.append(z)
            frontier = nxt
        return frozenset(closed)

    def abelianization(self):
        """(coset representative map, list of coset reps, coset multiply)."""
        K = self.commutator_subgroup()
        rep_of = {}
        for x in self.element_keys:
            if x in rep_of:
                continue
            coset = sorted(self.multiply(x, k) for k in K)
            lead = coset[0]
            for member in coset:
                rep_of[member] = lead
        reps = sorted(set(rep_of.values()))

        def mul(u, v):
            return rep_of[self.multiply(u, v)]

        return rep_of, reps, mul


def _abelian_characters(reps, mul, identity_rep, element_order):
    """All Fraction-angle characters of a small abelian group.

    Greedy generating sequence, then exhaustive root-of-unity assignment
    with consistency checked by extension over the whole group.
    """
    gens = []
    span = {identity_rep}
    remaining = [r for r in reps if r not in span]
    while remaining:
        g = max(remaining, key=element_order)
        gens.append(g)
        new_span = set(span)
        for s in list(span):
            cur = s
            while True:
                cur = mul(cur, g)
                if cur in new_span:
                    break
                new_span.add(cur)
        # grow until closed under all chosen generators
        changed = True
        while changed:
            changed = False
            for s in list(new_span):
                for h in gens:
                    t = mul(s, h)
                    if t not in new_span:
                        new_span.add(t)
                        changed = True
        span = new_span
        remaining = [r for r in reps if r not in span]
    orders = [element_order(g) for g in gens]

    found = {}

    def assign(idx, partial):
        if idx == len(gens):
            # extend over the group by BFS; reject inconsistent assignments
            angles = {identity_rep: Fraction(0)}
            frontier = [identity_rep]
            while frontier:
                nxt = []
                for x in frontier:
                    for g, ag in partial.items():
                        y = mul(x, g)
                        ay = (angles[x] + ag) % 1
                        if y not in angles:
                            angles[y] = ay
                            nxt.append(y)
                        elif angles[y] != ay:
                            return
                frontier = nxt
            if len(angles) == len(reps):
                found[tuple(sorted(angles.items()))] = angles
            return
        g, d = gens[idx], orders[idx]
        for e in range(d):
            partial[g] = Fraction(e, d)
            assign(idx + 1, dict(partial))

    assign(0, {})
    return list(found.values())


def quotient_characters(quotient: CongruenceQuotient):
    """Fraction-angle characters of PSL(2, O/q), as maps on coset reps."""
    rep_of, reps, mul = quotient.abelianization()

    def coset_order(r):
        n = 1
        cur = r
        while cur != rep_of[quotient.identity_key]:
            cur = mul(cur, r)
            n += 1
        return n

    chars = _abelian_characters(reps, mul, rep_of[quotient.identity_key], coset_order)
    return rep_of, chars


def find_character(group: GroupDescriptor, modulus: Pair,
                   on_R: complex, on_S: complex, on_E: complex) -> UnitaryRep:
    """The 1-dim congruence character mod (q) with the requested values.

    Values are matched within 1e-9 on the images of the three stabilizer
    generators.  Raises if no character matches, or if the match does not
    pin the character down (possible only when those images fail to
    generate the abelianized quotient).
    """
    stab = stabilizer_data(group)
    quotient = CongruenceQuotient(group.ring, modulus)
    rep_of, chars = quotient_characters(quotient)
    targets = {"R": (stab.R, complex(on_R)), "S": (stab.S, complex(on_S)),
               "E": (stab.E, complex(on_E))}
    matches = []
    for angles in chars:
        ok = True
        for _, (elem, want) in targets.items():
            got = cmath.exp(2j * math.pi *
                            float(angles[rep_of[quotient.reduce_element(elem)]]))
            if not abs(got - want) <= 1e-9:  # a NaN target matches nothing
                ok = False
                break
        if ok:
            matches.append(angles)
    if not matches:
        shown = sorted({tuple(a[rep_of[quotient.reduce_element(e)]]
                              for e, _ in targets.values())
                        for a in chars})
        raise ValueError(
            f"no congruence character mod {tuple(modulus)} takes those values; "
            f"available (R,S,E) angle triples: {shown}")
    if len(matches) > 1:
        raise ValueError("generator values do not determine the character")
    angles = matches[0]

    def exact_angle(M: GroupElement) -> Fraction:
        return angles[rep_of[quotient.reduce_element(M)]]

    def evaluator(M: GroupElement) -> np.ndarray:
        return np.array([[cmath.exp(2j * math.pi * float(exact_angle(M)))]])

    return UnitaryRep(1, "congruence", evaluator, exact_angle=exact_angle,
                      label=f"congruence-character mod {tuple(modulus)}")


def congruence_table_rep(group: GroupDescriptor, modulus: Pair,
                         generator_images: Sequence[tuple],
                         label: str = "") -> UnitaryRep:
    """Representation of PSL(2, O/q) from images of generating elements.

    generator_images: (GroupElement, unitary ndarray) pairs.  The table is
    closed by BFS; a collision that disagrees beyond 1e-10 means the
    images violate the quotient relations, and an unreached element means
    the given elements do not generate.
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
        if np.max(np.abs(image @ image.conj().T - np.eye(dim))) > UNITARY_TOL * 10:
            raise ValueError("generator image is not unitary")
        k = quotient.reduce_element(elem)
        gens.append((k, image))
        gens.append((quotient.invert(k), image.conj().T))

    table = {quotient.identity_key: np.eye(dim, dtype=complex)}
    frontier = [quotient.identity_key]
    while frontier:
        nxt = []
        for x in frontier:
            for gk, gim in gens:
                y = quotient.multiply(x, gk)
                cand = table[x] @ gim
                if y not in table:
                    table[y] = cand
                    nxt.append(y)
                elif np.max(np.abs(table[y] - cand)) > DIAG_TOL:
                    raise ValueError(
                        "generator images do not satisfy the quotient relations")
        frontier = nxt
    if len(table) != quotient.order():
        raise ValueError(
            f"generators reach {len(table)} of {quotient.order()} quotient elements")

    def evaluator(M: GroupElement) -> np.ndarray:
        return table[quotient.reduce_element(M)]

    return UnitaryRep(dim, "congruence", evaluator,
                      label=label or f"congruence-table mod {tuple(modulus)}")


# ---------------------------------------------------------------------------
# cusp-local characters

def _translation_coordinates(T: GroupElement, stab: StabilizerData):
    """(m, n) with T = translation by m + n*tau, or None."""
    if T.c != (0, 0) or T.a != (1, 0) or T.d != (1, 0):
        return None
    if stab.tau_pair != (0, 1):
        raise NotImplementedError("cusp lattice basis other than (1, generator)")
    return T.b  # coordinates in the (1, ring generator) basis


def _conjugation_exponents(stab: StabilizerData, T: GroupElement):
    conj = stab.E * T * stab.E.inv()
    coords = _translation_coordinates(conj, stab)
    if coords is None:
        raise AssertionError("torsion conjugate left the translation subgroup")
    return coords


def cusp_local_character(group: GroupDescriptor, on_R: complex, on_S: complex,
                         on_E: complex) -> UnitaryRep:
    """Character of the full cusp stabilizer <R, S, E> only.

    The three values must satisfy the stabilizer relations (the torsion
    conjugation action on translations, and the order of E); these are
    derived from the group data, not hard-coded.  The evaluator raises on
    elements outside the stabilizer.
    """
    stab = stabilizer_data(group)
    vals = {}
    for name, v in (("R", on_R), ("S", on_S), ("E", on_E)):
        ang = snap_unit_angle(complex(v), max_den=48)
        if ang is None:
            raise ValueError(f"value for {name} is not a snapped root of unity")
        vals[name] = ang

    aR, bR = _conjugation_exponents(stab, stab.R)
    aS, bS = _conjugation_exponents(stab, stab.S)
    checks = [
        ("E R E^-1 = R^%d S^%d" % (aR, bR),
         (vals["R"] - (aR * vals["R"] + bR * vals["S"])) % 1 == 0),
        ("E S E^-1 = R^%d S^%d" % (aS, bS),
         (vals["S"] - (aS * vals["R"] + bS * vals["S"])) % 1 == 0),
        ("E^%d = 1" % stab.torsion_order,
         (stab.torsion_order * vals["E"]) % 1 == 0),
    ]
    for relation, ok in checks:
        if not ok:
            raise ValueError(f"values violate the stabilizer relation {relation}")

    def exact_angle(M: GroupElement) -> Fraction:
        for j in range(stab.torsion_order):
            T = stab.E.power(-j) * M
            coords = _translation_coordinates(T, stab)
            if coords is not None:
                m, n = coords
                return (j * vals["E"] + m * vals["R"] + n * vals["S"]) % 1
        raise ValueError("element is outside the cusp stabilizer")

    def evaluator(M: GroupElement) -> np.ndarray:
        return np.array([[cmath.exp(2j * math.pi * float(exact_angle(M)))]])

    return UnitaryRep(1, "cusp-local", evaluator, exact_angle=exact_angle,
                      label=f"cusp-local(R={on_R}, S={on_S}, E={on_E})")


# ---------------------------------------------------------------------------
# singular subspaces and lattice restriction

@dataclass(frozen=True, eq=False)
class SingularData:
    """Cusp data of chi: V_infinity inside V_prime_infinity inside C^n."""

    V_infinity: np.ndarray         # (n, k) orthonormal columns
    V_prime_infinity: np.ndarray   # (n, l) orthonormal columns
    k_infinity: int
    l_infinity: int
    lattice_characters: tuple      # the first l_infinity are trivial


def _nullspace(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the right nullspace via SVD."""
    if mat.shape[0] == 0:
        return np.eye(mat.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(mat)
    rank = int(np.sum(s > DIAG_TOL))
    return vh[rank:].conj().T


def simultaneous_diagonalization(mats: Sequence[np.ndarray]):
    """Common unitary eigenbasis of commuting normal matrices.

    Random Hermitian combinations split degenerate clusters; failure after
    several attempts signals numerically non-normal or non-commuting input.
    Returns (U, [diag arrays]).
    """
    mats = [np.asarray(m, dtype=complex) for m in mats]
    n = mats[0].shape[0]
    for a in mats:
        for b in mats:
            if np.max(np.abs(a @ b - b @ a)) > DIAG_TOL * 10:
                raise ValueError("matrices do not commute within tolerance")
    rng = np.random.default_rng(20240917)
    for _ in range(8):
        w = rng.standard_normal(2 * len(mats))
        h = np.zeros((n, n), dtype=complex)
        for j, m in enumerate(mats):
            h += w[2 * j] * (m + m.conj().T) + w[2 * j + 1] * (m - m.conj().T) / 1j
        _, u = np.linalg.eigh(h)
        diags = []
        ok = True
        for m in mats:
            t = u.conj().T @ m @ u
            off = t - np.diag(np.diag(t))
            if np.max(np.abs(off)) > DIAG_TOL:
                ok = False
                break
            diags.append(np.diag(t).copy())
        if ok:
            return u, diags
    raise RuntimeError("simultaneous diagonalization failed; input not normal?")


def _snap_or_float(z: complex):
    ang = snap_unit_angle(z)
    if ang is not None:
        return ang
    return cmath.phase(z) / (2.0 * math.pi) % 1.0


def restrict_to_lattice(chi: UnitaryRep, stab: StabilizerData):
    """The n lattice characters of chi restricted to the cusp translations.

    chi(R) and chi(S) commute; in a joint eigenbasis the l-th eigenvector
    carries psi_l(m + n tau) = lam_R^m lam_S^n.  Characters whose pair is
    trivial are listed first, matching the split used by the parabolic
    contribution.
    """
    a_r, a_s = chi(stab.R), chi(stab.S)
    _, (d_r, d_s) = simultaneous_diagonalization([a_r, a_s])
    chars = [LatticeCharacter(_snap_or_float(lr), _snap_or_float(ls))
             for lr, ls in zip(d_r, d_s)]
    trivial = [c for c in chars if c.is_trivial]
    rest = sorted((c for c in chars if not c.is_trivial),
                  key=lambda c: (float(c.u), float(c.v)))
    return trivial + rest


def singular_spaces(chi: UnitaryRep, stab: StabilizerData) -> SingularData:
    """V'_infinity (translations-fixed) and V_infinity (stabilizer-fixed).

    Checks that chi(E) preserves V'_infinity (it must, since the torsion
    generator normalizes the translations) and that its restriction there
    is unitary with unimodular eigenvalues.
    """
    n = chi.dim
    a_r, a_s, a_e = chi(stab.R), chi(stab.S), chi(stab.E)
    for name, m in (("R", a_r), ("S", a_s), ("E", a_e)):
        if np.max(np.abs(m @ m.conj().T - np.eye(n))) > UNITARY_TOL * 10:
            raise ValueError(f"chi({name}) is not unitary")

    eye = np.eye(n, dtype=complex)
    p = _nullspace(np.vstack([a_r - eye, a_s - eye]))
    l_inf = p.shape[1]

    if l_inf:
        resid = (eye - p @ p.conj().T) @ (a_e @ p)
        if np.max(np.abs(resid)) > DIAG_TOL:
            raise ValueError("chi(E) does not preserve V'_infinity; invalid chi")
        b = p.conj().T @ a_e @ p
        evals = np.linalg.eigvals(b)
        if np.max(np.abs(np.abs(evals) - 1.0)) > DIAG_TOL:
            raise ValueError("restricted torsion action has non-unimodular spectrum")
        v_inf = p @ _nullspace(b - np.eye(l_inf))
    else:
        v_inf = np.zeros((n, 0), dtype=complex)
    k_inf = v_inf.shape[1]

    chars = tuple(restrict_to_lattice(chi, stab))
    n_trivial = sum(1 for c in chars if c.is_trivial)
    if n_trivial != l_inf:
        raise RuntimeError(
            f"lattice restriction found {n_trivial} trivial characters, "
            f"but dim V'_infinity = {l_inf}")
    if not 0 <= k_inf <= l_inf <= n:
        raise AssertionError("singular dimensions out of order")
    return SingularData(V_infinity=v_inf, V_prime_infinity=p,
                        k_infinity=k_inf, l_infinity=l_inf,
                        lattice_characters=chars)
