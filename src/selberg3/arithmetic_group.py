"""Exact PSL(2, O) machinery for the Gaussian and Eisenstein integers.

Elements are determinant-1 matrices over the ring, identified with their
negatives.  The module provides deterministic enumeration by entry norm,
trace-based classification, cusp-stabilizer generators, cuspidal-elliptic
conjugacy classes, and the reduction of loxodromic elements to primitive
classes with their axis torsion.

Conventions.  The canonical representative of {M, -M} makes the first
nonzero entry of (a, b, c, d) have argument in (-pi/2, pi/2].  The cusp at
infinity has stabilizer {[[eps, eps*w], [0, eps^-1]]} with w in the ring
and eps a power of a fixed root of unity; the torsion-free part is the
translation lattice Z + Z*tau with tau = i resp. omega.  An elliptic
element has trace t in {0, +-1}, which fixes its order (2 resp. 3), and it
is cuspidal iff both boundary fixed points lie in K = Q(sqrt D), that is
iff the integer (t^2 - 4) D is a perfect square.  This criterion
identifies the cusp set with the projective line over the field, which is
valid for rings of class number one only; get_group offers the two above.
The axis torsion E_T of a loxodromic T0 acts on T0's expanding line by a
root of unity mu with mu + 1/mu = tr E_T, so its angle takes the trace
and the sign of one float whose size is at least sqrt(3).
"""
from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .geometry import MoebiusMatrix
from .rings import EISENSTEIN, GAUSSIAN, Pair, Ring

DEFAULT_ELEMENT_CAP = 3_000_000
# (a, d, b) triples broadcast at once by the enumeration
_ENUM_CHUNK = 1 << 14


class EnumerationCapError(RuntimeError):
    """Raised when an enumeration would exceed the configured element cap."""


class CompletenessError(RuntimeError):
    """Raised when an enumeration bound cannot certify class completeness."""


def _kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d/n) for n >= 1: chi_D(n) when d = D."""
    sign = 1
    while n % 2 == 0:
        n //= 2
        sign *= 0 if d % 2 == 0 else 1 if d % 8 in (1, 7) else -1
    a = d % n  # the Jacobi symbol (a/n), n odd, by reciprocity
    while a:
        while a % 2 == 0:
            a //= 2
            sign *= -1 if n % 8 in (3, 5) else 1
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


@functools.cache
def _unit_volume(ring: Ring) -> float:
    # Humbert's covolume |D|^(3/2) zeta_K(2) / (4 pi^2), with the quadratic
    # L-value through trigamma values, so no decimal literal is needed:
    # L(2, chi_D) = D^-2 sum over a = 1..|D| with chi_D(a) != 0, ascending,
    # of chi_D(a) psi1(a/|D|).  Cached, so every read returns the same
    # float; only the trace formula reads it, hence the local import.
    from .quadrature import trigamma
    d = -ring.field_disc
    lval = sum(chi * trigamma(a / d) for a in range(1, d + 1)
               if (chi := _kronecker(-d, a))) / d ** 2
    return float(d ** 1.5 * (math.pi ** 2 / 6.0) * lval / (4.0 * math.pi ** 2))


@dataclass(frozen=True)
class GroupDescriptor:
    """PSL(2, O) for a ring O of class number one, with its cusp at infinity.

    The translations at infinity form the lattice O = Z + Z u itself, and
    the stabilizer adds diag(eps, eps^-1) for each unit eps, so the cusp
    data are read from the ring.
    """

    name: str
    ring: Ring
    epsilon_pair: Pair         # diagonal entry of the torsion generator E
    tau_pair = (0, 1)          # u, as in the cusp lattice Z + Z u; not a field

    @property
    def tau(self) -> complex:
        """The embedding of tau_pair."""
        return self.ring.to_complex(self.tau_pair)

    @property
    def index(self) -> int:
        """[stabilizer : translation part] at infinity: units modulo +-1."""
        return len(self.ring.units) // 2

    @property
    def volume(self) -> float:
        """Hyperbolic covolume of the quotient."""
        return _unit_volume(self.ring)

    def __repr__(self):
        return f"GroupDescriptor({self.name})"


PICARD = GroupDescriptor(name="picard", ring=GAUSSIAN, epsilon_pair=(0, 1))
EISENSTEIN_GROUP = GroupDescriptor(name="eisenstein", ring=EISENSTEIN,
                                   epsilon_pair=(-1, -1))

GROUPS = {"picard": PICARD, "eisenstein": EISENSTEIN_GROUP}


def get_group(name: str) -> GroupDescriptor:
    try:
        return GROUPS[name]
    except KeyError:
        raise ValueError(f"unsupported group {name!r}; expected one of {sorted(GROUPS)}")


def _canonical_entries(ring: Ring, a: Pair, b: Pair, c: Pair, d: Pair):
    """Fix the sign of {M, -M}: first nonzero entry gets argument in (-pi/2, pi/2]."""
    for e in (a, b, c, d):
        if e != (0, 0):
            r2 = ring.real2(e)
            if r2 > 0 or (r2 == 0 and e[1] > 0):
                return a, b, c, d
            return ring.neg(a), ring.neg(b), ring.neg(c), ring.neg(d)
    raise ValueError("zero matrix")


class GroupElement:
    """Determinant-1 matrix over the ring, modulo +-I, with exact entries."""

    __slots__ = ("ring", "a", "b", "c", "d", "_hash")

    def __init__(self, ring: Ring, a: Pair, b: Pair, c: Pair, d: Pair, *, _checked=False):
        a, b, c, d = _canonical_entries(ring, a, b, c, d)
        if not _checked:
            det = ring.sub(ring.mul(a, d), ring.mul(b, c))
            if det != (1, 0):
                raise ValueError(f"determinant is {det}, not 1")
        self.ring = ring
        self.a, self.b, self.c, self.d = a, b, c, d
        self._hash = hash((ring.name, a, b, c, d))

    # -- structure ---------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, GroupElement)
                and self.ring.name == other.ring.name
                and (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"

    def key(self) -> tuple:
        """Deterministic 8-integer sort key."""
        return (*self.a, *self.b, *self.c, *self.d)

    def entries(self):
        return self.a, self.b, self.c, self.d

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        r = self.ring
        return GroupElement(
            r,
            r.add(r.mul(self.a, other.a), r.mul(self.b, other.c)),
            r.add(r.mul(self.a, other.b), r.mul(self.b, other.d)),
            r.add(r.mul(self.c, other.a), r.mul(self.d, other.c)),
            r.add(r.mul(self.c, other.b), r.mul(self.d, other.d)),
            _checked=True,
        )

    def inv(self) -> "GroupElement":
        r = self.ring
        return GroupElement(r, self.d, r.neg(self.b), r.neg(self.c), self.a, _checked=True)

    def conjugate_by(self, g: "GroupElement") -> "GroupElement":
        return g * self * g.inv()

    def trace(self) -> Pair:
        """Trace of the canonical representative (defined up to sign)."""
        return self.ring.add(self.a, self.d)

    def is_identity(self) -> bool:
        return self.b == (0, 0) and self.c == (0, 0) and self.a == (1, 0)

    def to_moebius(self) -> MoebiusMatrix:
        r = self.ring
        return MoebiusMatrix.make(
            r.to_complex(self.a), r.to_complex(self.b),
            r.to_complex(self.c), r.to_complex(self.d),
        )


def identity(ring: Ring) -> GroupElement:
    return GroupElement(ring, (1, 0), (0, 0), (0, 0), (1, 0), _checked=True)


def from_ints(ring: Ring, rows: Sequence[Sequence[int]]) -> GroupElement:
    """Build an element from ((ax,ay),(bx,by)),((cx,cy),(dx,dy)) style input."""
    (a, b), (c, d) = rows
    return GroupElement(ring, tuple(a), tuple(b), tuple(c), tuple(d))


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class ElementClassification:
    kind: str                      # identity | parabolic | elliptic | loxodromic
    order: Optional[int] = None    # elliptic only
    cuspidal: Optional[bool] = None
    a: Optional[complex] = None         # loxodromic eigenvalue, |a| > 1
    norm: Optional[float] = None        # N(T) = |a|^2


def _is_torsion(g: GroupElement) -> bool:
    """Identity or elliptic: finite order in PSL(2, O)."""
    t = g.trace()
    return g.is_identity() or (t[1] == 0 and abs(t[0]) < 2)


def _elliptic_order(T: GroupElement) -> int:
    """Order mod +-I of a torsion element, from its trace 2 cos(pi k/m):
    1 for the identity, 2 for trace 0 and 3 for trace +-1."""
    if not _is_torsion(T):
        raise ValueError(f"trace {T.trace()} is not that of a torsion element")
    return 1 if T.is_identity() else 3 if T.trace()[0] else 2


def classify(T: GroupElement) -> ElementClassification:
    r = T.ring
    t = T.trace()
    if T.is_identity():
        return ElementClassification(kind="identity")
    if r.mul(t, t) == (4, 0):
        return ElementClassification(kind="parabolic")
    if _is_torsion(T):
        # the fixed points (a - d +- sqrt(t^2 - 4)) / 2c lie in K = Q(sqrt D)
        # iff the integer (t^2 - 4) D is a perfect square
        disc = (t[0] * t[0] - 4) * r.field_disc
        return ElementClassification(kind="elliptic", order=_elliptic_order(T),
                                     cuspidal=math.isqrt(disc) ** 2 == disc)
    tc = r.to_complex(t)
    root = (tc * tc - 4.0) ** 0.5
    lam = (tc + root) / 2.0
    if abs(lam) < 1.0:
        lam = (tc - root) / 2.0
    return ElementClassification(kind="loxodromic", a=lam, norm=abs(lam) ** 2)


# ---------------------------------------------------------------------------
# enumeration


def _is_canonical(rows: np.ndarray, ring: Ring) -> np.ndarray:
    """`_canonical_entries`' sign rule on (K, 8) coordinate rows: does the
    first nonzero entry have argument in (-pi/2, pi/2]?"""
    x, y = rows[:, 0::2], rows[:, 1::2]
    first = np.argmax((x != 0) | (y != 0), axis=1)[:, None]
    x, y = (np.take_along_axis(v, first, axis=1)[:, 0] for v in (x, y))
    r2 = ring.real2((x, y))
    return (r2 > 0) | ((r2 == 0) & (y > 0))


def _candidate_rows(r: Ring, height: int):
    """(K, 8) blocks of the determinant-1 rows with entries in {0} + B, B
    the nonzero entries of norm <= height, each row with both signs.

    A row with b = 0 has a unit a, d = a^-1 = conj(a) and any c.  A row
    with b != 0 has b | q = a d - 1 and c = q / b, so every (a, d) pair is
    broadcast against every b in B, and b divides q exactly when
    q conj(b) = 0 mod N(b) coordinatewise; the pairs are taken
    _ENUM_CHUNK / len(B) at a time.
    """
    ball = np.array(r.elements_with_norm_le(height), dtype=np.int64)
    b = (ball[:, 0], ball[:, 1])
    b_conj, nb = r.conj(b), r.norm(b)
    entries = np.concatenate([np.zeros((1, 2), dtype=np.int64), ball])

    units = np.array(r.units, dtype=np.int64)
    lower = np.zeros((len(units), len(entries), 8), dtype=np.int64)
    lower[:, :, 0:2] = units[:, None]
    lower[:, :, 4:6] = entries
    lower[:, :, 6:8] = np.stack(r.conj((units[:, 0], units[:, 1])),
                                axis=1)[:, None]
    yield lower.reshape(-1, 8)

    a_idx, d_idx = (v.ravel() for v in np.indices((len(entries),) * 2))
    step = max(1, _ENUM_CHUNK // len(ball))
    for start in range(0, len(a_idx), step):
        a, d = (entries[i[start:start + step]] for i in (a_idx, d_idx))
        qx, qy = r.mul((a[:, :1], a[:, 1:]), (d[:, :1], d[:, 1:]))
        px, py = r.mul((qx - 1, qy), b_conj)
        pair, bi = np.nonzero((px % nb == 0) & (py % nb == 0))
        c = np.stack([px[pair, bi], py[pair, bi]], axis=1) // nb[bi, None]
        keep = r.norm((c[:, 0], c[:, 1])) <= height
        pair, bi = pair[keep], bi[keep]
        yield np.concatenate([a[pair], ball[bi], c[keep], d[pair]], axis=1)


def enumerate_elements(group: GroupDescriptor, height: int,
                       cap: int = DEFAULT_ELEMENT_CAP) -> list[GroupElement]:
    """All determinant-1 matrices mod +-I with every entry norm <= height.

    Array code: `_candidate_rows` finds every matrix as the pair M, -M,
    and the rows that pass the sign rule keep each element once, so no
    set is needed.  EnumerationCapError is raised as soon as more than
    `cap` elements are found.  Deterministic: the rows are sorted by the
    8-integer entry key before the GroupElements are built.
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    r = group.ring
    kept, found = [], 0
    for block in _candidate_rows(r, height):
        kept.append(block[_is_canonical(block, r)])
        found += len(kept[-1])
        if found > cap:
            raise EnumerationCapError(
                f"element cap {cap} exceeded at height {height}")
    rows = np.concatenate(kept)
    rows = rows[np.lexsort(rows.T[::-1])]
    return [GroupElement(r, (ax, ay), (bx, by), (cx, cy), (dx, dy),
                         _checked=True)
            for ax, ay, bx, by, cx, cy, dx, dy in rows.tolist()]


# ---------------------------------------------------------------------------
# stabilizer of the cusp at infinity


@dataclass(frozen=True)
class StabilizerData:
    R: GroupElement            # translation by 1
    S: GroupElement            # translation by tau
    E: GroupElement            # torsion generator diag(eps, eps^-1)


def stabilizer_data(group: GroupDescriptor) -> StabilizerData:
    r = group.ring
    one = (1, 0)
    R = GroupElement(r, one, one, (0, 0), one)
    S = GroupElement(r, one, group.tau_pair, (0, 0), one)
    eps = group.epsilon_pair
    eps_inv = r.conj(eps)  # unit: inverse equals conjugate
    E = GroupElement(r, eps, (0, 0), (0, 0), eps_inv)

    # exact structure checks
    if R * S != S * R:
        raise AssertionError("translation generators fail to commute")
    order = _elliptic_order(E)   # order of E mod +-I, the cusp index
    if order != group.index:
        raise AssertionError(f"torsion order {order} != index {group.index}")
    comm = E * R * E.inv() * R.inv()
    if comm.c != (0, 0) or r.mul(comm.a, comm.a) != (1, 0):
        raise AssertionError("E R E^-1 R^-1 left the translation subgroup")
    return StabilizerData(R=R, S=S, E=E)


# ---------------------------------------------------------------------------
# axes and conjugacy keys


def axis_key(T: GroupElement) -> tuple:
    """Exact key for the fixed-point pair of T on the boundary.

    The fixed points solve c z^2 + (d - a) z - b = 0, so the projective
    triple v = (c, d-a, -b) over K pins down the unordered pair.  Scaling v
    by the conjugate of its first nonzero entry v_k turns that entry into
    the positive integer N(v_k), and dividing the six integer coordinates
    by their gcd leaves one primitive vector for the whole line K^x v: a
    scalar lam multiplies v conj(v_k) by the positive rational N(lam).
    """
    r = T.ring
    v = (T.c, r.sub(T.d, T.a), r.neg(T.b))
    lead = r.conj(next(x for x in v if x != (0, 0)))
    flat = [c for x in v for c in r.mul(x, lead)]
    g = math.gcd(*flat)
    return tuple(c // g for c in flat)


def trace_class_key(T: GroupElement) -> tuple:
    """Trace modulo sign, a conjugacy invariant of the element mod +-I.

    Complex conjugation is not inner, so traces that differ other than by
    sign separate classes and are not folded together.
    """
    t = T.trace()
    return min(t, T.ring.neg(t))


# ---------------------------------------------------------------------------
# vectorized exact conjugation

# coordinates of g^-1 = [[d, -b], [-c, a]] read from g's key() order
_INV_ORDER = [6, 7, 2, 3, 4, 5, 0, 1]
_INV_SIGN = np.array([1, 1, -1, -1, -1, -1, 1, 1], dtype=np.int64)
_INT64_SAFE = 1 << 62
# image keys (leads x conjugators) and candidate images, whose maps are 64
# coordinates each, held at once by _conjugate_hits
_MERGE_CHUNK = 1 << 15
_RECHECK_CHUNK = _MERGE_CHUNK // 64
# slots of _conjugate_hits' table of the member keys' low bits; it spares
# searchsorted most image keys and halves the Eisenstein h6 and h12 merges
_KEY_BITS = 1 << 16


def element_array(elements: Iterable[GroupElement]) -> np.ndarray:
    """(N, 8) int64 array of the elements' key() coordinates."""
    return np.array([g.key() for g in elements], dtype=np.int64).reshape(-1, 8)


def _mat_mul(r: Ring, m: tuple, n: tuple) -> tuple:
    """2x2 product over the ring; entries are pairs of broadcastable arrays."""
    a, b, c, d = m
    e, f, g, h = n
    return (r.add(r.mul(a, e), r.mul(b, g)), r.add(r.mul(a, f), r.mul(b, h)),
            r.add(r.mul(c, e), r.mul(d, g)), r.add(r.mul(c, f), r.mul(d, h)))


def _entries(arr: np.ndarray) -> tuple:
    return tuple((arr[..., 2 * i], arr[..., 2 * i + 1]) for i in range(4))


class ConjugatorSet:
    """A conjugator list held once as one Z-linear map per conjugator.

    Conjugation T -> g T g^-1 is linear in T's 8 integer coordinates.  The
    (8, 8) map of g is built once, in exact int64 products by the ring's rule
    u^2 = u2_x + u2_y u: its row j is the image of the j-th unit coordinate
    row, so T @ map is g T g^-1 before the +-I sign rule.  `_conjugate_hits`
    folds its key packing into the maps and recomputes an image from its map
    only to confirm a key match.
    """

    def __init__(self, ring: Ring, elements: Iterable[GroupElement]):
        self.elements = list(elements)
        G = element_array(self.elements)
        g_max = int(np.abs(G).max(initial=0))
        # |coord| of a ring product <= k max|coord a| max|coord b|, so each
        # 2x2 product scales coordinates by at most 2k and a map entry is at
        # most 4 k^2 g_max^2; a column sums 8 of them
        k = max(1 + abs(ring.u2_x), 2 + abs(ring.u2_y))
        if 32 * k ** 2 * g_max ** 2 > _INT64_SAFE:
            raise ValueError(
                f"conjugator coordinates up to {g_max} overflow the int64 "
                f"conjugation maps")
        g = _entries(G[:, None, :])
        g_inv = _entries((G[:, _INV_ORDER] * _INV_SIGN)[:, None, :])
        unit = _entries(np.eye(8, dtype=np.int64)[None, :, :])
        out = _mat_mul(ring, _mat_mul(ring, g, unit), g_inv)
        # (N, 8, 8): T @ maps[n] is the image of T under conjugator n
        self._maps = np.stack([v for pair in out for v in pair], axis=-1)
        # |image coordinate| <= (largest absolute column sum) * max|T|
        self._scale = int(np.abs(self._maps).sum(axis=1).max(initial=0))

    def __len__(self):
        return len(self.elements)


def _conjugate_hits(conj: ConjugatorSet, leads: np.ndarray,
                    members: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """int32 (lead, conjugator, label) index triples: g lead g^-1 = member.

    leads and members are (K, 8) and (M, 8) coordinate rows of canonical
    elements, and labels holds one integer per member.  An image before the
    sign rule is +-m exactly when its canonical form is the member m, so
    the table holds m and -m, packed into sorted int64 keys
    (x + bound) @ powers with base 2 bound + 1, bound the largest member
    coordinate.  The packing is linear, so it folds into the conjugation
    maps: with K = maps @ powers, (8, N), one (L, 8) @ (8, N) product gives
    the keys of L leads' images.  Only the image keys whose low bits some
    member key shares go on to a binary search among the member keys.
    Image keys may wrap mod 2^64 and alias, but a member image's key is
    exact, so a key match is only a candidate: it is accepted when the
    image, recomputed from its map in int64, equals the member.  That is
    exact because a ValueError is raised first when scale * max|lead| could
    pass 2^62.  The keys of _MERGE_CHUNK // len(conj) leads, at least one,
    are held at a time, and _RECHECK_CHUNK candidate images.
    """
    t_max = int(np.abs(leads).max(initial=0))
    worst = conj._scale * t_max
    if worst > _INT64_SAFE:
        raise ValueError(
            f"conjugation coordinates may reach {worst}, beyond the int64 "
            f"range 2^62; entries are too large for the exact kernel")
    members = np.concatenate([members, -members])
    labels = np.concatenate([labels, labels])
    bound = int(np.abs(members).max(initial=0))
    base = 2 * bound + 1
    if base ** 8 > _INT64_SAFE:
        raise ValueError(f"coordinates up to {bound} do not pack into int64 keys")
    powers = base ** np.arange(7, -1, -1, dtype=np.int64)
    keys = (members + bound) @ powers
    order = np.argsort(keys)
    keys, members, labels = keys[order], members[order], labels[order]
    seen = np.zeros(_KEY_BITS, dtype=bool)
    seen[keys & (_KEY_BITS - 1)] = True
    # the key of T @ maps[n] is T @ key_maps[:, n] + offset, mod 2^64
    key_maps = np.ascontiguousarray((conj._maps @ powers).T)
    offset = bound * int(powers.sum())
    hits = [np.empty((0, 3), dtype=np.int32)]
    step = max(1, _MERGE_CHUNK // max(1, len(conj)))
    for start in range(0, len(leads), step):
        chunk = leads[start:start + step]
        img_keys = chunk @ key_maps
        img_keys += offset
        rows, cols = np.nonzero(seen[img_keys & (_KEY_BITS - 1)])
        img_keys = img_keys[rows, cols]
        pos = np.minimum(np.searchsorted(keys, img_keys), len(keys) - 1)
        match = keys[pos] == img_keys
        rows, cols, pos = rows[match], cols[match], pos[match]
        for i in range(0, len(rows), _RECHECK_CHUNK):
            part = slice(i, i + _RECHECK_CHUNK)
            row, col, at = rows[part], cols[part], pos[part]
            images = (chunk[row, None, :] @ conj._maps[col])[:, 0]
            exact = (images == members[at]).all(axis=1)
            hits.append(np.stack([start + row[exact], col[exact],
                                  labels[at[exact]]], axis=1, dtype=np.int32))
    return np.concatenate(hits)


def _components(n: int, lead: np.ndarray, label: np.ndarray) -> list[int]:
    """Root of each of n items linked by the pairs (lead, label): the least
    index in its component.

    Each pass lowers every item's root to the least root of its links and
    then jumps each root to its own root.  A root is always an item of the
    same component, so at the fixed point, where linked items agree and
    every root is its own root, each component holds its least index.
    """
    root = np.arange(n)
    while True:
        low = root.copy()
        np.minimum.at(low, lead, root[label])
        np.minimum.at(low, label, root[lead])
        low = low[low]
        if np.array_equal(low, root):
            return root.tolist()
        root = low


# ---------------------------------------------------------------------------
# cuspidal elliptic classes


@dataclass(frozen=True)
class CuspidalEllipticClass:
    representative: GroupElement   # [[eps, eps w], [0, eps^-1]]
    order: int
    centralizer_order: int
    one_minus_eps_sq_norm: int     # |1 - eps^2|^2, an integer
    c_norm: int                    # |c0|^2, c0 the lower-left entry of a
                                   # witness taking infinity to the fixed point

    @property
    def log_c(self) -> float:
        return 0.5 * math.log(float(self.c_norm))


def _candidate_w_values(group: GroupDescriptor) -> list[Pair]:
    """Translation parts covering every stabilizer class: w modulo (1 - eps^2)."""
    r = group.ring
    eps = group.epsilon_pair
    mod = r.sub((1, 0), r.mul(eps, eps))
    n = r.norm(mod)
    # residues modulo the principal ideal (1 - eps^2): scan a small box
    seen, reps = set(), []
    for x in range(-n, n + 1):
        for y in range(-n, n + 1):
            w = (x, y)
            _, rem = r.divmod_nearest(w, mod)
            if rem not in seen:
                seen.add(rem)
                reps.append(rem)
    reps.sort()
    return reps


def _witness_c_norm(r, p) -> int:
    """|c0|^2 for the lower-left entry c0 of a group element sending infinity
    to p, a field element (Fraction pair): in lowest terms p = a0/c0, and
    the primitive column (a0, c0) completes to determinant 1."""
    den = 1
    for coord in p:
        den = den * coord.denominator // math.gcd(den, coord.denominator)
    num = (int(p[0] * den), int(p[1] * den))
    return r.norm(r.exact_div((den, 0), r.gcd(num, (den, 0))))


def _centralizer_order(conj: ConjugatorSet, fixers: np.ndarray) -> int:
    """Number of conjugators that fix a class representative."""
    for i in fixers.tolist():
        if not _is_torsion(conj.elements[i]):
            raise CompletenessError(
                "infinite centralizer detected for a cuspidal elliptic class")
    return len(fixers)


def cuspidal_elliptic_classes(group: GroupDescriptor,
                              elements: Sequence[GroupElement]
                              ) -> list[CuspidalEllipticClass]:
    """Conjugacy classes of the non-parabolic, non-identity stabilizer elements.

    Candidates [[eps, eps w], [0, eps^-1]] are complete by construction
    (every class meets the stabilizer of infinity in this form); the list
    is then reduced by exact conjugator search inside the enumeration.
    The centralizer order is counted inside `elements`, so the enumeration
    must be deep enough to contain the full finite centralizers; the
    identity of the cuspidal-elliptic budget certifies this downstream.
    """
    return _cuspidal_elliptic_classes(group, ConjugatorSet(group.ring, elements))


def _cuspidal_elliptic_classes(group: GroupDescriptor, conj: ConjugatorSet
                               ) -> list[CuspidalEllipticClass]:
    r = group.ring
    # eps^1 .. eps^(index-1): the nontrivial diagonal stabilizer elements
    eps_powers = itertools.accumulate([group.epsilon_pair] * (group.index - 1), r.mul)

    candidates = []
    for eps in eps_powers:
        for w in _candidate_w_values(group):
            rep = GroupElement(r, eps, r.mul(eps, w), (0, 0), r.conj(eps))
            candidates.append((eps, w, rep))

    # each class keeps its first candidate, the root of its component
    rows = element_array(rep for _, _, rep in candidates)
    lead, g, label = _conjugate_hits(conj, rows, rows,
                                     np.arange(len(candidates))).T
    out = []
    for i in sorted(set(_components(len(candidates), lead, label))):
        eps, w, rep = candidates[i]
        cls = classify(rep)
        if cls.kind != "elliptic" or not cls.cuspidal:
            raise AssertionError("stabilizer candidate is not cuspidal elliptic")
        margin = r.sub((1, 0), r.mul(eps, eps))
        # the finite fixed point eps^2 w / (1 - eps^2)
        fixed = r.field_div(r.mul(r.mul(eps, eps), w), margin)
        out.append(CuspidalEllipticClass(
            representative=rep, order=cls.order,
            centralizer_order=_centralizer_order(
                conj, g[(lead == i) & (label == i)]),
            one_minus_eps_sq_norm=r.norm(margin),
            c_norm=_witness_c_norm(r, fixed)))
    out.sort(key=lambda c: c.representative.key())
    return out


# ---------------------------------------------------------------------------
# loxodromic reduction and axis torsion


@dataclass
class AxisData:
    key: tuple
    loxodromics: list            # elements on the axis, sorted by (norm, key)
    torsion: list                # elliptic elements fixing the axis pointwise
    m: int = 1
    E_T: Optional[GroupElement] = None
    norms: list = field(default_factory=list)   # N(g) of each loxodromic, same order


@dataclass
class PrimitiveLoxodromicClass:
    """One family of loxodromic classes: conjugates of T0^(n+1) E^v.

    T0 is a minimal-norm primitive on its axis, E the axis torsion
    generator (order m); n >= 0 and v = 1..m sweep the classes sharing
    T0's centralizer.  An axis carries a second, reverse-direction family
    unless some group element swaps the axis endpoints; reverse families
    get their own record with the conjugate rotation pairing.
    """

    T0: GroupElement
    a0: complex                         # eigenvalue with |a0| > 1
    N0: float
    m: int
    zeta0: complex                      # torsion eigenvalue on T0's expanding line
    zeta0_angle: Optional[Fraction]     # zeta0 = exp(2 pi i angle), None if m = 1
    axis: tuple
    merged_axes: tuple
    E_T: Optional[GroupElement]
    ambiguous: bool = False             # equal invariants, no conjugator found


def _zeta0_for(T0: GroupElement, a0: complex,
               E_T: GroupElement) -> tuple[complex, Fraction]:
    """Eigenvalue mu of the torsion generator on the expanding eigenvector
    of T0, as the primitive 2m-th root of unity exp(2 pi i j / 2m).

    E_T commutes with the non-scalar T0, so E_T = x + y T0 with x, y in K
    (y exact from one nonzero entry of T0: b, else c, else a - d).  E_T
    acts by mu = x + y a0 on T0's a0-line and by 1/mu on the other, so
    mu + 1/mu = tr E_T, in {0, +-1}, fixes mu up to conjugation, and
    mu - 1/mu = y (a0 - 1/a0) = 2i sin(arg mu), whose imaginary part is at
    least sqrt(3) in size, picks the sign of the angle.  The canonical
    lift of trace -1 has a third root as mu; the other lift, -mu, is the
    primitive one, which flips the sign test.  Only mu^2 enters downstream
    selection rules, so the lift choice is safe.
    """
    r = T0.ring
    if E_T * T0 != T0 * E_T:
        raise ValueError("torsion generator does not commute with T0")
    m = _elliptic_order(E_T)
    y = next(r.field_div(e, t) for e, t in (
        (E_T.b, T0.b), (E_T.c, T0.c),
        (r.sub(E_T.a, E_T.d), r.sub(T0.a, T0.d))) if t != (0, 0))
    upper = (r.to_complex(y) * (a0 - 1.0 / a0)).imag > 0
    j = 1 if upper == (E_T.trace()[0] >= 0) else 2 * m - 1
    angle = Fraction(j, 2 * m)
    zeta0 = complex(math.cos(math.pi * j / m), math.sin(math.pi * j / m))
    return zeta0, angle


def collect_axes(elements: Sequence[GroupElement],
                 norm_bound: float) -> dict[tuple, AxisData]:
    """Bucket loxodromic and non-cuspidal elliptic elements by boundary axis."""
    axes: dict[tuple, AxisData] = {}
    for g in elements:
        cls = classify(g)
        if cls.kind == "loxodromic":
            if cls.norm > norm_bound:
                continue
            k = axis_key(g)
            ax = axes.setdefault(k, AxisData(k, [], []))
            ax.loxodromics.append(g)
            ax.norms.append(cls.norm)
        elif cls.kind == "elliptic" and not cls.cuspidal:
            k = axis_key(g)
            axes.setdefault(k, AxisData(k, [], [])).torsion.append(g)
    for ax in axes.values():
        lox = sorted(zip(ax.norms, ax.loxodromics),
                     key=lambda p: (p[0], p[1].key()))
        ax.norms = [n for n, _ in lox]
        ax.loxodromics = [g for _, g in lox]
        ax.torsion.sort(key=GroupElement.key)
        if ax.torsion:
            # the axis group is cyclic of prime order, 2 or 3, so any
            # nontrivial member generates it
            ax.E_T = ax.torsion[0]
            ax.m = _elliptic_order(ax.E_T)
            if len(ax.torsion) != ax.m - 1:
                raise CompletenessError(
                    f"axis torsion of order {ax.m} is incomplete in the enumeration")
    return axes


def _bounded_axes(axes: dict[tuple, AxisData],
                  norm_bound: float) -> dict[tuple, AxisData]:
    """`collect_axes` at `norm_bound`, cut from the axes at a larger bound."""
    out = {}
    for k, ax in axes.items():
        cut = bisect.bisect_right(ax.norms, norm_bound)   # norms ascend
        if cut or ax.torsion:
            out[k] = dataclasses.replace(ax, loxodromics=ax.loxodromics[:cut],
                                         norms=ax.norms[:cut])
    return out


@dataclass
class _Family:
    """Candidate class family: one axis, one translation direction."""

    axis: AxisData
    lead: GroupElement
    a0: complex
    N0: float
    minimal_members: frozenset      # norm-N0 elements moving in this direction


def _axis_families(ax: AxisData) -> list[_Family]:
    """The family of the lead's direction and, if met, the reverse one.

    A member g moves with the lead when g lead^-1 is torsion and against
    it when g lead is.  Either forces N(g) = N0 exactly, and every member
    of norm N0 passes one of them, since g and the lead fix the same two
    boundary points.  Norms on an axis are powers of the primitive norm,
    so the scan stops at N0^2, far from round-off in the float norms.
    """
    lead, N0 = ax.loxodromics[0], ax.norms[0]
    lead_inv = lead.inv()
    fwd, rev = [], []
    for g, n in zip(ax.loxodromics, ax.norms):
        if n >= N0 * N0:        # norms ascend
            break
        if _is_torsion(g * lead_inv):
            fwd.append(g)
        elif _is_torsion(g * lead):
            rev.append(g)
    fams = [_Family(ax, lead, classify(lead).a, N0, frozenset(fwd))]
    if rev:
        rev_lead = min(rev, key=GroupElement.key)
        fams.append(_Family(ax, rev_lead, classify(rev_lead).a, N0,
                            frozenset(rev)))
    return fams


def primitive_loxodromic_classes(group: GroupDescriptor, norm_bound: float,
                                 height: int,
                                 elements: Optional[Sequence[GroupElement]] = None
                                 ) -> list[PrimitiveLoxodromicClass]:
    """Reduced system of primitive loxodromic class families, N0 <= norm_bound.

    Families on conjugate axes (and opposite directions of one axis, when an
    endpoint swapper exists) are merged by exact conjugator search over the
    enumeration: g merges family F into family G when g F.lead g^-1 lands in
    G's minimal member set.  `_conjugate_hits`, the lookup kernel of all
    three class lists, finds every such g, and the families it links are
    merged by union-find.  It raises ValueError when a product could leave
    the int64 range.  `height` is read only when `elements` is None.
    Completeness in `height` is heuristic; re-running at a larger height
    and comparing the class list is the supported certification.
    """
    if elements is None:
        elements = enumerate_elements(group, height)
    return _primitive_loxodromic_classes(collect_axes(elements, norm_bound),
                                         ConjugatorSet(group.ring, elements))


def _primitive_loxodromic_classes(axes: dict[tuple, AxisData],
                                  conj: ConjugatorSet
                                  ) -> list[PrimitiveLoxodromicClass]:
    families: list[_Family] = []
    for key in sorted(axes):
        ax = axes[key]
        if ax.loxodromics:
            families.extend(_axis_families(ax))

    # Each family lead is conjugated by every element of the enumeration
    # and the images are looked up among all minimal members, which makes
    # the merge independent of processing order; the families a lead meets
    # are merged by union-find.  Families are disjoint (one axis, one
    # direction each).
    member_family = np.array([i for i, fam in enumerate(families)
                              for _ in fam.minimal_members], dtype=np.int64)
    members = element_array(g for fam in families for g in fam.minimal_members)
    leads = element_array(fam.lead for fam in families)
    lead, _, hit = _conjugate_hits(conj, leads, members, member_family).T
    components: dict[int, list[_Family]] = {}
    for root, fam in zip(_components(len(families), lead, hit), families):
        components.setdefault(root, []).append(fam)

    records = []
    for root in sorted(components):
        members = sorted(components[root], key=lambda f: (f.N0, f.lead.key()))
        lead = members[0]
        ax = lead.axis
        for other in members[1:]:
            if other.axis.m != ax.m:
                raise CompletenessError(
                    "merged families disagree on torsion order; increase height")
        if ax.E_T is not None:
            zeta0, angle = _zeta0_for(lead.lead, lead.a0, ax.E_T)
        else:
            zeta0, angle = 1.0 + 0j, None
        key = (trace_class_key(lead.lead), round(lead.N0, 6), ax.m)
        records.append((key, lead, members, zeta0, angle))

    # equal coarse invariants in different components -> flag all of them
    key_counts: dict[tuple, int] = {}
    for key, *_ in records:
        key_counts[key] = key_counts.get(key, 0) + 1

    classes = [
        PrimitiveLoxodromicClass(
            T0=lead.lead, a0=lead.a0, N0=lead.N0, m=lead.axis.m,
            zeta0=zeta0, zeta0_angle=angle, axis=lead.axis.key,
            merged_axes=tuple(sorted({f.axis.key for f in members})),
            E_T=lead.axis.E_T, ambiguous=key_counts[key] > 1)
        for key, lead, members, zeta0, angle in records
    ]
    classes.sort(key=lambda c: (c.N0, c.T0.key()))
    return classes


# ---------------------------------------------------------------------------
# non-cuspidal elliptic classes


@dataclass(frozen=True)
class NonCuspidalEllipticClass:
    representative: GroupElement
    order_primitive: int        # m(R): torsion order of the full axis group
    sin_sq: Fraction            # sin^2(pi k / m) = 1 - tr^2/4, exact
    N0: Optional[float]         # minimal loxodromic norm on the axis, if seen
    axis: tuple


def non_cuspidal_elliptic_classes(group: GroupDescriptor,
                                  elements: Sequence[GroupElement],
                                  norm_bound: float
                                  ) -> list[NonCuspidalEllipticClass]:
    """Conjugacy classes of non-cuspidal elliptic elements in the enumeration.

    The rotation invariant sin^2(pi k/m) is computed exactly from the trace:
    the class of R has eigenvalues exp(+-i pi k/m), so sin^2 = 1 - tr^2/4.
    `norm_bound` is not read: the minimal norm on an elliptic axis is
    needed whatever its size, so every loxodromic is collected.
    """
    return _non_cuspidal_elliptic_classes(collect_axes(elements, math.inf),
                                          ConjugatorSet(group.ring, elements))


def _non_cuspidal_elliptic_classes(axes: dict[tuple, AxisData],
                                   conj: ConjugatorSet
                                   ) -> list[NonCuspidalEllipticClass]:
    torsion = sorted(((t, ax) for ax in axes.values() for t in ax.torsion),
                     key=lambda p: p[0].key())
    rows = element_array(t for t, _ in torsion)
    lead, _, label = _conjugate_hits(conj, rows, rows,
                                     np.arange(len(torsion))).T
    # the least key of a class represents it; every member's axis still
    # contributes the class norm (conjugation preserves N0, but the ball
    # may only realize a loxodromic on one of the conjugate axes)
    classes: dict[int, list[AxisData]] = {}
    for root, (_, ax) in zip(_components(len(torsion), lead, label), torsion):
        classes.setdefault(root, []).append(ax)
    out = []
    for root, ax_list in classes.items():
        g = torsion[root][0]
        t = g.trace()
        sin_sq = 1 - Fraction(t[0] * t[0], 4)
        norms = [ax.norms[0] for ax in ax_list if ax.loxodromics]
        out.append(NonCuspidalEllipticClass(
            representative=g, order_primitive=ax_list[0].m, sin_sq=sin_sq,
            N0=min(norms) if norms else None, axis=ax_list[0].key))
    return out


# ---------------------------------------------------------------------------
# aggregate


@dataclass
class GroupData:
    group: GroupDescriptor
    height: int
    norm_bound: float
    elements: list
    stabilizer: StabilizerData
    cuspidal_elliptic: list
    loxodromic: list
    non_cuspidal_elliptic: list

    def counts(self) -> dict:
        kinds = {"identity": 0, "parabolic": 0, "elliptic": 0, "loxodromic": 0}
        for g in self.elements:
            kinds[classify(g).kind] += 1
        return kinds


def build_group_data(group: GroupDescriptor, height: int,
                     norm_bound: float) -> GroupData:
    """Every class list of the enumeration at `height`.

    Equal to the public step-by-step calls, but with one conjugator set and
    one axis pass: the norm-bounded axes of the loxodromic merge are cut
    from the axes at infinity that the non-cuspidal elliptic classes need.
    """
    elements = enumerate_elements(group, height)
    stabilizer = stabilizer_data(group)
    conj = ConjugatorSet(group.ring, elements)
    cuspidal_elliptic = _cuspidal_elliptic_classes(group, conj)
    axes = collect_axes(elements, math.inf)
    return GroupData(
        group=group, height=height, norm_bound=norm_bound,
        elements=elements, stabilizer=stabilizer,
        cuspidal_elliptic=cuspidal_elliptic,
        loxodromic=_primitive_loxodromic_classes(
            _bounded_axes(axes, norm_bound), conj),
        non_cuspidal_elliptic=_non_cuspidal_elliptic_classes(axes, conj),
    )
