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
translation lattice Z + Z*tau with tau = i resp. omega.  Cuspidality of an
elliptic element is decided exactly: both boundary fixed points lie in the
field iff tr^2 - 4 is a square there.  This criterion identifies the cusp
set with the projective line over the field, which is valid for these two
class-number-one rings only; other rings are rejected.
"""
from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.special import polygamma

from .geometry import MoebiusMatrix
from .rings import EISENSTEIN, GAUSSIAN, Pair, Ring, is_square_in_field

CACHE_VERSION = 1
DEFAULT_ELEMENT_CAP = 3_000_000


class EnumerationCapError(RuntimeError):
    """Raised when an enumeration would exceed the configured element cap."""


class CacheFormatError(RuntimeError):
    """Raised for unreadable or wrong-version cache files."""


class CompletenessError(RuntimeError):
    """Raised when an enumeration bound cannot certify class completeness."""


def _unit_volume(ring: Ring) -> float:
    # Humbert's covolume |d|^(3/2) zeta_K(2) / (4 pi^2), with the quadratic
    # L-value expressed through trigamma values so no decimal literal is
    # needed: L(2, chi_-4) = (psi1(1/4) - psi1(3/4))/16 and
    # L(2, chi_-3) = (psi1(1/3) - psi1(2/3))/9.
    if ring.name == "gauss":
        lval = (polygamma(1, 0.25) - polygamma(1, 0.75)) / 16.0
        return 8.0 * (math.pi ** 2 / 6.0) * lval / (4.0 * math.pi ** 2)
    lval = (polygamma(1, 1.0 / 3.0) - polygamma(1, 2.0 / 3.0)) / 9.0
    return 3.0 ** 1.5 * (math.pi ** 2 / 6.0) * lval / (4.0 * math.pi ** 2)


@dataclass(frozen=True)
class GroupDescriptor:
    """A supported Bianchi group with its cusp data at infinity."""

    name: str
    ring: Ring
    tau: complex               # lattice generator of the cusp lattice Z + Z tau
    tau_pair: Pair             # the same generator as a ring element
    index: int                 # [stabilizer : translation part] at infinity
    epsilon_pair: Pair         # diagonal entry of the torsion generator E
    volume: float              # hyperbolic covolume of the quotient

    def __repr__(self):
        return f"GroupDescriptor({self.name})"


PICARD = GroupDescriptor(
    name="picard", ring=GAUSSIAN, tau=1j, tau_pair=(0, 1), index=2,
    epsilon_pair=(0, 1), volume=_unit_volume(GAUSSIAN),
)
EISENSTEIN_GROUP = GroupDescriptor(
    name="eisenstein", ring=EISENSTEIN,
    tau=complex(-0.5, math.sqrt(3.0) / 2.0), tau_pair=(0, 1), index=3,
    epsilon_pair=(-1, -1), volume=_unit_volume(EISENSTEIN),
)

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

    def power(self, n: int) -> "GroupElement":
        if n < 0:
            return self.inv().power(-n)
        result = identity(self.ring)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
    epsilon: Optional[complex] = None   # elliptic rotation eigenvalue, Im > 0
    a: Optional[complex] = None         # loxodromic eigenvalue, |a| > 1
    norm: Optional[float] = None        # N(T) = |a|^2
    hyperbolic: Optional[bool] = None   # loxodromic with real trace


_MAX_TORSION_ORDER = 24


def _elliptic_order(T: GroupElement) -> int:
    p = T
    for m in range(1, _MAX_TORSION_ORDER + 1):
        if p.is_identity():
            return m
        p = p * T
    raise RuntimeError("torsion order exceeds guard; element is not elliptic?")


def is_cuspidal(T: GroupElement) -> bool:
    """Do both boundary fixed points of the elliptic T lie in the field?"""
    if T.c == (0, 0):
        return True
    r = T.ring
    t = T.trace()
    disc = r.sub(r.mul(t, t), (4, 0))
    return is_square_in_field(r, disc)


def classify(T: GroupElement) -> ElementClassification:
    r = T.ring
    t = T.trace()
    if T.is_identity():
        return ElementClassification(kind="identity")
    if r.mul(t, t) == (4, 0):
        return ElementClassification(kind="parabolic")
    if t[1] == 0 and abs(t[0]) < 2:
        # real trace in (-2, 2); for ring elements this forces t in {-1, 0, 1}
        order = _elliptic_order(T)
        tc = r.to_complex(t)
        eps = (tc + 1j * math.sqrt(4.0 - tc.real ** 2)) / 2.0
        return ElementClassification(
            kind="elliptic", order=order, cuspidal=is_cuspidal(T), epsilon=eps)
    tc = r.to_complex(t)
    root = (tc * tc - 4.0) ** 0.5
    lam = (tc + root) / 2.0
    if abs(lam) < 1.0:
        lam = (tc - root) / 2.0
    return ElementClassification(
        kind="loxodromic", a=lam, norm=abs(lam) ** 2,
        hyperbolic=(t[1] == 0))


# ---------------------------------------------------------------------------
# enumeration


def _np_mul_conj(ring: Ring, qx: int, qy: int, bx, by):
    """Coordinates of q * conj(b) for arrays bx, by."""
    if ring.name == "gauss":
        return qx * bx + qy * by, qy * bx - qx * by
    cx, cy = bx - by, -by
    return qx * cx - qy * cy, qx * cy + qy * cx - qy * cy


def _np_norm(ring: Ring, x, y):
    if ring.name == "gauss":
        return x * x + y * y
    return x * x - x * y + y * y


def enumerate_elements(group: GroupDescriptor, height: int,
                       cap: int = DEFAULT_ELEMENT_CAP) -> list[GroupElement]:
    """All determinant-1 matrices mod +-I with every entry norm <= height.

    Deterministic: sorted by the 8-integer entry key.
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    r = group.ring
    small = r.elements_with_norm_le(height)
    coords = np.array(small, dtype=np.int64)
    bx, by = coords[:, 0], coords[:, 1]
    nb = _np_norm(r, bx, by)

    out = set()

    def emit(a, b, c, d):
        out.add(GroupElement(r, a, b, c, d, _checked=True))
        if len(out) > cap:
            raise EnumerationCapError(
                f"element cap {cap} exceeded at height {height}")

    units = [u for u in r.units()]
    zero = (0, 0)
    ad_list = [zero] + small
    for a in ad_list:
        for d in ad_list:
            q = r.sub(r.mul(a, d), (1, 0))
            if q == (0, 0):
                # a d = 1: a is a unit; b c = 0
                for b in small:
                    emit(a, b, zero, d)
                for c in small:
                    emit(a, zero, c, d)
                emit(a, zero, zero, d)
                continue
            # b runs over divisors of q with both cofactors inside the ball
            nq = r.norm(q)
            px, py = _np_mul_conj(r, q[0], q[1], bx, by)
            ok = (nq % nb == 0) & (px % nb == 0) & (py % nb == 0)
            if not ok.any():
                continue
            cx_all, cy_all = px[ok] // nb[ok], py[ok] // nb[ok]
            keep = _np_norm(r, cx_all, cy_all) <= height
            for (bxx, byy), cxx, cyy in zip(
                    coords[ok][keep], cx_all[keep], cy_all[keep]):
                emit(a, (int(bxx), int(byy)), (int(cxx), int(cyy)), d)

    return sorted(out, key=GroupElement.key)


# ---------------------------------------------------------------------------
# cache


def cache_path(cache_dir: str, group: GroupDescriptor, height: int) -> str:
    return os.path.join(cache_dir, f"elements_{group.ring.name}_h{height}.txt")


def save_cache(path: str, group: GroupDescriptor, height: int,
               elements: Sequence[GroupElement]) -> None:
    """Atomic write of the sorted element list."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", text=True)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(f"ring={group.ring.name} height={height} version={CACHE_VERSION}\n")
            for g in elements:
                f.write(" ".join(str(v) for v in g.key()) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_cache(path: str, group: GroupDescriptor, height: int) -> list[GroupElement]:
    with open(path) as f:
        header = f.readline().strip()
        expected = f"ring={group.ring.name} height={height} version={CACHE_VERSION}"
        if header != expected:
            raise CacheFormatError(
                f"cache header {header!r} does not match {expected!r}")
        r = group.ring
        out = []
        for line in f:
            vals = [int(v) for v in line.split()]
            if len(vals) != 8:
                raise CacheFormatError(f"malformed cache line {line!r}")
            out.append(GroupElement(
                r, (vals[0], vals[1]), (vals[2], vals[3]),
                (vals[4], vals[5]), (vals[6], vals[7])))
    return out


def cached_enumerate(group: GroupDescriptor, height: int,
                     cache_dir: Optional[str] = None,
                     cap: int = DEFAULT_ELEMENT_CAP) -> list[GroupElement]:
    if cache_dir is None:
        return enumerate_elements(group, height, cap)
    path = cache_path(cache_dir, group, height)
    if os.path.exists(path):
        return load_cache(path, group, height)
    elems = enumerate_elements(group, height, cap)
    save_cache(path, group, height, elems)
    return elems


# ---------------------------------------------------------------------------
# stabilizer of the cusp at infinity


@dataclass(frozen=True)
class StabilizerData:
    R: GroupElement            # translation by 1
    S: GroupElement            # translation by tau
    E: GroupElement            # torsion generator diag(eps, eps^-1)
    index: int                 # = torsion order of E mod +-I
    tau: complex
    tau_pair: Pair
    epsilon_pair: Pair
    torsion_order: int


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
    order = _elliptic_order(E)
    if order != group.index:
        raise AssertionError(f"torsion order {order} != index {group.index}")
    comm = E * R * E.inv() * R.inv()
    if comm.c != (0, 0) or r.mul(comm.a, comm.a) != (1, 0):
        raise AssertionError("E R E^-1 R^-1 left the translation subgroup")
    return StabilizerData(
        R=R, S=S, E=E, index=group.index, tau=group.tau,
        tau_pair=group.tau_pair, epsilon_pair=eps, torsion_order=order)


# ---------------------------------------------------------------------------
# axes and conjugacy keys


def axis_key(T: GroupElement) -> tuple:
    """Exact key for the fixed-point pair of T on the boundary.

    The fixed points solve c z^2 + (d - a) z - b = 0; the projective triple
    (c, d-a, -b), made primitive and canonical under unit scaling, pins down
    the unordered pair exactly.
    """
    r = T.ring
    v = (T.c, r.sub(T.d, T.a), r.neg(T.b))
    g = r.gcd(r.gcd(v[0], v[1]), v[2])
    if g != (0, 0):
        v = tuple(r.exact_div(x, g) for x in v)
    best = None
    for u in r.units():
        cand = tuple(r.mul(u, x) for x in v)
        flat = (*cand[0], *cand[1], *cand[2])
        if best is None or flat < best:
            best = flat
    return best


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
# conjugator images held at once (rows x conjugators) by the loxodromic merge
_MERGE_CHUNK = 1 << 12


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


def _canonical_rows(ring: Ring, rows: np.ndarray) -> np.ndarray:
    """Vectorized `_canonical_entries` on (..., 8) coordinate rows."""
    xs, ys = rows[..., 0::2], rows[..., 1::2]
    first = ((xs != 0) | (ys != 0)).argmax(axis=-1)[..., None]
    x = np.take_along_axis(xs, first, axis=-1)
    y = np.take_along_axis(ys, first, axis=-1)
    r2 = ring.real2((x, y))
    return np.where((r2 < 0) | ((r2 == 0) & (y < 0)), -rows, rows)


class ConjugatorSet:
    """A conjugator list held once as two (N, 8) int64 arrays, G and G^-1.

    `images` conjugates elements by all N conjugators at once in exact
    integer arithmetic (products by the ring's rule u^2 = u2_x + u2_y u) and
    canonicalizes the +-I sign as `GroupElement` does, so an image row
    equals `T.conjugate_by(g).key()`.
    """

    def __init__(self, ring: Ring, elements: Iterable[GroupElement]):
        self.ring = ring
        self.elements = list(elements)
        self.G = element_array(self.elements)
        self.G_inv = self.G[:, _INV_ORDER] * _INV_SIGN
        self._g_max = int(np.abs(self.G).max(initial=0))
        # |coord| of a ring product <= k max|coord a| max|coord b|
        self._k = max(1 + abs(ring.u2_x), 2 + abs(ring.u2_y))

    def __len__(self):
        return len(self.elements)

    def images(self, T: np.ndarray) -> np.ndarray:
        """Canonical g T g^-1 for every row T of a (K, 8) array: (K, N, 8)."""
        t_max = int(np.abs(T).max(initial=0))
        # each 2x2 product over the ring scales coordinates by at most 2k
        worst = 4 * self._k ** 2 * self._g_max ** 2 * t_max
        if worst > _INT64_SAFE:
            raise ValueError(
                f"conjugation coordinates may reach {worst}, beyond the int64 "
                f"range 2^62; entries are too large for the exact kernel")
        r = self.ring
        g, g_inv = _entries(self.G[None, :, :]), _entries(self.G_inv[None, :, :])
        t = _entries(T[:, None, :])
        out = _mat_mul(r, _mat_mul(r, g, t), g_inv)
        rows = np.stack([v for pair in out for v in pair], axis=-1)
        return _canonical_rows(r, rows)

    def matches(self, T: GroupElement, target: GroupElement) -> np.ndarray:
        """Indices of the conjugators g with g T g^-1 = target."""
        imgs = self.images(element_array([T]))[0]
        return np.flatnonzero((imgs == np.array(target.key())).all(axis=1))


def find_conjugator(T1: GroupElement, T2: GroupElement,
                    conjugators: Iterable[GroupElement]) -> Optional[GroupElement]:
    """First conjugator g with g T1 g^-1 = T2, or None.

    `conjugators` is a `ConjugatorSet` or any iterable of elements; pass a
    set built once when searching the same list repeatedly.
    """
    if not isinstance(conjugators, ConjugatorSet):
        conjugators = ConjugatorSet(T1.ring, conjugators)
    hits = conjugators.matches(T1, T2)
    return conjugators.elements[hits[0]] if len(hits) else None


# ---------------------------------------------------------------------------
# cuspidal elliptic classes


@dataclass(frozen=True)
class CuspidalEllipticClass:
    representative: GroupElement
    epsilon: Pair                  # upper-left diagonal entry
    w: Pair                        # translation part: rep = [[eps, eps w], [0, eps^-1]]
    order: int
    centralizer_order: int
    one_minus_eps_sq_norm: int     # |1 - eps^2|^2, an integer
    p: tuple                       # finite fixed point as exact field element
    c0: Pair                       # lower-left entry of a witness sending infinity to p
    c_norm: int                    # ring norm of c0, so |c0| = sqrt(c_norm)

    @property
    def c_abs(self) -> float:
        return math.sqrt(float(self.c_norm))

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


def _cusp_fixed_point(group: GroupDescriptor, eps: Pair, w: Pair):
    """Finite fixed point eps^2 w / (1 - eps^2) as an exact field element."""
    r = group.ring
    num = r.mul(r.mul(eps, eps), w)
    den = r.sub((1, 0), r.mul(eps, eps))
    return r.field_div(num, den)


def _witness_c0(group: GroupDescriptor, p) -> Pair:
    """Lower-left entry of some group element sending infinity to p.

    p is given as a field element (Fraction pair); clearing denominators
    yields a primitive column (a0, c0), completed to determinant 1.
    """
    r = group.ring
    den = 1
    for coord in p:
        den = den * coord.denominator // math.gcd(den, coord.denominator)
    num = (int(p[0] * den), int(p[1] * den))
    g = r.gcd(num, (den, 0))
    a0 = r.exact_div(num, g)
    c0 = r.exact_div((den, 0), g)
    gg, s, t = r.xgcd(a0, c0)
    if not r.is_unit(gg):
        raise AssertionError("fixed point column is not primitive")
    # a0 * (s/gg)... complete [[a0, -t'], [c0, s']] with a0 s' + c0 t' style;
    # verify determinant directly instead of tracking unit bookkeeping
    ginv = r.conj(gg)  # unit inverse
    b = r.neg(r.mul(t, ginv))
    d = r.mul(s, ginv)
    cand = GroupElement(r, a0, b, c0, d)
    return cand.c


def _centralizer_order(g: GroupElement, conj: ConjugatorSet) -> int:
    hits = conj.matches(g, g)
    for i in hits:
        if classify(conj.elements[i]).kind not in ("identity", "elliptic"):
            raise CompletenessError(
                "infinite centralizer detected for a cuspidal elliptic class")
    return len(hits)


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
    r = group.ring
    conj = ConjugatorSet(r, elements)
    eps0 = group.epsilon_pair
    eps_powers = []
    e = eps0
    while True:
        canon = GroupElement(r, e, (0, 0), (0, 0), r.conj(e))
        if canon.is_identity():
            break
        if e not in eps_powers:
            eps_powers.append(e)
        e = r.mul(e, eps0)
        if len(eps_powers) > 6:
            raise AssertionError("unit loop failed")

    candidates = []
    for eps in eps_powers:
        for w in _candidate_w_values(group):
            rep = GroupElement(r, eps, r.mul(eps, w), (0, 0), r.conj(eps))
            candidates.append((eps, w, rep))

    kept: list[tuple] = []
    for eps, w, rep in candidates:
        merged = False
        for _, _, seen in kept:
            if seen == rep or find_conjugator(rep, seen, conj):
                merged = True
                break
        if not merged:
            kept.append((eps, w, rep))

    out = []
    for eps, w, rep in kept:
        order = _elliptic_order(rep)
        cls = classify(rep)
        if cls.kind != "elliptic" or not cls.cuspidal:
            raise AssertionError("stabilizer candidate is not cuspidal elliptic")
        eps_sq = r.mul(eps, eps)
        margin = r.sub((1, 0), eps_sq)
        p = _cusp_fixed_point(group, eps, w)
        c0 = _witness_c0(group, p)
        out.append(CuspidalEllipticClass(
            representative=rep, epsilon=eps, w=w, order=order,
            centralizer_order=_centralizer_order(rep, conj),
            one_minus_eps_sq_norm=r.norm(margin),
            p=p, c0=c0, c_norm=r.norm(c0)))
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

    @property
    def trace_key(self):
        return trace_class_key(self.T0)


def _eigvec_for(mat: MoebiusMatrix, lam: complex):
    # (a - lam) x + b y = 0; pick the better-conditioned row
    r1 = (mat.a - lam, mat.b)
    r2 = (mat.c, mat.d - lam)
    row = r1 if max(abs(r1[0]), abs(r1[1])) >= max(abs(r2[0]), abs(r2[1])) else r2
    if abs(row[0]) >= abs(row[1]):
        return (-row[1] / row[0], 1.0 + 0j)
    return (1.0 + 0j, -row[0] / row[1])


def _attracting_direction(g: GroupElement) -> tuple:
    """Expanding eigenvector of g, normalized for projective comparison."""
    cls = classify(g)
    v = _eigvec_for(g.to_moebius(), cls.a)
    scale = math.hypot(abs(v[0]), abs(v[1]))
    return (v[0] / scale, v[1] / scale)


def _projective_dist(v: tuple, w: tuple) -> float:
    return abs(v[0] * w[1] - v[1] * w[0])


_SNAP_TOL = 1e-8


def _snap_root_index(z: complex, two_m: int) -> int:
    """Index j with z = exp(2 pi i j / two_m), verified within tolerance."""
    theta = math.atan2(z.imag, z.real) / (2.0 * math.pi)
    j = round(theta * two_m) % two_m
    cand = complex(math.cos(2 * math.pi * j / two_m),
                   math.sin(2 * math.pi * j / two_m))
    if abs(z - cand) > _SNAP_TOL:
        raise ValueError(f"value {z} is not a {two_m}-th root of unity within tolerance")
    return j


def _zeta0_for(T0: GroupElement, a0: complex, E_T: GroupElement,
               m: int) -> tuple[complex, Fraction]:
    """Eigenvalue of the torsion generator on the expanding eigenvector of T0.

    The matrix lift sign is chosen to make the result a primitive 2m-th
    root of unity; only its square enters downstream selection rules, so
    the choice is safe.
    """
    v = _eigvec_for(T0.to_moebius(), a0)
    E = E_T.to_moebius()
    ev = (E.a * v[0] + E.b * v[1], E.c * v[0] + E.d * v[1])
    idx = 0 if abs(v[0]) >= abs(v[1]) else 1
    mu = ev[idx] / v[idx]
    j = _snap_root_index(mu, 2 * m)
    if math.gcd(j, 2 * m) != 1:
        j = (j + m) % (2 * m)   # other matrix lift of the same group element
        if math.gcd(j, 2 * m) != 1:
            raise ValueError("torsion eigenvalue is not primitive for either lift")
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
            axes.setdefault(k, AxisData(k, [], [])).loxodromics.append(g)
        elif cls.kind == "elliptic" and not cls.cuspidal:
            k = axis_key(g)
            axes.setdefault(k, AxisData(k, [], [])).torsion.append(g)
    for ax in axes.values():
        ax.loxodromics.sort(key=lambda g: (classify(g).norm, g.key()))
        ax.torsion.sort(key=GroupElement.key)
        ax.m = len(ax.torsion) + 1
        if ax.torsion:
            full = [t for t in ax.torsion if _elliptic_order(t) == ax.m]
            if not full:
                raise CompletenessError(
                    f"axis torsion of order {ax.m} has no generator in the enumeration")
            ax.E_T = full[0]
    return axes


@dataclass
class _Family:
    """Candidate class family: one axis, one translation direction."""

    axis: AxisData
    lead: GroupElement
    a0: complex
    N0: float
    minimal_members: frozenset      # norm-N0 elements moving in this direction


def _axis_families(ax: AxisData) -> list[_Family]:
    lead = ax.loxodromics[0]
    c0 = classify(lead)
    N0 = c0.norm
    minimal = [g for g in ax.loxodromics
               if abs(classify(g).norm - N0) <= 1e-9 * N0]
    fwd_dir = _attracting_direction(lead)
    fwd, rev = [], []
    for g in minimal:
        d = _projective_dist(_attracting_direction(g), fwd_dir)
        (fwd if d < 1e-6 else rev).append(g)
    fams = [_Family(ax, lead, c0.a, N0, frozenset(fwd))]
    if rev:
        rev.sort(key=GroupElement.key)
        fams.append(_Family(ax, rev[0], classify(rev[0]).a, N0, frozenset(rev)))
    return fams


def _packing_base(bound: int) -> int:
    """Base for packing 8 coordinates in [-bound, bound] into one int64."""
    base = 2 * bound + 1
    if base ** 8 > _INT64_SAFE:
        raise ValueError(f"coordinates up to {bound} do not pack into int64 keys")
    return base


def _pack(rows: np.ndarray, bound: int, base: int) -> np.ndarray:
    """Injective int64 key of each (..., 8) row with coordinates in [-bound, bound]."""
    powers = base ** np.arange(7, -1, -1, dtype=np.int64)
    return (rows + bound) @ powers


def primitive_loxodromic_classes(group: GroupDescriptor, norm_bound: float,
                                 height: int,
                                 elements: Optional[Sequence[GroupElement]] = None
                                 ) -> list[PrimitiveLoxodromicClass]:
    """Reduced system of primitive loxodromic class families, N0 <= norm_bound.

    Families on conjugate axes (and opposite directions of one axis, when an
    endpoint swapper exists) are merged by exact conjugator search over the
    enumeration: g merges family F into family G when g F.lead g^-1 lands in
    G's minimal member set.  The images of a lead under all conjugators come
    from one exact int64 kernel (`ConjugatorSet.images`), which raises
    ValueError when a product could leave the int64 range; they are looked
    up among the members as packed integer keys.  Completeness in `height`
    is heuristic; re-running at a larger height and comparing the class list
    is the supported certification.
    """
    if elements is None:
        elements = enumerate_elements(group, height)
    axes = collect_axes(elements, norm_bound)

    families: list[_Family] = []
    for key in sorted(axes):
        ax = axes[key]
        if ax.loxodromics:
            families.extend(_axis_families(ax))

    # Union-find over families.  Each family lead is conjugated by every
    # element of the enumeration and the images are looked up among all
    # minimal members, which makes the merge independent of processing
    # order.  Members are packed into sorted int64 keys with a base derived
    # from their largest coordinate |x| <= bound; an image with a coordinate
    # beyond the bound is exactly a non-member and gets the key -1.
    # Families are disjoint (one axis, one direction each).
    member_family = np.array([i for i, fam in enumerate(families)
                              for _ in fam.minimal_members], dtype=np.int64)
    members = element_array(g for fam in families for g in fam.minimal_members)
    bound = int(np.abs(members).max(initial=0))
    base = _packing_base(bound)
    member_keys = _pack(members, bound, base)
    order = np.argsort(member_keys)
    member_keys, member_family = member_keys[order], member_family[order]
    parent = list(range(len(families)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    conj = ConjugatorSet(group.ring, elements)
    leads = element_array(fam.lead for fam in families)
    step = max(1, _MERGE_CHUNK // max(1, len(conj)))
    for start in range(0, len(families), step):
        imgs = conj.images(leads[start:start + step])
        keys = np.where((np.abs(imgs) <= bound).all(axis=-1),
                        _pack(imgs, bound, base), -1)
        pos = np.minimum(np.searchsorted(member_keys, keys),
                         len(member_keys) - 1)
        rows, cols = np.nonzero(member_keys[pos] == keys)
        for i, j in set(zip((start + rows).tolist(),
                            member_family[pos[rows, cols]].tolist())):
            union(i, j)

    components: dict[int, list[_Family]] = {}
    for i, fam in enumerate(families):
        components.setdefault(find(i), []).append(fam)

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
            zeta0, angle = _zeta0_for(lead.lead, lead.a0, ax.E_T, ax.m)
        else:
            zeta0, angle = 1.0 + 0j, None
            if ax.m != 1:
                raise CompletenessError("torsion without a generator")
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
    """
    conj = ConjugatorSet(group.ring, elements)
    # collect all loxodromics regardless of norm_bound: the minimal norm on
    # an elliptic axis is needed whatever its size
    axes = collect_axes(elements, math.inf)
    nce_elems = []
    for key in sorted(axes):
        ax = axes[key]
        for t in ax.torsion:
            nce_elems.append((t, ax))
    classes: list[tuple[GroupElement, list[AxisData]]] = []
    for g, ax in sorted(nce_elems, key=lambda p: p[0].key()):
        for seen, seen_axes in classes:
            if find_conjugator(g, seen, conj):
                # conjugate member: its axis still contributes the class
                # norm (conjugation preserves N0, but the ball may only
                # realize a loxodromic on one of the conjugate axes)
                seen_axes.append(ax)
                break
        else:
            classes.append((g, [ax]))
    out = []
    for g, ax_list in classes:
        t = g.trace()
        sin_sq = 1 - Fraction(t[0] * t[0], 4)
        norms = [classify(ax.loxodromics[0]).norm
                 for ax in ax_list if ax.loxodromics]
        out.append(NonCuspidalEllipticClass(
            representative=g, order_primitive=ax_list[0].m, sin_sq=sin_sq,
            N0=min(norms) if norms else None, axis=ax_list[0].key))
    out.sort(key=lambda c: c.representative.key())
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


def build_group_data(group: GroupDescriptor, height: int, norm_bound: float,
                     cache_dir: Optional[str] = None) -> GroupData:
    elements = cached_enumerate(group, height, cache_dir)
    return GroupData(
        group=group, height=height, norm_bound=norm_bound,
        elements=elements,
        stabilizer=stabilizer_data(group),
        cuspidal_elliptic=cuspidal_elliptic_classes(group, elements),
        loxodromic=primitive_loxodromic_classes(
            group, norm_bound, height, elements),
        non_cuspidal_elliptic=non_cuspidal_elliptic_classes(
            group, elements, norm_bound),
    )
