"""Truncated Eisenstein series at the cusp infinity.

E(P, s) = sum over Gamma_infinity \\ Gamma of r(M P)^{1+s} chi(M)* v for a
singular vector v (fixed by chi on the full cusp stabilizer).  Only Re(s) > 1
is evaluated; the meromorphic continuation is out of scope.

Each summand is an exact Laplacian eigenfunction with eigenvalue 1 - s^2, so
any truncation is too; eigen_check therefore isolates finite-difference error
from truncation error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .arithmetic_group import (GroupDescriptor, GroupElement, enumerate_elements,
                               identity, stabilizer_data)
from .geometry import Point3, apply, laplacian_fd
from .representation import UnitaryRep

__all__ = [
    "EisensteinSample",
    "coset_representatives",
    "series_term",
    "eisenstein_series",
    "eigen_check",
]

SINGULAR_TOL = 1e-8

# Excess of the lattice-point count over the ellipsoid volume is absorbed
# by this factor in the tail estimate.
TAIL_SAFETY = 2.0


@dataclass(frozen=True)
class EisensteinSample:
    """One truncated evaluation: value vector plus a tail estimate."""

    point: Point3
    s: complex
    height: int
    value: np.ndarray
    tail_estimate: float


def _bottom_row_key(group: GroupDescriptor, c, d) -> tuple:
    """Canonical form of (c, d) under joint unit scaling."""
    ring = group.ring
    return min((ring.mul(u, c), ring.mul(u, d)) for u in ring.units)


@functools.cache
def coset_representatives(group: GroupDescriptor,
                          height: int) -> tuple[GroupElement, ...]:
    """One element per coset of the cusp stabilizer, bottom-row norm <= height,
    as a tuple built once per (group, height).

    Cosets are in bijection with coprime bottom rows (c, d) modulo the unit
    group: elements sharing a bottom row differ by an integer translation, and
    the diagonal torsion element scales rows by units.  Nonzero c is pinned to
    its canonical associate (units act freely on it), d then runs unrestricted;
    the c = 0 coset is the identity.  Top rows come from the extended gcd.
    """
    if height < 1:
        raise ValueError("insufficient height: need height >= 1")
    ring = group.ring
    reps = [identity(ring)]
    small = sorted(ring.elements_with_norm_le(height))
    # the norm ball excludes zero; d = 0 pairs with unit c (inversion coset)
    small_d = [(0, 0)] + small
    for c in small:
        if ring.canonical_associate(c) != c:
            continue
        for d in small_d:
            g = ring.gcd(c, d)
            if not ring.is_unit(g):
                continue
            # s0*c + t0*d = g; rescale by the unit inverse conj(g) so that
            # a = t0/g, b = -s0/g gives a*d - b*c = 1.
            _, s0, t0 = ring.xgcd(c, d)
            ginv = ring.conj(g)
            a = ring.mul(ginv, t0)
            b = ring.neg(ring.mul(ginv, s0))
            reps.append(GroupElement(ring, a, b, c, d))
    return tuple(reps)


def series_term(M: GroupElement, P: Point3, s: complex, chi: UnitaryRep,
                v: np.ndarray) -> np.ndarray:
    """Single summand r(M P)^{1+s} chi(M)* v."""
    r = apply(M.to_moebius(), P).r
    return (r ** (1.0 + s)) * (chi(M).conj().T @ np.asarray(v, dtype=complex))


def _check_singular(chi: UnitaryRep, v: np.ndarray,
                    group: GroupDescriptor) -> None:
    stab = stabilizer_data(group)
    scale = max(1.0, float(np.linalg.norm(v)))
    for name, g in (("R", stab.R), ("S", stab.S), ("E", stab.E)):
        if np.linalg.norm(chi(g) @ v - v) > SINGULAR_TOL * scale:
            raise ValueError(
                f"v is not singular: chi({name}) does not fix it, "
                "so the coset sum is not well defined")


def _tail_estimate(group: GroupDescriptor, P: Point3, sigma: float,
                   height: int, vnorm: float) -> float:
    """Upper estimate for the terms dropped by the bottom-row norm cutoff.

    |c z + d|^2 + |c|^2 r^2 is a Hermitian form in (c, d) with determinant
    r^2 and trace T = 1 + |z|^2 + r^2, so its least eigenvalue is
    (T - sqrt(T^2 - 4 r^2)) / 2 and every dropped pair has form value
    > lam_min * height.  Counting lattice pairs by form value and integrating
    the (1+sigma)-power gives the estimate.
    """
    r = P.r
    T = 1.0 + abs(P.z) ** 2 + r * r
    lam_min = 0.5 * (T - math.sqrt(T * T - 4.0 * r * r))
    # pairs (c,d) with form value <= Q number about (pi^2/2) Q^2 / (r^2 w^2)
    # for ring covolume w, counted once per unit orbit.
    ring = group.ring
    density = math.pi ** 2 / (ring.covolume ** 2 * len(ring.units))
    d0 = lam_min * height
    return (TAIL_SAFETY * density * vnorm * r ** (sigma - 1.0)
            * d0 ** (1.0 - sigma) / (sigma - 1.0))


def eisenstein_series(P: Point3, s: complex, chi: UnitaryRep, v,
                      group: GroupDescriptor, height: int) -> EisensteinSample:
    """Truncated E(P, s) summed over cosets with bottom-row norm <= height.

    Requires Re(s) > 1 and a vector v fixed by chi on the cusp stabilizer.
    The dominant identity-coset term is r^{1+s} v.
    """
    s = complex(s)
    if s.real <= 1.0:
        raise ValueError("eisenstein_series needs Re(s) > 1")
    v = np.asarray(v, dtype=complex)
    if v.shape != (chi.dim,):
        raise ValueError(f"v must have shape ({chi.dim},)")
    _check_singular(chi, v, group)
    reps = coset_representatives(group, height)
    value = np.zeros(chi.dim, dtype=complex)
    for M in reps:
        value += series_term(M, P, s, chi, v)
    tail = _tail_estimate(group, P, s.real, height, float(np.linalg.norm(v)))
    return EisensteinSample(point=P, s=s, height=height, value=value,
                            tail_estimate=tail)


def eigen_check(P: Point3, s: complex, chi: UnitaryRep, v,
                group: GroupDescriptor, height: int,
                fd_step: float = 1e-3) -> float:
    """Relative residual of the eigenvalue equation Delta E = (1 - s^2) E.

    The coset list is frozen before stenciling, so the truncated sum is an
    exact eigenfunction and the residual measures finite-difference error
    only.  Componentwise |Delta_fd E - (1-s^2) E| / |E|, maximized; near-zero
    components fall back to the largest component as denominator.
    """
    s = complex(s)
    if s.real <= 1.0:
        raise ValueError("eigen_check needs Re(s) > 1")
    v = np.asarray(v, dtype=complex)
    _check_singular(chi, v, group)
    reps = coset_representatives(group, height)
    # chi(M)* v is P-independent; precompute per coset.
    data = [(M.to_moebius(), chi(M).conj().T @ v) for M in reps]

    def f(Q: Point3) -> np.ndarray:
        out = np.zeros(chi.dim, dtype=complex)
        for mob, w in data:
            out += (apply(mob, Q).r ** (1.0 + s)) * w
        return out

    E0 = f(P)
    lap = laplacian_fd(f, P, fd_step)
    scale = float(np.max(np.abs(E0)))
    if scale == 0.0:
        raise ValueError("truncated series vanished; cannot form residual")
    num = np.abs(lap - (1.0 - s * s) * E0)
    den = np.maximum(np.abs(E0), 1e-9 * scale)
    return float(np.max(num / den))


def raw_orbit_normalized_sum(group: GroupDescriptor, P: Point3, s: complex,
                             chi: UnitaryRep, v, height: int) -> np.ndarray:
    """Sum over raw enumerated elements, each divided by its coset multiplicity.

    Cross-check for the deduplication: members of one coset contribute equal
    terms, so this must match the sum of one term per coset present.
    """
    v = np.asarray(v, dtype=complex)
    _check_singular(chi, v, group)
    elems = enumerate_elements(group, height)
    by_coset: dict[tuple, list[GroupElement]] = {}
    for M in elems:
        key = _bottom_row_key(group, M.c, M.d)
        by_coset.setdefault(key, []).append(M)
    total = np.zeros(chi.dim, dtype=complex)
    for members in by_coset.values():
        for M in members:
            total += series_term(M, P, s, chi, v) / len(members)
    return total
