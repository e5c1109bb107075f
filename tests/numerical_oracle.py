"""Numerical route to the data the package reads from traces: joint
eigenvalues by simultaneous diagonalization, singular subspaces by SVD
nullspaces, Q(omega) traces by snapping floats, ring square roots by
rounding the complex root, and the axis torsion eigenvalue from a float
eigenvector.  The tests compare the exact trace averages, eigen-angles and
elliptic trace rules against it."""
import cmath
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from selberg3.representation import CyclotomicValue, snap_unit_angle
from selberg3.rings import EISENSTEIN

TOL = 1e-10


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
            if np.max(np.abs(a @ b - b @ a)) > TOL * 10:
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
            if np.max(np.abs(off)) > TOL:
                ok = False
                break
            diags.append(np.diag(t).copy())
        if ok:
            return u, diags
    raise RuntimeError("simultaneous diagonalization failed; input not normal?")


def nullspace(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the right nullspace via SVD."""
    if mat.shape[0] == 0:
        return np.eye(mat.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(mat)
    rank = int(np.sum(s > TOL))
    return vh[rank:].conj().T


def snap_or_float(z: complex):
    """The rational angle of a root of unity, else its float angle."""
    ang = snap_unit_angle(z)
    if ang is not None:
        return ang
    return cmath.phase(z) / (2.0 * math.pi) % 1.0


def singular_spaces_svd(a_r, a_s, a_e):
    """(V_infinity, V'_infinity, lattice angle pairs) by SVD nullspaces and
    simultaneous diagonalization of chi(R), chi(S) and chi(E)."""
    n = a_r.shape[0]
    eye = np.eye(n, dtype=complex)
    p = nullspace(np.vstack([a_r - eye, a_s - eye]))
    if p.shape[1]:
        v = p @ nullspace(p.conj().T @ a_e @ p - np.eye(p.shape[1]))
    else:
        v = np.zeros((n, 0), dtype=complex)
    _, (d_r, d_s) = simultaneous_diagonalization([a_r, a_s])
    pairs = sorted((snap_or_float(x), snap_or_float(y))
                   for x, y in zip(d_r, d_s))
    return v, p, pairs


def snapped_cyclotomic_trace(chi, g) -> CyclotomicValue:
    """tr chi(g) snapped from its float value to a + b omega with
    denominators up to 48; raises when no such element is within 1e-9."""
    z = chi.trace(g)
    omega = EISENSTEIN.to_complex((0, 1))
    b = Fraction(z.imag / omega.imag).limit_denominator(48)
    a = Fraction(z.real - float(b) * omega.real).limit_denominator(48)
    if abs(EISENSTEIN.to_complex((a, b)) - z) > 1e-9:
        raise ValueError(f"trace {z} is not recognizably in Q(omega)")
    return CyclotomicValue(a, b)


def ring_sqrt(ring, a):
    """Square root of a in the ring, or None: the complex root rounded to
    the ring in the (1, u) basis, then the neighbours probed exactly."""
    u = ring.to_complex((0, 1))
    z = cmath.sqrt(ring.to_complex(a))
    for cand in (z, -z):
        y = cand.imag / u.imag
        rx, ry = round(cand.real - y * u.real), round(y)
        for dx in (0, -1, 1):
            for dy in (0, -1, 1):
                t = (rx + dx, ry + dy)
                if ring.mul(t, t) == a:
                    return t
    return None


def is_square_in_field(ring, a) -> bool:
    """Is the ring element a a square in the fraction field?  A square
    root there is an algebraic integer, so it lies in the ring itself."""
    return a == (0, 0) or ring_sqrt(ring, a) is not None


def zeta0_by_eigenvector(T0, a0, E_T, m):
    """(zeta0, angle) of the axis torsion: E_T applied in floats to the
    a0-eigenvector of T0, snapped to a primitive 2m-th root of unity."""
    mat, E = T0.to_moebius(), E_T.to_moebius()
    # (a - a0) x + b y = 0; pick the better-conditioned row
    r1, r2 = (mat.a - a0, mat.b), (mat.c, mat.d - a0)
    row = r1 if max(abs(r1[0]), abs(r1[1])) >= max(abs(r2[0]), abs(r2[1])) else r2
    if abs(row[0]) >= abs(row[1]):
        v = (-row[1] / row[0], 1.0 + 0j)
    else:
        v = (1.0 + 0j, -row[0] / row[1])
    ev = (E.a * v[0] + E.b * v[1], E.c * v[0] + E.d * v[1])
    idx = 0 if abs(v[0]) >= abs(v[1]) else 1
    angle = snap_unit_angle(ev[idx] / v[idx])
    assert angle is not None and (2 * m * angle).denominator == 1
    j = int(2 * m * angle)
    if math.gcd(j, 2 * m) != 1:
        j = (j + m) % (2 * m)   # other matrix lift of the same group element
    assert math.gcd(j, 2 * m) == 1
    zeta0 = complex(math.cos(math.pi * j / m), math.sin(math.pi * j / m))
    return zeta0, Fraction(j, 2 * m)
