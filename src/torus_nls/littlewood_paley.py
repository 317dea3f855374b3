"""Dyadic cutoffs, Littlewood-Paley projections, and lattice cube masks.

Cutoffs act on the Euclidean norm of the integer frequency vector (the
metric never enters here).  Two profiles are supported:

* ``sharp``  -- indicator of |x| <= 1; projections are idempotent and
  mutually orthogonal, which makes the dyadic-sum identities exact.
* ``smooth`` -- a fixed C-infinity bump built from the exp(-1/t) glue,
  equal to 1 on |x| <= 1 and 0 on |x| >= 2.

For dyadic N, phi_N(x) = phi(x/N) and psi_N = phi_N - phi_{N/2}, with the
convention psi_1 = phi.
"""

from __future__ import annotations

import numpy as np

from .lattice import SpectralField, euclidean_norm_grid

PROFILES = ("smooth", "sharp")


def _smooth_step(t):
    """C-infinity monotone step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    def g(s):
        out = np.zeros_like(s)
        pos = s > 0
        out[pos] = np.exp(-1.0 / s[pos])
        return out
    a = g(t)
    b = g(1.0 - t)
    return a / (a + b)


def phi_weight(profile: str, N: float, radius) -> np.ndarray:
    """phi_N evaluated at |xi| = radius."""
    r = np.asarray(radius, dtype=float) / N
    if profile == "sharp":
        return (r <= 1.0).astype(float)
    if profile == "smooth":
        # 1 on r <= 1, 0 on r >= 2, glued monotonically in between.
        return _smooth_step(2.0 - r)
    raise ValueError(f"unknown cutoff profile {profile!r}")


def _check_dyadic(N) -> int:
    N = int(N)
    if N < 1 or (N & (N - 1)) != 0:
        raise ValueError(f"N must be a dyadic integer >= 1, got {N}")
    return N


def psi_weight(profile: str, N, radius) -> np.ndarray:
    """psi_N = phi_N - phi_{N/2} (psi_1 = phi) at |xi| = radius."""
    N = _check_dyadic(N)
    if N == 1:
        return phi_weight(profile, 1, radius)
    return phi_weight(profile, N, radius) - phi_weight(profile, N // 2, radius)


def _radius_grid(field: SpectralField) -> np.ndarray:
    return euclidean_norm_grid(field.bandlimit)


def project_dyadic(field: SpectralField, N, profile: str = "sharp") -> SpectralField:
    """P_N: multiply coefficients by psi_N(|xi|)."""
    return field.with_coeffs(field.coeffs * psi_weight(profile, N, _radius_grid(field)))


def project_leq(field: SpectralField, N, profile: str = "sharp") -> SpectralField:
    """P_{<=N}: multiply coefficients by phi_N(|xi|)."""
    _check_dyadic(N)
    return field.with_coeffs(field.coeffs * phi_weight(profile, N, _radius_grid(field)))


def blended_projection(field: SpectralField, N, theta: float, profile: str = "sharp") -> SpectralField:
    """(P_{<=N/2} + theta * P_N): multiplier phi_{N/2} + theta * psi_N.

    For N = 1 the low-pass part is empty (the convention P_{<=1/2} = 0),
    so the multiplier is theta * psi_1.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    N = _check_dyadic(N)
    r = _radius_grid(field)
    low = phi_weight(profile, N // 2, r) if N > 1 else np.zeros_like(r)
    mult = low + theta * psi_weight(profile, N, r)
    return field.with_coeffs(field.coeffs * mult)


def dyadic_ladder(bandlimit: int) -> list[int]:
    """All dyadic N needed to exhaust a field of the given bandlimit."""
    top = 2 * bandlimit if bandlimit >= 1 else 1
    out = [1]
    while out[-1] < top:
        out.append(out[-1] * 2)
    return out


def cube_mask(anchor, side: int, bandlimit: int) -> np.ndarray:
    """Boolean mask of the lattice cube [anchor, anchor + side) on the coefficient grid."""
    M = bandlimit
    r = np.arange(-M, M + 1)
    masks = []
    for axis in range(3):
        a = anchor[axis]
        masks.append((r >= a) & (r < a + side))
    return (
        masks[0][:, None, None] & masks[1][None, :, None] & masks[2][None, None, :]
    )
