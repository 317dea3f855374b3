"""Linear Schroedinger propagator on the irrational torus and the Duhamel map.

Everything here is a diagonal Fourier multiplier: the propagator multiplies
mode xi by e^{-i*laplace_scale*t*Q(xi)}, and the Duhamel integral is a
per-mode time quadrature.  The trapezoid rule is used for Duhamel (the
forcing is only as smooth in t as the path), organized so the whole path of
partial integrals costs one cumulative pass.
"""

from __future__ import annotations

import numpy as np

from .lattice import SpectralField, TorusMetric, q_grid
from .nonlinearity import PowerNonlinearity, apply_F
from .norms import SpaceTimePath, TimeGrid, flow_phases


def propagate(field_: SpectralField, t: float) -> SpectralField:
    """e^{itDelta}: multiply mode xi by e^{-i*laplace_scale*t*Q(xi)}."""
    q = q_grid(field_.metric, field_.bandlimit)
    return field_.with_coeffs(field_.coeffs * np.exp(-1j * field_.metric.laplace_scale * t * q))


def free_flow_path(u0: SpectralField, grid: TimeGrid) -> SpaceTimePath:
    """The linear evolution e^{it Delta}u0 sampled on the time grid."""
    return SpaceTimePath.free_steps(grid, u0.metric, u0.bandlimit, u0.coeffs[None])


def _duhamel_partials(forcing: SpaceTimePath) -> np.ndarray:
    """All partial integrals I(t_k) = int_0^{t_k} e^{-i c (t_k - s) Q} F_hat(s) ds.

    Written as e^{-i c t_k Q} * cumtrapz(e^{+i c s Q} F_hat(s)); one
    cumulative trapezoid pass over the grid serves every k at once.
    """
    phases = flow_phases(forcing.metric, forcing.grid, q_grid(forcing.metric, forcing.bandlimit))
    integrand = np.conj(phases)
    integrand *= forcing.coeffs
    steps = integrand[1:] + integrand[:-1]
    steps *= 0.5 * forcing.grid.dt
    # the running sums overwrite the integrand: at most three path-sized
    # arrays are live at once, which bounds the solver's peak memory
    cum = integrand
    cum[0] = 0.0
    np.cumsum(steps, axis=0, out=cum[1:])
    return np.multiply(phases, cum, out=cum)


def duhamel_integral(forcing: SpaceTimePath, t_index: int) -> SpectralField:
    """Trapezoid quadrature of int_0^{t_k} e^{i(t_k-s)Delta} F(s) ds."""
    if not 0 <= t_index < forcing.grid.n:
        raise IndexError(f"t_index {t_index} outside grid of size {forcing.grid.n}")
    partial = _duhamel_partials(forcing)[t_index]
    return SpectralField(forcing.metric, forcing.bandlimit, partial)


def duhamel_operator(
    u: SpaceTimePath,
    u0: SpectralField,
    nl: PowerNonlinearity | None,
    oversample: int = 4,
) -> SpaceTimePath:
    """Phi(u)(t_k) = e^{it_k Delta}u0 - i int_0^{t_k} e^{i(t_k-s)Delta} F(u(s)) ds."""
    free = free_flow_path(u0, u.grid)
    if nl is None:
        return free
    forcing = u.map_frames(lambda f: apply_F(f, nl, oversample))
    partials = _duhamel_partials(forcing)
    return SpaceTimePath(u.grid, u.metric, u.bandlimit, free.coeffs - 1j * partials)


def one_mode_duhamel_exact(metric: TorusMetric, xi, t: float, amplitude: complex = 1.0) -> complex:
    """Closed form of int_0^t e^{-i c (t-s) Q(xi)} * amplitude ds (constant forcing)."""
    from .lattice import q_form

    cq = metric.laplace_scale * q_form(metric, xi)
    if cq == 0:
        return amplitude * t
    return amplitude * (1.0 - np.exp(-1j * cq * t)) / (1j * cq)
