"""Local-in-time NLS solvers: Picard iteration of the Duhamel map, and a
Strang split-step integrator as an independent oracle.

Picard iteration is the constructive contraction-mapping argument: start
from the free flow and apply the Duhamel operator until successive iterates
stop moving in L^infty_t H^{s_c}.  Divergence is a first-class outcome
(NoConvergence) -- it signals that T or the datum is outside the
small-data/short-time regime, not a bug.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .evolution import duhamel_operator, free_flow_path
from .lattice import GridField, SpectralField, gradient_fields, to_grid, to_spectral
from .nonlinearity import PowerNonlinearity
from .norms import SpaceTimePath, TimeGrid, sobolev_norm

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PicardDiagnostics:
    distances: tuple[float, ...]      # d_k = ||u^{k+1} - u^{k}||_{L^inf_t H^{s_c}}
    ratios: tuple[float, ...]         # d_{k+1} / d_k
    residual: float                   # ||Phi(u*) - u*|| in the same norm
    iterations: int
    converged: bool


def _path_distance(a: SpaceTimePath, b: SpaceTimePath, s: float) -> float:
    return max(
        sobolev_norm(a.frame(k) - b.frame(k), s) for k in range(a.grid.n)
    )


def picard_solve(
    u0: SpectralField,
    nl: PowerNonlinearity,
    grid: TimeGrid,
    oversample: int = 4,
    tol: float = 1e-10,
    max_iter: int = 25,
    initial: str = "free_flow",
) -> tuple[SpaceTimePath, PicardDiagnostics]:
    """Iterate u^{k+1} = Phi(u^{k}) from the free flow; stop when d_k < tol.

    initial="zero" starts the iteration from the zero path instead -- useful
    as a uniqueness probe (both seeds must land on the same fixed point).
    """
    if tol <= 0 or max_iter < 1:
        raise ValueError("need tol > 0 and max_iter >= 1")
    s = nl.s_c
    if initial == "free_flow":
        u = free_flow_path(u0, grid)
    elif initial == "zero":
        zero = SpectralField.zero(u0.metric, u0.bandlimit)
        u = SpaceTimePath.from_fields(grid, [zero] * grid.n)
    else:
        raise ValueError(f"unknown initial iterate {initial!r}")
    distances: list[float] = []
    for _ in range(max_iter):
        nxt = duhamel_operator(u, u0, nl, oversample)
        d = _path_distance(nxt, u, s)
        distances.append(d)
        u = nxt
        if not np.isfinite(d) or d > 1e10:
            # hard divergence; bail before the iterates overflow to Inf
            last = distances[-1] / distances[-2] if len(distances) > 1 else np.inf
            raise NoConvergence(max_iter, last, iterations=len(distances))
        if d < tol:
            ratios = tuple(
                distances[i + 1] / distances[i]
                for i in range(len(distances) - 1)
                if distances[i] > 0
            )
            residual = _path_distance(duhamel_operator(u, u0, nl, oversample), u, s)
            return u, PicardDiagnostics(
                tuple(distances), ratios, residual, len(distances), True
            )
    last_ratio = (
        distances[-1] / distances[-2] if len(distances) > 1 and distances[-2] > 0 else np.inf
    )
    raise NoConvergence(max_iter, last_ratio)


def splitstep_solve(
    u0: SpectralField,
    nl: PowerNonlinearity | None,
    dt: float,
    steps: int,
    oversample: int = 4,
) -> SpaceTimePath:
    """Strang splitting for i u_t + Delta u = sign |u|^p u.

    Half-step of the nonlinear phase u -> e^{-i*sign*(dt/2)|u|^p} u on the
    oversampled grid, full linear propagate, half nonlinear.  Returns the
    path sampled at t_k = k*dt, k = 0..steps-1 (frame 0 is the datum).
    nl=None drops the nonlinear phase entirely (pure free flow).
    """
    if dt <= 0 or steps < 2:
        raise ValueError("need dt > 0 and steps >= 2")
    from .evolution import propagate

    if nl is None:
        frames = [u0]
        for _ in range(steps - 1):
            frames.append(propagate(frames[-1], dt))
        return SpaceTimePath.from_fields(TimeGrid(dt * steps, steps), frames)

    def half_phase(f: SpectralField) -> SpectralField:
        g = to_grid(f, oversample)
        phased = np.exp(-1j * nl.sign * (dt / 2.0) * np.abs(g.samples) ** nl.p) * g.samples
        return to_spectral(GridField(f.metric, phased), f.bandlimit)

    frames = [u0]
    u = u0
    for _ in range(steps - 1):
        u = half_phase(propagate(half_phase(u), dt))
        frames.append(u)
    return SpaceTimePath.from_fields(TimeGrid(dt * steps, steps), frames)


def mass(field_: SpectralField) -> float:
    """||u||_{L^2}^2 (Parseval: sum of |coefficients|^2)."""
    return float(np.sum(np.abs(field_.coeffs) ** 2))


def energy(field_: SpectralField, nl: PowerNonlinearity, oversample: int = 4) -> float:
    """(1/2)||grad u||_{L^2}^2 + sign/(p+2) ||u||_{L^{p+2}}^{p+2}.

    Conserved by the flow that splitstep_solve and picard_solve solve; the
    potential term uses the oversampled grid (L^{p+2} is non-polynomial for
    fractional p).
    """
    kinetic = 0.5 * sum(np.sum(np.abs(g.coeffs) ** 2) for g in gradient_fields(field_))
    q = nl.p + 2.0
    potential = to_grid(field_, oversample).lp_norm(q) ** q
    return float(kinetic + nl.sign / q * potential)


def plane_wave_exact(
    u0: SpectralField, xi, nl: PowerNonlinearity, t: float
) -> SpectralField:
    """Exact solution for single-mode data c*e_xi: u(t) = e^{-i(sign|c|^p + cQ)t} c e_xi."""
    from .lattice import q_form

    c = u0.coefficient(xi)
    phase = np.exp(
        -1j * (nl.sign * abs(c) ** nl.p + u0.metric.laplace_scale * q_form(u0.metric, xi)) * t
    )
    return SpectralField.delta(u0.metric, u0.bandlimit, xi, c * phase)


def find_T(
    u0: SpectralField,
    nl: PowerNonlinearity,
    T0: float = 1.0,
    n: int = 32,
    oversample: int = 4,
    tol: float = 1e-8,
    max_iter: int = 20,
    max_halvings: int = 20,
) -> tuple[float, SpaceTimePath, PicardDiagnostics]:
    """Halve T until Picard converges; empirical local-existence threshold.

    Makes at most max_halvings solves, at T0, T0/2, ...; when all fail it
    raises the last solve's NoConvergence, naming that T.
    """
    if max_halvings < 1:
        raise ValueError("need max_halvings >= 1")
    for halvings in range(max_halvings):
        T = T0 / 2.0**halvings
        try:
            path, diag = picard_solve(u0, nl, TimeGrid(T, n), oversample, tol, max_iter)
            return T, path, diag
        except NoConvergence as exc:
            log.info("picard diverged at T=%g; halving", T)
            last = exc.with_traceback(None)  # its frames hold the failed iterates
    raise NoConvergence(
        last.max_iter, last.last_ratio, last.iterations, T=T, halvings=halvings
    ) from last
