"""Local-in-time NLS solvers: the trapezoid Duhamel system marched frame by
frame, Picard iteration of the Duhamel map, and a Strang split-step
integrator as an independent oracle.

The trapezoid rule of duhamel_operator is causal: frame k of Phi(u) reads
only frames 0..k of u.  Its fixed point therefore solves, one frame at a time,

    u_k = E (u_{k-1} - i(dt/2) F(u_{k-1})) - i(dt/2) F(u_k),   E = e^{-i c dt Q},

which is Lawson's integrating-factor trapezoid scheme.  march_solve solves
each of these small implicit equations by a plain fixed point; its
contraction factor is about (dt/2) p ||u||^p, where Picard's comes from the
whole window.

Picard iteration is the constructive contraction-mapping argument: start
from the free flow (or from the march) and apply the Duhamel operator until
successive iterates stop moving in L^infty_t H^{s_c}.  Started from the
march it certifies the marched path.  A solve counts as converged only when
its final residual ||Phi(u) - u|| is at most tol.  Divergence is a
first-class outcome (NoConvergence) -- it signals that T or the datum is
outside the small-data/short-time regime, not a bug.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NoConvergence
from .evolution import duhamel_operator, free_flow_path
from .lattice import (GridField, SpectralField, gradient_fields, q_grid, to_grid,
                      to_spectral)
from .nonlinearity import PowerNonlinearity, apply_F
from .norms import SpaceTimePath, TimeGrid, flow_phases, sobolev_norm

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PicardDiagnostics:
    distances: tuple[float, ...]      # d_k = ||u^{k+1} - u^{k}||_{L^inf_t H^{s_c}}
    ratios: tuple[float, ...]         # d_{k+1} / d_k
    residual: float                   # ||Phi(u*) - u*|| in the same norm
    iterations: int
    march_iterations: tuple[int, ...] = ()  # fixed-point iterations of frames 1..n-1
    timings: dict = field(default_factory=dict)  # seconds per stage


def _path_distance(a: SpaceTimePath, b: SpaceTimePath, s: float) -> float:
    return max(
        sobolev_norm(a.frame(k) - b.frame(k), s) for k in range(a.grid.n)
    )


def _march(u0, nl, grid, oversample, tol, max_iter
           ) -> tuple[SpaceTimePath, tuple[int, ...], SpaceTimePath]:
    """march_solve, also returning the fixed-point iterations of each frame
    and the forcing path F(u) of the frames it kept."""
    if tol <= 0 or max_iter < 1:
        raise ValueError("need tol > 0 and max_iter >= 1")
    s = nl.s_c
    E = flow_phases(u0.metric, grid, q_grid(u0.metric, u0.bandlimit))[1]
    half = 0.5j * grid.dt
    # Phi(u)_k - u_k = E(Phi(u)_{k-1} - u_{k-1}) + r_k with E unitary, so
    # frame residuals ||r_k|| < tol/(n-1) keep ||Phi(u) - u|| below tol
    frame_tol = tol / (grid.n - 1)
    coeffs = np.empty((grid.n,) + u0.coeffs.shape, dtype=np.complex128)
    coeffs[0] = u0.coeffs
    forcing = np.empty_like(coeffs)
    forcing[0] = apply_F(u0, nl, oversample).coeffs
    iterations = []
    for k in range(1, grid.n):
        F_prev = forcing[k - 1]
        a = E * (coeffs[k - 1] - half * F_prev)
        v = a - half * E * F_prev  # Lawson-Euler guess: F(u_k) ~ E F(u_{k-1})
        last = np.inf
        for it in range(1, max_iter + 1):
            try:
                F_v = apply_F(u0.with_coeffs(v), nl, oversample).coeffs
            except FloatingPointError:  # F(v) overflowed, so the increment is not finite
                raise NoConvergence(max_iter, np.inf, iterations=it, frame=k) from None
            nxt = a - half * F_v
            d = sobolev_norm(u0.with_coeffs(nxt - v), s) if np.all(np.isfinite(nxt)) else np.inf
            if d < frame_tol:
                break  # keep v: F(v) is known, and r_k = nxt - v
            ratio = d / last if it > 1 else np.inf
            if not d < last:  # not finite, or no longer decreasing
                raise NoConvergence(max_iter, ratio, iterations=it, frame=k)
            last, v = d, nxt
        else:
            raise NoConvergence(max_iter, ratio, frame=k)
        coeffs[k], forcing[k] = v, F_v
        iterations.append(it)
    return (SpaceTimePath(grid, u0.metric, u0.bandlimit, coeffs), tuple(iterations),
            SpaceTimePath(grid, u0.metric, u0.bandlimit, forcing))


def march_solve(
    u0: SpectralField,
    nl: PowerNonlinearity,
    grid: TimeGrid,
    oversample: int = 4,
    tol: float = 1e-10,
    max_iter: int = 25,
) -> SpaceTimePath:
    """Solve the trapezoid Duhamel system frame by frame.

    Frame k starts from the Lawson-Euler guess and iterates
    v <- E(u_{k-1} - i(dt/2)F(u_{k-1})) - i(dt/2)F(v) until the H^{s_c}
    increment is below tol/(n-1), so the path's Duhamel residual
    ||Phi(u) - u||_{L^inf_t H^{s_c}} is below tol.  Frame 0 is u0.  Raises
    NoConvergence naming the frame when an increment is not finite (F of the
    iterate included) or stops decreasing, or when max_iter iterations do
    not reach the tolerance; FloatingPointError when F(u0) is not finite.
    """
    return _march(u0, nl, grid, oversample, tol, max_iter)[0]


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

    initial="march" starts from march_solve (same oversample, tol and
    max_iter), so the iteration certifies the marched path; its per-frame
    iterations go into the diagnostics, and the F the march computed for
    each kept frame is the forcing of the first Duhamel call, so that call
    evaluates no F.  initial="zero" starts from the zero path -- useful as a
    uniqueness probe (both seeds must land on the same fixed point).  Raises
    NoConvergence when the iterates diverge, when max_iter iterations do not
    reach tol, or when the final residual ||Phi(u*) - u*|| is above tol;
    FloatingPointError when F of an iterate is not finite.
    """
    if tol <= 0 or max_iter < 1:
        raise ValueError("need tol > 0 and max_iter >= 1")
    s = nl.s_c
    march_iterations: tuple[int, ...] = ()
    march_s = 0.0
    forcing = None  # F(u) of the current iterate, when already known
    if initial == "free_flow":
        u = free_flow_path(u0, grid)
    elif initial == "march":
        t0 = time.perf_counter()
        u, march_iterations, forcing = _march(u0, nl, grid, oversample, tol, max_iter)
        march_s = time.perf_counter() - t0
    elif initial == "zero":
        zero = SpectralField.zero(u0.metric, u0.bandlimit)
        u = SpaceTimePath.from_fields(grid, [zero] * grid.n)
    else:
        raise ValueError(f"unknown initial iterate {initial!r}")
    t0 = time.perf_counter()
    distances: list[float] = []
    for _ in range(max_iter):
        nxt = duhamel_operator(u, u0, nl, oversample, forcing)
        forcing = None
        d = _path_distance(nxt, u, s)
        distances.append(d)
        u = nxt
        if not np.isfinite(d) or d > 1e10 * distances[0]:
            # hard divergence (relative to the first step, so the test does not
            # depend on the scale of the data); bail before the iterates overflow
            last = distances[-1] / distances[-2] if len(distances) > 1 else np.inf
            raise NoConvergence(max_iter, last, iterations=len(distances))
        if d < tol:
            ratios = tuple(
                distances[i + 1] / distances[i]
                for i in range(len(distances) - 1)
                if distances[i] > 0
            )
            residual = _path_distance(duhamel_operator(u, u0, nl, oversample), u, s)
            if residual > tol:
                raise NoConvergence(max_iter, residual / d, iterations=len(distances),
                                    residual=residual)
            timings = {"march_s": march_s, "picard_s": time.perf_counter() - t0}
            return u, PicardDiagnostics(
                tuple(distances), ratios, residual, len(distances), march_iterations, timings,
            )
    last_ratio = (
        distances[-1] / distances[-2] if len(distances) > 1 and distances[-2] > 0 else np.inf
    )
    raise NoConvergence(max_iter, last_ratio)


def splitstep_solve(
    u0: SpectralField,
    nl: PowerNonlinearity,
    dt: float,
    steps: int,
    oversample: int = 4,
) -> SpaceTimePath:
    """Strang splitting for i u_t + Delta u = sign |u|^p u.

    Half-step of the nonlinear phase u -> e^{-i*sign*(dt/2)|u|^p} u on the
    oversampled grid, full linear propagate, half nonlinear.  Returns the
    path sampled at t_k = k*dt, k = 0..steps-1 (frame 0 is the datum).
    """
    if dt <= 0 or steps < 2:
        raise ValueError("need dt > 0 and steps >= 2")
    from .evolution import propagate

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
    """Halve T until the marched solve converges; empirical local-existence threshold.

    Each solve is picard_solve(initial="march"): the march must reach every
    frame and Picard must then certify the marched path with residual <= tol.
    Makes at most max_halvings solves, at T0, T0/2, ...; when all fail it
    raises the last solve's NoConvergence, naming that T.
    """
    if max_halvings < 1:
        raise ValueError("need max_halvings >= 1")
    for halvings in range(max_halvings):
        T = T0 / 2.0**halvings
        try:
            path, diag = picard_solve(u0, nl, TimeGrid(T, n), oversample, tol, max_iter,
                                      initial="march")
            return T, path, diag
        except NoConvergence as exc:
            last = exc.with_traceback(None)  # its frames hold the failed iterates
            if halvings + 1 < max_halvings:
                log.info("no convergence at T=%g (%s); halving", T, exc)
    raise NoConvergence(
        last.max_iter, last.last_ratio, last.iterations, T=T, halvings=halvings,
        frame=last.frame, residual=last.residual,
    ) from last
