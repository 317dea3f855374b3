"""Random data generators for the verification harness.

Every sampler is reproducible from an explicit numpy Generator and returns
a SpaceTimePath on the caller's time grid.  Frequency localization is
expressed by a support descriptor: a dyadic shell N/2 < |xi| <= N, the ball
|xi| <= N, or a cube of side N anchored near the origin (the shape used by
the scale-invariant Strichartz estimate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SamplerDegenerate
from ..evolution import free_flow_path
from ..lattice import SpectralField, TorusMetric, euclidean_norm_grid
from ..littlewood_paley import cube_mask
from ..norms import SpaceTimePath, TimeGrid

KINDS = ("gaussian_shell", "free_flow", "step_atom", "solver_output")
SUPPORTS = ("shell", "ball", "cube")


@dataclass(frozen=True)
class SamplerSpec:
    """What to generate: path kind, amplitude, and frequency support."""

    kind: str
    amplitude: float = 1.0
    support: str = "shell"
    decay: float = 0.0  # coefficient decay <xi>^{-decay}; 0 = flat

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        if self.support not in SUPPORTS:
            raise ValueError(f"unknown support {self.support!r}")
        if not 0 < self.amplitude < np.inf:
            raise ValueError(f"amplitude must be positive and finite, got {self.amplitude}")


def support_mask(support: str, N: int, bandlimit: int) -> np.ndarray:
    r = euclidean_norm_grid(bandlimit)
    if support == "shell":
        if N == 1:
            return r <= 1.0
        return (r > N / 2.0) & (r <= N)
    if support == "ball":
        return r <= N
    if support == "cube":
        # side-N cube anchored at -N//2: fits in the lattice once M >= N/2
        return cube_mask((-(N // 2),) * 3, N, bandlimit)
    raise ValueError(f"unknown support {support!r}")


def random_field(
    spec: SamplerSpec, metric: TorusMetric, bandlimit: int, N: int, rng: np.random.Generator
) -> SpectralField:
    """Complex-gaussian coefficients on the requested support, l2-normalized
    to the spec amplitude."""
    nn = 2 * bandlimit + 1
    mask = support_mask(spec.support, N, bandlimit)
    if not mask.any():
        raise SamplerDegenerate(
            f"empty frequency support: {spec.support} N={N} within bandlimit {bandlimit}"
        )
    c = (rng.standard_normal((nn, nn, nn)) + 1j * rng.standard_normal((nn, nn, nn)))
    c = np.where(mask, c, 0.0)
    if spec.decay:
        c = c * (1.0 + euclidean_norm_grid(bandlimit) ** 2) ** (-spec.decay / 2.0)
    norm = np.linalg.norm(c)
    if norm == 0:
        raise SamplerDegenerate("sampler produced identically-zero data")
    return SpectralField(metric, bandlimit, spec.amplitude / norm * c)


def sample_path(
    spec: SamplerSpec,
    metric: TorusMetric,
    bandlimit: int,
    N: int,
    grid: TimeGrid,
    rng: np.random.Generator,
) -> SpaceTimePath:
    """Draw one random space-time path of the requested kind."""
    if spec.kind == "gaussian_shell":
        f = random_field(spec, metric, bandlimit, N, rng)
        return SpaceTimePath.from_fields(grid, [f] * grid.n)

    if spec.kind == "free_flow":
        return free_flow_path(random_field(spec, metric, bandlimit, N, rng), grid)

    if spec.kind == "step_atom":
        # piecewise free flow: constant twisted coefficients per time block
        n_blocks = max(2, min(4, grid.n // 2))
        cuts = np.sort(rng.choice(np.arange(1, grid.n), size=n_blocks - 1, replace=False))
        steps = [random_field(spec, metric, bandlimit, N, rng).coeffs for _ in range(n_blocks)]
        return SpaceTimePath.free_steps(grid, metric, bandlimit, np.stack(steps), cuts)

    if spec.kind == "solver_output":
        from ..nonlinearity import PowerNonlinearity
        from ..solver import splitstep_solve

        u0 = random_field(spec, metric, bandlimit, N, rng)
        return splitstep_solve(u0, PowerNonlinearity(2.0), grid.dt, grid.n, oversample=2)

    raise ValueError(f"unknown sampler kind {spec.kind!r}")
