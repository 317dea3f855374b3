"""Space-time paths and adapted norms.

The V^2 norm of a discrete path is computed *exactly* over the time grid by
an O(n^2) dynamic program (the continuum supremum is approximated only
through the time discretization).  The Y^s norm twists each Fourier mode by
the free flow and takes the V^2 norm of the twisted mode path, the profile
e^{-itDelta}u; with the unitary convention this makes free flows have Y^s
norm equal to the H^s norm of the data, exactly.

y_norm runs the dynamic program on as few rows as the path's structure
allows, and every route is exact:

- a piecewise free flow (SpaceTimePath.free_steps: free flows and step
  atoms) carries its profile steps, and the twisted path is that step
  sequence, so the program runs on the steps;
- a static path (every time row equal to row 0) twists to f_xi e^{ictQ(xi)},
  whose V^2 norm is |f_xi| kappa(Q(xi)); kappa, the V^2 norm of the unit
  phase path, is computed on the distinct values of Q only;
- any other path is twisted and runs the full program on every row.

flow_phases is the only builder of the free-flow phase e^{-ictQ} on a time
grid.

U^2 and X^s have no tractable exact computation (atomic infimum, duality
supremum); they are replaced by one-sided computable surrogates
(u2_upper_bound, xnorm_lower_bound) so inequality checks remain valid
necessary-condition tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch
from .lattice import SpectralField, TorusMetric, bracket_sq, q_grid, to_grid


@dataclass(frozen=True)
class TimeGrid:
    """Uniform samples t_k = k*T/n, k = 0..n-1, on [0, T)."""

    T: float
    n: int

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")
        if self.n < 2:
            raise ValueError(f"need n >= 2 time samples, got {self.n}")

    @property
    def dt(self) -> float:
        return self.T / self.n

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n) * self.dt


@dataclass(frozen=True)
class ModePath:
    """One frequency's coefficient path a(t_0..t_{n-1}); a(T) = 0 implicitly."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.complex128).ravel()
        if v.size < 1 or not np.all(np.isfinite(v.view(np.float64))):
            raise ValueError("mode path must be a nonempty finite sequence")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SpaceTimePath:
    """A SpectralField per time node, stored as stacked coefficients.

    ``steps`` holds the profile steps of a piecewise free flow and is set
    only by ``free_steps``; every other path has ``steps = None``.
    """

    grid: TimeGrid
    metric: TorusMetric
    bandlimit: int
    coeffs: np.ndarray = field(repr=False)  # (n_t, 2M+1, 2M+1, 2M+1)
    steps: np.ndarray | None = field(default=None, init=False, repr=False)  # (k, 2M+1, 2M+1, 2M+1)

    def __post_init__(self):
        nn = 2 * self.bandlimit + 1
        c = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.grid.n, nn, nn, nn):
            raise ValueError(f"coeffs shape {c.shape} inconsistent with grid/bandlimit")
        if not np.all(np.isfinite(c.view(np.float64))):
            raise ValueError("path contains NaN or Inf")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def free_steps(cls, grid: TimeGrid, metric: TorusMetric, bandlimit: int, steps,
                   cuts=()) -> "SpaceTimePath":
        """Piecewise free flow: node t_k carries e^{it_k Delta} steps[j], with
        j the number of cuts <= k; cuts are increasing node indices in
        [1, n_t - 1], one fewer than the steps."""
        nn = 2 * bandlimit + 1
        steps = np.ascontiguousarray(steps, dtype=np.complex128)
        cuts = np.asarray(cuts, dtype=np.int64)
        if steps.shape != (cuts.size + 1, nn, nn, nn):
            raise ValueError(f"steps shape {steps.shape} inconsistent with "
                             f"{cuts.size} cuts and bandlimit {bandlimit}")
        if cuts.size and not (cuts[0] >= 1 and cuts[-1] < grid.n and np.all(np.diff(cuts) > 0)):
            raise ValueError(f"cuts must increase within [1, {grid.n - 1}], got {cuts}")
        flow = flow_phases(metric, grid, q_grid(metric, bandlimit))
        if cuts.size:
            coeffs = flow * steps[np.searchsorted(cuts, np.arange(grid.n), side="right")]
        else:
            coeffs = flow * steps
        path = cls(grid, metric, bandlimit, coeffs)
        steps.flags.writeable = False
        object.__setattr__(path, "steps", steps)
        return path

    @classmethod
    def from_fields(cls, grid: TimeGrid, fields: list[SpectralField]) -> "SpaceTimePath":
        if len(fields) != grid.n:
            raise ValueError("need one field per time node")
        first = fields[0]
        for f in fields[1:]:
            first._check_compatible(f)
        return cls(grid, first.metric, first.bandlimit,
                   np.stack([f.coeffs for f in fields]))

    def frame(self, k: int) -> SpectralField:
        return SpectralField(self.metric, self.bandlimit, self.coeffs[k])

    def map_frames(self, fn) -> "SpaceTimePath":
        return SpaceTimePath.from_fields(self.grid, [fn(self.frame(k)) for k in range(self.grid.n)])

    def mode_path(self, xi) -> ModePath:
        idx = tuple(int(x) + self.bandlimit for x in xi)
        return ModePath(self.coeffs[(slice(None),) + idx])

    def _check_same_grid(self, other: "SpaceTimePath"):
        if (self.grid != other.grid or self.bandlimit != other.bandlimit
                or self.metric != other.metric):
            raise GridMismatch("paths live on different grids")


def sobolev_norm(field_: SpectralField, s: float) -> float:
    """H^s norm (sum_xi <xi>^{2s} |u_hat|^2)^{1/2} with <xi>^2 = 1 + Q(xi)."""
    w = bracket_sq(field_.metric, field_.bandlimit) ** s
    return float(np.sqrt(np.sum(w * np.abs(field_.coeffs) ** 2)))


def spacetime_lp(path: SpaceTimePath, p_t: float, p_x: float, oversample: int = 2) -> float:
    """L^{p_t}_t L^{p_x}_x norm: left-endpoint Riemann sum in t, grid quadrature in x."""
    if p_t < 1 or p_x < 1:
        raise ValueError("Lebesgue exponents must be >= 1")
    per_t = np.array([to_grid(path.frame(k), oversample).lp_norm(p_x)
                      for k in range(path.grid.n)])
    if np.isinf(p_t):
        return float(per_t.max())
    return float((path.grid.dt * np.sum(per_t**p_t)) ** (1.0 / p_t))


def _v2_batch(values: np.ndarray) -> np.ndarray:
    """Exact discrete V^2 norm per column of a (n_t, m) array.

    Runs the chain dynamic program best[j] = max_{i<j}(best[i] + |a_j - a_i|^2)
    and ends every chain at the terminal value 0 at t = T; since best >= 0,
    chains may start at any index, and extending to the terminal node never
    decreases the sum, so the square root is the exact partition supremum.
    """
    best = np.zeros(values.shape, dtype=np.float64)
    for j in range(1, values.shape[0]):
        inc = np.abs(values[j][None, :] - values[:j]) ** 2
        best[j] = np.max(best[:j] + inc, axis=0)
    return np.sqrt(np.max(best + np.abs(values) ** 2, axis=0))


def v2_norm(mode) -> float:
    """Exact V^2 norm of one mode path (terminal convention a(T) = 0)."""
    values = (mode if isinstance(mode, ModePath) else ModePath(mode)).values
    return float(_v2_batch(values.reshape(-1, 1))[0])


def u2_upper_bound(mode) -> float:
    """Atomic upper bound for the U^2 norm of the step path.

    The path is a right-continuous step function; after merging equal
    consecutive values it is a single atom with step values phi_k, giving
    ||a||_{U^2} <= (sum_k |phi_k|^2)^{1/2}.
    """
    values = mode.values if isinstance(mode, ModePath) else np.asarray(mode, dtype=np.complex128)
    values = values.ravel()
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    phi = values[keep]
    return float(np.sqrt(np.sum(np.abs(phi) ** 2)))


def flow_phases(metric: TorusMetric, grid: TimeGrid, q: np.ndarray) -> np.ndarray:
    """Free-flow phases e^{-i c t_k Q} for every time node and every entry of
    q (an array of Q values); shape (n_t,) + q.shape.

    The exponential is taken once per distinct value of q and gathered, which
    gives the same bits as taking it entry by entry.
    """
    q_values, q_index = np.unique(q, return_inverse=True)
    phases = np.exp(-1j * metric.laplace_scale * grid.times[:, None] * q_values)
    return phases[:, q_index.ravel()].reshape((grid.n,) + np.shape(q))


def _twisted_coeffs(path: SpaceTimePath) -> np.ndarray:
    """e^{+i c t Q(xi)} u_hat(t, xi): free flow becomes a constant path."""
    q = q_grid(path.metric, path.bandlimit).ravel()
    tw = np.conj(flow_phases(path.metric, path.grid, q))
    tw *= path.coeffs.reshape(path.grid.n, -1)
    return tw


def y_norm(path: SpaceTimePath, s: float) -> float:
    """Y^s norm: (sum_xi <xi>^{2s} V^2(twisted mode path)^2)^{1/2}.

    A path built by free_steps twists to its step sequence, so V^2 runs on
    the steps.  A static path takes V^2 = |f_xi| kappa(Q(xi)), with kappa
    the V^2 norm of the unit phase path on the distinct values of Q.  Any
    other path is twisted and runs the dynamic program on every row.
    """
    flat = path.coeffs.reshape(path.grid.n, -1)
    if path.steps is not None:
        v2 = _v2_batch(path.steps.reshape(len(path.steps), -1))
    elif all(np.array_equal(row, flat[0]) for row in flat[1:]):
        q_values, q_index = np.unique(q_grid(path.metric, path.bandlimit), return_inverse=True)
        kappa = _v2_batch(flow_phases(path.metric, path.grid, q_values))
        v2 = np.abs(flat[0]) * kappa[q_index.ravel()]
    else:
        v2 = _v2_batch(_twisted_coeffs(path))
    w = bracket_sq(path.metric, path.bandlimit).ravel() ** s
    return float(np.sqrt(np.sum(w * v2**2)))


def duality_pairing(f: SpaceTimePath, v: SpaceTimePath) -> complex:
    """int_0^T int f vbar dx dt: Parseval in x, left Riemann sum in t."""
    f._check_same_grid(v)
    s = np.sum(f.coeffs * np.conj(v.coeffs))
    return complex(f.grid.dt * s)


def _random_candidate(path: SpaceTimePath, rng: np.random.Generator, kind: str) -> SpaceTimePath:
    """A random dual candidate: free flow or twisted step path on f's grid."""
    n_t = path.grid.n
    nn = 2 * path.bandlimit + 1

    def rand_field():
        return (rng.standard_normal((nn, nn, nn)) + 1j * rng.standard_normal((nn, nn, nn)))

    if kind == "free_flow":
        steps, cuts = rand_field()[None], ()
    else:  # twisted step path: piecewise-constant in the twisted coordinates
        n_blocks = int(rng.integers(2, max(3, n_t // 2) + 1))
        cuts = np.sort(rng.choice(np.arange(1, n_t), size=n_blocks - 1, replace=False))
        steps = np.stack([rand_field() for _ in range(n_blocks)])
    return SpaceTimePath.free_steps(path.grid, path.metric, path.bandlimit, steps, cuts)


def xnorm_lower_bound(f: SpaceTimePath, s: float, candidate_count: int, seed: int) -> float:
    """Sampled duality lower bound for the X^s norm of f's Duhamel integral.

    Maximizes |<f, v>| over random v normalized to y_norm(v, -s) = 1; any
    sampled sup underestimates the true duality sup, so this is one-sided.
    """
    if candidate_count < 1:
        raise ValueError("candidate_count must be >= 1")
    rng = np.random.default_rng(seed)
    best = 0.0
    kinds = ["free_flow", "step"]
    for i in range(candidate_count):
        v = _random_candidate(f, rng, kinds[i % 2])
        yn = y_norm(v, -s)
        if yn == 0:
            continue
        best = max(best, abs(duality_pairing(f, v)) / yn)
    return best
