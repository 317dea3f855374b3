"""Space-time paths and adapted norms.

The V^2 norm of a discrete path is computed *exactly* over the time grid by
an O(n^2) dynamic program (the continuum supremum is approximated only
through the time discretization).  The Y^s norm twists each Fourier mode by
the free flow and takes the V^2 norm of the twisted mode path; with the
unitary convention this makes free flows have Y^s norm equal to the H^s
norm of the data, exactly.

y_norm runs the dynamic program only on the rows and columns that can
change the result, chosen from the input:

- a static path (every time row equal to row 0) twists to f_xi e^{ictQ(xi)},
  whose V^2 norm is |f_xi| kappa(Q(xi)); kappa, the V^2 norm of the unit
  phase path, is computed on the distinct values of Q only;
- any other path is twisted, and a row is dropped when every twisted value
  lies within 64 eps of the last kept row's, relative to that row.  Merging
  equal consecutive values leaves V^2 unchanged, and replacing rows by a
  value within delta moves V^2 by at most 2 delta sqrt(n+1), so step atoms
  run on their n_blocks rows and free flows on one.  A path with no such
  rows runs the full program unchanged.

flow_phases is the only builder of the free-flow phase e^{-ictQ} on a time
grid, so a step atom or free flow built with it twists back to rows that
agree to a few ulps, which the row merge above relies on.

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
    """A SpectralField per time node, stored as stacked coefficients."""

    grid: TimeGrid
    metric: TorusMetric
    bandlimit: int
    coeffs: np.ndarray = field(repr=False)  # (n_t, 2M+1, 2M+1, 2M+1)

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

    Appends the terminal value 0 at t = T, then runs the chain dynamic
    program best[j] = max_{i<j}(best[i] + |a_j - a_i|^2); since best >= 0,
    chains may start at any index, and extending to the terminal node never
    decreases the sum, so sqrt(best[-1]) is the exact partition supremum.
    """
    a = np.concatenate([values, np.zeros((1, values.shape[1]), dtype=values.dtype)])
    n = a.shape[0]
    best = np.zeros_like(a, dtype=np.float64)
    for j in range(1, n):
        inc = np.abs(a[j][None, :] - a[:j]) ** 2
        best[j] = np.max(best[:j] + inc, axis=0)
    return np.sqrt(best[-1])


def v2_norm(mode) -> float:
    """Exact V^2 norm of one mode path (terminal convention a(T) = 0)."""
    values = mode.values if isinstance(mode, ModePath) else np.asarray(mode, dtype=np.complex128)
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


# rows of a twisted path closer than this (relative) to the last kept row are
# merged into it: a few ulps is what |e^{-ictQ}|^2 differs from 1 by
_MERGE_RTOL = 64 * np.finfo(np.float64).eps


def _distinct_rows(values: np.ndarray) -> list[int]:
    """Indices of the rows of a (n_t, m) array that differ, beyond
    _MERGE_RTOL, from the last kept row; one row is compared at a time."""
    keep = [0]
    ref, tol = values[0], _MERGE_RTOL * np.abs(values[0])
    for k in range(1, values.shape[0]):
        if not np.all(np.abs(values[k] - ref) <= tol):
            keep.append(k)
            ref, tol = values[k], _MERGE_RTOL * np.abs(values[k])
    return keep


def y_norm(path: SpaceTimePath, s: float) -> float:
    """Y^s norm: (sum_xi <xi>^{2s} V^2(twisted mode path)^2)^{1/2}.

    A static path takes V^2 = |f_xi| kappa(Q(xi)), with kappa the V^2 norm
    of the unit phase path on the distinct values of Q.  Any other path is
    twisted and runs the dynamic program on the rows that differ from the
    last kept one by more than 64 eps relatively; a merged row within delta
    of its neighbour moves V^2 by at most 2 delta sqrt(n+1), and a path with
    no merged row gives exactly the full program's value.
    """
    flat = path.coeffs.reshape(path.grid.n, -1)
    if all(np.array_equal(row, flat[0]) for row in flat[1:]):
        q_values, q_index = np.unique(q_grid(path.metric, path.bandlimit), return_inverse=True)
        kappa = _v2_batch(flow_phases(path.metric, path.grid, q_values))
        v2 = np.abs(flat[0]) * kappa[q_index.ravel()]
    else:
        tw = _twisted_coeffs(path)
        v2 = _v2_batch(tw[_distinct_rows(tw)])
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
    flow = flow_phases(path.metric, path.grid, q_grid(path.metric, path.bandlimit))

    def rand_field():
        return (rng.standard_normal((nn, nn, nn)) + 1j * rng.standard_normal((nn, nn, nn)))

    if kind == "free_flow":
        coeffs = flow * rand_field()[None]
    else:  # twisted step path: piecewise-constant in the twisted coordinates
        n_blocks = int(rng.integers(2, max(3, n_t // 2) + 1))
        cuts = np.sort(rng.choice(np.arange(1, n_t), size=n_blocks - 1, replace=False))
        block_of = np.searchsorted(cuts, np.arange(n_t), side="right")
        blocks = np.stack([rand_field() for _ in range(n_blocks)])
        coeffs = flow * blocks[block_of]
    return SpaceTimePath(path.grid, path.metric, path.bandlimit, coeffs)


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
