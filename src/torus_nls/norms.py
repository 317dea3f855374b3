"""Space-time paths and adapted norms.

The V^2 norm of a discrete path is computed *exactly* over the time grid by
an O(n^2) dynamic program (the continuum supremum is approximated only
through the time discretization).  The Y^s norm twists each Fourier mode by
the free flow and takes the V^2 norm of the twisted mode path, the profile
e^{-itDelta}u; with the unitary convention this makes free flows have Y^s
norm equal to the H^s norm of the data, exactly.

A piecewise free flow (SpaceTimePath.free_steps: free flows and step
atoms) stays factored: it keeps its profile steps and cuts and
builds its (n_t, 2M+1, 2M+1, 2M+1) lab-frame coefficients only when they
are read.  Its time integral is each step times the sum of its block's
phases e^{-ictQ}, taken on the distinct values of Q.  A static path
(SpaceTimePath.from_fields on one field repeated) holds that field once;
its coefficients are a read-only broadcast view of it.

y_norm runs the dynamic program on as few rows as the path's structure
allows, and every route is exact:

- a piecewise free flow twists to its step sequence, so it runs on the steps;
- a static path twists to f_xi e^{ictQ(xi)}, whose V^2 norm is
  |f_xi| kappa(Q(xi)); kappa, the V^2 norm of the unit phase path, is
  computed on the distinct values of Q, once per (metric, grid, bandlimit),
  and kept read-only;
- any other path is twisted and runs the full program on every row.

flow_phases is the only builder of the free-flow phase e^{-ictQ} on a time
grid.

U^2 has no tractable exact computation (atomic infimum); it is replaced by
the one-sided u2_upper_bound.  The X^s norm of a Duhamel integral is a
duality supremum over v in Y^{-s} (Hadac-Herr-Koch); dual_quotient is one
term of it, and the harness samples the supremum from below.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError, GridMismatch, InvalidLebesgueExponent
from .lattice import (SpectralField, TorusMetric, bracket_power, mode_index, power_mean,
                      q_classes, q_grid, to_grid)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform samples t_k = k*T/n, k = 0..n-1, on [0, T)."""

    T: float
    n: int

    def __post_init__(self):
        if not 0 < self.T < np.inf:  # also rejects NaN
            raise ConfigError(f"T must be positive and finite, got {self.T}")
        if self.n < 2:
            raise ConfigError(f"need n >= 2 time samples, got {self.n}")

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


@dataclass(frozen=True, init=False, eq=False)
class SpaceTimePath:
    """A SpectralField per time node.

    A path built by ``free_steps`` stores its profile ``steps`` and ``cuts``
    and builds its stacked ``coeffs`` only when they are read.  A static
    path from ``from_fields`` holds its one field as ``static``.  Every other
    path stores its ``coeffs`` and has ``steps = cuts = static = None``.
    """

    grid: TimeGrid
    metric: TorusMetric
    bandlimit: int
    _coeffs: np.ndarray | None = field(default=None, repr=False)  # (n_t, 2M+1, 2M+1, 2M+1)
    steps: np.ndarray | None = field(default=None, repr=False)  # (k, 2M+1, 2M+1, 2M+1)
    cuts: np.ndarray | None = field(default=None, repr=False)  # (k - 1,) node indices
    static: SpectralField | None = field(default=None, repr=False)  # the one field

    def __init__(self, grid: TimeGrid, metric: TorusMetric, bandlimit: int, coeffs):
        nn = 2 * bandlimit + 1
        c = np.ascontiguousarray(coeffs, dtype=np.complex128)
        if c.shape != (grid.n, nn, nn, nn):
            raise ValueError(f"coeffs shape {c.shape} inconsistent with grid/bandlimit")
        if not np.all(np.isfinite(c.view(np.float64))):
            raise ValueError("path contains NaN or Inf")
        c.flags.writeable = False
        self._set(grid=grid, metric=metric, bandlimit=bandlimit, _coeffs=c)

    def _set(self, **parts):
        for name, value in parts.items():
            object.__setattr__(self, name, value)

    @classmethod
    def free_steps(cls, grid: TimeGrid, metric: TorusMetric, bandlimit: int, steps,
                   cuts=()) -> "SpaceTimePath":
        """Piecewise free flow: node t_k carries e^{it_k Delta} steps[j], with
        j the number of cuts <= k; cuts are increasing node indices in
        [1, n_t - 1], one fewer than the steps.

        Only the steps and cuts are kept (read-only); ``coeffs`` is built on
        first read, and y_norm and time_integral never read it.
        """
        nn = 2 * bandlimit + 1
        steps = np.ascontiguousarray(steps, dtype=np.complex128)
        cuts = np.asarray(cuts, dtype=np.int64)
        if steps.shape != (cuts.size + 1, nn, nn, nn):
            raise ValueError(f"steps shape {steps.shape} inconsistent with "
                             f"{cuts.size} cuts and bandlimit {bandlimit}")
        if cuts.size and not (cuts[0] >= 1 and cuts[-1] < grid.n and np.all(np.diff(cuts) > 0)):
            raise ValueError(f"cuts must increase within [1, {grid.n - 1}], got {cuts}")
        if not np.all(np.isfinite(steps.view(np.float64))):
            raise ValueError("path contains NaN or Inf")
        steps.flags.writeable = False
        cuts.flags.writeable = False
        path = cls.__new__(cls)
        path._set(grid=grid, metric=metric, bandlimit=bandlimit, steps=steps, cuts=cuts)
        return path

    @property
    def coeffs(self) -> np.ndarray:
        """(n_t, 2M+1, 2M+1, 2M+1) read-only coefficients, one frame per node."""
        if self._coeffs is None:
            flow = flow_phases(self.metric, self.grid, q_grid(self.metric, self.bandlimit))
            if self.cuts.size:
                c = flow * self.steps[np.searchsorted(self.cuts, np.arange(self.grid.n),
                                                      side="right")]
            else:
                c = flow * self.steps
            c = np.ascontiguousarray(c)
            c.flags.writeable = False
            object.__setattr__(self, "_coeffs", c)
        return self._coeffs

    def time_integral(self) -> np.ndarray:
        """Left Riemann sum dt * sum_k coeffs[k], a (2M+1)^3 array.

        A piecewise free flow takes it from its steps: step j is multiplied
        by the sum of e^{-ic t_k Q} over its block of nodes, a phase sum
        taken on the distinct values of Q and gathered.  A stored path sums
        its coefficients, so the integral is defined for every path and a
        caller need not know how its path was built.
        """
        if self.steps is None:
            return self.grid.dt * self.coeffs.sum(axis=0)
        q_values, q_index = q_classes(self.metric, self.bandlimit)
        starts = np.concatenate(([0], self.cuts))
        block_sums = np.add.reduceat(flow_phases(self.metric, self.grid, q_values), starts)
        flat = np.einsum("jm,jm->m", block_sums[:, q_index],
                         self.steps.reshape(len(self.steps), -1))
        return self.grid.dt * flat.reshape(self.steps.shape[1:])

    @classmethod
    def from_fields(cls, grid: TimeGrid, fields: list[SpectralField]) -> "SpaceTimePath":
        """Frame k is fields[k].  A list repeating one object ([f] * n) is a
        static path that holds f once, its coeffs a read-only broadcast view;
        equal but distinct fields are stacked into a stored path."""
        if len(fields) != grid.n:
            raise ValueError("need one field per time node")
        first = fields[0]
        if all(f is first for f in fields):
            path = cls.__new__(cls)
            path._set(grid=grid, metric=first.metric, bandlimit=first.bandlimit, static=first,
                      _coeffs=np.broadcast_to(first.coeffs, (grid.n,) + first.coeffs.shape))
            return path
        for f in fields[1:]:
            first._check_compatible(f)
        return cls(grid, first.metric, first.bandlimit,
                   np.stack([f.coeffs for f in fields]))

    def frame(self, k: int) -> SpectralField:
        return SpectralField(self.metric, self.bandlimit, self.coeffs[k])

    def grid_frames(self, oversample: int):
        """Each frame on the oversample*(2M+1) grid, a GridField per time node
        in order.  A static path transforms its field once and yields that
        read-only grid at every node."""
        if self.static is not None:
            g = to_grid(self.static, oversample)
            g.samples.flags.writeable = False
            return itertools.repeat(g, self.grid.n)
        return (to_grid(self.frame(k), oversample) for k in range(self.grid.n))

    def map_frames(self, fn) -> "SpaceTimePath":
        """fn of every frame."""
        return SpaceTimePath.from_fields(self.grid, [fn(self.frame(k)) for k in range(self.grid.n)])

    def mode_path(self, xi) -> ModePath:
        return ModePath(self.coeffs[(slice(None),) + mode_index(xi, self.bandlimit)])

    def _check_same_grid(self, other: "SpaceTimePath"):
        if (self.grid != other.grid or self.bandlimit != other.bandlimit
                or self.metric != other.metric):
            raise GridMismatch("paths live on different grids")


def sobolev_norm(field_: SpectralField, s: float) -> float:
    """H^s norm (sum_xi <xi>^{2s} |u_hat|^2)^{1/2} with <xi>^2 = 1 + Q(xi)."""
    w = bracket_power(field_.metric, field_.bandlimit, s)
    with np.errstate(over="ignore"):  # a norm past the float range is inf
        return float(np.sqrt(np.sum(w * np.abs(field_.coeffs) ** 2)))


def spacetime_lp(path: SpaceTimePath, p_t: float, p_x: float, oversample: int = 2) -> float:
    """L^{p_t}_t L^{p_x}_x norm: left-endpoint Riemann sum in t, grid quadrature in x,
    each a power_mean, so finite at every amplitude.  A static path takes its one
    field's L^{p_x} norm once."""
    if not (p_t >= 1 and p_x >= 1):  # also rejects NaN
        raise InvalidLebesgueExponent(f"Lebesgue exponents must be >= 1, got {p_t}, {p_x}")
    if path.static is not None:
        per_t = np.full(path.grid.n, to_grid(path.static, oversample).lp_norm(p_x))
    else:
        per_t = np.array([g.lp_norm(p_x) for g in path.grid_frames(oversample)])
    return power_mean(per_t, p_t, lambda a: path.grid.dt * np.sum(a))


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
    values = (mode if isinstance(mode, ModePath) else ModePath(mode)).values
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
    return np.take(phases, q_index.ravel(), axis=1).reshape((grid.n,) + np.shape(q))


@lru_cache(maxsize=8)
def _kappa(metric: TorusMetric, grid: TimeGrid, bandlimit: int) -> np.ndarray:
    """kappa on the distinct values of Q (as q_classes orders them),
    read-only: the V^2 norm of the unit phase path e^{ictQ}."""
    kappa = _v2_batch(flow_phases(metric, grid, q_classes(metric, bandlimit)[0]))
    kappa.flags.writeable = False
    return kappa


def _twisted_coeffs(path: SpaceTimePath) -> np.ndarray:
    """e^{+i c t Q(xi)} u_hat(t, xi): free flow becomes a constant path."""
    q = q_grid(path.metric, path.bandlimit).ravel()
    tw = np.conj(flow_phases(path.metric, path.grid, q))
    tw *= path.coeffs.reshape(path.grid.n, -1)
    return tw


def y_norm(path: SpaceTimePath, s: float) -> float:
    """Y^s norm: (sum_xi <xi>^{2s} V^2(twisted mode path)^2)^{1/2}.

    A path built by free_steps twists to its step sequence, so V^2 runs on
    the steps and the lab-frame coefficients are never built.  A static
    path takes V^2 = |f_xi| kappa(Q(xi)), with kappa the V^2 norm of the
    unit phase path, computed once per (metric, grid, bandlimit) on the
    distinct values of Q, taken from its held field.  Any other path is
    twisted and runs the dynamic program on every row, also when its rows
    happen to be equal.
    """
    if path.steps is not None:
        v2 = _v2_batch(path.steps.reshape(len(path.steps), -1))
    elif path.static is not None:
        q_index = q_classes(path.metric, path.bandlimit)[1]
        v2 = (np.abs(path.static.coeffs.ravel())
              * _kappa(path.metric, path.grid, path.bandlimit)[q_index])
    else:
        v2 = _v2_batch(_twisted_coeffs(path))
    w = bracket_power(path.metric, path.bandlimit, s).ravel()
    return float(np.sqrt(np.sum(w * v2**2)))


def duality_pairing(f: SpaceTimePath, v: SpaceTimePath) -> complex:
    """int_0^T int f vbar dx dt: Parseval in x, left Riemann sum in t.  A
    static f pairs its field with v's time integral, so a factored v's
    coeffs are never built."""
    f._check_same_grid(v)
    if f.static is not None:
        return complex(np.sum(f.static.coeffs * np.conj(v.time_integral())))
    return complex(f.grid.dt * np.sum(f.coeffs * np.conj(v.coeffs)))


def dual_quotient(f: SpaceTimePath, v: SpaceTimePath, s: float) -> float:
    """|<f, v>| / ||v||_{Y^{-s}}, 0 when v = 0: one sampled term of the
    duality supremum that gives the X^s norm of f's Duhamel integral."""
    yn = y_norm(v, -s)
    return abs(duality_pairing(f, v)) / yn if yn > 0 else 0.0
