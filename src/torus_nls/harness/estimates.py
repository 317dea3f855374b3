"""Experiment driver: ratio statistics, log-log slope fits, verdicts.

Every estimate check is a necessary-condition test: the implicit constants
of the inequalities are unknown, so we verify (a) the fitted scaling slope
of the worst-case ratio does not exceed the predicted exponent plus slack,
and (b) the normalized ratios stay bounded across the dyadic range
(ratio_cap).  A failed verdict is reportable data, not an exception.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict

import numpy as np

from ..errors import ConfigError, DegenerateSeries, GuardExceeded, NotFound
from ..io import provenance
from ..lattice import TorusMetric
from .samplers import SamplerSpec

# desk-scale guard: lattice at most 33^3 (M <= 16), time grid at most 512,
# sample grids at most 132^3
GUARD_BANDLIMIT = 16
GUARD_TIME = 512
GUARD_GRID_SIDE = 4 * (2 * GUARD_BANDLIMIT + 1)

DEFAULT_SLOPE_SLACK = 0.15
DEFAULT_RATIO_CAP = 3.0


def desk_guard(bandlimit: int, n_time: int = 0, oversample: int = 1) -> None:
    """GuardExceeded before allocating past desk scale: a lattice of at most
    GUARD_BANDLIMIT, a time grid of at most GUARD_TIME nodes, and sample grids
    of at most GUARD_GRID_SIDE points a side."""
    over = [f"{name} {value} > {limit}" for name, value, limit in (
        ("bandlimit", bandlimit, GUARD_BANDLIMIT), ("time grid", n_time, GUARD_TIME),
        ("grid side", oversample * (2 * bandlimit + 1), GUARD_GRID_SIDE),
    ) if value > limit]
    if over:
        raise GuardExceeded(f"{', '.join(over)}: past the desk guard")


@dataclass(frozen=True)
class EstimateSpec:
    """One executable inequality check."""

    name: str
    lhs: str                       # human-readable functional description
    rhs: str
    predicted_exponent: float      # expected power of N in lhs/rhs
    dyadic_range: tuple[int, ...]
    sampler: SamplerSpec
    trials: int = 50
    seed: int = 0
    slack: float = DEFAULT_SLOPE_SLACK
    ratio_cap: float = DEFAULT_RATIO_CAP
    params: tuple = field(default=())  # preset-specific ((key, value), ...)

    def __post_init__(self):
        rng = self.dyadic_range
        if not rng or any(n < 1 or (n & (n - 1)) for n in rng) or list(rng) != sorted(rng):
            raise ConfigError("dyadic_range must be ascending powers of two, nonempty")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.slack < np.inf:
            raise ConfigError(f"slack must be finite and >= 0, got {self.slack}")

    def param(self, key):
        params = dict(self.params)
        if key not in params:
            raise NotFound(f"preset {self.name!r} has no param {key!r}")
        return params[key]


@dataclass(frozen=True)
class RunEnvironment:
    """Ambient discretization shared by all trials of a run."""

    metric: TorusMetric = TorusMetric()
    T: float = 1.0
    oversample: int = 2
    profile: str = "sharp"
    unsafe: bool = False
    allow_large_T: bool = False

    def check_guard(self, bandlimit: int = 0, n_time: int = 0, oversample: int | None = None):
        """desk_guard at the oversample the grids are made at (by default this
        run's), then 0 < T <= 1; unsafe lifts both."""
        if self.unsafe:
            return
        desk_guard(bandlimit, n_time, self.oversample if oversample is None else oversample)
        if self.T > 1.0 and not self.allow_large_T:
            raise GuardExceeded("harness runs require 0 < T <= 1 (use allow_large_T)")


@dataclass(frozen=True)
class ExperimentReport:
    spec: dict
    ratios: tuple          # dicts {"N", "trial", "lhs", "rhs", "ratio"}
    max_ratio: float
    slope: dict            # {"value", "intercept", "residual"} or {} if degenerate
    verdict: str           # pass | fail | inconclusive
    flags: tuple
    environment: dict
    timings: dict          # wall seconds: {"total_s", "per_N_s": {str(N): s}}

    def to_json_dict(self) -> dict:
        return {
            "preset": self.spec.get("name"),
            "spec": self.spec,
            "ratios": list(self.ratios),
            "max_ratio": self.max_ratio,
            "slope": self.slope,
            "verdict": self.verdict,
            "flags": list(self.flags),
            "environment": self.environment,
            "timings": self.timings,
            "provenance": provenance(),
        }


def fit_scaling_slope(series) -> tuple[float, float, float]:
    """Least-squares slope of log2(value) against log2(N).

    series: iterable of (N, value) pairs, at least 3, all values positive.
    Returns (slope, intercept, residual) with residual the RMS misfit.
    """
    pts = [(float(n), float(v)) for n, v in series]
    if len(pts) < 3:
        raise DegenerateSeries(f"need >= 3 points, got {len(pts)}")
    if any(v <= 0 or n <= 0 for n, v in pts):
        raise DegenerateSeries("all (N, value) entries must be positive")
    x = np.log2([n for n, _ in pts])
    y = np.log2([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    res = float(np.sqrt(np.mean((y - fit) ** 2)))
    return float(slope), float(intercept), res


def _verdict(spec: EstimateSpec, per_n_max: dict) -> tuple[str, dict, tuple]:
    """Pure verdict function of the collected per-N worst-case ratios."""
    flags = []
    ns = sorted(per_n_max)
    positive = [(n, per_n_max[n]) for n in ns if per_n_max[n] > 0]
    if not positive:
        return "pass", {}, ("degenerate",)
    if len(positive) < 3:
        return "inconclusive", {}, ("short_series",)
    slope, intercept, residual = fit_scaling_slope(positive)
    slope_ok = slope <= spec.predicted_exponent + spec.slack

    # boundedness proxy on N^{-predicted} * ratio: the top half of the
    # dyadic range must not exceed ratio_cap times the bottom half
    normalized = {n: v / n**spec.predicted_exponent for n, v in positive}
    keys = sorted(normalized)
    half = len(keys) // 2
    bottom = max(normalized[k] for k in keys[:half]) if half else max(normalized.values())
    top = max(normalized[k] for k in keys[half:])
    cap_ok = top <= spec.ratio_cap * bottom
    if not slope_ok:
        flags.append("slope_exceeded")
    if not cap_ok:
        flags.append("ratio_cap_exceeded")
    verdict = "pass" if (slope_ok and cap_ok) else "fail"
    return verdict, {"value": slope, "intercept": intercept, "residual": residual}, tuple(flags)


def run_estimate(spec: EstimateSpec, env: RunEnvironment | None = None, evaluator=None) -> ExperimentReport:
    """Run all trials of one estimate and produce the report.

    ``evaluator(spec, env, N, rng) -> (lhs, rhs)`` computes one draw; when
    omitted it is resolved from the preset registry by spec.name.  Trial t
    draws from the stream SeedSequence([seed, t]), so results are
    deterministic, independent of execution order, and no two (seed, trial)
    pairs share a stream.  The report records the run's wall time and each
    N's share of it, summed over the trials.
    """
    start = time.perf_counter()
    env = env or RunEnvironment()
    if evaluator is None:
        from .presets import get_evaluator

        evaluator = get_evaluator(spec.name)

    records = []
    per_n_max: dict[int, float] = {n: 0.0 for n in spec.dyadic_range}
    per_n_s: dict[int, float] = {n: 0.0 for n in spec.dyadic_range}
    for trial in range(spec.trials):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, trial]))
        for N in spec.dyadic_range:
            t0 = time.perf_counter()
            lhs, rhs = evaluator(spec, env, N, rng)
            per_n_s[N] += time.perf_counter() - t0
            ratio = lhs / rhs if rhs > 0 else 0.0
            records.append(
                {"N": N, "trial": trial, "lhs": float(lhs), "rhs": float(rhs),
                 "ratio": float(ratio)}
            )
            per_n_max[N] = max(per_n_max[N], ratio)

    verdict, slope, flags = _verdict(spec, per_n_max)
    return ExperimentReport(
        spec={**asdict(spec), "sampler": asdict(spec.sampler)},
        ratios=tuple(records),
        max_ratio=max(per_n_max.values()),
        slope=slope,
        verdict=verdict,
        flags=flags,
        environment={
            "metric": {"theta": list(env.metric.theta), "laplace_scale": env.metric.laplace_scale},
            "T": env.T,
            "oversample": env.oversample,
            "profile": env.profile,
            "seed": spec.seed,
        },
        timings={"total_s": time.perf_counter() - start,
                 "per_N_s": {str(n): s for n, s in per_n_s.items()}},
    )
