"""Flat key = value run configuration (UTF-8, # comments).

Deliberately not nested: experiment configs live in logs and diffs, and a
flat format keeps those reviewable.  Unknown keys are rejected by name so
typos fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .lattice import TorusMetric
from .nonlinearity import PowerNonlinearity
from .norms import TimeGrid


@dataclass(frozen=True)
class RunConfig:
    theta1: float = 1.0
    theta2: float = 1.0
    theta3: float = 1.0
    laplace_scale: float = 39.478417604357434  # 4*pi^2
    p: float = 2.0
    sign: int = 1
    bandlimit: int = 8
    T: float = 0.5
    n_time: int = 16
    oversample: int = 2
    profile: str = "sharp"
    seed: int = 0
    output_dir: str = "runs"

    def __post_init__(self):
        # building the value types checks the rules of theta, laplace_scale, p, sign, T
        # and n_time, which they own
        self.metric
        PowerNonlinearity(self.p, self.sign)
        TimeGrid(self.T, self.n_time)
        if self.profile not in ("sharp", "smooth"):
            raise ConfigError(f"profile must be sharp|smooth, got {self.profile!r}")
        if self.bandlimit < 0:
            raise ConfigError(f"bandlimit must be non-negative, got {self.bandlimit}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.oversample < 2:
            raise ConfigError(f"oversample must be at least 2, got {self.oversample}")

    @property
    def theta(self) -> tuple[float, float, float]:
        return (self.theta1, self.theta2, self.theta3)

    @property
    def metric(self) -> TorusMetric:
        return TorusMetric(self.theta, self.laplace_scale)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_CASTS = {"float": float, "int": int, "str": str}


def parse_config_text(text: str) -> RunConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _CASTS[_FIELD_TYPES[key]](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def save_config(cfg: RunConfig, path) -> None:
    # str() of Python floats is the shortest round-tripping repr, so the
    # config round-trips bit-exactly
    out = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        out.append(f"{f.name} = {v}")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def config_dict(cfg: RunConfig) -> dict:
    return {f.name: getattr(cfg, f.name) for f in fields(cfg)}
