"""The three benchmark workloads: their inputs, operations and checks.

A workload hands out rounds.  Round r is a fixed list of operations whose
inputs come from ``SeedSequence([seed, r + 1])`` (``verify`` uses round 0's
seed in every round); round -1 is the warm-up, which runs on the workload
built at its reduced size ``WARM_UP``.  Each operation is a call
into the package (``run``) followed by checks of its outputs (``check``)
made with the references in ``references.py``.  The package is reached
through module attributes at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import references as ref
from torus_nls import cli, harness
from torus_nls.harness import presets
from torus_nls.norms import SpaceTimePath, TimeGrid, y_norm

THETA = (1.0, math.sqrt(2.0), math.sqrt(3.0))  # irrational torus, as in the acceptance suite
LAPLACE_SCALE = 4.0 * math.pi**2               # the CLI default
FIND_T_TOL = 1e-8                              # tolerance find_T passes to picard_solve


@dataclass
class Op:
    """One closed-loop operation: run() is timed, check(result) is not.

    check returns a list of problems; an empty list means the outputs are
    correct.  It raises ProgramError when the call exited non-zero and left
    no outputs to check.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


class ProgramError(Exception):
    """The program refused the operation, so there is no output to check."""


def _seeds(seed: int, r: int, k: int) -> list[int]:
    return [int(x) for x in np.random.SeedSequence([seed, r + 1]).generate_state(k) % 2**31]


def _call_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.cli_main(argv)


def _write_config(path: Path, out: Path, **values) -> Path:
    lines = [f"theta{i + 1} = {t!r}" for i, t in enumerate(THETA)]
    lines += [f"{k} = {v}" for k, v in values.items()]
    lines.append(f"output_dir = {out}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def output_bytes(directory: Path) -> int:
    return sum(f.stat().st_size for f in directory.rglob("*") if f.is_file())


class Solve:
    """``torus-nls solve --find-T`` at M=8, n_time=16, default oversample.

    Each round solves three data: a plane wave c e_xi at p=2.5 given with
    ``--u0``, and the CLI's random datum at p=2 and at p=2.5.
    """

    name = "solve"
    nominal_round_s = 4.5
    WARM_UP = {"bandlimit": 2, "n_time": 8}
    PLANE_AMPLITUDE = 0.7
    PLANE_P = 2.5

    def __init__(self, work: Path, seed: int, bandlimit: int = 8, n_time: int = 16):
        self.work, self.seed = work, seed
        self.M, self.n_time = bandlimit, n_time
        self.out = work / "out"
        self.configs = {
            p: _write_config(work / f"p{p}.config", self.out, p=p, bandlimit=bandlimit,
                             n_time=n_time, T=0.5)
            for p in (2.0, 2.5)
        }

    def round(self, r: int) -> list[Op]:
        s_p2, s_p25, s_plane = _seeds(self.seed, r, 3)
        rng = np.random.default_rng(s_plane)
        k = min(3, self.M)
        xi = tuple(int(x) for x in rng.integers(-k, k + 1, size=3))
        c = self.PLANE_AMPLITUDE * np.exp(2j * np.pi * rng.random())
        nn = 2 * self.M + 1
        coeffs = np.zeros((nn, nn, nn), complex)
        coeffs[tuple(x + self.M for x in xi)] = c
        u0 = self.work / f"plane_{r + 1}.field.json"
        ref.write_field(u0, THETA, LAPLACE_SCALE, coeffs)
        return [
            self._op("plane wave p=2.5", 2.5, s_plane, "--u0", str(u0), plane=(xi, c)),
            self._op("random p=2", 2.0, s_p2),
            self._op("random p=2.5", 2.5, s_p25),
        ]

    def _op(self, label: str, p: float, seed: int, *extra: str, plane=None) -> Op:
        argv = ["--config", str(self.configs[p]), "--seed", str(seed), "solve", "--find-T",
                *extra]
        return Op(label, lambda: _call_cli(argv), lambda rc: self._check(rc, plane))

    def _check(self, rc, plane) -> list:
        if rc != 0:
            raise ProgramError(f"exit code {rc}")
        problems = []
        diag = json.loads((self.out / "diagnostics.json").read_text(encoding="utf-8"))
        if not diag["residual"] <= FIND_T_TOL:
            problems.append(f"residual {diag['residual']} above {FIND_T_TOL}")
        frames = sorted((self.out / "frames").glob("frame_*.field.json"))
        if len(frames) != self.n_time:
            return problems + [f"{len(frames)} frames, expected {self.n_time}"]
        cubes = []
        for f in frames:
            try:
                M, cube = ref.read_field(f)
            except ValueError as exc:
                return problems + [str(exc)]
            if M != self.M:
                return problems + [f"{f.name}: bandlimit {M}, expected {self.M}"]
            cubes.append(cube)
        if plane is not None:
            problems += self._check_plane(np.stack(cubes), diag["T"], *plane)
        return problems

    def _check_plane(self, path: np.ndarray, T: float, xi, c) -> list:
        t = np.arange(self.n_time) * (T / self.n_time)
        q = sum(th * x * x for th, x in zip(THETA, xi))
        exact = ref.plane_wave(c, q, self.PLANE_P, 1, LAPLACE_SCALE, t)
        idx = (slice(None),) + tuple(x + self.M for x in xi)
        err = np.max(np.abs(path[idx] - exact))
        rest = path.copy()
        rest[idx] = 0
        leak = np.max(np.abs(rest))
        bound = 2 * ref.plane_wave_trapezoid_bound(c, self.PLANE_P, T, self.n_time) + 10 * FIND_T_TOL
        if err <= bound and leak <= 1e-12:
            return []
        return [f"plane wave xi={xi}: error {err:.3e} (bound {bound:.3e}), "
                f"other modes {leak:.3e}"]


class Contraction:
    """``contraction_ratio`` draws with the set-up of acceptance criterion 6:
    M=8, 64 nodes on T=0.5, 4 step-atom duals, log-normal amplitudes.  Each
    round draws once at each p in (2, 2.5, 3, 4)."""

    name = "contraction"
    nominal_round_s = 3.0
    WARM_UP = {"bandlimit": 2, "n_time": 8}
    PS = (2.0, 2.5, 3.0, 4.0)
    DUALS = 4  # step-atom dual candidates, as in acceptance criterion 6
    SCALE = 4.0  # a power of two, so the scaled data are exact multiples
    out = None  # writes no files

    def __init__(self, work: Path, seed: int, bandlimit: int = 8, n_time: int = 64):
        self.seed, self.M = seed, bandlimit
        self.env = harness.RunEnvironment()
        self.grid = TimeGrid(0.5, n_time)

    def _draw(self, p: float, draw_seed: int, scale: float = 1.0) -> float:
        rng = np.random.default_rng(draw_seed)
        amp = 0.1 * np.exp(1.5 * rng.standard_normal())
        return harness.contraction_ratio(p, scale * amp, self.M, self.grid, self.env, rng,
                                         dual_candidates=self.DUALS)

    def round(self, r: int) -> list[Op]:
        # the costly checks (a second draw, a step atom) run on one draw per
        # round, at p = PS[r % 4], so a run checks every p alike
        seeds = _seeds(self.seed, r, len(self.PS))
        return [Op(f"draw p={p}", lambda p=p, s=s: self._draw(p, s),
                   lambda ratio, p=p, s=s, full=(i == r % len(self.PS)):
                   self._check(ratio, p, s, full))
                for i, (p, s) in enumerate(zip(self.PS, seeds))]

    def _check(self, ratio: float, p: float, draw_seed: int, full: bool) -> list:
        if not (math.isfinite(ratio) and ratio > 0):
            return [f"ratio {ratio} at p={p}"]
        if not full:
            return []
        problems = []
        again = self._draw(p, draw_seed, self.SCALE)
        if not ref.close(ratio, again, 1e-9):
            problems.append(f"p={p}: ratio {ratio!r} but {again!r} at {self.SCALE}x amplitude")
        return problems + self._check_step_atom(draw_seed, 1.5 - 2.0 / p)

    def _check_step_atom(self, seed: int, s: float) -> list:
        """y_norm of a step atom against the brute-force V^2 of its blocks."""
        rng = np.random.default_rng(seed)
        n, nn = self.grid.n, 2 * self.M + 1
        n_blocks = min(4, n // 2)
        cuts = np.sort(rng.choice(np.arange(1, n), size=n_blocks - 1, replace=False))
        block_of = np.searchsorted(cuts, np.arange(n), side="right")
        blocks = (rng.standard_normal((n_blocks, nn, nn, nn))
                  + 1j * rng.standard_normal((n_blocks, nn, nn, nn)))
        metric = self.env.metric
        q = ref.japanese_bracket_sq(metric.theta, self.M) - 1.0
        flow = np.exp(-1j * metric.laplace_scale * self.grid.times[:, None, None, None] * q)
        path = SpaceTimePath(self.grid, metric, self.M, flow * blocks[block_of])
        v2 = ref.brute_force_v2_sq(blocks.reshape(n_blocks, -1))
        problems = []
        for sign in (1.0, -1.0):
            w = ref.japanese_bracket_sq(metric.theta, self.M).ravel() ** (sign * s)
            expected = math.sqrt(float(np.sum(w * v2)))
            got = y_norm(path, sign * s)
            if not ref.close(got, expected, 1e-9):
                problems.append(f"y_norm(step atom, {sign * s:+.3f}) = {got!r}, "
                                f"brute force {expected!r}")
        return problems


class Verify:
    """``torus-nls verify <preset> --trials 2`` for 11 of the 16 presets.

    Every round runs the same CLI seed, so a verdict that depends on the
    seed would fail in every round alike.  At 2 trials five verdicts do
    depend on it, and those presets are left out: ``contraction``,
    ``incomparable_reduced`` and ``bony_convergence`` failed on some seeds
    tried, and ``comparable_p23_low`` and ``comparable_p23_high`` pass with a
    slope or cap margin within 3.5 standard deviations of its mean over
    seeds.  The contraction workload runs the code of the first.
    """

    name = "verify"
    nominal_round_s = 7.0
    WARM_UP = {"names": ["frac_product"]}
    TRIALS = 2
    SKIP = ("contraction", "incomparable_reduced", "bony_convergence",
            "comparable_p23_low", "comparable_p23_high")

    def __init__(self, work: Path, seed: int, names=None):
        self.seed = seed
        self.out = work / "out"
        self.config = _write_config(work / "verify.config", self.out)
        self.names = list(names or [n for n in presets.preset_names() if n not in self.SKIP])

    def round(self, r: int) -> list[Op]:
        (cli_seed,) = _seeds(self.seed, 0, 1)
        return [self._op(name, cli_seed) for name in self.names]

    def _op(self, name: str, cli_seed: int) -> Op:
        argv = ["--config", str(self.config), "--seed", str(cli_seed), "verify", name,
                "--trials", str(self.TRIALS)]

        return Op(name, lambda: _call_cli(argv), lambda rc: self._check(rc, name))

    def _check(self, rc: int, name: str) -> list:
        if rc != 0:
            raise ProgramError(f"{name}: exit code {rc}")
        dyadic = presets.get_preset(name).dyadic_range
        with (self.out / f"{name}.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        expected = {(n, t) for n in dyadic for t in range(self.TRIALS)}
        got = [(int(row["N"]), int(row["trial"])) for row in rows]
        if len(got) != len(expected) or set(got) != expected:
            return [f"{name}: rows {sorted(got)}, expected N x trial = {sorted(expected)}"]
        problems = []
        for row in rows:
            lhs, rhs, ratio = float(row["lhs"]), float(row["rhs"]), float(row["ratio"])
            if not (math.isfinite(lhs) and math.isfinite(rhs) and rhs > 0
                    and ref.close(ratio, lhs / rhs, 1e-12)):
                problems.append(f"{name}: N={row['N']} trial={row['trial']} "
                                f"lhs={lhs!r} rhs={rhs!r} ratio={ratio!r}")
        return problems


WORKLOADS = {w.name: w for w in (Solve, Contraction, Verify)}
