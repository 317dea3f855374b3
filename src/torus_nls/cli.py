"""Command-line surface.

Subcommands: solve, verify, norms, field, report.  Exit codes: 0 success /
verdict pass, 1 verdict fail, 2 usage or config error, 3 numerical error
(NaN, guard, divergence).  Seed precedence: --seed flag > TORUS_NLS_SEED
environment variable > config file.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import io as tio
from .config import RunConfig, config_dict, load_config, save_config
from .errors import (ConfigError, GuardExceeded, NoConvergence, NotFound,
                     SamplerDegenerate, TorusNlsError)
from .harness import RunEnvironment, get_preset, preset_names, run_estimate
from .lattice import SpectralField, TorusMetric, to_grid
from .nonlinearity import PowerNonlinearity
from .norms import TimeGrid, sobolev_norm, v2_norm, y_norm
from .solver import find_T, mass, picard_solve

log = logging.getLogger("torus_nls")

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _resolve_seed(args, cfg: RunConfig) -> int:
    if getattr(args, "seed", None) is not None:
        source, seed = "--seed", args.seed
    elif (env := os.environ.get("TORUS_NLS_SEED")) is not None:
        try:
            source, seed = "TORUS_NLS_SEED", int(env)
        except ValueError as exc:
            raise ConfigError(f"TORUS_NLS_SEED must be an integer, got {env!r}") from exc
    else:
        return cfg.seed  # RunConfig has checked it
    if seed < 0:
        raise ConfigError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _load_cfg(args) -> RunConfig:
    return load_config(args.config) if args.config else RunConfig()


def _metric(cfg: RunConfig) -> TorusMetric:
    return TorusMetric(cfg.theta, cfg.laplace_scale)


def cmd_solve(args) -> int:
    cfg = _load_cfg(args)
    seed = _resolve_seed(args, cfg)
    metric = _metric(cfg)
    nl = PowerNonlinearity(cfg.p, cfg.sign)
    if args.u0:
        u0 = tio.load_field(args.u0)
    else:
        rng = np.random.default_rng(seed)
        nn = 2 * cfg.bandlimit + 1
        c = 0.01 * (rng.standard_normal((nn,) * 3) + 1j * rng.standard_normal((nn,) * 3))
        u0 = SpectralField(metric, cfg.bandlimit, c)
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    try:
        if args.find_T:
            T, path, diag = find_T(u0, nl, cfg.T, cfg.n_time, cfg.oversample)
        else:
            T = cfg.T
            path, diag = picard_solve(u0, nl, TimeGrid(T, cfg.n_time), cfg.oversample,
                                      initial="march")
    except NoConvergence as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    solve_s = time.perf_counter() - start
    save_config(cfg, outdir / "run.config")
    tio.save_field(u0, outdir / "u0.field.json")
    frames_dir = outdir / "frames"
    frames_dir.mkdir(exist_ok=True)
    for k in range(path.grid.n):
        tio.save_field(path.frame(k), frames_dir / f"frame_{k:04d}.field.json")
    import orjson  # loaded by save_field, which wrote the fields

    diagnostics = {
        "T": T,
        "iterations": diag.iterations,
        "distances": list(diag.distances),
        "ratios": list(diag.ratios),
        "residual": diag.residual,
        "march_iterations": list(diag.march_iterations),
        "mass_initial": mass(u0),
        "mass_final": mass(path.frame(path.grid.n - 1)),
        "seed": seed,
        "config": config_dict(cfg),
        # solve_s also counts the failed solves of find_T's halvings
        "timings": {**diag.timings, "solve_s": solve_s},
        "provenance": {**tio.provenance(), "orjson": orjson.__version__},
    }
    (outdir / "diagnostics.json").write_text(json.dumps(diagnostics, indent=2), encoding="utf-8")
    print(f"solved to T={T}: march {sum(diag.march_iterations)} iterations over "
          f"{path.grid.n - 1} frames, Picard certificate in {diag.iterations} "
          f"(residual {diag.residual:.3g}); artifacts in {outdir}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load_cfg(args)
    seed = _resolve_seed(args, cfg)
    names = preset_names() if args.preset == "all" else [args.preset]
    env = RunEnvironment(
        metric=_metric(cfg),
        T=cfg.T,
        oversample=cfg.oversample,
        profile=cfg.profile,
        unsafe=args.unsafe,
        allow_large_T=args.allow_large_T,
    )
    overrides = {} if args.slack is None else {"slack": args.slack}
    outdir = Path(cfg.output_dir)
    worst = EXIT_OK
    for name in names:
        try:
            spec = get_preset(name, seed=seed, trials=args.trials, **overrides)
        except ValueError as exc:
            raise ConfigError(f"--trials/--slack: {exc}") from exc
        report = run_estimate(spec, env)
        jpath, _ = tio.write_report(report, outdir, name)
        print(f"{name}: {report.verdict} (slope={report.slope.get('value', 'n/a')}, "
              f"max_ratio={report.max_ratio:.4g}) -> {jpath}")
        if report.verdict == "fail":
            worst = max(worst, EXIT_VERDICT_FAIL)
    return worst


def _norms_time_grid(args) -> TimeGrid:
    try:
        return TimeGrid(args.T, args.n_time)
    except ValueError as exc:
        raise ConfigError(f"--T/--n-time: {exc}") from exc


def cmd_norms(args) -> int:
    field = tio.load_field(args.field)
    if args.norm == "hs":
        value = sobolev_norm(field, args.s)
    elif args.norm == "lp":
        if not args.p >= 1:
            raise ConfigError(f"--p must be >= 1, got {args.p}")
        value = to_grid(field, 2).lp_norm(args.p)
    elif args.norm == "y":
        from .evolution import free_flow_path

        value = y_norm(free_flow_path(field, _norms_time_grid(args)), args.s)
    elif args.norm == "v2":
        # V^2 of the constant extension of the xi = 0 mode path
        value = v2_norm(np.full(_norms_time_grid(args).n, field.coefficient((0, 0, 0))))
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown norm {args.norm!r}")
    if not np.isfinite(value):
        print("norm is not finite", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"{value:.17g}")
    return EXIT_OK


def cmd_field(args) -> int:
    cfg = _load_cfg(args)
    seed = _resolve_seed(args, cfg)
    metric = _metric(cfg)
    rng = np.random.default_rng(seed)
    from .harness.samplers import SamplerSpec, random_field

    support = {"random": "ball", "shell": "shell", "free-flow": "ball"}[args.kind]
    N = args.N or cfg.bandlimit
    try:
        spec = SamplerSpec("gaussian_shell", amplitude=args.amplitude, support=support)
    except ValueError as exc:
        raise ConfigError(f"--amplitude: {exc}") from exc
    try:
        f = random_field(spec, metric, cfg.bandlimit, N, rng)
    except SamplerDegenerate as exc:
        raise ConfigError(f"--N {N}: {exc}") from exc
    if args.kind == "free-flow":
        from .evolution import propagate

        f = propagate(f, args.t)
    tio.save_field(f, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_report(args) -> int:
    rows = tio.summarize_reports(args.directory)
    tio.write_summary(rows, args.out)
    print(f"merged {len(rows)} rows into {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="torus-nls",
                                     description="NLS spectral toolkit and estimate harness")
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--seed", type=int, help="RNG seed (overrides env and config)")
    parser.add_argument("--log-level", default="INFO", type=str.upper, dest="log_level",
                        choices=["DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"],
                        help="level of the torus_nls log on stderr (default: INFO)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="march, Picard-certify and persist artifacts")
    p_solve.add_argument("--u0", help="initial datum .field.json (default: random small)")
    p_solve.add_argument("--find-T", action="store_true", dest="find_T",
                         help="halve T until the solve converges")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="run estimate presets")
    p_verify.add_argument("preset", help="preset name or 'all'")
    p_verify.add_argument("--trials", type=int)
    p_verify.add_argument("--slack", type=float)
    p_verify.add_argument("--unsafe", action="store_true",
                          help="disable the desk-scale lattice guard")
    p_verify.add_argument("--allow-large-T", action="store_true", dest="allow_large_T")
    p_verify.set_defaults(func=cmd_verify)

    p_norms = sub.add_parser("norms", help="evaluate a norm of a stored field")
    p_norms.add_argument("--field", required=True)
    p_norms.add_argument("--norm", required=True, choices=["hs", "lp", "y", "v2"])
    p_norms.add_argument("--s", type=float, default=0.0)
    p_norms.add_argument("--p", type=float, default=2.0)
    p_norms.add_argument("--T", type=float, default=0.5)
    p_norms.add_argument("--n-time", type=int, default=16, dest="n_time")
    p_norms.set_defaults(func=cmd_norms)

    p_field = sub.add_parser("field", help="generate a .field.json")
    p_field.add_argument("kind", choices=["random", "shell", "free-flow"])
    p_field.add_argument("--N", type=int, help="frequency scale (default: bandlimit)")
    p_field.add_argument("--amplitude", type=float, default=1.0)
    p_field.add_argument("--t", type=float, default=0.1, help="free-flow time")
    p_field.add_argument("--out", required=True)
    p_field.set_defaults(func=cmd_field)

    p_report = sub.add_parser("report", help="report utilities")
    rep_sub = p_report.add_subparsers(dest="report_command", required=True)
    p_sum = rep_sub.add_parser("summarize", help="merge report CSVs")
    p_sum.add_argument("directory")
    p_sum.add_argument("--out", default="summary.csv")
    p_sum.set_defaults(func=cmd_report)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else EXIT_OK
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(args.log_level)
    try:
        return args.func(args)
    except (ConfigError, NotFound) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GuardExceeded, NoConvergence, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except TorusNlsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main():  # console entry point
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
