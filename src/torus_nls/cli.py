"""Command-line surface.

Subcommands: solve, verify, norms, field, report.  Exit codes: 0 success /
verdict pass, 1 verdict fail, 2 usage or config error (any bad parameter or
path), 3 numerical error (non-finite values, desk guard, divergence).
cli_main first fixes glibc's malloc thresholds for its process
(io.settle_allocator), then reads the config (--config, or the defaults) and
the seed once and hands both to the command.  Seed precedence: --seed flag >
TORUS_NLS_SEED environment variable > config file.
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
from .harness import RunEnvironment, desk_guard, get_preset, preset_names, run_estimate
from .lattice import SpectralField, to_grid
from .nonlinearity import PowerNonlinearity
from .norms import TimeGrid, sobolev_norm, v2_norm, y_norm
from .solver import find_T, mass

log = logging.getLogger("torus_nls")

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _resolve_seed(args, cfg: RunConfig) -> int:
    if args.seed is not None:
        source, seed = "--seed", args.seed
    elif (env := os.environ.get("TORUS_NLS_SEED")) is not None:
        if not env.strip().isdecimal():
            raise ConfigError(f"TORUS_NLS_SEED must be a non-negative integer, got {env!r}")
        source, seed = "TORUS_NLS_SEED", int(env)
    else:
        return cfg.seed  # RunConfig has checked it
    if seed < 0:
        raise ConfigError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def cmd_solve(args, cfg: RunConfig, seed: int) -> int:
    desk_guard(cfg.bandlimit, cfg.n_time, cfg.oversample)
    nl = PowerNonlinearity(cfg.p, cfg.sign)
    if args.u0:
        u0 = tio.load_field(args.u0)
        if (u0.metric, u0.bandlimit) != (cfg.metric, cfg.bandlimit):
            raise ConfigError(f"--u0 {args.u0} is on {u0.metric}, bandlimit {u0.bandlimit}; "
                              f"the config is on {cfg.metric}, bandlimit {cfg.bandlimit}")
    else:
        rng = np.random.default_rng(seed)
        nn = 2 * cfg.bandlimit + 1
        c = 0.01 * (rng.standard_normal((nn,) * 3) + 1j * rng.standard_normal((nn,) * 3))
        u0 = SpectralField(cfg.metric, cfg.bandlimit, c)
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    try:  # without --find-T, one solve at the config's T
        T, path, diag = find_T(u0, nl, cfg.T, cfg.n_time, cfg.oversample,
                               max_halvings=19 if args.find_T else 0)
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


def cmd_verify(args, cfg: RunConfig, seed: int) -> int:
    names = preset_names() if args.preset == "all" else [args.preset]
    env = RunEnvironment(
        metric=cfg.metric,
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
        spec = get_preset(name, seed=seed, trials=args.trials, **overrides)
        report = run_estimate(spec, env)
        jpath, _ = tio.write_report(report, outdir, name)
        print(f"{name}: {report.verdict} (slope={report.slope.get('value', 'n/a')}, "
              f"max_ratio={report.max_ratio:.4g}) -> {jpath}")
        if report.verdict == "fail":
            worst = max(worst, EXIT_VERDICT_FAIL)
    return worst


def cmd_norms(args, cfg: RunConfig, seed: int) -> int:
    field = tio.load_field(args.field)
    if args.norm == "hs":
        value = sobolev_norm(field, args.s)
    elif args.norm == "lp":
        desk_guard(field.bandlimit, oversample=cfg.oversample)
        value = to_grid(field, cfg.oversample).lp_norm(args.p)
    else:  # y or v2, on the config's time grid
        grid = TimeGrid(cfg.T, cfg.n_time)
        desk_guard(field.bandlimit, grid.n)
        if args.norm == "y":
            from .evolution import free_flow_path

            value = y_norm(free_flow_path(field, grid), args.s)
        else:
            # V^2 of the constant extension of the xi = 0 mode path
            value = v2_norm(np.full(grid.n, field.coefficient((0, 0, 0))))
    if not np.isfinite(value):
        print("norm is not finite", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"{value:.17g}")
    return EXIT_OK


def cmd_field(args, cfg: RunConfig, seed: int) -> int:
    desk_guard(cfg.bandlimit)
    rng = np.random.default_rng(seed)
    from .harness.samplers import SamplerSpec, random_field

    support = {"random": "ball", "shell": "shell", "free-flow": "ball"}[args.kind]
    N = args.N or cfg.bandlimit
    spec = SamplerSpec("gaussian_shell", amplitude=args.amplitude, support=support)
    try:
        f = random_field(spec, cfg.metric, cfg.bandlimit, N, rng)
    except SamplerDegenerate as exc:
        raise ConfigError(f"--N {N}: {exc}") from exc
    if args.kind == "free-flow":
        from .evolution import propagate

        f = propagate(f, args.t)
    tio.save_field(f, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_report(args, cfg: RunConfig, seed: int) -> int:
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

    p_norms = sub.add_parser("norms", help="evaluate a norm of a stored field (y and v2 on "
                             "the config's T and n_time, lp on its oversample)")
    p_norms.add_argument("--field", required=True)
    p_norms.add_argument("--norm", required=True, choices=["hs", "lp", "y", "v2"])
    p_norms.add_argument("--s", type=float, default=0.0)
    p_norms.add_argument("--p", type=float, default=2.0)
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
    tio.settle_allocator()  # first, before anything allocates: the process is the CLI's
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else EXIT_OK
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(args.log_level)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        return args.func(args, cfg, _resolve_seed(args, cfg))
    except (ConfigError, NotFound, OSError) as exc:  # an OSError names its path
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
