"""Benchmark of torus_nls: one workload per run, a closed loop with one client.

    python3 bench/run.py --workload {solve,contraction,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` times
whole rounds of operations until S seconds of operations have run and
reports the end-to-end metrics.  ``--trace 1`` runs a fixed number of rounds
traced and reports the per-layer metrics.
See README.md for the workloads and what each metric should move.
"""

import os
import sys
import time

_START = time.perf_counter()  # set-up time counts from here

# cli --threads sets these after numpy is imported, where they do nothing;
# the benchmark sets them before, so the process runs one BLAS thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RUNS = BENCH / "_runs"
SETUP_SAMPLES = 15  # this process plus fresh processes that only set up


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["solve", "contraction", "verify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used for set-up samples)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    return args


class Tally:
    def __init__(self):
        self.attempted = self.failed = self.incorrect = self.bytes_written = 0
        self.durations: list[float] = []


def run_op(wl, op, label: str, tally: Tally, tracer=None) -> None:
    """Run one operation, timing the call alone, then check its outputs.

    A call that raises or exits non-zero counts as failed.  A call whose
    outputs fail a check counts as failed and incorrect.
    """
    from workloads import ProgramError, output_bytes

    if wl.out is not None:
        shutil.rmtree(wl.out, ignore_errors=True)
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = op.run()
        else:
            tracer.active = True
            result = tracer.span("op", op.run)
    except Exception:  # the loop goes on after a crash
        tally.failed += 1
        print(f"{label}: raised\n{traceback.format_exc()}", file=sys.stderr)
        return
    finally:
        tally.durations.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
    try:
        problems = op.check(result)
    except ProgramError as exc:
        tally.failed += 1
        print(f"{label}: failed: {exc}", file=sys.stderr)
        return
    except Exception:  # missing or malformed outputs
        problems = [traceback.format_exc()]
    if problems:
        tally.failed += 1
        tally.incorrect += 1
        print(f"{label}: wrong output: {'; '.join(problems)}", file=sys.stderr)
    if wl.out is not None and wl.out.exists():
        tally.bytes_written += output_bytes(wl.out)


def setup_sample(args) -> float:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def untraced(wl, args, setup_s: float) -> tuple[Tally, dict]:
    # the set-up samples are spread over the run, between operations and
    # untimed, so their median is not taken in one slow or fast moment
    tally, setups = Tally(), [setup_s]
    r = 0
    while sum(tally.durations) < args.seconds:
        for op in wl.round(r):
            run_op(wl, op, f"round {r} {op.label}", tally)
            share = min(1.0, sum(tally.durations) / args.seconds)
            while len(setups) < 1 + int((SETUP_SAMPLES - 1) * share):
                setups.append(setup_sample(args))
        r += 1
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    busy = sum(tally.durations)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": ((tally.attempted - tally.failed) / busy if busy else 0.0, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    # the median operation time is printed for reading, not reported: with
    # operations of several costs in a round it moves more between runs
    # than the largest bound BENCHMARK.json allows (see README.md)
    shown = {**metrics, "op_p50_s": (statistics.median(tally.durations), "s")}
    print(f"{args.workload}: {tally.attempted} operations, {tally.failed} failed; "
          + ", ".join(f"{k} = {v:.4g} {u}" for k, (v, u) in shown.items()), file=sys.stderr)
    return tally, metrics


def traced(wl, args) -> tuple[Tally, dict]:
    from spans import PER_LAYER, Tracer

    rounds = max(1, round(args.seconds / wl.nominal_round_s))
    tracer = Tracer()
    tracer.install()
    tally = Tally()
    try:
        for r in range(rounds):
            for op in wl.round(r):
                run_op(wl, op, f"round {r} {op.label}", tally, tracer)
    finally:
        tracer.uninstall()
    tracer.write(RUNS / f"trace-{args.workload}-seed{args.seed}.json")
    layers = tracer.layer_metrics()
    layers["io.bytes_written"] = (tally.bytes_written, "B")
    # the tracer's cost is too small to read off the difference of a traced
    # and an untraced run, which the machine's noise swamps: it is the
    # spans recorded times the cost of one span, measured on a no-op
    layers["trace.overhead_s"] = (len(tracer.spans) * Tracer.span_cost(), "s")
    return tally, {name: layers[name] for name in PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "torus_nls" / "__init__.py").is_file():
        print(f"bench: no torus_nls package under {SRC}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    work = RUNS / f"{args.workload}-{os.getpid()}"
    (work / "warm-up").mkdir(parents=True)
    try:
        kind = workloads.WORKLOADS[args.workload]
        wl = kind(work, args.seed)
        warm = kind(work / "warm-up", args.seed, **kind.WARM_UP)
        run_op(warm, warm.round(-1)[0], "warm-up", Tally())
        setup_s = time.perf_counter() - _START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            tally, metrics = traced(wl, args)
        else:
            tally, metrics = untraced(wl, args, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": tally.incorrect == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
