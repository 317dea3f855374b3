"""Persistence: .field.json spectral fields, report JSON/CSV pairs, and the
provenance every artifact records.

Fields are stored as explicit (re, im) pairs in row-major lattice order.
The writer is orjson, whose float text is the shortest representation that
round-trips; the reader stays the stdlib json module, so save/load is
bit-exact and files written by json.dumps load unchanged.
"""

from __future__ import annotations

import csv
import functools
import json
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError
from .lattice import SpectralField, TorusMetric

_CHECKOUT = Path(__file__).resolve().parents[2]  # the working tree, when run from src/


@functools.cache
def settle_allocator() -> dict | None:
    """Fix glibc's malloc thresholds for the rest of the process, once: every
    grid the desk guard admits (at most GUARD_GRID_SIDE^3 complex128, 36.8 MB)
    then comes from one heap that is kept and reused, not from fresh mmaps
    that fault in again on each use.  M_MMAP_THRESHOLD is the smallest power
    of two at or above that grid, 64 MiB, and M_TRIM_THRESHOLD four times it.
    Only the CLI, which owns its process, calls this.  Returns the thresholds
    mallopt applied, or None where it is missing (not glibc) or applied none."""
    import ctypes  # here with its one use: only the CLI settles the allocator

    from .harness.estimates import GUARD_GRID_SIDE  # deferred: the harness imports io

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    largest = GUARD_GRID_SIDE**3 * np.dtype(np.complex128).itemsize
    mmap = 1 << (largest - 1).bit_length()
    wanted = {"M_MMAP_THRESHOLD": (-3, mmap), "M_TRIM_THRESHOLD": (-1, 4 * mmap)}
    applied = {name: value for name, (param, value) in wanted.items()
               if mallopt(param, value) == 1}
    return applied or None


def git_sha(checkout) -> str | None:
    """The commit checked out in a git working tree, read from its .git
    directory without starting git: HEAD, then the branch's ref file or its
    packed-refs line.  None where these are absent or name no commit."""
    git = Path(checkout) / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head  # a detached HEAD names its commit
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def provenance() -> dict:
    """Versions of the code that made an artifact, the commit of the checkout
    it ran from, and the malloc thresholds the CLI applied in this process
    (None where settle_allocator never ran or applied none)."""
    settled = settle_allocator() if settle_allocator.cache_info().currsize else None
    return {"torus_nls": __version__, "numpy": np.__version__,
            "git_sha": git_sha(_CHECKOUT), "allocator": settled and dict(settled)}


def save_field(field: SpectralField, path) -> None:
    import orjson  # deferred: only commands that write fields pay for the import

    doc = {
        "metric": {
            "theta": list(field.metric.theta),
            "laplace_scale": field.metric.laplace_scale,
        },
        "bandlimit": field.bandlimit,
        "coeffs": field.coeffs.view(np.float64).reshape(-1, 2),
    }
    Path(path).write_bytes(orjson.dumps(doc, option=orjson.OPT_SERIALIZE_NUMPY))


def load_field(path) -> SpectralField:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        for key in ("metric", "bandlimit", "coeffs"):
            if key not in doc:
                raise ConfigError(f"missing key {key!r}")
        M = int(doc["bandlimit"])
        nn = 2 * M + 1
        pairs = np.asarray(doc["coeffs"], dtype=float)
        if pairs.shape != (nn**3, 2):
            raise ConfigError(f"expected {nn**3} coefficient pairs, got {pairs.shape}")
        coeffs = pairs.view(np.complex128).reshape(nn, nn, nn)  # keeps signed zeros
        metric = TorusMetric(tuple(doc["metric"]["theta"]), doc["metric"]["laplace_scale"])
        return SpectralField(metric, M, coeffs)
    except (OSError, ValueError, TypeError, KeyError, OverflowError) as exc:
        # ValueError: broken JSON, a bad theta or coefficient; the others a document of the
        # wrong shape (TypeError, KeyError) or an infinite bandlimit (OverflowError)
        raise ConfigError(f"cannot read field file {path}: {exc}") from exc


CSV_COLUMNS = ["preset", "N", "trial", "lhs", "rhs", "ratio"]


def write_report(report, directory, name: str) -> tuple[Path, Path]:
    """Persist an ExperimentReport as <name>.json plus <name>.csv."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    jpath = directory / f"{name}.json"
    cpath = directory / f"{name}.csv"
    doc = report.to_json_dict()
    jpath.write_text(json.dumps(doc, indent=2, default=str), encoding="utf-8")
    with cpath.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in doc["ratios"]:
            writer.writerow({"preset": doc["preset"], **row})
    return jpath, cpath


def summarize_reports(directory) -> list[dict]:
    """Merge every report CSV under a directory into one row list."""
    paths = sorted(Path(directory).glob("**/*.csv"))
    if not paths:
        raise ConfigError(f"no report CSVs under {directory}")
    rows = []
    for path in paths:
        with path.open(newline="", encoding="utf-8") as fh:
            rows.extend(csv.DictReader(fh))
    return rows


def write_summary(rows: list[dict], path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in CSV_COLUMNS})
