"""Persistence: .field.json spectral fields, report JSON/CSV pairs.

Fields are stored as explicit (re, im) pairs in row-major lattice order.
The writer is orjson, whose float text is the shortest representation that
round-trips; the reader stays the stdlib json module, so save/load is
bit-exact and files written by json.dumps load unchanged.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError
from .lattice import SpectralField, TorusMetric


def provenance() -> dict:
    """Versions of the code that made an artifact."""
    return {"torus_nls": __version__, "numpy": np.__version__}


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
