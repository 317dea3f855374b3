"""Reference computations the benchmark checks the program against.

Each is derived here from the mathematics, not from the package: a
brute-force V^2 norm of a step path, the closed-form plane-wave solution
with the error bound of the trapezoid Duhamel rule, and a reader and writer
for the ``.field.json`` format.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np


def brute_force_v2_sq(values: np.ndarray) -> np.ndarray:
    """Squared V^2 norm of step paths, by trying every partition.

    ``values`` has shape (k, m): the k successive values of m mode paths
    that are piecewise constant in time.  The path ends at 0 at the final
    time (the terminal convention of the V^2 norm).  A partition of [0, T]
    only sees the values at its points, and repeats add nothing, so the
    supremum is the maximum over every subsequence of [v_1, ..., v_k, 0] of
    the sum of squared jumps.  Cost is 2^(k+1) sums per mode.
    """
    pts = np.concatenate([values, np.zeros((1, values.shape[1]), values.dtype)])
    best = np.zeros(values.shape[1])
    for size in range(2, pts.shape[0] + 1):
        for idx in itertools.combinations(range(pts.shape[0]), size):
            jumps = np.diff(pts[list(idx)], axis=0)
            best = np.maximum(best, np.sum(np.abs(jumps) ** 2, axis=0))
    return best


def japanese_bracket_sq(theta, bandlimit: int) -> np.ndarray:
    """<xi>^2 = 1 + theta1 xi1^2 + theta2 xi2^2 + theta3 xi3^2 on [-M, M]^3."""
    r = np.arange(-bandlimit, bandlimit + 1, dtype=float) ** 2
    t1, t2, t3 = theta
    return 1.0 + t1 * r[:, None, None] + t2 * r[None, :, None] + t3 * r[None, None, :]


def plane_wave(c: complex, q: float, p: float, sign: int, laplace_scale: float, t):
    """Mode coefficient of the solution with datum c e_xi, Q(xi) = q.

    For (i d_t + Delta) u = sign |u|^p u, the form the Duhamel map
    u(t) = e^{it Delta} u0 - i int_0^t e^{i(t-s) Delta} F(u(s)) ds solves,
    a single mode keeps |u| = |c|, so i a' = (laplace_scale q + sign |c|^p) a.
    """
    return c * np.exp(-1j * (laplace_scale * q + sign * abs(c) ** p) * np.asarray(t))


def plane_wave_trapezoid_bound(c: complex, p: float, T: float, n: int) -> float:
    """Bound on |discrete fixed point - plane_wave| over the nodes t_k < T.

    In the interaction picture the trapezoid Duhamel fixed point advances by
    the Cayley factor (1 - i l dt/2) / (1 + i l dt/2), l = sign |c|^p, a unit
    phase of 2 atan(l dt/2) per step against l dt exactly.  The phase error
    per step is at most |l dt|^3 / 12, so at t_k it is at most
    |c| t_k |l|^3 dt^2 / 12.
    """
    dt = T / n
    lam = abs(c) ** p
    return abs(c) * T * lam**3 * dt**2 / 12.0


def write_field(path: Path, theta, laplace_scale: float, coeffs: np.ndarray) -> None:
    """Write a ``.field.json``: metric, bandlimit and (re, im) pairs, row-major."""
    bandlimit = (coeffs.shape[0] - 1) // 2
    doc = {
        "metric": {"theta": [float(x) for x in theta], "laplace_scale": float(laplace_scale)},
        "bandlimit": bandlimit,
        "coeffs": [[float(z.real), float(z.imag)] for z in coeffs.ravel()],
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def read_field(path: Path) -> tuple[int, np.ndarray]:
    """Read a ``.field.json`` as (bandlimit, (2M+1)^3 complex cube).

    Raises ValueError when the coefficient count does not match the
    recorded bandlimit or a value is not finite.
    """
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    bandlimit = int(doc["bandlimit"])
    nn = 2 * bandlimit + 1
    pairs = np.asarray(doc["coeffs"], dtype=float)
    if pairs.shape != (nn**3, 2):
        raise ValueError(f"{path}: {pairs.shape} coefficients for bandlimit {bandlimit}")
    if not np.all(np.isfinite(pairs)):
        raise ValueError(f"{path}: non-finite coefficient")
    return bandlimit, (pairs[:, 0] + 1j * pairs[:, 1]).reshape(nn, nn, nn)


def close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rel * max(abs(a), abs(b))
