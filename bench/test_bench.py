"""Self-tests of the benchmark's references, checks and tracer.

Run with ``python3 -m pytest bench`` from the root of the repo; they take a
few seconds.  The workloads run here once at reduced size.
"""

import cmath
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import references as ref  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("values, expected", [
    ([1.0], 1.0),              # one jump to the terminal 0
    ([1.0, -1.0], 5.0),        # 1 -> -1 -> 0: 4 + 1
    ([3.0, 2.0, 1.0], 9.0),    # monotone: the single jump 3 -> 0 beats 1 + 1 + 1 + 1
    ([1.0, 1j], 3.0),          # 1 -> i -> 0: 2 + 1
    ([0.0, 0.0], 0.0),
])
def test_brute_force_v2_hand_cases(values, expected):
    got = ref.brute_force_v2_sq(np.asarray(values, complex).reshape(-1, 1))
    assert got[0] == pytest.approx(expected, abs=1e-15)


def test_brute_force_v2_ignores_repeats_and_runs_per_column():
    rng = np.random.default_rng(0)
    blocks = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    repeated = blocks[[0, 0, 1, 2, 2, 2, 3]]
    np.testing.assert_allclose(ref.brute_force_v2_sq(repeated), ref.brute_force_v2_sq(blocks),
                               rtol=1e-15)
    for j in range(5):
        assert ref.brute_force_v2_sq(blocks[:, j:j + 1])[0] == ref.brute_force_v2_sq(blocks)[j]


def test_plane_wave_solves_the_mode_equation():
    c, q, p, scale = 0.6 - 0.2j, 2.0 + math.sqrt(3.0), 2.5, 4 * math.pi**2
    a = lambda t: complex(ref.plane_wave(c, q, p, 1, scale, t))  # noqa: E731
    assert a(0.0) == c
    t, h = 0.3, 1e-6
    lhs = 1j * (a(t + h) - a(t - h)) / (2 * h)
    rhs = (scale * q + abs(c) ** p) * a(t)
    assert abs(lhs - rhs) < 1e-6 * abs(rhs)
    assert abs(abs(a(t)) - abs(c)) < 1e-15


def test_trapezoid_bound_holds_and_is_tight():
    c, p, T, n = 0.7 * cmath.exp(0.4j), 2.5, 0.5, 16
    lam, dt = abs(c) ** p, T / n
    b, worst = c, 0.0  # the trapezoid fixed point in the interaction picture
    for k in range(1, n):
        b *= (1 - 0.5j * lam * dt) / (1 + 0.5j * lam * dt)
        worst = max(worst, abs(b - c * cmath.exp(-1j * lam * k * dt)))
    bound = ref.plane_wave_trapezoid_bound(c, p, T, n)
    assert 0.9 * bound < worst <= bound


def test_field_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    cube = rng.standard_normal((5, 5, 5)) + 1j * rng.standard_normal((5, 5, 5))
    ref.write_field(tmp_path / "f.field.json", (1.0, 2.0, 3.0), 1.5, cube)
    M, back = ref.read_field(tmp_path / "f.field.json")
    assert M == 2 and np.array_equal(back, cube)
    doc = json.loads((tmp_path / "f.field.json").read_text())
    doc["bandlimit"] = 3
    (tmp_path / "g.field.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        ref.read_field(tmp_path / "g.field.json")


def _run_round(wl):
    results = []
    for op in wl.round(0):
        results.append((op.label, op.check(op.run())))
    return results


def test_solve_round_small(tmp_path):
    wl = workloads.Solve(tmp_path, seed=5, bandlimit=2, n_time=8)
    assert [problems for _, problems in _run_round(wl)] == [[], [], []]


def test_plane_wave_check_rejects_the_other_sign(tmp_path):
    wl = workloads.Solve(tmp_path, seed=5, bandlimit=2, n_time=8)
    xi, c, T = (1, 0, -1), 0.7 + 0.0j, 0.5
    t = np.arange(8) * (T / 8)
    q = sum(th * x * x for th, x in zip(workloads.THETA, xi))
    for sign, ok in ((1, True), (-1, False)):
        path = np.zeros((8, 5, 5, 5), complex)
        path[:, xi[0] + 2, xi[1] + 2, xi[2] + 2] = ref.plane_wave(
            c, q, wl.PLANE_P, sign, workloads.LAPLACE_SCALE, t)
        assert (wl._check_plane(path, T, xi, c) == []) is ok


def test_contraction_round_small(tmp_path):
    wl = workloads.Contraction(tmp_path, seed=5, bandlimit=2, n_time=8)
    assert [problems for _, problems in _run_round(wl)] == [[], [], [], []]


def test_verify_round_small(tmp_path):
    wl = workloads.Verify(tmp_path, seed=5, names=["frac_product", "embedding_checks"])
    assert [problems for _, problems in _run_round(wl)] == [[], []]


def test_tracer_counts_and_restores(tmp_path):
    import torus_nls.nonlinearity as nonlinearity
    import torus_nls.solver as solver

    original = solver.to_grid
    wl = workloads.Solve(tmp_path, seed=5, bandlimit=2, n_time=8)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert nonlinearity.to_grid is solver.to_grid is not original
        op = wl.round(0)[1]
        tracer.active = True
        tracer.span("op", op.run)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert solver.to_grid is original
    m = tracer.layer_metrics()
    assert m["cli.cli_main.calls"][0] == 1
    assert m["lattice.to_grid.calls"][0] == m["nonlinearity.apply_F.calls"][0] > 0
    assert m["lattice.grid_points"][0] == 2 * m["lattice.to_grid.calls"][0] * 10**3
    assert m["solver.picard_iterations"][0] > 0
    assert all(rec[2] >= rec[1] for rec in tracer.spans)


def test_span_cost_is_positive_and_small():
    assert 0 < spans.Tracer.span_cost() < 1e-4


@pytest.mark.parametrize("kind", list(workloads.WORKLOADS.values()))
def test_warm_up_runs_clean(tmp_path, kind):
    wl = kind(tmp_path, seed=5, **kind.WARM_UP)
    op = wl.round(-1)[0]
    assert op.check(op.run()) == []


def test_metric_names_match_benchmark_json():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == spans.PER_LAYER
    assert [m["name"] for m in doc["end_to_end"]] == ["setup_s", "ops_per_s", "peak_rss_mb"]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
