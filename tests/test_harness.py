import dataclasses

import numpy as np
import pytest

from torus_nls.errors import (DegenerateSeries, EpsilonTooLarge, GuardExceeded,
                              NotFound, SamplerDegenerate)
from torus_nls.harness import (GUARD_BANDLIMIT, GUARD_TIME, EstimateSpec, RunEnvironment,
                               SamplerSpec, cube_identity_check, epsilon_max,
                               fit_scaling_slope, get_evaluator, get_preset,
                               hoelder_exponents,
                               preset_names, preset_registry, random_field,
                               run_estimate, sample_path, support_mask,
                               vanishing_check)
from torus_nls.lattice import lattice_points
from torus_nls.norms import TimeGrid

from helpers import METRIC


# ---------------------------------------------------------------- exponents

def test_hoelder_low_case_values():
    hs = hoelder_exponents(2.5, 0.01, "low")
    assert hs.r0 == pytest.approx(15 * 2.5 / (5 * 2.5 - 2 * 0.99))
    assert hs.r1 == pytest.approx(5 * 2.5 / (2 * 0.99))
    assert hs.sum_identity() == pytest.approx(1.0, abs=1e-14)


def test_hoelder_low_identity_holds_generically():
    for p in (2.1, 2.5, 2.9):
        for eps in (1e-4, 0.05, 0.2):
            hs = hoelder_exponents(p, eps, "low")
            assert hs.sum_identity() == pytest.approx(1.0, abs=1e-13)


def test_hoelder_high_identity_holds_generically():
    # five-factor budget: the |u|^{p-2} block is one factor in L^{r4}
    for p in (2.05, 2.1, 2.5, 2.9, 2.95):
        e_max = epsilon_max(p, "high")
        for eps in (1e-4, 0.05, 0.2, 0.5, e_max * (1 - 1e-9)):
            hs = hoelder_exponents(p, eps, "high")
            assert hs.sum_identity() == pytest.approx(1.0, abs=1e-13)


def test_hoelder_eps_zero_limit():
    hs = hoelder_exponents(2.5, 1e-12, "low")
    assert hs.r1 == pytest.approx(5 * 2.5 / 2, rel=1e-9)


def test_hoelder_high_case():
    hs = hoelder_exponents(2.5, 0.01, "high")
    assert hs.r0 == hs.r1
    assert hs.r3 == pytest.approx(5 * 2.5 / (2 * 0.99))
    assert hs.r4 == pytest.approx(10 / (3 * 0.99))
    assert all(v > 10 / 3 for v in hs.exponents.values())


def test_hoelder_validation():
    with pytest.raises(ValueError):
        hoelder_exponents(3.5, 0.01)
    with pytest.raises(ValueError):
        hoelder_exponents(2.5, -0.1)
    with pytest.raises(ValueError):
        hoelder_exponents(2.5, 0.01, "mid")
    with pytest.raises(EpsilonTooLarge):
        hoelder_exponents(2.5, 0.5, "low")


def test_epsilon_max():
    # low case: r0 > 10/3 forces eps < 1 - p/4
    assert epsilon_max(2.5, "low") == pytest.approx(1 - 2.5 / 4, abs=1e-9)
    e = epsilon_max(2.5, "high")
    assert 0 < e < 1
    hoelder_exponents(2.5, e * 0.999, "high")  # just inside is admissible
    with pytest.raises(EpsilonTooLarge):
        hoelder_exponents(2.5, min(e * 1.001, 0.999), "high")


# ------------------------------------------------------------------ samplers

def test_support_masks():
    m_shell = support_mask("shell", 4, 4)
    m_ball = support_mask("ball", 4, 4)
    assert m_shell.sum() < m_ball.sum()
    assert np.all(m_ball[support_mask("ball", 2, 4)])
    # shell N=1 includes the unit ball
    assert support_mask("shell", 1, 2)[2, 2, 2]
    cube = support_mask("cube", 4, 4)
    assert cube.sum() == 4**3


def test_sampler_degenerate():
    spec = SamplerSpec("gaussian_shell", support="shell")
    rng = np.random.default_rng(0)
    with pytest.raises(SamplerDegenerate):
        random_field(spec, METRIC, 1, 4, rng)  # shell 2<|xi|<=4 empty at M=1


def test_sampler_amplitude_normalization():
    spec = SamplerSpec("gaussian_shell", amplitude=0.7, support="ball", decay=1.0)
    rng = np.random.default_rng(1)
    f = random_field(spec, METRIC, 4, 2, rng)
    assert f.l2_norm() == pytest.approx(0.7, rel=1e-12)


def test_sample_path_kinds():
    grid = TimeGrid(0.5, 8)
    rng = np.random.default_rng(2)
    for kind in ("gaussian_shell", "free_flow", "step_atom"):
        path = sample_path(SamplerSpec(kind, support="ball"), METRIC, 2, 2, grid, rng)
        assert path.coeffs.shape == (8, 5, 5, 5)
    with pytest.raises(ValueError):
        SamplerSpec("brownian")
    with pytest.raises(ValueError):
        SamplerSpec("free_flow", amplitude=0.0)


def test_free_flow_sampler_has_constant_l2():
    grid = TimeGrid(0.5, 8)
    rng = np.random.default_rng(3)
    path = sample_path(SamplerSpec("free_flow", support="ball"), METRIC, 2, 2, grid, rng)
    norms = [path.frame(k).l2_norm() for k in range(8)]
    assert np.ptp(norms) < 1e-12


# ------------------------------------------------------------------ estimates

def test_fit_scaling_slope_examples():
    # exact power law: value = 2 * N^1.5
    series = [(n, 2.0 * n**1.5) for n in (1, 2, 4, 8)]
    slope, intercept, residual = fit_scaling_slope(series)
    assert slope == pytest.approx(1.5, abs=1e-12)
    assert intercept == pytest.approx(1.0, abs=1e-12)
    assert residual < 1e-12
    with pytest.raises(DegenerateSeries):
        fit_scaling_slope([(1, 1.0), (2, 2.0)])
    with pytest.raises(DegenerateSeries):
        fit_scaling_slope([(1, 1.0), (2, 0.0), (4, 1.0)])


def _fabricated_spec(exponent, **kw):
    kw.setdefault("trials", 3)
    return EstimateSpec(
        name="fabricated", lhs="lhs", rhs="rhs", predicted_exponent=exponent,
        dyadic_range=(1, 2, 4, 8), sampler=SamplerSpec("gaussian_shell"), **kw,
    )


def test_run_estimate_with_fabricated_evaluator():
    # ratio scales like N^0.5 against a prediction of 0 -> fail
    def growing(spec, env, N, rng):
        return (N**0.5, 1.0)

    report = run_estimate(_fabricated_spec(0.0), evaluator=growing)
    assert report.verdict == "fail"
    assert "slope_exceeded" in report.flags
    # the same data passes once the prediction matches
    report2 = run_estimate(_fabricated_spec(0.5), evaluator=growing)
    assert report2.verdict == "pass"


def test_verdict_monotone_in_slack():
    def slightly_growing(spec, env, N, rng):
        return (N**0.3, 1.0)

    verdicts = []
    for slack in (0.05, 0.15, 0.35):
        report = run_estimate(_fabricated_spec(0.0, slack=slack),
                              evaluator=slightly_growing)
        verdicts.append(report.verdict)
    assert verdicts == ["fail", "fail", "pass"]


def test_ratio_cap_fails_a_jump_the_slope_allows():
    # flat ratios, then a 100x jump at the top N: the slope (about 2) is
    # within the slack, the normalized top half is not within ratio_cap
    def jump(spec, env, N, rng):
        return (100.0 if N == 8 else 1.0, 1.0)

    report = run_estimate(_fabricated_spec(0.0, slack=10.0), evaluator=jump)
    assert report.slope["value"] < 10.0
    assert report.verdict == "fail" and report.flags == ("ratio_cap_exceeded",)


def test_run_estimate_degenerate_and_short():
    zero = lambda spec, env, N, rng: (0.0, 1.0)
    report = run_estimate(_fabricated_spec(0.0), evaluator=zero)
    assert report.verdict == "pass" and "degenerate" in report.flags

    spec = EstimateSpec(
        name="fabricated", lhs="l", rhs="r", predicted_exponent=0.0,
        dyadic_range=(1, 2), sampler=SamplerSpec("gaussian_shell"), trials=2,
    )
    report = run_estimate(spec, evaluator=lambda s, e, N, r: (1.0, 1.0))
    assert report.verdict == "inconclusive" and "short_series" in report.flags


def test_run_estimate_determinism():
    spec = get_preset("embedding_checks", seed=11, trials=3)
    import json

    a = json.dumps(run_estimate(spec).to_json_dict(), sort_keys=True)
    b = json.dumps(run_estimate(spec).to_json_dict(), sort_keys=True)
    assert a == b


def test_run_estimate_seeds_draw_independent_trials():
    # trial t of seed s must not reuse the stream of another (seed, trial)
    # pair: under seed XOR trial, seeds 2 and 3 drew the same two trials
    def draw(spec, env, N, rng):
        return (rng.random(), 1.0)

    ratios = [sorted(r["ratio"] for r in run_estimate(_fabricated_spec(0.0, trials=2, seed=s),
                                                      evaluator=draw).ratios)
              for s in (2, 3)]
    assert ratios[0] != ratios[1]


def test_estimate_spec_validation():
    with pytest.raises(ValueError):
        _fabricated_spec(0.0, trials=0)
    with pytest.raises(ValueError):
        EstimateSpec("x", "l", "r", 0.0, (2, 1), SamplerSpec("free_flow"))
    with pytest.raises(ValueError):
        EstimateSpec("x", "l", "r", 0.0, (3,), SamplerSpec("free_flow"))


def test_guards():
    env = RunEnvironment()
    with pytest.raises(GuardExceeded):
        env.check_guard(GUARD_BANDLIMIT + 1)
    env.check_guard(GUARD_BANDLIMIT)
    big_T = RunEnvironment(T=2.0)
    with pytest.raises(GuardExceeded):
        big_T.check_guard(2)
    RunEnvironment(T=2.0, allow_large_T=True).check_guard(2)
    RunEnvironment(unsafe=True).check_guard(10**6)
    # sample grids at the run's oversample: at most 4 (2 GUARD_BANDLIMIT + 1) a side
    RunEnvironment(oversample=4).check_guard(GUARD_BANDLIMIT)
    with pytest.raises(GuardExceeded, match="grid side 165 > 132"):
        RunEnvironment(oversample=5).check_guard(GUARD_BANDLIMIT)
    # the time grid a preset states is the one guarded, and unsafe lifts the guard
    spec = get_preset("embedding_checks", trials=1)
    spec = dataclasses.replace(spec, params=(("s", 0.5), ("n_time", GUARD_TIME + 1)))
    with pytest.raises(GuardExceeded, match=f"time grid {GUARD_TIME + 1}"):
        run_estimate(spec)
    lhs, rhs = get_evaluator("embedding_checks")(spec, RunEnvironment(unsafe=True), 2,
                                                 np.random.default_rng(0))
    assert lhs > 0 and rhs > 0


def test_guard_sees_the_oversample_each_grid_is_made_at():
    # nonlinear_bernstein samples its bandlimit-16 field only at a fixed 4
    # (132 a side), so the run's oversample 5 does not stop it; the grids of
    # comparable_p23_high are at the run's oversample, 165 a side
    env = RunEnvironment(oversample=5)
    lhs, rhs = get_evaluator("nonlinear_bernstein")(get_preset("nonlinear_bernstein"), env, 2,
                                                    np.random.default_rng(0))
    assert lhs > 0 and rhs > 0
    with pytest.raises(GuardExceeded, match="grid side 165 > 132"):
        run_estimate(get_preset("comparable_p23_high", trials=1), env)


# -------------------------------------------------------------------- presets

def test_registry_size_and_lookup():
    names = preset_names()
    assert len(names) >= 13
    assert len(set(names)) == len(names)
    specs = preset_registry(seed=5)
    assert {s.name for s in specs} == set(names)
    assert all(s.seed == 5 for s in specs)
    with pytest.raises(NotFound):
        get_preset("no_such_estimate")
    with pytest.raises(NotFound):
        get_evaluator("no_such_estimate")


def test_missing_param_names_the_preset_and_the_key():
    spec = get_preset("cubic_main")
    spec = dataclasses.replace(spec, params=(("N2", 2), ("n_time", 8)))
    with pytest.raises(NotFound, match="preset 'cubic_main' has no param 'N3'"):
        get_evaluator("cubic_main")(spec, RunEnvironment(), 2, np.random.default_rng(0))


def test_get_preset_overrides():
    spec = get_preset("strichartz_L6", seed=3, trials=7, slack=0.4)
    assert spec.trials == 7 and spec.seed == 3 and spec.slack == 0.4


@pytest.mark.parametrize("name", sorted(set(preset_names()) - {"contraction"}))
def test_preset_smoke(name):
    spec = get_preset(name, seed=1, trials=2)
    report = run_estimate(spec)
    assert report.verdict in ("pass", "fail", "inconclusive")
    assert report.ratios and all(r["rhs"] >= 0 for r in report.ratios)
    assert np.isfinite(report.max_ratio)


def test_contraction_smoke():
    spec = get_preset("contraction", seed=1, trials=1)
    spec = dataclasses.replace(spec, dyadic_range=(1, 2, 4))
    report = run_estimate(spec, RunEnvironment(T=0.25))
    assert report.verdict in ("pass", "fail", "inconclusive")


@pytest.mark.parametrize("seed", [0, 5])
def test_cubic_main_lhs_is_the_lattice_sum(seed):
    # M = 2 and the default oversample 2 give n = 10 > 4M grid points per
    # axis, so the grid mean of four factors keeps exactly the frequency
    # quadruples that sum to zero
    spec, env, N, M = get_preset("cubic_main"), RunEnvironment(), 2, 2
    lhs, _ = get_evaluator("cubic_main")(spec, env, N, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    v, u1, u2, u3 = (random_field(spec.sampler, env.metric, M, n, rng) for n in (N, N, 2, 1))
    pts = lattice_points(M)  # row-major, the order of coeffs.ravel()
    pair = u1.coeffs.ravel()[:, None] * u2.coeffs.ravel()[None, :]
    total = 0j
    for xi1, a in zip(pts, v.coeffs.ravel()):
        xi4 = -(xi1 + pts[:, None, :] + pts[None, :, :])
        inside = np.all(np.abs(xi4) <= M, axis=-1)
        i, j, k = np.moveaxis(np.where(inside[..., None], xi4 + M, 0), -1, 0)
        total += a * np.sum(pair * np.where(inside, u3.coeffs[i, j, k], 0.0))
    assert lhs > 0
    assert lhs == pytest.approx(env.T * abs(total), rel=1e-12, abs=0)


def test_gradient_family_rejects_p2():
    from torus_nls.harness.presets import get_evaluator

    spec = get_preset("gradient_family", trials=1)
    spec = dataclasses.replace(spec, params=(("p", 2.0),))
    ev = get_evaluator("gradient_family")
    with pytest.raises(ValueError):
        ev(spec, RunEnvironment(), 2, np.random.default_rng(0))


# --------------------------------------------------------------------- checks

def test_cube_identity_check():
    err = cube_identity_check(8, 4, 2, seed=0)
    assert err < 1e-12
    # negative control: shrinking the relation radius breaks the identity
    bad = cube_identity_check(8, 4, 2, seed=0, relation_radius=1.0)
    assert bad > 1e-4


def test_vanishing_check():
    assert vanishing_check(32, 4, 2, 1, seed=0) < 1e-12
    # negative control: comparable top frequencies do interact
    assert vanishing_check(8, 8, 2, 1, seed=0) > 1e-4
