"""Desk-scale acceptance suite.

Each test covers one numbered criterion and prints a single
``ACCEPTANCE <n> <name>: PASS|FAIL`` line before asserting, so the
per-criterion outcome is visible even in a failing run.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from torus_nls.errors import EpsilonTooLarge
from torus_nls.evolution import free_flow_path, propagate
from torus_nls.harness import (RunEnvironment, SamplerSpec, cube_identity_check,
                               epsilon_max, get_preset, hoelder_exponents,
                               run_estimate, vanishing_check)
from torus_nls.harness.presets import contraction_ratio
from torus_nls.lattice import (GridField, SpectralField, TorusMetric, to_grid,
                               to_spectral)
from torus_nls.littlewood_paley import (dyadic_ladder, project_dyadic,
                                        project_leq, psi_weight)
from torus_nls.lattice import euclidean_norm_grid
from torus_nls.nonlinearity import (PowerNonlinearity, apply_F, bony_partial_sum,
                                    evaluate_F, ftc_linearize,
                                    lp_difference_linearize, max_wirtinger_order,
                                    second_order_expansion,
                                    second_order_expansion_pointwise, wirtinger)
from torus_nls.norms import (SpaceTimePath, TimeGrid, sobolev_norm, v2_norm,
                             y_norm)
from torus_nls.solver import (mass, picard_solve, plane_wave_exact,
                              splitstep_solve)

from helpers import METRIC, brute_v2, random_field


def _report(n: int, name: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"acceptance criterion {n} ({name}) failed: {detail}"


# --------------------------------------------------------------- criterion 1

def test_acceptance_1_exact_identities():
    worst = 0.0

    # dyadic partition of unity, both profiles
    r = euclidean_norm_grid(4)
    for profile in ("sharp", "smooth"):
        total = sum(psi_weight(profile, N, r) for N in dyadic_ladder(4))
        worst = max(worst, float(np.max(np.abs(total - 1.0))))

    # sharp idempotence / orthogonality
    f = random_field(4, seed=1)
    for N in (1, 2, 4):
        pN = project_dyadic(f, N)
        worst = max(worst, float(np.max(np.abs((project_dyadic(pN, N) - pN).coeffs))))
    worst = max(worst, float(np.max(np.abs(project_dyadic(project_dyadic(f, 2), 4).coeffs))))

    # telescoping paradifferential partial sums
    nl = PowerNonlinearity(2.5)
    g = random_field(2, seed=2, scale=0.5)
    for N in (1, 2, 4):
        direct = apply_F(project_leq(g, N), nl, oversample=4)
        tele = bony_partial_sum(g, N, nl, oversample=4)
        worst = max(worst, float(np.max(np.abs((tele - direct).coeffs))))

    # cube-pairing identity (dual route agreement)
    worst = max(worst, cube_identity_check(8, 4, 2, seed=3))

    # Parseval
    h = random_field(3, seed=4)
    worst = max(worst, abs(to_grid(h, 2).l2_norm() - h.l2_norm()))

    # propagator unitarity and group law
    worst = max(worst, abs(propagate(h, 0.37).l2_norm() - h.l2_norm()))
    ab = propagate(propagate(h, 0.21), 0.16)
    worst = max(worst, float(np.max(np.abs((ab - propagate(h, 0.37)).coeffs))))

    # quadrilinear vanishing at separated frequencies (tighter bar)
    vanish = vanishing_check(32, 4, 2, 1, seed=5)

    ok = worst < 1e-10 and vanish < 1e-13
    _report(1, "exact_identities", ok, f"worst={worst:.2e} vanishing={vanish:.2e}")


# --------------------------------------------------------------- criterion 2

def test_acceptance_2_oracle_equivalence():
    # V^2 dynamic program against the exhaustive partition maximum
    rng = np.random.default_rng(100)
    v2_worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got, want = v2_norm(vals), brute_v2(vals)
        v2_worst = max(v2_worst, abs(got - want) / max(want, 1e-300))

    # closed-form derivatives against central finite differences
    fd_worst = 0.0
    h = 1e-6
    for p in (2.0, 2.5, 3.0, 3.7, 4.0, 5.0):
        nl = PowerNonlinearity(p)
        rng_p = np.random.default_rng(int(100 * p))
        z = rng_p.standard_normal(200) + 1j * rng_p.standard_normal(200)
        z = z[np.abs(z) >= 0.05]
        for a, b in itertools.product(range(5), range(5)):
            if a + b + 1 > max_wirtinger_order(p):
                continue
            base = lambda w: wirtinger(w, nl, (a, b))
            fx = (base(z + h) - base(z - h)) / (2 * h)
            fy = (base(z + 1j * h) - base(z - 1j * h)) / (2 * h)
            for fd, exact in ((0.5 * (fx - 1j * fy), wirtinger(z, nl, (a + 1, b))),
                              (0.5 * (fx + 1j * fy), wirtinger(z, nl, (a, b + 1)))):
                nz = np.abs(exact) > 0
                if nz.any():
                    fd_worst = max(fd_worst, float(np.max(
                        np.abs(fd[nz] - exact[nz]) / np.abs(exact[nz]))))
                if (~nz).any():
                    fd_worst = max(fd_worst, float(np.max(np.abs(fd[~nz]))))

    # one-mode Duhamel quadrature: second-order refinement
    from torus_nls.evolution import duhamel_integral, one_mode_duhamel_exact

    flat = TorusMetric((1.0, 1.0, 1.0))
    errs = []
    for n in (64, 128, 256):
        grid = TimeGrid(0.5, n)
        coeffs = np.zeros((n, 3, 3, 3), dtype=complex)
        coeffs[:, 2, 1, 1] = 1.0
        forcing = SpaceTimePath(grid, flat, 1, coeffs)
        k = n // 2
        got = duhamel_integral(forcing, k).coefficient((1, 0, 0))
        errs.append(abs(got - one_mode_duhamel_exact(flat, (1, 0, 0), grid.times[k])))
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]

    ok = v2_worst < 1e-12 and fd_worst < 1e-6 and all(3.5 <= r <= 4.5 for r in ratios)
    _report(2, "oracle_equivalence", ok,
            f"v2={v2_worst:.2e} wirtinger_fd={fd_worst:.2e} "
            f"duhamel_ratios={[round(r, 3) for r in ratios]}")


# --------------------------------------------------------------- criterion 3

def test_acceptance_3_norm_structure():
    grid = TimeGrid(1.0, 16)

    # adapted norm of free flows reduces to the data Sobolev norm
    u0 = random_field(2, seed=10)
    path = free_flow_path(u0, grid)
    flow_dev = max(abs(y_norm(path, s) - sobolev_norm(u0, s))
                   for s in (-0.5, 0.0, 0.5, 1.5))

    # sharp dyadic-sum identity
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal((16, 5, 5, 5)) + 1j * rng.standard_normal((16, 5, 5, 5))
    p2 = SpaceTimePath(grid, METRIC, 2, coeffs)
    s = 0.75
    total_sq = sum(y_norm(p2.map_frames(lambda f: project_dyadic(f, N)), s) ** 2
                   for N in dyadic_ladder(2))
    dyadic_dev = abs(np.sqrt(total_sq) - y_norm(p2, s))

    # dyadic scaling of the weight on shell-supported data
    from torus_nls.harness.samplers import random_field as sampler_field

    scaling_ok = True
    worst_pair = None
    for s in (-1.5, -0.5, 0.5, 1.5):
        for N in (1, 2, 4, 8):
            f = sampler_field(SamplerSpec("gaussian_shell"), METRIC, 8, N,
                              np.random.default_rng(50 + N))
            fpath = free_flow_path(f, grid)
            ratio = y_norm(fpath, s) / (N**s * y_norm(fpath, 0.0))
            if not 2.0 ** (-abs(s)) <= ratio <= 2.0 ** abs(s):
                scaling_ok = False
                worst_pair = (s, N, ratio)

    ok = flow_dev < 1e-12 and dyadic_dev < 1e-12 and scaling_ok
    _report(3, "norm_structure", ok,
            f"free_flow_dev={flow_dev:.2e} dyadic_dev={dyadic_dev:.2e} "
            f"scaling_violation={worst_pair}")


# --------------------------------------------------------------- criterion 4

def test_acceptance_4_strichartz_scaling():
    details = []
    ok = True
    for name in ("strichartz_L6", "strichartz_L18_5"):
        for kind in ("free_flow", "gaussian_shell"):
            spec = get_preset(name, seed=2024, trials=50)
            spec = dataclasses.replace(spec, sampler=SamplerSpec(kind))
            report = run_estimate(spec)
            slope = report.slope["value"]
            good = slope <= spec.predicted_exponent + 0.15 and report.verdict == "pass"
            ok = ok and good
            details.append(f"{name}/{kind}: slope={slope:.3f}<= {spec.predicted_exponent:.3f}+0.15")

    bspec = get_preset("bilinear", seed=2024, trials=50)
    breport = run_estimate(bspec)
    bslope = breport.slope["value"]
    bok = bslope <= 0.5 + 0.15 and breport.verdict == "pass"
    ok = ok and bok
    details.append(f"bilinear: slope={bslope:.3f}, verdict={breport.verdict}")
    _report(4, "strichartz_scaling", ok, "; ".join(details))


# --------------------------------------------------------------- criterion 5

def _segment_min(u, w):
    wsq = np.maximum(np.abs(w) ** 2, 1e-300)
    th = np.clip(-np.real(np.conj(u) * w) / wsq, 0.0, 1.0)
    return np.abs(u + th * w)


def test_acceptance_5_linearization():
    worst = {"generic": 0.0, "near": 0.0}

    def classify(err, dist, thr=0.1):
        near = dist < thr
        if near.any():
            worst["near"] = max(worst["near"], float(err[near].max()))
        if (~near).any():
            worst["generic"] = max(worst["generic"], float(err[~near].max()))

    for p in (2.5, 3.5):
        nl = PowerNonlinearity(p)
        rng = np.random.default_rng(int(10 * p))

        # first-order pointwise reconstruction, one draw per trial
        u = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        w = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        err = np.abs(ftc_linearize(u, w, nl, 16)
                     - (evaluate_F(u + w, nl) - evaluate_F(u, nl)))
        classify(err, _segment_min(u, w))

        # dyadic-difference reconstruction, one random field per trial
        for trial in range(1000):
            f = random_field(1, seed=trial + int(1000 * p), scale=0.5)
            t1, t2 = lp_difference_linearize(f, 2, nl, quad_nodes=16, oversample=2)
            lo = to_grid(project_leq(f, 1), 2).samples
            hi = to_grid(project_leq(f, 2), 2).samples
            want = to_spectral(GridField(METRIC, evaluate_F(hi, nl)
                                         - evaluate_F(lo, nl)), 1).coeffs
            err = float(np.max(np.abs((t1 + t2).coeffs - want)))
            dist = float(np.min(_segment_min(lo.ravel(), (hi - lo).ravel())))
            classify(np.array([err]), np.array([dist]))

        # second-order reconstruction, one draw per trial
        ul = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        us = 0.5 * (rng.standard_normal(1000) + 1j * rng.standard_normal(1000))
        wl = 0.3 * (rng.standard_normal(1000) + 1j * rng.standard_normal(1000))
        ws = 0.2 * (rng.standard_normal(1000) + 1j * rng.standard_normal(1000))
        total = sum(second_order_expansion_pointwise(ul, us, wl, ws, nl, 16).values())
        F = lambda z: evaluate_F(z, nl)
        want = (F(ul + us + wl + ws) - F(ul + wl)) - (F(ul + us) - F(ul))
        dist = np.full(1000, np.inf)
        for t in np.linspace(0.0, 1.0, 41):
            dist = np.minimum(dist, _segment_min(ul + t * us, wl + t * ws))
        classify(np.abs(total - want), dist)

    ok = worst["generic"] < 1e-7 and worst["near"] < 1e-5
    _report(5, "linearization", ok,
            f"generic={worst['generic']:.2e} near_zero={worst['near']:.2e}")


# --------------------------------------------------------------- criterion 6

def test_acceptance_6_contraction():
    env = RunEnvironment()
    grid = TimeGrid(0.5, 64)
    details = []
    ok = True
    for p in (2.0, 2.5, 3.0, 4.0):
        ratios, amps = [], []
        for t in range(100):
            rng = np.random.default_rng(90000 + t)
            amp = 0.1 * np.exp(1.5 * rng.standard_normal())
            ratios.append(contraction_ratio(p, amp, 8, grid, env, rng,
                                            dual_candidates=4))
            amps.append(amp)
        ratios, amps = np.asarray(ratios), np.asarray(amps)
        spread = ratios.max() / np.median(ratios)
        pos = ratios > 0
        slope = float(np.polyfit(np.log(amps[pos]), np.log(ratios[pos]), 1)[0])
        good = spread <= 3.0 and abs(slope) <= 0.1
        ok = ok and good
        details.append(f"p={p}: max/med={spread:.2f} amp_slope={slope:+.3f}")
    _report(6, "contraction_statistic", ok, "; ".join(details))


# --------------------------------------------------------------- criterion 7

def test_acceptance_7_solver():
    nl = PowerNonlinearity(2.0)
    M, T, n = 8, 0.05, 50
    u0 = random_field(M, seed=30)
    u0 = (0.01 / sobolev_norm(u0, 0.5)) * u0

    path, diag = picard_solve(u0, nl, TimeGrid(T, n), tol=1e-12)
    ss = splitstep_solve(u0, nl, T / n, n)
    agree = max(
        float(np.sqrt(np.sum(np.abs(path.frame(k).coeffs - ss.frame(k).coeffs) ** 2)))
        for k in range(n)
    )
    ratios_ok = all(r < 0.5 for r in diag.ratios[1:])

    # long split-step run: mass drift
    small = random_field(4, seed=31)
    small = (0.01 / sobolev_norm(small, 0.5)) * small
    long_run = splitstep_solve(small, nl, 1e-4, 1000)
    drift = abs(mass(long_run.frame(999)) - mass(small))

    # single-mode exact solution
    xi = (1, 0, -1)
    pw0 = SpectralField.delta(METRIC, 1, xi, 0.8 + 0.3j)
    pw = splitstep_solve(pw0, nl, 1e-3, 64)
    pw_err = float(np.max(np.abs(
        (pw.frame(63) - plane_wave_exact(pw0, xi, nl, 1e-3 * 63)).coeffs)))

    ok = agree <= 1e-4 and ratios_ok and drift < 1e-8 and pw_err < 1e-8
    _report(7, "solver", ok,
            f"picard_vs_splitstep={agree:.2e} ratios_ok={ratios_ok} "
            f"mass_drift={drift:.2e} plane_wave={pw_err:.2e}")


# --------------------------------------------------------------- criterion 8

def test_acceptance_8_exponent_arithmetic():
    p_grid = np.linspace(2.05, 2.95, 10)
    low_dev = 0.0
    five_dev = 0.0
    bisect_ok = True
    for p in p_grid:
        for eps in (1e-4, 0.01, 0.04):
            low = hoelder_exponents(p, eps, "low")
            low_dev = max(low_dev, abs(low.sum_identity() - 1.0))
            high = hoelder_exponents(p, eps, "high")
            five_dev = max(five_dev, abs(high.sum_identity() - 1.0))
        for case in ("low", "high"):
            e = epsilon_max(p, case)
            if not (0 < e < 1):
                bisect_ok = False
                continue
            hoelder_exponents(p, e * (1 - 1e-9), case)  # just inside: admissible
            try:
                hoelder_exponents(p, min(e + 1e-6, 0.999999), case)
                bisect_ok = False  # just outside must be rejected
            except EpsilonTooLarge:
                pass
        # low case closes at the analytic surface eps = 1 - p/4
        if abs(epsilon_max(p, "low") - (1 - p / 4)) > 1e-9:
            bisect_ok = False

    ok = low_dev < 1e-12 and five_dev < 1e-12 and bisect_ok
    _report(8, "exponent_arithmetic", ok,
            f"two_factor_dev={low_dev:.2e} five_factor_dev={five_dev:.2e} "
            f"bisection_stable={bisect_ok}")


# --------------------------------------------------------------- criterion 9

def test_acceptance_9_negative_controls():
    shrunk = cube_identity_check(8, 4, 2, seed=3, relation_radius=1.0)
    comparable = vanishing_check(8, 8, 2, 1, seed=5)
    ok = shrunk > 1e-6 and comparable > 1e-6
    _report(9, "negative_controls", ok,
            f"shrunken_relation={shrunk:.2e} comparable_frequencies={comparable:.2e}")
