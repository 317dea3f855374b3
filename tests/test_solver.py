import numpy as np
import pytest

from torus_nls.errors import NoConvergence
from torus_nls.evolution import duhamel_operator, free_flow_path
from torus_nls.lattice import SpectralField, TorusMetric
from torus_nls.nonlinearity import PowerNonlinearity, apply_F
from torus_nls.norms import TimeGrid, sobolev_norm
from torus_nls.solver import (energy, find_T, march_solve, mass, picard_solve,
                              plane_wave_exact, splitstep_solve)

from helpers import METRIC, random_field


def small_datum(M=2, seed=0, hs=0.05, s=None):
    f = random_field(M, seed)
    s = 0.5 if s is None else s
    return (hs / sobolev_norm(f, s)) * f


def test_zero_datum_converges_immediately():
    nl = PowerNonlinearity(2.0)
    u0 = SpectralField.zero(METRIC, 1)
    path, diag = picard_solve(u0, nl, TimeGrid(1.0, 8))
    assert diag.iterations == 1
    assert np.max(np.abs(path.coeffs)) == 0.0


def test_small_data_contraction():
    nl = PowerNonlinearity(2.0)
    u0 = small_datum(2, seed=1, hs=0.05)
    path, diag = picard_solve(u0, nl, TimeGrid(0.5, 16))
    assert diag.residual < 1e-9
    assert all(r < 0.5 for r in diag.ratios)
    # first frame is the datum
    assert np.max(np.abs(path.frame(0).coeffs - u0.coeffs)) < 1e-12


def test_large_data_no_convergence():
    nl = PowerNonlinearity(2.0)
    u0 = 50.0 * random_field(1, seed=2)
    with pytest.raises(NoConvergence) as exc:
        picard_solve(u0, nl, TimeGrid(1.0, 8), max_iter=8)
    assert exc.value.max_iter == 8


def test_no_convergence_names_the_iterations_run():
    import torus_nls.solver as solver

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return duhamel_operator(*args, **kwargs)

    nl = PowerNonlinearity(2.0)
    u0 = 50.0 * random_field(1, seed=2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "duhamel_operator", counted)
        with pytest.raises(NoConvergence) as exc:
            picard_solve(u0, nl, TimeGrid(1.0, 8), max_iter=8)
    # the iteration bails out on divergence well before its budget
    assert exc.value.iterations == len(calls) < 8
    assert f"after {len(calls)} of 8 iterations" in str(exc.value)


def test_no_convergence_when_max_iter_runs_out():
    # a contracting iteration that max_iter stops short of tol names the
    # last ratio of its distances
    nl = PowerNonlinearity(2.0)
    u0 = small_datum(2, seed=1, hs=0.5)
    _, diag = picard_solve(u0, nl, TimeGrid(0.5, 8), max_iter=25)
    with pytest.raises(NoConvergence) as exc:
        picard_solve(u0, nl, TimeGrid(0.5, 8), max_iter=3)
    err = exc.value
    assert err.iterations == err.max_iter == 3 < diag.iterations
    assert err.last_ratio == pytest.approx(diag.ratios[1], rel=1e-12)
    assert "after 3 of 3 iterations" in str(err)


def test_divergence_is_judged_relative_to_the_first_distance():
    # the same contraction at amplitude 1e13 (nonlinear time scale T |u|^2
    # kept) starts from d_0 > 1e10 and must still converge
    nl = PowerNonlinearity(2.0)
    for scale, T in ((1.0, 0.01), (1e13, 1e-28)):
        u0 = scale * small_datum(2, seed=1, hs=1.0)
        _, diag = picard_solve(u0, nl, TimeGrid(T, 8), tol=1e-9 * scale, max_iter=12)
        assert diag.iterations == 4
        assert diag.distances[0] > 1e-3 * scale


def test_focusing_defocusing_agree_for_small_data():
    u0 = small_datum(1, seed=3, hs=0.02)
    grid = TimeGrid(0.2, 8)
    pf, _ = picard_solve(u0, PowerNonlinearity(2.0, sign=1), grid)
    pd, _ = picard_solve(u0, PowerNonlinearity(2.0, sign=-1), grid)
    free = free_flow_path(u0, grid)
    dev_f = np.max(np.abs(pf.coeffs - free.coeffs))
    dev_d = np.max(np.abs(pd.coeffs - free.coeffs))
    diff = np.max(np.abs(pf.coeffs - pd.coeffs))
    assert dev_f > 0 and abs(dev_f - dev_d) < 0.1 * dev_f
    assert diff < 2.1 * max(dev_f, dev_d)


def test_picard_rejects_an_unknown_initial_iterate():
    nl = PowerNonlinearity(2.5)
    u0 = small_datum(1, seed=4, hs=0.05, s=nl.s_c)
    with pytest.raises(ValueError):
        picard_solve(u0, nl, TimeGrid(0.3, 8), initial="midpoint")


def test_splitstep_plane_wave_exact():
    nl = PowerNonlinearity(2.0)
    xi = (1, 0, -1)
    u0 = SpectralField.delta(METRIC, 1, xi, 0.8 + 0.3j)
    dt, steps = 1e-3, 64
    path = splitstep_solve(u0, nl, dt, steps)
    t = dt * (steps - 1)
    want = plane_wave_exact(u0, xi, nl, t)
    assert np.max(np.abs(path.frame(steps - 1).coeffs - want.coeffs)) < 1e-10


def test_splitstep_conserves_mass_and_energy():
    nl = PowerNonlinearity(2.0, sign=-1)
    u0 = 0.05 * random_field(1, seed=6)
    path = splitstep_solve(u0, nl, 5e-4, 128)
    m0, e0 = mass(u0), energy(u0, nl)
    mT = mass(path.frame(127))
    eT = energy(path.frame(127), nl)
    # exact conservation holds only up to bandlimit truncation of the
    # phase-generated harmonics, so the tolerances are relative
    assert abs(mT - m0) < 1e-6 * m0
    assert abs(eT - e0) < 1e-5 * abs(e0)


def test_picard_matches_splitstep():
    nl = PowerNonlinearity(2.0)
    u0 = small_datum(1, seed=7, hs=0.05)
    T, n = 0.05, 50
    path, diag = picard_solve(u0, nl, TimeGrid(T, n), tol=1e-12)
    ss = splitstep_solve(u0, nl, T / n, n)
    k = n - 1
    diff = np.max(np.abs(path.frame(k).coeffs - ss.frame(k).coeffs))
    assert diff < 1e-5


def test_picard_and_splitstep_solve_the_same_equation():
    # a plane wave is exact under splitting and keeps |u| constant, so the
    # two solvers agree up to Picard's quadrature error only if they share
    # the sign of the nonlinearity
    xi = (1, 0, -1)
    u0 = SpectralField.delta(METRIC, 1, xi, 0.8 + 0.3j)
    nl = PowerNonlinearity(2.0)
    T, n = 0.2, 64
    path, diag = picard_solve(u0, nl, TimeGrid(T, n), tol=1e-12)
    ss = splitstep_solve(u0, nl, T / n, n)
    exact = plane_wave_exact(u0, xi, nl, T * (n - 1) / n)
    assert np.max(np.abs(ss.frame(n - 1).coeffs - exact.coeffs)) < 1e-12
    assert np.max(np.abs(path.frame(n - 1).coeffs - exact.coeffs)) < 1e-6


def test_validation():
    nl = PowerNonlinearity(2.0)
    u0 = random_field(1)
    with pytest.raises(ValueError):
        picard_solve(u0, nl, TimeGrid(1.0, 4), tol=0.0)
    with pytest.raises(ValueError):
        march_solve(u0, nl, TimeGrid(1.0, 4), max_iter=0)
    with pytest.raises(ValueError):
        splitstep_solve(u0, nl, 0.0, 4)
    with pytest.raises(ValueError):
        splitstep_solve(u0, nl, 0.1, 1)


@pytest.mark.parametrize("theta", [(1.0, 1.0, 1.0), (1.0, np.sqrt(2.0), np.sqrt(3.0))])
@pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
def test_march_residual_below_tol(theta, p):
    nl = PowerNonlinearity(p)
    metric = TorusMetric(theta)
    f = random_field(2, seed=11)
    u0 = SpectralField(metric, 2, (0.3 / sobolev_norm(f, nl.s_c)) * f.coeffs)
    grid, tol = TimeGrid(0.25, 8), 1e-10
    path = march_solve(u0, nl, grid, oversample=2, tol=tol)
    assert np.array_equal(path.coeffs[0], u0.coeffs)
    phi = duhamel_operator(path, u0, nl, oversample=2)
    residual = max(sobolev_norm(phi.frame(k) - path.frame(k), nl.s_c) for k in range(grid.n))
    assert residual <= tol
    # the datum is large enough that the path is far from the free flow
    free = free_flow_path(u0, grid)
    assert sobolev_norm(path.frame(grid.n - 1) - free.frame(grid.n - 1), nl.s_c) > 1e3 * tol


def test_march_start_agrees_with_free_flow_picard():
    f = random_field(2, seed=9)
    tol, converged = 1e-8, 0
    for p in (2.0, 2.5, 3.0):
        nl = PowerNonlinearity(p)
        for hs, T in ((2.0, 0.5), (2.0, 0.125), (4.0, 0.125)):
            u0 = (hs / sobolev_norm(f, nl.s_c)) * f
            grid = TimeGrid(T, 16)
            try:
                ref, _ = picard_solve(u0, nl, grid, oversample=2, tol=tol, max_iter=20)
            except NoConvergence:
                continue
            path, diag = picard_solve(u0, nl, grid, oversample=2, tol=tol, max_iter=20,
                                      initial="march")
            assert diag.residual <= tol
            assert len(diag.march_iterations) == grid.n - 1
            assert max(sobolev_norm(path.frame(k) - ref.frame(k), nl.s_c)
                       for k in range(grid.n)) <= 10 * tol
            converged += 1
    assert converged == 7  # free-flow Picard fails at hs=4 for p=2.5 and p=3


def test_march_forcing_certifies_bit_for_bit():
    import torus_nls.evolution as evolution
    import torus_nls.solver as solver

    nl = PowerNonlinearity(2.5)
    grid = TimeGrid(0.125, 16)
    u0 = small_datum(2, seed=9, hs=2.0, s=nl.s_c)

    def solve(recompute):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return apply_F(*args, **kwargs)

        def recomputing(u, u0, nl, oversample, forcing=None):
            return duhamel_operator(u, u0, nl, oversample)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "apply_F", counted)
            mp.setattr(evolution, "apply_F", counted)
            if recompute:
                mp.setattr(solver, "duhamel_operator", recomputing)
            path, diag = picard_solve(u0, nl, grid, oversample=2, tol=1e-8, initial="march")
        return path, diag, len(calls)

    path, diag, calls = solve(recompute=False)
    ref, ref_diag, ref_calls = solve(recompute=True)
    assert np.array_equal(path.coeffs, ref.coeffs)
    assert diag.distances == ref_diag.distances and diag.residual == ref_diag.residual
    assert calls == ref_calls - grid.n


def test_march_plane_wave_stays_one_mode():
    nl = PowerNonlinearity(2.5)
    xi = (1, 0, -1)
    u0 = SpectralField.delta(METRIC, 2, xi, 0.8 + 0.3j)
    T, n = 0.2, 64
    path = march_solve(u0, nl, TimeGrid(T, n), tol=1e-12)
    idx = (slice(None),) + tuple(x + 2 for x in xi)
    rest = path.coeffs.copy()
    rest[idx] = 0
    assert np.max(np.abs(rest)) <= 1e-12
    exact = plane_wave_exact(u0, xi, nl, T * (n - 1) / n)
    assert abs(path.coeffs[idx][-1] - exact.coefficient(xi)) < 1e-5


def test_march_no_convergence_names_the_frame():
    nl = PowerNonlinearity(2.0)
    # the increments blow up at once
    with pytest.raises(NoConvergence) as exc:
        march_solve(50.0 * random_field(1, seed=2), nl, TimeGrid(0.25, 8), max_iter=8)
    assert exc.value.frame == 1 and exc.value.iterations < 8
    assert f"march stalled at frame 1 after {exc.value.iterations} of 8" in str(exc.value)
    # the increments still shrink when the budget runs out
    with pytest.raises(NoConvergence) as exc:
        march_solve(2.0 * random_field(1, seed=8), nl, TimeGrid(2.0**-7, 16), tol=1e-8,
                    max_iter=12)
    assert exc.value.frame == 1 and exc.value.iterations == 12
    assert 0 < exc.value.last_ratio < 1
    assert "march stalled at frame 1 after 12 of 12 iterations" in str(exc.value)


def test_picard_residual_guard():
    # the march converges here, but Picard does not contract on this window
    # and its one certifying step leaves the residual above tol
    nl = PowerNonlinearity(2.0)
    u0 = 2.0 * random_field(1, seed=8)
    with pytest.raises(NoConvergence) as exc:
        picard_solve(u0, nl, TimeGrid(2.0**-8, 16), tol=1e-8, max_iter=12, initial="march")
    err = exc.value
    assert err.residual > 1e-8 and err.frame is None and err.last_ratio > 1
    assert f"residual {err.residual:.3g} above tol" in str(err)


def test_find_T_halves_until_convergence():
    nl = PowerNonlinearity(2.0)
    u0 = 2.0 * random_field(1, seed=8)
    tol = 1e-8
    T, path, diag = find_T(u0, nl, T0=1.0, n=16, tol=tol, max_iter=12)
    assert diag.residual <= tol and T < 1.0
    # the solve at the returned T is certified; the one at 2T raises
    p2, d2 = picard_solve(u0, nl, TimeGrid(T, 16), tol=tol, max_iter=12, initial="march")
    assert d2.residual <= tol
    assert np.array_equal(p2.coeffs, path.coeffs)
    with pytest.raises(NoConvergence):
        picard_solve(u0, nl, TimeGrid(2 * T, 16), tol=tol, max_iter=12, initial="march")


def test_find_T_failure_names_the_last_solve(caplog):
    nl = PowerNonlinearity(2.0)
    u0 = 50.0 * random_field(1, seed=2)
    with caplog.at_level("INFO", logger="torus_nls"), pytest.raises(NoConvergence) as exc:
        find_T(u0, nl, T0=1.0, n=8, max_iter=8, max_halvings=2)
    # a halving is logged only when a solve follows it
    assert [r.getMessage().endswith("; halving") for r in caplog.records] == [True, True]
    # solves at T = 1, 0.5, 0.25; the last march stalls at its first frame
    with pytest.raises(NoConvergence) as last:
        picard_solve(u0, nl, TimeGrid(0.25, 8), max_iter=8, initial="march")
    err = exc.value
    assert (err.T, err.halvings) == (0.25, 2)
    assert (err.iterations, err.max_iter, err.frame) == (last.value.iterations, 8, 1)
    assert err.last_ratio == last.value.last_ratio and np.isfinite(err.last_ratio)
    assert f"march stalled at frame 1 after {err.iterations} of 8 iterations" in str(err)
    assert "at T=0.25 after 2 halvings of T" in str(err)
    with pytest.raises(ValueError):
        find_T(u0, nl, max_halvings=-1)
