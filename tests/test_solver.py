import numpy as np
import pytest

from torus_nls.errors import NoConvergence
from torus_nls.evolution import duhamel_operator, free_flow_path, propagate
from torus_nls.lattice import SpectralField, TorusMetric
from torus_nls.nonlinearity import PowerNonlinearity
from torus_nls.norms import TimeGrid, sobolev_norm
from torus_nls.solver import (energy, find_T, mass, picard_solve,
                              plane_wave_exact, splitstep_solve)

METRIC = TorusMetric((1.0, np.sqrt(2.0), np.sqrt(3.0)))


def random_field(M=2, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    nn = 2 * M + 1
    return SpectralField(METRIC, M, scale * (rng.standard_normal((nn,) * 3)
                                             + 1j * rng.standard_normal((nn,) * 3)))


def small_datum(M=2, seed=0, hs=0.05, s=None):
    f = random_field(M, seed)
    s = 0.5 if s is None else s
    return (hs / sobolev_norm(f, s)) * f


def test_zero_datum_converges_immediately():
    nl = PowerNonlinearity(2.0)
    u0 = SpectralField.zero(METRIC, 1)
    path, diag = picard_solve(u0, nl, TimeGrid(1.0, 8))
    assert diag.converged and diag.iterations == 1
    assert np.max(np.abs(path.coeffs)) == 0.0


def test_small_data_contraction():
    nl = PowerNonlinearity(2.0)
    u0 = small_datum(2, seed=1, hs=0.05)
    path, diag = picard_solve(u0, nl, TimeGrid(0.5, 16))
    assert diag.converged
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


def test_uniqueness_probe_seed_independence():
    nl = PowerNonlinearity(2.5)
    u0 = small_datum(1, seed=4, hs=0.05, s=nl.s_c)
    grid = TimeGrid(0.3, 8)
    tol = 1e-11
    a, _ = picard_solve(u0, nl, grid, tol=tol, initial="free_flow")
    b, _ = picard_solve(u0, nl, grid, tol=tol, initial="zero")
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 10 * tol
    with pytest.raises(ValueError):
        picard_solve(u0, nl, grid, initial="midpoint")


def test_splitstep_free_flow():
    u0 = random_field(1, seed=5)
    path = splitstep_solve(u0, None, 0.01, 16)
    for k in (0, 7, 15):
        want = propagate(u0, 0.01 * k)
        assert np.max(np.abs(path.frame(k).coeffs - want.coeffs)) < 1e-12


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
    assert diag.converged
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
    assert diag.converged
    assert np.max(np.abs(ss.frame(n - 1).coeffs - exact.coeffs)) < 1e-12
    assert np.max(np.abs(path.frame(n - 1).coeffs - exact.coeffs)) < 1e-6


def test_validation():
    nl = PowerNonlinearity(2.0)
    u0 = random_field(1)
    with pytest.raises(ValueError):
        picard_solve(u0, nl, TimeGrid(1.0, 4), tol=0.0)
    with pytest.raises(ValueError):
        splitstep_solve(u0, nl, 0.0, 4)
    with pytest.raises(ValueError):
        splitstep_solve(u0, nl, 0.1, 1)


def test_find_T_halves_until_convergence():
    nl = PowerNonlinearity(2.0)
    u0 = 2.0 * random_field(1, seed=8)
    T, path, diag = find_T(u0, nl, T0=1.0, n=16, tol=1e-8, max_iter=12)
    assert diag.converged and T <= 1.0
    # the datum converges at the returned T directly
    p2, d2 = picard_solve(u0, nl, TimeGrid(T, 16), tol=1e-8, max_iter=12)
    assert d2.converged


def test_find_T_failure_names_the_last_solve():
    nl = PowerNonlinearity(2.0)
    u0 = 50.0 * random_field(1, seed=2)
    with pytest.raises(NoConvergence) as exc:
        find_T(u0, nl, T0=1.0, n=8, max_iter=8, max_halvings=3)
    # solves at T = 1, 0.5, 0.25; the last bails out on divergence
    with pytest.raises(NoConvergence) as last:
        picard_solve(u0, nl, TimeGrid(0.25, 8), max_iter=8)
    err = exc.value
    assert (err.T, err.halvings) == (0.25, 2)
    assert (err.iterations, err.max_iter) == (last.value.iterations, 8)
    assert err.last_ratio == last.value.last_ratio and np.isfinite(err.last_ratio)
    assert f"after {err.iterations} of 8 iterations" in str(err)
    assert "at T=0.25 after 2 halvings of T" in str(err)
    with pytest.raises(ValueError):
        find_T(u0, nl, max_halvings=0)
