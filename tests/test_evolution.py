import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torus_nls.evolution import (_duhamel_partials, duhamel_integral,
                                 duhamel_operator, free_flow_path,
                                 one_mode_duhamel_exact, propagate)
from torus_nls.lattice import SpectralField, TorusMetric, q_form
from torus_nls.nonlinearity import PowerNonlinearity, apply_F
from torus_nls.norms import SpaceTimePath, TimeGrid, sobolev_norm

METRIC = TorusMetric((1.0, np.sqrt(2.0), np.sqrt(3.0)))


def random_field(M=2, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    nn = 2 * M + 1
    return SpectralField(METRIC, M, scale * (rng.standard_normal((nn,) * 3)
                                             + 1j * rng.standard_normal((nn,) * 3)))


def test_propagate_unitary_and_group_law():
    f = random_field(2, seed=1)
    g = propagate(f, 0.37)
    assert g.l2_norm() == pytest.approx(f.l2_norm(), rel=1e-13)
    assert np.allclose(np.abs(g.coeffs), np.abs(f.coeffs))
    # group law and identity
    a = propagate(propagate(f, 0.2), 0.3)
    b = propagate(f, 0.5)
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12
    z = propagate(f, 0.0)
    assert np.max(np.abs(z.coeffs - f.coeffs)) == 0.0
    inv = propagate(propagate(f, 0.7), -0.7)
    assert np.max(np.abs(inv.coeffs - f.coeffs)) < 1e-12


def test_free_flow_path_frames():
    u0 = random_field(1, seed=3)
    grid = TimeGrid(1.0, 8)
    path = free_flow_path(u0, grid)
    for k in (0, 3, 7):
        want = propagate(u0, grid.times[k])
        assert np.max(np.abs(path.frame(k).coeffs - want.coeffs)) < 1e-12


def test_duhamel_zero_forcing_and_t0():
    grid = TimeGrid(1.0, 8)
    zero = SpaceTimePath(grid, METRIC, 1, np.zeros((8, 3, 3, 3), complex))
    for k in (0, 4, 7):
        assert duhamel_integral(zero, k).l2_norm() == 0.0
    f = free_flow_path(random_field(1, seed=4), grid)
    assert duhamel_integral(f, 0).l2_norm() == 0.0
    with pytest.raises(IndexError):
        duhamel_integral(f, 8)


def test_duhamel_constant_forcing_closed_form():
    # forcing F(t) = e_xi (constant in time); compare against the closed form
    metric = TorusMetric((1.0, 1.0, 1.0))
    xi = (1, 0, 0)
    n = 256
    grid = TimeGrid(0.5, n)
    coeffs = np.zeros((n, 3, 3, 3), dtype=complex)
    coeffs[:, 1 + xi[0], 1, 1] = 1.0
    forcing = SpaceTimePath(grid, metric, 1, coeffs)
    k = n - 1
    got = duhamel_integral(forcing, k).coefficient(xi)
    want = one_mode_duhamel_exact(metric, xi, grid.times[k])
    assert abs(got - want) < 5e-5


def test_duhamel_trapezoid_refinement_order():
    # halving dt should shrink the error by ~4 (second-order quadrature)
    metric = TorusMetric((1.0, 1.0, 1.0))
    xi = (1, 0, 0)
    errs = []
    for n in (64, 128, 256):
        grid = TimeGrid(0.5, n)
        coeffs = np.zeros((n, 3, 3, 3), dtype=complex)
        coeffs[:, 2, 1, 1] = 1.0
        forcing = SpaceTimePath(grid, metric, 1, coeffs)
        k = n // 2  # common physical time across refinements
        got = duhamel_integral(forcing, k).coefficient(xi)
        errs.append(abs(got - one_mode_duhamel_exact(metric, xi, grid.times[k])))
    for i in range(len(errs) - 1):
        assert 3.5 <= errs[i] / errs[i + 1] <= 4.5


def test_duhamel_propagator_commutation():
    # e^{i tau Delta} I(t_k) equals the integral with forcing propagated by tau
    grid = TimeGrid(0.3, 16)
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal((16, 3, 3, 3)) + 1j * rng.standard_normal((16, 3, 3, 3))
    forcing = SpaceTimePath(grid, METRIC, 1, coeffs)
    tau = 0.11
    shifted = forcing.map_frames(lambda f: propagate(f, tau))
    a = propagate(duhamel_integral(forcing, 10), tau)
    b = duhamel_integral(shifted, 10)
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-10


def test_duhamel_l1_hs_triangle_bound():
    # ||I(t_k)||_{H^s} <= trapezoid weights * ||F(t_j)||_{H^s} (unitarity)
    grid = TimeGrid(0.4, 12)
    rng = np.random.default_rng(6)
    coeffs = rng.standard_normal((12, 5, 5, 5)) + 1j * rng.standard_normal((12, 5, 5, 5))
    forcing = SpaceTimePath(grid, METRIC, 2, coeffs)
    s = 0.5
    for k in (3, 7, 11):
        lhs = sobolev_norm(duhamel_integral(forcing, k), s)
        w = np.full(k + 1, grid.dt)
        w[0] = w[-1] = grid.dt / 2
        rhs = sum(w[j] * sobolev_norm(forcing.frame(j), s) for j in range(k + 1))
        assert lhs <= rhs * (1 + 1e-12)


def test_duhamel_operator_against_direct_quadrature():
    u0 = random_field(1, seed=8, scale=0.3)
    nl = PowerNonlinearity(2.0)
    grid = TimeGrid(0.2, 8)
    u = free_flow_path(u0, grid)
    out = duhamel_operator(u, u0, nl)
    k = 5
    forcing = u.map_frames(lambda f: apply_F(f, nl, 4))
    want = (propagate(u0, grid.times[k]).coeffs
            - 1j * duhamel_integral(forcing, k).coeffs)
    assert np.max(np.abs(out.frame(k).coeffs - want)) < 1e-12
    # a forcing handed in is the one the call would have evaluated
    assert np.array_equal(duhamel_operator(u, u0, nl, forcing=forcing).coeffs, out.coeffs)


@settings(max_examples=25, deadline=None)
@given(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0), st.integers(0, 10**6))
@example(0.0, 2.2e-313, 0)  # b*G underflows to subnormals
def test_duhamel_partials_linear(a, b, seed):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(0.3, 6)

    def path(c):
        return SpaceTimePath(grid, METRIC, 1, c)

    F, G = (rng.standard_normal((2, 6, 3, 3, 3)) + 1j * rng.standard_normal((2, 6, 3, 3, 3)))
    IF, IG = _duhamel_partials(path(F)), _duhamel_partials(path(G))
    lhs = _duhamel_partials(path(a * F + b * G))
    scale = abs(a) * np.max(np.abs(IF)) + abs(b) * np.max(np.abs(IG))
    # the absolute floor covers subnormal scales, where rounding is absolute
    assert np.max(np.abs(lhs - (a * IF + b * IG))) <= 1e-12 * scale + np.finfo(float).tiny


def test_one_mode_exact_zero_frequency():
    assert one_mode_duhamel_exact(METRIC, (0, 0, 0), 0.7, 2.0) == pytest.approx(1.4)
    xi = (2, -1, 0)
    cq = METRIC.laplace_scale * q_form(METRIC, xi)
    got = one_mode_duhamel_exact(METRIC, xi, 0.3)
    assert got == pytest.approx((1 - np.exp(-1j * cq * 0.3)) / (1j * cq))
