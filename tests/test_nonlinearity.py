import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_nls.errors import (DomainError, InvalidLebesgueExponent,
                              UndefinedDerivative)
from torus_nls.lattice import GridField, SpectralField, to_grid, to_spectral
from torus_nls.littlewood_paley import project_leq
from torus_nls.nonlinearity import (PowerNonlinearity, apply_F,
                                    bony_partial_sum, bony_tail, evaluate_F,
                                    ftc_linearize, lp_difference_linearize,
                                    max_wirtinger_order, s_critical,
                                    second_order_expansion,
                                    second_order_expansion_pointwise,
                                    wirtinger, wirtinger_orders)

from helpers import METRIC, random_field


def fd_wirtinger(fn, z, h=1e-6):
    """Finite-difference d/dz and d/dzbar of a complex map fn."""
    fx = (fn(z + h) - fn(z - h)) / (2 * h)
    fy = (fn(z + 1j * h) - fn(z - 1j * h)) / (2 * h)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def test_s_critical():
    assert s_critical(4.0) == pytest.approx(1.0)
    assert s_critical(2.0) == pytest.approx(0.5)
    assert s_critical(18 / 5) == pytest.approx(3 / 2 - 5 / 9)
    for bad in (0.0, float("nan")):
        with pytest.raises(ValueError):
            s_critical(bad)


def test_validity_table():
    assert max_wirtinger_order(2.0) == 3
    assert max_wirtinger_order(2.5) == 3
    assert max_wirtinger_order(3.0) == 4
    assert max_wirtinger_order(3.7) == 4
    assert max_wirtinger_order(5.0) == 4
    for p, below, above in ((3.0, 3, 4), (4.0, 4, 4)):
        assert max_wirtinger_order(np.nextafter(p, 0)) == below
        assert max_wirtinger_order(np.nextafter(p, np.inf)) == above
    nl = PowerNonlinearity(2.5)
    with pytest.raises(UndefinedDerivative):
        wirtinger(1.0 + 0j, nl, (2, 2))
    with pytest.raises(UndefinedDerivative):
        wirtinger(1.0 + 0j, PowerNonlinearity(2.0), (2, 2))
    wirtinger(1.0 + 0j, PowerNonlinearity(3.0), (2, 2))  # fine at p = 3


def test_power_validation():
    with pytest.raises(ValueError):
        PowerNonlinearity(1.5)
    with pytest.raises(ValueError):
        PowerNonlinearity(2.0, sign=0)


def test_first_derivative_closed_forms():
    # dF/dz = (p/2 + 1)|z|^p, dF/dzbar = (p/2)|z|^{p-2} z^2
    nl = PowerNonlinearity(2.5)
    z = 0.7 - 0.3j
    assert wirtinger(z, nl, (1, 0)) == pytest.approx((nl.p / 2 + 1) * abs(z) ** nl.p)
    assert wirtinger(z, nl, (0, 1)) == pytest.approx((nl.p / 2) * abs(z) ** (nl.p - 2) * z**2)


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 3.7, 4.0, 5.0])
def test_wirtinger_vs_finite_differences(p):
    """Chain oracle: FD of the closed form of order (a, b) reproduces the
    closed forms of orders (a+1, b) and (a, b+1)."""
    nl = PowerNonlinearity(p)
    rng = np.random.default_rng(int(10 * p))
    z = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    z = z[np.abs(z) >= 0.05]
    for a, b in itertools.product(range(5), range(5)):
        if a + b + 1 > max_wirtinger_order(p):
            continue
        base = lambda w: wirtinger(w, nl, (a, b))
        dz_fd, dzbar_fd = fd_wirtinger(base, z)
        dz = wirtinger(z, nl, (a + 1, b))
        dzbar = wirtinger(z, nl, (a, b + 1))
        assert np.max(np.abs(dz - dz_fd) - 1e-5 * np.abs(dz)) < 1e-6
        assert np.max(np.abs(dzbar - dzbar_fd) - 1e-5 * np.abs(dzbar)) < 1e-6


def test_wirtinger_at_zero():
    nl = PowerNonlinearity(2.5)
    assert wirtinger(0j, nl, (1, 0)) == 0  # shared power p - 1 > 0
    assert wirtinger(0j, nl, (2, 1)) == 0  # shared power p - 2 = 0.5 > 0
    # p = 2, order 3: shared power hits zero -> no continuous extension
    with pytest.raises(DomainError):
        wirtinger(0j, PowerNonlinearity(2.0), (2, 1))
    # also when a valid order comes first in a multi-order call
    with pytest.raises(DomainError):
        wirtinger_orders(np.array([1.0, 0j]), PowerNonlinearity(2.0), ((1, 0), (2, 1)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from([2.0, 2.5, 3.0, 3.5, 4.0]), st.floats(2.0, 5.0)),
       st.sampled_from([1, -1]), st.integers(0, 10**6), st.data())
def test_wirtinger_orders_match_one_order_bitwise(p, sign, seed, data):
    # every order set whose powers stay positive at z = 0, on points with
    # injected zeros, gives the bits of one wirtinger call per order
    nl = PowerNonlinearity(p, sign)
    top = max_wirtinger_order(p)
    admissible = [(a, b) for a in range(top + 1) for b in range(top + 1 - a)
                  if p + 1 - a - b > 0]
    orders = data.draw(st.lists(st.sampled_from(admissible), min_size=1, max_size=5))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    z[rng.integers(0, 40, size=6)] = 0
    for order, got in zip(orders, wirtinger_orders(z, nl, orders)):
        assert np.array_equal(got.view(np.uint64), wirtinger(z, nl, order).view(np.uint64))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("sign", [1, -1])
def test_wirtinger_orders_match_even_p_polynomial(n, sign):
    # at p = 2n, F = sign * z^{n+1} zbar^n is a polynomial, so
    # d^a_z d^b_zbar F = sign * perm(n+1, a) perm(n, b) z^{n+1-a} zbar^{n-b};
    # the orders whose coefficient vanishes give zeros
    nl = PowerNonlinearity(2.0 * n, sign)
    top = max_wirtinger_order(nl.p)
    orders = [(a, b) for a in range(top + 1) for b in range(top + 1 - a)]
    rng = np.random.default_rng(17)
    z = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    for (a, b), got in zip(orders, wirtinger_orders(z, nl, orders)):
        c = math.perm(n + 1, a) * math.perm(n, b)
        if c == 0:
            assert np.all(got == 0)
        else:
            want = sign * c * z ** (n + 1 - a) * np.conj(z) ** (n - b)
            assert np.allclose(got, want, rtol=1e-13, atol=0)


def brute_cubic_coeffs(f):
    """Direct convolution oracle for |u|^2 u = u * u * conj(u)(-.)."""
    M = f.bandlimit
    out = np.zeros_like(f.coeffs)
    rng = range(-M, M + 1)
    def c(xi):
        return f.coefficient(xi)
    for target in itertools.product(rng, rng, rng):
        acc = 0.0 + 0.0j
        for a in itertools.product(rng, rng, rng):
            for b in itertools.product(rng, rng, rng):
                d = tuple(a[i] + b[i] - target[i] for i in range(3))
                if all(abs(x) <= M for x in d):
                    acc += c(a) * c(b) * np.conj(c(d))
        out[tuple(x + M for x in target)] = acc
    return out


@pytest.mark.parametrize("p", [2.0, 4.0])
@pytest.mark.parametrize("sign", [1, -1])
def test_evaluate_F_even_powers_against_exact_arithmetic(p, sign):
    from fractions import Fraction

    rng = np.random.default_rng(40)
    z = (rng.standard_normal(300) + 1j * rng.standard_normal(300)) * np.exp(
        rng.uniform(-5.0, 5.0, 300))
    z[0] = 0.0
    got = evaluate_F(z, PowerNonlinearity(p, sign))
    for zi, gi in zip(z, got):
        re, im = Fraction(zi.real), Fraction(zi.imag)
        mod_p = (re * re + im * im) ** int(p // 2)
        want = complex(sign * mod_p * re, sign * mod_p * im)  # rounded once
        assert abs(gi - want) <= 1e-15 * abs(want)
    assert evaluate_F(1.5 - 2j, PowerNonlinearity(p, sign)) == sign * 6.25 ** (p / 2) * (1.5 - 2j)


def test_apply_F_cubic_convolution_oracle():
    nl = PowerNonlinearity(2.0)
    f = random_field(1, seed=7, scale=0.5)
    got = apply_F(f, nl, oversample=4)
    want = brute_cubic_coeffs(f)
    assert np.max(np.abs(got.coeffs - want)) < 1e-12


@pytest.mark.parametrize("oversample", [2, 3, 4])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
def test_apply_F_is_evaluate_F_between_the_transforms(p, sign, oversample):
    f = random_field(3, seed=int(10 * p) + oversample, scale=0.5)
    nl = PowerNonlinearity(p, sign)
    want = to_spectral(GridField(METRIC, evaluate_F(to_grid(f, oversample).samples, nl)), 3)
    assert np.array_equal(apply_F(f, nl, oversample).coeffs.view(np.uint64),
                          want.coeffs.view(np.uint64))


def test_evaluate_F_writes_nothing_and_keeps_scalars():
    z = random_field(1, seed=5, scale=0.5).coeffs.T  # read-only and not C-contiguous
    before = z.copy()
    got = evaluate_F(z, PowerNonlinearity(2.5, -1))
    assert np.array_equal(z, before)
    assert np.array_equal(got, -np.abs(before) ** 2.5 * before)
    for z0 in (1.5 - 2j, np.complex128(0.3j), 2.0):
        out = evaluate_F(z0, PowerNonlinearity(2.5))
        assert np.ndim(out) == 0 and out == np.abs(z0) ** 2.5 * z0


def _peak_grids(fn, n):
    """Peak traced bytes of a second call of fn, in n^3 complex grids."""
    fn()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / (16 * n**3)
    finally:
        tracemalloc.stop()


def test_apply_F_and_to_spectral_hold_at_most_their_grids():
    # evaluating F into new arrays held 3.25 grids (|z|, |z|^p and the product
    # were each a fresh n^3 array), and an untrimmed first pass 1.25 grids
    f = random_field(8, seed=9, scale=0.5)
    g = to_grid(f, 4)
    assert _peak_grids(lambda: apply_F(f, PowerNonlinearity(2.5), 4), g.n) <= 2.0
    assert _peak_grids(lambda: to_spectral(g, 8), g.n) <= 1.0


@pytest.mark.parametrize("oversample", [2, 4])
def test_to_grid_holds_its_grid_and_one_pass(oversample):
    # the samples plus the (2M+1, n, n) middle pass: 1 + 1/oversample grids
    f = random_field(8, seed=9, scale=0.5)
    n = oversample * 17
    assert _peak_grids(lambda: to_grid(f, oversample), n) <= 1 + 1 / oversample + 0.1


def test_apply_F_requires_oversampling():
    from torus_nls.errors import GridTooSmall

    with pytest.raises(GridTooSmall):
        apply_F(random_field(1, scale=0.5), PowerNonlinearity(2.0), oversample=1)


@pytest.mark.parametrize("p", [2.0, 2.5, 3.5])
def test_ftc_linearize_reconstructs(p):
    nl = PowerNonlinearity(p)
    rng = np.random.default_rng(11)
    u = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    w = 0.5 * (rng.standard_normal(200) + 1j * rng.standard_normal(200))
    got = ftc_linearize(u, w, nl, 16)
    want = evaluate_F(u + w, nl) - evaluate_F(u, nl)
    assert np.max(np.abs(got - want)) < 1e-8
    # scalar and array entry points agree
    assert ftc_linearize(u[0], w[0], nl, 16) == pytest.approx(complex(got[0]))


def test_ftc_linearize_near_zero_crossing():
    nl = PowerNonlinearity(2.5)
    rng = np.random.default_rng(12)
    w = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    u = -0.5 * w + 1e-8 * (rng.standard_normal(100) + 1j * rng.standard_normal(100))
    got = ftc_linearize(u, w, nl, 16)
    want = evaluate_F(u + w, nl) - evaluate_F(u, nl)
    assert np.max(np.abs(got - want)) < 1e-6


def test_ftc_validation():
    with pytest.raises(ValueError):
        ftc_linearize(1.0 + 0j, 0.5 + 0j, PowerNonlinearity(2.0), quad_nodes=1)


@pytest.mark.parametrize("p", [2.5, 3.5])
def test_lp_difference_linearize(p):
    nl = PowerNonlinearity(p)
    u = random_field(2, seed=13, scale=0.5)
    N = 4
    t1, t2 = lp_difference_linearize(u, N, nl, quad_nodes=16, oversample=2)
    got = (t1 + t2).coeffs
    lo = to_grid(project_leq(u, N // 2), 2).samples
    hi = to_grid(project_leq(u, N), 2).samples
    from torus_nls.lattice import GridField, to_spectral

    want = to_spectral(
        GridField(METRIC, evaluate_F(hi, nl) - evaluate_F(lo, nl)), 2
    ).coeffs
    assert np.max(np.abs(got - want)) < 1e-8


def test_bony_telescoping_exact():
    nl = PowerNonlinearity(2.5)
    g = random_field(2, seed=14, scale=0.5)
    for N in (1, 2, 4):
        ps = bony_partial_sum(g, N, nl, oversample=4)
        direct = apply_F(project_leq(g, N), nl, oversample=4)
        assert np.max(np.abs(ps.coeffs - direct.coeffs)) < 1e-12


def test_bony_tail():
    nl = PowerNonlinearity(2.5)
    g = random_field(2, seed=15, scale=0.5)
    t1 = bony_tail(g, 1, nl, q=1.2)
    t4 = bony_tail(g, 4, nl, q=1.2)
    assert t4 == 0.0  # g is bandlimited at M = 2 <= 4
    assert t1 > 0.0
    for bad_q in (0.9, 1.5, 2.0):
        with pytest.raises(InvalidLebesgueExponent):
            bony_tail(g, 2, nl, q=bad_q)


def test_second_order_rejects_cubic():
    with pytest.raises(UndefinedDerivative):
        second_order_expansion_pointwise(
            np.ones(3, complex), np.ones(3, complex), np.ones(3, complex),
            np.ones(3, complex), PowerNonlinearity(2.0), 8
        )


@pytest.mark.parametrize("p", [2.5, 3.5])
def test_second_order_pointwise_reconstructs(p):
    nl = PowerNonlinearity(p)
    rng = np.random.default_rng(16)
    def draw(scale):
        return scale * (rng.standard_normal(50) + 1j * rng.standard_normal(50))
    ul, us, wl, ws = draw(1.0), draw(0.5), draw(0.3), draw(0.2)
    terms = second_order_expansion_pointwise(ul, us, wl, ws, nl, 16)
    assert set(terms) == {
        "w_shell_dz", "w_shell_dzbar", "u_shell_w_dzz", "u_shell_wbar_dzzbar",
        "u_shell_conj_w_dzbarz", "u_shell_conj_wbar_dzbarzbar",
    }
    total = sum(terms.values())
    F = lambda z: evaluate_F(z, nl)
    want = (F(ul + us + wl + ws) - F(ul + wl)) - (F(ul + us) - F(ul))
    assert np.max(np.abs(total - want)) < 1e-5


def test_second_order_field_level():
    nl = PowerNonlinearity(2.5)
    u = random_field(1, seed=17, scale=0.5)
    w = random_field(1, seed=18, scale=0.2)
    N = 2
    terms = second_order_expansion(u, w, N, nl, quad_nodes=24, oversample=2)
    total = sum(terms.values(), SpectralField.zero(METRIC, 1))
    from torus_nls.lattice import GridField, to_spectral

    def g(f):
        return to_grid(f, 2).samples

    F = lambda z: evaluate_F(z, nl)
    lhs_grid = (
        (F(g(project_leq(u + w, N))) - F(g(project_leq(u + w, N // 2))))
        - (F(g(project_leq(u, N))) - F(g(project_leq(u, N // 2))))
    )
    want = to_spectral(GridField(METRIC, lhs_grid), 1).coeffs
    assert np.max(np.abs(total.coeffs - want)) < 1e-6 * np.max(np.abs(want))


@settings(max_examples=20, deadline=None)
@given(st.floats(2.1, 4.9), st.integers(0, 10**6))
def test_wirtinger_conjugation_symmetry(p, seed):
    # dF/dzbar at conj(z) is the conjugate of dF/dz-bar relation: F commutes
    # with conjugation, so derivatives swap under z -> conj(z)
    nl = PowerNonlinearity(p)
    rng = np.random.default_rng(seed)
    z = complex(rng.standard_normal() + 1j * rng.standard_normal())
    if abs(z) < 0.05:
        return
    a = wirtinger(np.conj(z), nl, (1, 0))
    b = np.conj(wirtinger(z, nl, (1, 0)))
    assert a == pytest.approx(b, rel=1e-12)
