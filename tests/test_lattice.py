import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_nls.errors import GridTooSmall, InvalidLebesgueExponent, NegativePowerAtZeroMode
from torus_nls.lattice import (DEFAULT_LAPLACE_SCALE, GridField, SpectralField,
                               TorusMetric, bracket_power, bracket_sq,
                               fractional_multiplier, gradient_fields, lattice_points,
                               q_form, q_grid, to_grid, to_spectral)

from helpers import METRIC, random_field


def test_metric_validation():
    with pytest.raises(ValueError):
        TorusMetric((1.0, -1.0, 1.0))
    with pytest.raises(ValueError):
        TorusMetric((1.0, 1.0, 1.0), laplace_scale=0.0)
    assert TorusMetric().laplace_scale == pytest.approx(4 * np.pi**2)
    assert DEFAULT_LAPLACE_SCALE == pytest.approx(39.4784176043574)


def test_q_form_values():
    assert q_form(METRIC, (1, 0, 0)) == pytest.approx(1.0)
    assert q_form(METRIC, (1, 1, 1)) == pytest.approx(1 + np.sqrt(2) + np.sqrt(3))
    # array form matches the grid
    M = 3
    pts = lattice_points(M)
    assert np.allclose(q_form(METRIC, pts).reshape((2 * M + 1,) * 3), q_grid(METRIC, M))


def test_lattice_points_row_major():
    pts = lattice_points(1)
    assert pts.shape == (27, 3)
    assert tuple(pts[0]) == (-1, -1, -1)
    assert tuple(pts[-1]) == (1, 1, 1)
    assert tuple(pts[1]) == (-1, -1, 0)  # last axis fastest


def test_roundtrip_exact():
    f = random_field(3, seed=1)
    for oversample in (1, 2, 3):
        g = to_grid(f, oversample)
        back = to_spectral(g, f.bandlimit)
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12


def full_fft_grid(f, oversample):
    """to_grid as the full 3-D inverse FFT of the zero-padded spectrum."""
    M = f.bandlimit
    n = oversample * (2 * M + 1)
    spec = np.zeros((n, n, n), dtype=np.complex128)
    idx = np.arange(-M, M + 1) % n
    spec[np.ix_(idx, idx, idx)] = f.coeffs
    return np.fft.ifftn(spec) * n**3


def full_fft_coeffs(samples, bandlimit):
    """to_spectral as the full 3-D FFT of the samples, then truncated."""
    n = samples.shape[0]
    spec = np.fft.fftn(samples) / n**3
    idx = np.arange(-bandlimit, bandlimit + 1) % n
    return spec[np.ix_(idx, idx, idx)]


EPS = np.finfo(float).eps


def assert_grid_close(g, f, oversample):
    # the oracle's own rounding is the ceil(log2 n) term
    n, K = g.n, 2 * f.bandlimit + 1
    bound = 8 * (K + (n - 1).bit_length()) * EPS * np.abs(f.coeffs).sum()
    assert np.max(np.abs(g.samples - full_fft_grid(f, oversample))) <= bound


def assert_coeffs_close(got, want, g):
    bound = 8 * (g.n + (g.n - 1).bit_length()) * EPS * np.abs(g.samples).mean()
    assert np.max(np.abs(got.coeffs - want)) <= bound


@pytest.mark.parametrize("M", [0, 1, 3, 8, 16])
def test_transforms_equal_full_fft(M):
    # every bandlimit the grid resolves, b = 2M (the presets' choice) among
    # them, against the centre of the widest truncation; at M = 16 only the
    # presets' oversample 4 and bandlimits M and 2M, as each b costs (2b+1) n^3
    f = random_field(M, seed=10 + M)
    for oversample in (1, 2, 3, 4) if M < 16 else (4,):
        g = to_grid(f, oversample)
        assert_grid_close(g, f, oversample)
        top = (g.n - 1) // 2
        want = full_fft_coeffs(g.samples, top)
        for b in range(0, top + 1) if M < 16 else (M, 2 * M):
            centre = slice(top - b, top + b + 1)
            assert_coeffs_close(to_spectral(g, b), want[centre, centre, centre], g)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), st.integers(1, 3), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_transforms_equal_full_fft_property(M, oversample, seed, frac):
    f = random_field(M, seed=seed, scale=10.0 ** (seed % 7 - 3))
    g = to_grid(f, oversample)
    assert_grid_close(g, f, oversample)
    b = round(frac * ((g.n - 1) // 2))
    assert_coeffs_close(to_spectral(g, b), full_fft_coeffs(g.samples, b), g)


@pytest.mark.parametrize("M, oversample", [(0, 3), (2, 2), (3, 3), (8, 2)])
def test_delta_is_one_exponential(M, oversample):
    # no FFT: e^{2 pi i xi.j / n} with its angle carried in long double
    n = oversample * (2 * M + 1)
    j = np.arange(n)
    for xi in [(0, 0, 0), (M, -M, M), (-M, 1 % (M + 1), M // 2), (1 % (M + 1), 0, -M)]:
        m = (xi[0] * j[:, None, None] + xi[1] * j[None, :, None] + xi[2] * j[None, None, :]) % n
        want = np.exp(2j * np.arccos(np.longdouble(-1)) * m / n)
        d = SpectralField.delta(METRIC, M, xi)
        assert np.max(np.abs(to_grid(d, oversample).samples - want)) <= 4 * EPS
        back = to_spectral(GridField(METRIC, want.astype(np.complex128)), M)
        assert np.max(np.abs(back.coeffs - d.coeffs)) <= 4 * EPS


def test_to_spectral_leaves_samples_alone():
    g = to_grid(random_field(2, seed=11), 2)
    before = g.samples.copy()
    g.samples.flags.writeable = False  # a write into the samples would raise
    to_spectral(g, 2)
    to_spectral(g, 4)
    assert np.array_equal(g.samples, before)


@pytest.mark.parametrize("metric", [METRIC, TorusMetric()])
def test_bracket_power_is_the_cube_power(metric):
    # bit for bit, on a metric whose Q values are all distinct and on one
    # where many modes share a value; a caller's write reaches no cache
    for s_ in (-0.5, 0.0, 0.5, 0.7, 2.0):
        want = (bracket_sq(metric, 3) ** s_).view(np.uint64)
        bracket_power(metric, 3, s_)[...] = 0.0
        assert np.array_equal(bracket_power(metric, 3, s_).view(np.uint64), want)


def test_parseval():
    f = random_field(2, seed=2)
    g = to_grid(f, 2)
    assert g.l2_norm() == pytest.approx(f.l2_norm(), abs=1e-12)
    # single exponential: |samples| == 1 everywhere
    d = SpectralField.delta(METRIC, 2, (1, -2, 0))
    assert np.allclose(np.abs(to_grid(d, 2).samples), 1.0)


def test_grid_too_small():
    f = random_field(3)
    g = to_grid(f, 1)
    with pytest.raises(GridTooSmall):
        to_spectral(g, 4)
    with pytest.raises(GridTooSmall):
        to_grid(f, 0)


def test_gradient_consistency_with_laplacian():
    f = random_field(2, seed=3)
    grads = gradient_fields(f)
    total = sum(np.sum(np.abs(g.coeffs) ** 2) for g in grads)
    expected = METRIC.laplace_scale * np.sum(q_grid(METRIC, 2) * np.abs(f.coeffs) ** 2)
    assert total == pytest.approx(expected, rel=1e-12)


def test_fractional_multiplier():
    f = random_field(2, seed=4)
    j = fractional_multiplier(f, 2.0)
    w = (1.0 + q_grid(METRIC, 2))
    assert np.allclose(j.coeffs, f.coeffs * w)
    h = fractional_multiplier(f, 2.0, "homogeneous")
    assert h.coefficient((0, 0, 0)) == 0
    with pytest.raises(NegativePowerAtZeroMode):
        fractional_multiplier(f, -1.0, "homogeneous")
    # zero-mean data is fine with negative powers
    g = f.with_coeffs(np.where(q_grid(METRIC, 2) == 0, 0.0, f.coeffs))
    fractional_multiplier(g, -1.0, "homogeneous")


def test_field_validation():
    with pytest.raises(ValueError):
        SpectralField(METRIC, 2, np.zeros((3, 3, 3)))
    nan = np.zeros((5, 5, 5), dtype=complex)
    nan[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        SpectralField(METRIC, 2, nan)
    with pytest.raises(ValueError):
        GridField(METRIC, np.zeros((4, 5, 5), dtype=complex))


def test_field_algebra():
    f, g = random_field(2, seed=5), random_field(2, seed=6)
    assert np.allclose((f + g).coeffs, f.coeffs + g.coeffs)
    assert np.allclose((f - g).coeffs, f.coeffs - g.coeffs)
    assert np.allclose((2.0 * f).coeffs, 2.0 * f.coeffs)
    other = random_field(3, seed=7)
    with pytest.raises(ValueError):
        f + other


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 10.0), st.integers(0, 10**6))
def test_norm_homogeneity(scale, seed):
    f = random_field(1, seed=seed)
    assert (scale * f).l2_norm() == pytest.approx(scale * f.l2_norm(), rel=1e-12)


def test_lp_norms():
    ones = GridField(METRIC, np.ones((6, 6, 6), dtype=complex))
    for p in (1.0, 2.0, 4.0, np.inf):
        assert ones.lp_norm(p) == pytest.approx(1.0)


def test_lp_norm_keeps_its_bits_and_stays_finite_at_large_p():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((12, 12, 12)) + 1j * rng.standard_normal((12, 12, 12))
    for scale in (0.3, 1.0, 3.0):
        g = GridField(METRIC, scale * z)
        a = np.abs(g.samples)
        top = a.max()
        for p in (1, 2, 3, 3.6, 6, 7.5, 15):
            assert g.lp_norm(p) == float(np.mean(a**p) ** (1.0 / p))
        # |u|^p leaves the float range; the norm rises to max|u|
        norms = [g.lp_norm(p) for p in (1e3, 1e5, 1e300)]
        assert all(np.isfinite(norms)) and norms == sorted(norms) and norms[-1] <= top
        assert norms[-1] == pytest.approx(top, rel=1e-12)


@pytest.mark.parametrize("p", [0.0, -2.0, 0.5, np.nan])
def test_lp_norm_rejects_exponents_below_one(p):
    # a grid with zeros: p < 0 would give 0 and p = 0 divide by zero
    half = GridField(METRIC, np.r_[np.ones(108), np.zeros(108)].reshape(6, 6, 6))
    with pytest.raises(InvalidLebesgueExponent):
        half.lp_norm(p)
    assert half.lp_norm(np.inf) == 1.0
