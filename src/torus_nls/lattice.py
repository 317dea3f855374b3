"""Irrational-torus geometry and the truncated Fourier lattice.

The torus is R^3/Z^3 with a diagonal metric encoded by three positive
weights theta = (theta1, theta2, theta3).  Frequencies stay in Z^3; the
irrationality lives entirely in the dispersion form

    Q(xi) = theta1*xi1^2 + theta2*xi2^2 + theta3*xi3^2,

and the Laplacian acts on the exponential e_xi as -laplace_scale * Q(xi).
The Fourier convention is unitary: sum_xi |u_hat(xi)|^2 = int |u|^2 dx.

to_grid and to_spectral are three matrix products each, the partial-DFT
view of FFT pruning (Sorensen and Burrus, IEEE Trans. Signal Process.,
1993): a field of bandlimit b occupies K = 2b+1 frequencies of an axis of
length n, so each 1-D pass maps the K values of a line to its n samples,
or back, by the (n, K) matrix W[x, k] = e^{2 pi i x k / n}, k = -b..b.
The widest pass costs K n^3 multiply-adds against n^3 log n for an FFT,
but runs at BLAS speed for any n (n = 34 = 2*17 at M = 8, oversample 2).

The columns k and -k of W are complex conjugates, so
e^{i theta k} c_k + e^{-i theta k} c_-k = cos(theta k) (c_k + c_-k)
+ sin(theta k) i (c_k - c_-k).  to_grid folds the first two axes of the
coefficient cube (K^3 entries) into [c_0, c_k + c_-k, i (c_k - c_-k)],
and its middle and first passes, which hold nearly all the flops, apply
the real (n, K) matrix R = [1 | cos | sin] to the float64 view of the
complex array: half the flops of a complex product.  to_spectral applies
R^T to the float64 views, giving the cos and sin sums A_k and B_k, and
unfolds them into c_k = A_k - i B_k and c_-k = A_k + i B_k.  The last
pass, over the contiguous axis, stays a complex product, by W or its
conjugate.  The fold and unfold are exact but for one rounding of each
sum, so the accuracy is that of the complex passes: elementwise, to_grid
is within 8 (K + log2 n) eps sum|c| of np.fft.ifftn of the zero-padded
cube times n^3, and to_spectral within 8 (n + log2 n) eps mean|samples|
of np.fft.fftn / n^3; log2 n is the FFTs' own rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError, GridTooSmall, InvalidLebesgueExponent, NegativePowerAtZeroMode

DEFAULT_LAPLACE_SCALE = 4.0 * np.pi**2
_FLOAT = np.finfo(np.float64)
SLAB_BYTES = 1 << 18  # working set of one slab of a pass over a grid (256 kB)


def slabs(length: int, item_bytes: int) -> list[slice]:
    """Slices cutting range(length) into runs of about SLAB_BYTES, at least
    one item each; the last run may be shorter."""
    step = max(1, SLAB_BYTES // item_bytes)
    return [slice(i, min(i + step, length)) for i in range(0, length, step)]


@dataclass(frozen=True)
class TorusMetric:
    """Diagonal torus metric: dispersion weights plus Laplacian scale."""

    theta: tuple[float, float, float] = (1.0, 1.0, 1.0)
    laplace_scale: float = DEFAULT_LAPLACE_SCALE

    def __post_init__(self):
        # written so that NaN fails each rule
        if len(self.theta) != 3 or not all(0 < t < np.inf for t in self.theta):
            raise ConfigError(f"theta must be three positive finite reals, got {self.theta}")
        if not 0 < self.laplace_scale < np.inf:
            raise ConfigError(f"laplace_scale must be finite and > 0, got {self.laplace_scale}")
        object.__setattr__(self, "theta", tuple(float(t) for t in self.theta))


def q_form(metric: TorusMetric, xi) -> float:
    """Dispersion form Q(xi) = theta1*xi1^2 + theta2*xi2^2 + theta3*xi3^2.

    ``xi`` may be a single integer triple or an (..., 3) array; the result
    has the corresponding shape.
    """
    xi = np.asarray(xi, dtype=float)
    theta = np.asarray(metric.theta)
    return np.einsum("...i,i->...", xi * xi, theta)


def lattice_points(bandlimit: int) -> np.ndarray:
    """All frequencies of the centered cube [-M, M]^3, row-major, shape (n^3, 3)."""
    r = np.arange(-bandlimit, bandlimit + 1)
    g = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1)
    return g.reshape(-1, 3)


def axis_range(bandlimit: int) -> np.ndarray:
    return np.arange(-bandlimit, bandlimit + 1)


def q_grid(metric: TorusMetric, bandlimit: int) -> np.ndarray:
    """Q(xi) evaluated on the (2M+1)^3 coefficient cube."""
    r = axis_range(bandlimit).astype(float) ** 2
    t1, t2, t3 = metric.theta
    return (
        t1 * r[:, None, None] + t2 * r[None, :, None] + t3 * r[None, None, :]
    )


def euclidean_norm_grid(bandlimit: int) -> np.ndarray:
    """|xi| (Euclidean norm of the integer vector) on the coefficient cube."""
    r = axis_range(bandlimit).astype(float) ** 2
    return np.sqrt(r[:, None, None] + r[None, :, None] + r[None, None, :])


def mode_index(xi, bandlimit: int) -> tuple[int, int, int]:
    """Index xi + M of the frequency xi in the (2M+1)^3 coefficient cube;
    raises ConfigError when xi is not an integer triple in [-M, M]^3."""
    xi = tuple(xi)
    # the range test comes first, so NaN and inf never reach int()
    if len(xi) != 3 or not all(-bandlimit <= x <= bandlimit and x == int(x) for x in xi):
        raise ConfigError(f"mode xi = ({', '.join(map(str, xi))}) is not an integer triple"
                          f" in [-M, M]^3 with M = {bandlimit}")
    return tuple(int(x) + bandlimit for x in xi)


@dataclass(frozen=True)
class SpectralField:
    """Complex Fourier coefficients on the truncated lattice [-M, M]^3.

    ``coeffs`` is a complex array of shape (2M+1, 2M+1, 2M+1), indexed by
    xi + M along each axis (row-major over xi1, xi2, xi3).
    """

    metric: TorusMetric
    bandlimit: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = 2 * self.bandlimit + 1
        coeffs = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        if coeffs.shape != (n, n, n):
            raise ValueError(
                f"coeffs shape {coeffs.shape} does not match bandlimit {self.bandlimit}"
            )
        if not np.all(np.isfinite(coeffs.view(np.float64))):
            raise ValueError("coeffs contain NaN or Inf")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zero(cls, metric: TorusMetric, bandlimit: int) -> "SpectralField":
        n = 2 * bandlimit + 1
        return cls(metric, bandlimit, np.zeros((n, n, n), dtype=np.complex128))

    @classmethod
    def delta(cls, metric: TorusMetric, bandlimit: int, xi, value=1.0) -> "SpectralField":
        n = 2 * bandlimit + 1
        c = np.zeros((n, n, n), dtype=np.complex128)
        c[mode_index(xi, bandlimit)] = value
        return cls(metric, bandlimit, c)

    def with_coeffs(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(self.metric, self.bandlimit, coeffs)

    def coefficient(self, xi) -> complex:
        return complex(self.coeffs[mode_index(xi, self.bandlimit)])

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        return self.with_coeffs(self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        return self.with_coeffs(self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "SpectralField":
        return self.with_coeffs(self.coeffs * scalar)

    __rmul__ = __mul__

    def _check_compatible(self, other: "SpectralField"):
        if other.bandlimit != self.bandlimit or other.metric != self.metric:
            raise ValueError("fields live on different lattices")


@dataclass(frozen=True)
class GridField:
    """Complex samples on an n x n x n uniform physical grid."""

    metric: TorusMetric
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        samples = np.ascontiguousarray(self.samples, dtype=np.complex128)
        if samples.ndim != 3 or len(set(samples.shape)) != 1:
            raise ValueError(f"samples must be a cube, got shape {samples.shape}")
        object.__setattr__(self, "samples", samples)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    def l2_norm(self) -> float:
        # L^2(T^3) with unit volume: mean of |u|^2.
        return self.lp_norm(2.0)

    def lp_norm(self, p: float) -> float:
        """mean(|u|^p)^(1/p) by power_mean: finite at every amplitude and p >= 1."""
        if not p >= 1:  # also rejects NaN
            raise InvalidLebesgueExponent(f"Lebesgue exponent must be >= 1, got {p}")
        return power_mean(np.abs(self.samples), p)


def power_mean(a: np.ndarray, p: float, total=np.mean) -> float:
    """total(a^p)^(1/p) of a nonnegative array a, which it overwrites, at p >= 1;
    taken of a / max(a) where max(a)^p would leave the float range, so that it
    is finite and homogeneous at every amplitude and tends to max(a) as p grows.
    In range, the bits are those of the plain formula."""
    top = a.max()
    if np.isinf(p) or not 0 < top < np.inf:
        return float(top)
    with np.errstate(over="ignore"):
        in_range = _FLOAT.tiny <= top**p <= _FLOAT.max / a.size
    if not in_range:
        a /= top
    a **= p
    norm = total(a) ** (1.0 / p)
    return float(norm if in_range else top * norm)


def bracket_sq(metric: TorusMetric, bandlimit: int) -> np.ndarray:
    """<xi>^2 = 1 + Q(xi)."""
    return 1.0 + q_grid(metric, bandlimit)


@lru_cache(maxsize=8)
def q_classes(metric: TorusMetric, bandlimit: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of Q on the coefficient cube, and the flat index
    (intp, so a gather by it converts nothing) of each mode's value among
    them; both read-only."""
    q_values, q_index = np.unique(q_grid(metric, bandlimit), return_inverse=True)
    q_index = q_index.ravel()
    q_values.flags.writeable = q_index.flags.writeable = False
    return q_values, q_index


@lru_cache(maxsize=16)
def _bracket_power_classes(metric: TorusMetric, bandlimit: int, s: float) -> np.ndarray:
    if not -np.inf < s < np.inf:  # also rejects NaN
        raise ConfigError(f"Sobolev exponent must be finite, got {s}")
    with np.errstate(over="ignore"):  # a huge s has inf weights, and its norms are inf
        w = (1.0 + q_classes(metric, bandlimit)[0]) ** s
    w.flags.writeable = False
    return w


def bracket_power(metric: TorusMetric, bandlimit: int, s: float) -> np.ndarray:
    """<xi>^{2s} = (1 + Q(xi))^s on the coefficient cube.  The powers are
    cached per (metric, bandlimit, s) on the distinct values of Q only, and
    gathered into a new array: the same bits as bracket_sq(...) ** s."""
    n = 2 * bandlimit + 1
    w = _bracket_power_classes(metric, bandlimit, s)
    return np.take(w, q_classes(metric, bandlimit)[1]).reshape(n, n, n)


def fractional_multiplier(
    field_: SpectralField,
    s: float,
    kind: str = "japanese_bracket",
) -> SpectralField:
    """Multiply coefficients by <xi>^s, or by Q(xi)^{s/2} (zero mode killed)."""
    M = field_.bandlimit
    if kind == "japanese_bracket":
        mult = bracket_power(field_.metric, M, s / 2.0)
        return field_.with_coeffs(field_.coeffs * mult)
    if kind == "homogeneous":
        q = q_grid(field_.metric, M)
        if s < 0 and field_.coefficient((0, 0, 0)) != 0:
            raise NegativePowerAtZeroMode(
                "homogeneous multiplier with s < 0 requires a vanishing zero mode"
            )
        mult = np.zeros_like(q)
        nz = q > 0
        mult[nz] = q[nz] ** (s / 2.0)
        return field_.with_coeffs(field_.coeffs * mult)
    raise ValueError(f"unknown multiplier kind {kind!r}")


def gradient_fields(field_: SpectralField) -> tuple[SpectralField, SpectralField, SpectralField]:
    """Metric gradient as three multiplier fields.

    Component i multiplies by 1j * sqrt(laplace_scale * theta_i) * xi_i, so
    that sum_i |grad_i u|^2 integrates to laplace_scale * sum Q(xi)|u_hat|^2,
    consistent with -<Laplacian u, u>.
    """
    M = field_.bandlimit
    r = axis_range(M).astype(float)
    c = field_.metric.laplace_scale
    out = []
    for axis, t in enumerate(field_.metric.theta):
        shape = [1, 1, 1]
        shape[axis] = 2 * M + 1
        mult = 1j * np.sqrt(c * t) * r.reshape(shape)
        out.append(field_.with_coeffs(field_.coeffs * mult))
    return tuple(out)


def _count(name: str, value, least: int) -> int:
    """value as an int >= least; an integral float such as 2.0 passes, and a
    non-integral, non-finite or smaller value raises ConfigError naming it."""
    if not (math.isfinite(value) and value == int(value) and value >= least):
        raise ConfigError(f"{name} must be an integer >= {least}, got {value}")
    return int(value)


@lru_cache(maxsize=32)
def _dft_matrix(b: int, n: int, sign: int = 1) -> np.ndarray:
    """The read-only (n, 2b+1) matrix e^{2 pi i m / n}, m = (sign x k) mod n, x < n,
    |k| <= b, as i^q e^{i phi} with q = round(4m/n), |phi| <= pi/4: within eps
    of the exact roots, where an angle 2 pi m / n near 2 pi is off by a few eps.
    sign -1 gives the conjugate, column k being column -k of sign 1."""
    m = np.outer(np.arange(n), sign * axis_range(b)) % n
    q = (8 * m + n) // (2 * n)
    w = np.array([1, 1j, -1, -1j])[q % 4] * np.exp(0.5j * np.pi * (4 * m - q * n) / n)
    w.flags.writeable = False
    return w


@lru_cache(maxsize=16)
def _real_dft(b: int, n: int) -> np.ndarray:
    """The read-only real (n, 2b+1) matrix [1 | cos(2 pi x k / n) | sin(2 pi x k / n)],
    k = 1..b: the columns k >= 0 of _dft_matrix split into real and imaginary parts."""
    w = _dft_matrix(b, n)[:, b:]
    r = np.concatenate((w.real, w[:, 1:].imag), axis=1)
    r.flags.writeable = False
    return r


@lru_cache(maxsize=16)
def _fold_rows(b: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row indices into a cube reshaped to (K^2, K), K = 2b+1, that
    swap its first two axes and reorder both: `into` from natural order
    (k = -b..b) to folded order (k = 0, 1..b, -1..-b), `back` from folded to
    natural order."""
    K = 2 * b + 1
    k = np.arange(1, b + 1)
    order = np.concatenate(([0], k, -k)) + b
    natural = np.argsort(order)
    rows = tuple((p * K + p[:, None]).ravel() for p in (order, natural))
    for r in rows:
        r.flags.writeable = False
    return rows


def _fold_first(t: np.ndarray) -> None:
    """In place along the first axis, in folded order: (c_0, c_k, c_-k) becomes
    (c_0, c_k + c_-k, i (c_k - c_-k)), k = 1..b, as e^{i k phi} c_k + e^{-i k phi}
    c_-k = cos k phi (c_k + c_-k) + sin k phi i (c_k - c_-k)."""
    b = len(t) // 2
    pos, neg = t[1:b + 1], t[b + 1:]
    diff = pos - neg
    pos += neg
    np.multiply(diff, 1j, out=neg)


def _unfold_first(t: np.ndarray) -> None:
    """In place along the first axis, the sums (A_0, A_k, B_k) of s_x times 1,
    cos k phi_x and sin k phi_x become those of s_x e^{-i k phi_x} at k = 0, k
    and -k: (A_0, A_k - i B_k, A_k + i B_k), k = 1..b."""
    b = len(t) // 2
    cos, sin = t[1:b + 1], t[b + 1:]
    isin = sin * 1j
    np.add(cos, isin, out=sin)
    cos -= isin


def _fold(c: np.ndarray) -> np.ndarray:
    """The cube c folded along its first two axes, a new array.  Each axis is
    folded while it is the first, where its halves are contiguous blocks."""
    K = len(c)
    t = np.take(c.reshape(K * K, K), _fold_rows(K // 2)[0], axis=0).reshape(K, K, K)
    _fold_first(t)  # k2
    t = t.transpose(1, 0, 2).copy()
    _fold_first(t)  # k1
    return t


def _unfold(t: np.ndarray) -> np.ndarray:
    """The inverse reading of _fold: t, folded along its first two axes, is
    unfolded into a new cube in natural order; overwrites t."""
    K = len(t)
    _unfold_first(t)  # k1
    t = t.transpose(1, 0, 2).copy()
    _unfold_first(t)  # k2
    return np.take(t.reshape(K * K, K), _fold_rows(K // 2)[1], axis=0).reshape(K, K, K)


def to_grid(field_: SpectralField, oversample: int = 1) -> GridField:
    """Evaluate the field on an oversample*(2M+1) uniform grid per axis,
    samples[x] = sum_xi c_xi e^{2 pi i xi.x / n}: the last, middle and first
    axis in turn, the last two on the folded cube; holds 1 + 1/oversample n^3
    grids (samples, middle pass)."""
    if oversample < 1:
        raise GridTooSmall(f"oversample must be >= 1, got {oversample}")
    oversample = _count("oversample", oversample, 1)
    M = field_.bandlimit
    K = 2 * M + 1
    n = oversample * K
    R = _real_dft(M, n)
    t = _fold(field_.coeffs)
    t = t.reshape(K * K, K) @ _dft_matrix(M, n).T  # last axis, complex
    # middle and first axis: R on the float64 view, as numpy would run a real @
    # complex product as a complex one; each rebinding of t frees the pass before
    t = (R @ t.view(np.float64).reshape(K, K, 2 * n)).view(np.complex128)
    samples = (R @ t.view(np.float64).reshape(K, 2 * n * n)).view(np.complex128)
    return GridField(field_.metric, samples.reshape(n, n, n))


def to_spectral(grid: GridField, bandlimit: int) -> SpectralField:
    """Truncate the grid field to bandlimit M (inverse of to_grid on bandlimited
    data), c_xi = n^-3 sum_x samples[x] e^{-2 pi i xi.x / n}: the first, middle
    and last axis in turn, then the unfold of the first two; only reads the
    samples and holds (2M+1)/n grids."""
    M = _count("bandlimit", bandlimit, 0)
    n = grid.n
    if n < 2 * M + 1:
        raise GridTooSmall(f"grid n={n} cannot resolve bandlimit {M}")
    K = 2 * M + 1
    R = _real_dft(M, n)
    t = (R.T @ grid.samples.view(np.float64).reshape(n, 2 * n * n)).view(np.complex128)
    t = (R.T @ t.view(np.float64).reshape(K, n, 2 * n)).view(np.complex128)
    t = t.reshape(K * K, n) @ _dft_matrix(M, n, -1)
    spec = _unfold(t.reshape(K, K, K))
    spec /= n**3
    return SpectralField(grid.metric, M, spec)
