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
Elementwise, to_grid is within 8 (K + log2 n) eps sum|c| of np.fft.ifftn
of the zero-padded cube times n^3, and to_spectral within 8 (n + log2 n)
eps mean|samples| of np.fft.fftn / n^3; log2 n is the FFTs' own rounding.
"""

from __future__ import annotations

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
        return float(np.sqrt(np.mean(np.abs(self.samples) ** 2)))

    def lp_norm(self, p: float) -> float:
        """mean(|u|^p)^(1/p), taken of u / max|u| where |u|^p would leave the float
        range, so that the norm is finite at every p >= 1 and tends to max|u|."""
        if not p >= 1:  # also rejects NaN
            raise InvalidLebesgueExponent(f"Lebesgue exponent must be >= 1, got {p}")
        a = np.abs(self.samples)
        top = a.max()
        if np.isinf(p) or not 0 < top < np.inf:
            return float(top)
        with np.errstate(over="ignore"):
            in_range = _FLOAT.tiny <= top**p <= _FLOAT.max / a.size
        if not in_range:
            a /= top
        a **= p
        norm = np.mean(a) ** (1.0 / p)
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


@lru_cache(maxsize=16)
def _dft_matrix(b: int, n: int) -> np.ndarray:
    """The read-only (n, 2b+1) matrix e^{2 pi i m / n}, m = (x k) mod n, x < n,
    |k| <= b, as i^q e^{i phi} with q = round(4m/n), |phi| <= pi/4: within eps
    of the exact roots, where an angle 2 pi m / n near 2 pi is off by a few eps."""
    m = np.outer(np.arange(n), axis_range(b)) % n
    q = (8 * m + n) // (2 * n)
    w = np.array([1, 1j, -1, -1j])[q % 4] * np.exp(0.5j * np.pi * (4 * m - q * n) / n)
    w.flags.writeable = False
    return w


def to_grid(field_: SpectralField, oversample: int = 1) -> GridField:
    """Evaluate the field on an oversample*(2M+1) uniform grid per axis,
    samples[x] = sum_xi c_xi e^{2 pi i xi.x / n}: the last, middle and first
    axis in turn; holds 1 + 1/oversample n^3 grids (samples, middle pass)."""
    if oversample < 1:
        raise GridTooSmall(f"oversample must be >= 1, got {oversample}")
    M = field_.bandlimit
    K = 2 * M + 1
    n = oversample * K
    W = _dft_matrix(M, n)
    t = field_.coeffs.reshape(K * K, K) @ W.T  # last axis
    t = W @ t.reshape(K, K, n)  # middle axis
    samples = (W @ t.reshape(K, n * n)).reshape(n, n, n)  # first axis
    return GridField(field_.metric, samples)


def to_spectral(grid: GridField, bandlimit: int) -> SpectralField:
    """Truncate the grid field to bandlimit M (inverse of to_grid on bandlimited
    data), c_xi = n^-3 sum_x samples[x] e^{-2 pi i xi.x / n}: the first, middle
    and last axis in turn; only reads the samples and holds (2M+1)/n grids."""
    n = grid.n
    if n < 2 * bandlimit + 1:
        raise GridTooSmall(f"grid n={n} cannot resolve bandlimit {bandlimit}")
    K = 2 * bandlimit + 1
    V = _dft_matrix(bandlimit, n).conj()
    spec = V.T @ grid.samples.reshape(n, n * n)  # first axis
    spec = V.T @ spec.reshape(K, n, n)  # middle axis
    spec = (spec.reshape(K * K, n) @ V).reshape(K, K, K)  # last axis
    spec /= n**3
    return SpectralField(grid.metric, bandlimit, spec)
