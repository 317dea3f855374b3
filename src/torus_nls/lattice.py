"""Irrational-torus geometry and the truncated Fourier lattice.

The torus is R^3/Z^3 with a diagonal metric encoded by three positive
weights theta = (theta1, theta2, theta3).  Frequencies stay in Z^3; the
irrationality lives entirely in the dispersion form

    Q(xi) = theta1*xi1^2 + theta2*xi2^2 + theta3*xi3^2,

and the Laplacian acts on the exponential e_xi as -laplace_scale * Q(xi).
The Fourier convention is unitary: sum_xi |u_hat(xi)|^2 = int |u|^2 dx.

to_grid and to_spectral are pruned 3-D FFTs (Markel, "FFT pruning", 1971)
that give the same bits as np.fft.ifftn / np.fft.fftn.  Those run one 1-D
FFT per line of the last axis, then of the middle axis, then of the first;
each line is transformed on its own, a line of zeros goes to zeros, and an
output that is discarded is never read.  So, with the M+1 and M occupied
positions {0..M} and {n-M..n-1} of an axis of length n = oversample(2M+1):

- to_grid transforms, in place in its one n^3 array, the (2M+1)^2 lines of
  the last axis that hold coefficients, then the (2M+1)n lines of the middle
  axis that are not still zero, then all n^2 lines of the first axis.
- to_spectral, to bandlimit b, transforms all n^2 lines of the last axis
  and keeps the 2b+1 wanted outputs of each, then the n(2b+1) lines of the
  middle axis that remain, keeping 2b+1 again, then the (2b+1)^2 lines of
  the first axis.  Its first two passes run on slabs of first-axis rows of
  about SLAB_BYTES each: a slab is transformed and trimmed along the last
  axis, then along the middle axis, straight into the (n, 2b+1, 2b+1)
  array, so no n^3 temporary is made and the samples are only read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import GridTooSmall, InvalidLebesgueExponent, NegativePowerAtZeroMode

DEFAULT_LAPLACE_SCALE = 4.0 * np.pi**2
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
        if len(self.theta) != 3 or any(t <= 0 for t in self.theta):
            raise ValueError(f"theta must be three positive reals, got {self.theta}")
        if self.laplace_scale <= 0:
            raise ValueError("laplace_scale must be positive")
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
        i, j, k = (int(x) + bandlimit for x in xi)
        c[i, j, k] = value
        return cls(metric, bandlimit, c)

    def with_coeffs(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(self.metric, self.bandlimit, coeffs)

    def coefficient(self, xi) -> complex:
        i, j, k = (int(x) + self.bandlimit for x in xi)
        return complex(self.coeffs[i, j, k])

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
        if not p >= 1:  # also rejects NaN
            raise InvalidLebesgueExponent(f"Lebesgue exponent must be >= 1, got {p}")
        a = np.abs(self.samples)
        if np.isinf(p):
            return float(a.max())
        return float(np.mean(a**p) ** (1.0 / p))


def bracket_sq(metric: TorusMetric, bandlimit: int) -> np.ndarray:
    """<xi>^2 = 1 + Q(xi)."""
    return 1.0 + q_grid(metric, bandlimit)


@lru_cache(maxsize=8)
def q_classes(metric: TorusMetric, bandlimit: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of Q on the coefficient cube, and the flat index
    (int32) of each mode's value among them; both read-only."""
    q_values, q_index = np.unique(q_grid(metric, bandlimit), return_inverse=True)
    q_index = q_index.ravel().astype(np.int32)
    q_values.flags.writeable = q_index.flags.writeable = False
    return q_values, q_index


@lru_cache(maxsize=16)
def _bracket_power_classes(metric: TorusMetric, bandlimit: int, s: float) -> np.ndarray:
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


def to_grid(field_: SpectralField, oversample: int = 1) -> GridField:
    """Evaluate the field on an oversample*(2M+1) uniform grid per axis."""
    if oversample < 1:
        raise GridTooSmall(f"oversample must be >= 1, got {oversample}")
    M = field_.bandlimit
    n = oversample * (2 * M + 1)
    samples = np.zeros((n, n, n), dtype=np.complex128)
    idx = np.arange(-M, M + 1) % n
    samples[np.ix_(idx, idx, idx)] = field_.coeffs
    occ = (slice(0, M + 1), slice(n - M, n))  # positions of xi = 0..M, -M..-1
    # ifftn's passes in its order (last axis first), each in place and only
    # on the lines that hold non-zero data; the other lines stay zero
    for a in occ:
        for b in occ:
            lines = samples[a, b]
            np.fft.ifft(lines, axis=2, out=lines)
    for a in occ:
        lines = samples[a]
        np.fft.ifft(lines, axis=1, out=lines)
    np.fft.ifft(samples, axis=0, out=samples)
    samples *= n**3
    return GridField(field_.metric, samples)


def to_spectral(grid: GridField, bandlimit: int) -> SpectralField:
    """Truncate the grid field to bandlimit M (inverse of to_grid on bandlimited data)."""
    n = grid.n
    if n < 2 * bandlimit + 1:
        raise GridTooSmall(f"grid n={n} cannot resolve bandlimit {bandlimit}")
    idx = np.arange(-bandlimit, bandlimit + 1) % n
    # fftn's passes in its order (last axis first); after each pass only the
    # 2*bandlimit+1 kept outputs of every line go on to the next.  The last-
    # and middle-axis passes run one slab of first-axis rows at a time
    spec = np.empty((n, idx.size, idx.size), dtype=np.complex128)
    for rows in slabs(n, grid.samples[0].nbytes):
        part = np.fft.fft(grid.samples[rows], axis=2).take(idx, axis=2)
        np.fft.fft(part, axis=1).take(idx, axis=1, out=spec[rows])
    spec = np.fft.fft(spec, axis=0).take(idx, axis=0)
    spec /= n**3
    return SpectralField(grid.metric, bandlimit, spec)
