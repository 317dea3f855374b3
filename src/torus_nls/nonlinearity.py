"""The power nonlinearity F(z) = sign * |z|^p z and its linearizations.

Wirtinger derivatives of F are computed in closed form.  Writing a
derivative of order (a, b) as a sum of monomials c * |z|^{p+k} z^j zbar^m,
every monomial shares the same total power p + k + j + m = p + 1 - a - b,
so the value collapses to

    |z|^{p+1-a-b} * sum_j c_j * (z/|z|)^{e_j}

with integer phase powers e_j.  The closed forms are the production path;
finite differences exist only as test oracles.

The fundamental-theorem-of-calculus linearizations

    F(u+w) - F(u) = w int_0^1 dF/dz(u+tw) dt + wbar int_0^1 dF/dzbar(u+tw) dt

are evaluated with composite Gauss-Legendre quadrature, with panels graded
toward the point where |u + tw| is smallest (the integrand loses smoothness
only where the argument crosses zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, GridTooSmall, InvalidLebesgueExponent, UndefinedDerivative
from .lattice import GridField, SpectralField, to_grid, to_spectral
from .littlewood_paley import blended_projection, project_dyadic, project_leq


def s_critical(p: float, d: int = 3) -> float:
    """Scaling-critical Sobolev regularity d/2 - 2/p."""
    if p <= 0 or d < 1:
        raise ValueError("need p > 0 and d >= 1")
    return d / 2.0 - 2.0 / p


@dataclass(frozen=True)
class PowerNonlinearity:
    """F(z) = sign * |z|^p z with p >= 2 and sign = +1 (focusing) or -1."""

    p: float
    sign: int = 1

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"p must be >= 2, got {self.p}")
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")

    @property
    def s_c(self) -> float:
        return s_critical(self.p, 3)


def max_wirtinger_order(p: float) -> int:
    """Largest admissible a+b for derivatives of |z|^p z."""
    if 2 < p < 3:
        return 3
    return min(4, int(np.floor(p + 1 + 1e-12)))


def validate_order(p: float, order: tuple[int, int]) -> tuple[int, int]:
    a, b = order
    if a < 0 or b < 0:
        raise UndefinedDerivative(f"invalid order {order}")
    if a + b > max_wirtinger_order(p):
        raise UndefinedDerivative(
            f"order {order} undefined for p = {p} (max total {max_wirtinger_order(p)})"
        )
    return a, b


@lru_cache(maxsize=None)
def _wirtinger_terms(p: float, a: int, b: int) -> tuple[tuple[float, int], ...]:
    """Monomial expansion of d^a/dz^a d^b/dzbar^b of |z|^p z.

    Returns ((coeff, phase_power), ...) so that the derivative equals
    |z|^{p+1-a-b} * sum coeff * (z/|z|)^{phase_power}.
    """
    # terms: {(k, j, m): coeff} meaning coeff * |z|^{p+k} z^j zbar^m
    terms = {(0, 1, 0): 1.0}

    def d_z(ts):
        out: dict = {}
        for (k, j, m), c in ts.items():
            alpha = p + k
            if alpha != 0:
                key = (k - 2, j, m + 1)
                out[key] = out.get(key, 0.0) + c * alpha / 2.0
            if j > 0:
                key = (k, j - 1, m)
                out[key] = out.get(key, 0.0) + c * j
        return out

    def d_zbar(ts):
        out: dict = {}
        for (k, j, m), c in ts.items():
            alpha = p + k
            if alpha != 0:
                key = (k - 2, j + 1, m)
                out[key] = out.get(key, 0.0) + c * alpha / 2.0
            if m > 0:
                key = (k, j, m - 1)
                out[key] = out.get(key, 0.0) + c * m
        return out

    for _ in range(a):
        terms = d_z(terms)
    for _ in range(b):
        terms = d_zbar(terms)

    collapsed: dict = {}
    for (k, j, m), c in terms.items():
        e = j - m
        collapsed[e] = collapsed.get(e, 0.0) + c
    return tuple(sorted((c, e) for e, c in collapsed.items() if c != 0.0))


def wirtinger(z, nl: PowerNonlinearity, order: tuple[int, int] = (0, 0)):
    """Closed-form Wirtinger derivative of F at z (scalar or array)."""
    a, b = validate_order(nl.p, order)
    terms = _wirtinger_terms(nl.p, a, b)
    z_arr = np.asarray(z, dtype=np.complex128)
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)

    power = nl.p + 1 - a - b
    r = np.abs(z_arr)
    zero = r == 0
    if np.any(zero) and power <= 0:
        raise DomainError(
            f"derivative of order {order} at z = 0 has non-positive power {power:.3g}"
        )
    out = np.zeros_like(z_arr)
    if np.any(~zero):
        rs = r[~zero]
        phase = z_arr[~zero] / rs
        acc = np.zeros_like(phase)
        for c, e in terms:
            acc += c * phase**e
        out[~zero] = nl.sign * rs**power * acc
    if scalar:
        return complex(out[0])
    return out


def evaluate_F(z, nl: PowerNonlinearity):
    """Pointwise sign * |z|^p z."""
    z_arr = np.asarray(z, dtype=np.complex128)
    return nl.sign * np.abs(z_arr) ** nl.p * z_arr


def apply_F(field: SpectralField, nl: PowerNonlinearity, oversample: int = 4) -> SpectralField:
    """Evaluate F pointwise on an oversampled grid and truncate back to M."""
    if oversample < 2:
        raise GridTooSmall("apply_F requires oversample >= 2")
    grid = to_grid(field, oversample)
    vals = evaluate_F(grid.samples, nl)
    return to_spectral(GridField(field.metric, vals), field.bandlimit)


def bony_partial_sum(
    field: SpectralField,
    N: int,
    nl: PowerNonlinearity,
    oversample: int = 4,
    profile: str = "sharp",
) -> SpectralField:
    """F(g_{<=1}) + sum_{2<=M<=N} [F(g_{<=M}) - F(g_{<=M/2})] (telescopes to F(g_{<=N}))."""
    total = apply_F(project_leq(field, 1, profile), nl, oversample)
    M = 2
    while M <= N:
        total = total + apply_F(project_leq(field, M, profile), nl, oversample)
        total = total - apply_F(project_leq(field, M // 2, profile), nl, oversample)
        M *= 2
    return total

def bony_tail(
    field: SpectralField,
    N: int,
    nl: PowerNonlinearity,
    q: float,
    oversample: int = 4,
    profile: str = "sharp",
) -> float:
    """||F(g) - F(g_{<=N})||_{L^q(T^3)} on the oversampled grid."""
    if not 1.0 <= q < 1.5:
        raise InvalidLebesgueExponent(f"q must lie in [1, 3/2), got {q}")
    full = to_grid(field, oversample).samples
    low = to_grid(project_leq(field, N, profile), oversample).samples
    diff = evaluate_F(full, nl) - evaluate_F(low, nl)
    return float(np.mean(np.abs(diff) ** q) ** (1.0 / q))


# ---------------------------------------------------------------------------
# Quadrature for the FTC linearizations


@lru_cache(maxsize=None)
def _gauss_legendre_01(K: int):
    x, w = np.polynomial.legendre.leggauss(K)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=None)
def _graded_fractions(levels: int = 4, ratio: float = 0.25) -> np.ndarray:
    """Panel boundary fractions in [0, 1] graded geometrically toward 1/2...

    Returned as fractions f so that per-point boundaries are
    c * f (left block) and c + (1-c) * f' (right block); see _panel_bounds.
    """
    left = [0.0] + [1.0 - ratio**l for l in range(1, levels + 1)] + [1.0]
    return np.asarray(left)


def _panel_bounds(c: np.ndarray, levels: int = 4) -> np.ndarray:
    """Per-point panel boundaries on [0, 1], graded toward c. Shape (2*levels+3, n)."""
    f = _graded_fractions(levels)            # length levels+2, from 0 to 1
    left = c[None, :] * f[:, None]           # 0 ... c
    right = c[None, :] + (1.0 - c[None, :]) * (1.0 - f[::-1][:, None])  # c ... 1
    return np.concatenate([left, right[1:]], axis=0)


def _integrate_unit_interval(fn, u: np.ndarray, w: np.ndarray, K: int, levels: int = 4):
    """int_0^1 fn(u + t w) dt, elementwise over flat complex arrays u, w.

    Panels are graded toward the in-segment minimizer of |u + t w| so the
    quadrature stays accurate when the segment passes near the origin.
    """
    wsq = np.abs(w) ** 2
    c = np.full(u.shape, 0.5)
    nz = wsq > 0
    c[nz] = -np.real(np.conj(u[nz]) * w[nz]) / wsq[nz]
    c = np.clip(c, 1e-3, 1.0 - 1e-3)

    bounds = _panel_bounds(c, levels)        # (P+1, n)
    nodes, weights = _gauss_legendre_01(K)
    acc = np.zeros(u.shape, dtype=np.complex128)
    for i in range(bounds.shape[0] - 1):
        a, b = bounds[i], bounds[i + 1]
        length = b - a
        for x, gw in zip(nodes, weights):
            t = a + length * x
            acc += gw * length * fn(u + t * w)
    return acc


def _ftc_pair(u: np.ndarray, w: np.ndarray, nl: PowerNonlinearity, K: int):
    """(int_0^1 dF/dz(u + t w) dt, int_0^1 dF/dzbar(u + t w) dt) over flat arrays."""
    return (_integrate_unit_interval(lambda z: wirtinger(z, nl, (1, 0)), u, w, K),
            _integrate_unit_interval(lambda z: wirtinger(z, nl, (0, 1)), u, w, K))


def ftc_linearize(u, w, nl: PowerNonlinearity, quad_nodes: int = 16):
    """w * int_0^1 dF/dz(u + t w) dt + conj(w) * int_0^1 dF/dzbar(u + t w) dt.

    Equals F(u+w) - F(u) up to quadrature error.  ``u`` and ``w`` may be
    complex scalars or arrays (w broadcast to the shape of u).
    """
    if quad_nodes < 2:
        raise ValueError("need at least 2 quadrature nodes")
    u_arr = np.asarray(u, dtype=np.complex128)
    u_flat = u_arr.ravel()
    w_flat = np.broadcast_to(np.asarray(w, dtype=np.complex128), u_arr.shape).ravel()
    i_z, i_zbar = _ftc_pair(u_flat, w_flat, nl, quad_nodes)
    out = (w_flat * i_z + np.conj(w_flat) * i_zbar).reshape(u_arr.shape)
    return complex(out) if u_arr.ndim == 0 else out


def lp_difference_linearize(
    u: SpectralField,
    N: int,
    nl: PowerNonlinearity,
    quad_nodes: int = 16,
    oversample: int = 4,
    profile: str = "sharp",
) -> tuple[SpectralField, SpectralField]:
    """The two linearization terms whose sum is F(u_{<=N}) - F(u_{<=N/2}).

    term1 = u_N * int_0^1 dF/dz((P_{<=N/2} + t P_N) u) dt, with P_{<=1/2} = 0,
    and term2 is the conjugate companion; both are returned truncated to the
    bandlimit of u.
    """
    g_low = to_grid(blended_projection(u, N, 0.0, profile), oversample).samples.ravel()
    shell_samples = to_grid(project_dyadic(u, N, profile), oversample).samples
    g_shell = shell_samples.ravel()
    i_z, i_zbar = _ftc_pair(g_low, g_shell, nl, quad_nodes)

    t1 = GridField(u.metric, (g_shell * i_z).reshape(shell_samples.shape))
    t2 = GridField(u.metric, (np.conj(g_shell) * i_zbar).reshape(shell_samples.shape))
    return to_spectral(t1, u.bandlimit), to_spectral(t2, u.bandlimit)


SECOND_ORDER_TERMS = (
    "w_shell_dz",
    "w_shell_dzbar",
    "u_shell_w_dzz",
    "u_shell_wbar_dzzbar",
    "u_shell_conj_w_dzbarz",
    "u_shell_conj_wbar_dzbarzbar",
)


def second_order_expansion_pointwise(
    u_low, u_shell, w_low, w_shell, nl: PowerNonlinearity, quad_nodes: int = 16
) -> dict:
    """Six-term second-order linearization on raw grid values.

    The terms sum to
      [F(b_1(u+w)) - F(b_0(u+w))] - [F(b_1 u) - F(b_0 u)]
    where b_t g = g_low + t * g_shell; this is the pointwise content of the
    dyadic difference expansion.  Requires p > 2.
    """
    if nl.p <= 2:
        raise UndefinedDerivative("second-order expansion needs p > 2 (cubic case is algebraic)")
    u_low = np.asarray(u_low, dtype=np.complex128).ravel()
    u_shell = np.asarray(u_shell, dtype=np.complex128).ravel()
    w_low = np.asarray(w_low, dtype=np.complex128).ravel()
    w_shell = np.asarray(w_shell, dtype=np.complex128).ravel()
    K = quad_nodes

    # First-order pair: w_shell * int dFz(b_t(u+w)) dt and its conjugate.
    a_z, a_zbar = _ftc_pair(u_low + w_low, u_shell + w_shell, nl, K)

    # Second-order double integrals: for each outer node t, the inner
    # integral runs over e in [0,1] along b_t(u) + e * b_t(w).  The outer
    # quadrature is graded (like the inner one) toward the t at which the
    # blend family passes closest to the origin; the outer node axis is then
    # folded into the point axis so the graded inner quadrature is reused
    # unchanged.
    nodes, weights = _gauss_legendre_01(K)
    npts = u_low.size

    t_star = np.full(npts, 0.5)
    d_star = np.full(npts, np.inf)
    for t in np.linspace(0.0, 1.0, 33):
        bu = u_low + t * u_shell
        bw = w_low + t * w_shell
        wsq = np.abs(bw) ** 2
        e = np.where(wsq > 0, -np.real(np.conj(bu) * bw) / np.where(wsq > 0, wsq, 1.0), 0.0)
        d = np.abs(bu + np.clip(e, 0.0, 1.0) * bw)
        closer = d < d_star
        d_star = np.where(closer, d, d_star)
        t_star = np.where(closer, t, t_star)

    bounds = _panel_bounds(np.clip(t_star, 1e-3, 1.0 - 1e-3))   # (P+1, npts)
    t_nodes = []
    t_weights = []
    for i in range(bounds.shape[0] - 1):
        a, length = bounds[i], bounds[i + 1] - bounds[i]
        for x, gw in zip(nodes, weights):
            t_nodes.append(a + length * x)
            t_weights.append(gw * length)
    t_mat = np.stack(t_nodes)          # (P*K, npts), per-point outer nodes
    w_mat = np.stack(t_weights)
    bt_u = u_low[None, :] + t_mat * u_shell[None, :]
    bt_w = w_low[None, :] + t_mat * w_shell[None, :]
    bt_u_flat, bt_w_flat = bt_u.ravel(), bt_w.ravel()

    def outer(order, conj_weight: bool):
        inner = _integrate_unit_interval(
            lambda z: wirtinger(z, nl, order), bt_u_flat, bt_w_flat, K
        ).reshape(t_mat.shape)
        wt = np.conj(bt_w) if conj_weight else bt_w
        return np.sum(w_mat * wt * inner, axis=0)

    d_zz = outer((2, 0), conj_weight=False)
    d_zzbar = outer((1, 1), conj_weight=True)
    d_zbarz = outer((1, 1), conj_weight=False)
    d_zbarzbar = outer((0, 2), conj_weight=True)

    return {
        "w_shell_dz": w_shell * a_z,
        "w_shell_dzbar": np.conj(w_shell) * a_zbar,
        "u_shell_w_dzz": u_shell * d_zz,
        "u_shell_wbar_dzzbar": u_shell * d_zzbar,
        "u_shell_conj_w_dzbarz": np.conj(u_shell) * d_zbarz,
        "u_shell_conj_wbar_dzbarzbar": np.conj(u_shell) * d_zbarzbar,
    }


def second_order_expansion(
    u: SpectralField,
    w: SpectralField,
    N: int,
    nl: PowerNonlinearity,
    quad_nodes: int = 16,
    oversample: int = 4,
    profile: str = "sharp",
) -> dict:
    """Six labeled spectral fields whose sum reconstructs the dyadic
    second-difference [F(u_{<=N}+w_{<=N}) - F(u_{<=N/2}+w_{<=N/2})]
    - [F(u_{<=N}) - F(u_{<=N/2})]."""
    def parts(f):
        return (to_grid(blended_projection(f, N, 0.0, profile), oversample),
                to_grid(project_dyadic(f, N, profile), oversample))

    ul, us = parts(u)
    wl, ws = parts(w)
    terms = second_order_expansion_pointwise(
        ul.samples, us.samples, wl.samples, ws.samples, nl, quad_nodes
    )
    n = ul.n
    out = {}
    for name, vals in terms.items():
        out[name] = to_spectral(GridField(u.metric, vals.reshape(n, n, n)), u.bandlimit)
    return out
