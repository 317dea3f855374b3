"""The power nonlinearity F(z) = sign * |z|^p z and its linearizations.

F itself has one kernel, evaluate_F_in_place, which overwrites a complex
array with F of it slab by slab (r = |z|; r **= p; r *= sign; z *= r), so
its real temporaries are slab-sized.  apply_F runs it on the grid its own
to_grid made, bony_tail and the harness on grids they own, and evaluate_F
on a copy of its argument.

Wirtinger derivatives of F are computed in closed form.  z and zbar are
independent in Wirtinger calculus and F = sign * z^{p/2+1} zbar^{p/2}, so
each derivative is one monomial,

    d^a_z d^b_zbar F = sign * c * |z|^{p+1-a-b} * (z/|z|)^{1-a+b},
    c = (p/2+1)(p/2)...(p/2+2-a) * (p/2)(p/2-1)...(p/2+1-b),

a product of two falling factorials.  wirtinger_orders evaluates several
orders from one |z|, zero mask and phase z/|z|; wirtinger is its one-order
case.  Finite differences exist only as test oracles.

The fundamental-theorem-of-calculus linearizations

    F(u+w) - F(u) = w int_0^1 dF/dz(u+tw) dt + wbar int_0^1 dF/dzbar(u+tw) dt

use one rule, built only by _graded_nodes: composite Gauss-Legendre with
panels graded toward the point where |u + t w| is smallest (the integrand
loses smoothness only where the argument crosses zero).  _ftc_integrals
walks its nodes once for all the orders it is given: (1,0) and (0,1) for
first-order terms, (2,0), (1,1) and (0,2) for the inner integrals of the
second-order expansion, whose outer rule is the same graded rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, pairwise

import numpy as np

from .errors import (ConfigError, DomainError, GridTooSmall, InvalidLebesgueExponent,
                     UndefinedDerivative)
from .lattice import GridField, SpectralField, slabs, to_grid, to_spectral
from .littlewood_paley import blended_projection, project_dyadic, project_leq


def s_critical(p: float) -> float:
    """Scaling-critical Sobolev regularity 3/2 - 2/p on the 3-torus."""
    if not p > 0:  # also rejects NaN
        raise ValueError("need p > 0")
    return 1.5 - 2.0 / p


@dataclass(frozen=True)
class PowerNonlinearity:
    """F(z) = sign * |z|^p z with p >= 2 and sign = +1 (focusing) or -1."""

    p: float
    sign: int = 1

    def __post_init__(self):
        if not 2 <= self.p < np.inf:  # also rejects NaN
            raise ConfigError(f"p must be finite and >= 2, got {self.p}")
        if self.sign not in (+1, -1):
            raise ConfigError(f"sign must be +1 or -1, got {self.sign}")

    @property
    def s_c(self) -> float:
        return s_critical(self.p)


def max_wirtinger_order(p: float) -> int:
    """Largest admissible a+b for derivatives of |z|^p z: p+1 rounded down,
    at most 4."""
    return min(4, int(p + 1))


def _wirtinger_coefficient(p: float, a: int, b: int) -> float:
    """c with d^a/dz^a d^b/dzbar^b of z^{p/2+1} zbar^{p/2} equal to
    c * |z|^{p+1-a-b} * (z/|z|)^{1-a+b}: the falling factorials
    (p/2+1)(p/2)...(p/2+2-a) times (p/2)(p/2-1)...(p/2+1-b)."""
    if a < 0 or b < 0:
        raise UndefinedDerivative(f"invalid order {(a, b)}")
    if a + b > max_wirtinger_order(p):
        raise UndefinedDerivative(
            f"order {(a, b)} undefined for p = {p} (max total {max_wirtinger_order(p)})"
        )
    c = 1.0
    for k in chain(range(-1, a - 1), range(b)):  # p/2 - k rounds once
        c *= p / 2 - k
    return c


def wirtinger_orders(z, nl: PowerNonlinearity, orders) -> list[np.ndarray]:
    """Closed-form Wirtinger derivatives of F of each order (a, b) in
    ``orders`` at the points of the array z, one array of z's shape per order.

    |z|, its zero mask and the phase z/|z| are taken once for all orders, and
    |z|^{p+1-a-b} once for each distinct a+b.
    """
    coeffs = [_wirtinger_coefficient(nl.p, *order) for order in orders]
    z = np.asarray(z, dtype=np.complex128)
    r = np.abs(z)
    zero = r == 0
    nonzero = ~zero
    rs = r[nonzero]
    phase = z[nonzero] / rs
    radial = {}
    outs = []
    for (a, b), c in zip(orders, coeffs):
        power = nl.p + 1 - a - b
        if power <= 0 and np.any(zero):
            raise DomainError(
                f"derivative of order {(a, b)} at z = 0 has non-positive power {power:.3g}"
            )
        out = np.zeros_like(z)
        if c != 0.0:
            if power not in radial:
                radial[power] = nl.sign * rs**power
            out[nonzero] = c * phase ** (1 - a + b) * radial[power]
        outs.append(out)
    return outs


def wirtinger(z, nl: PowerNonlinearity, order: tuple[int, int] = (0, 0)):
    """Closed-form Wirtinger derivative of F at z (scalar or array)."""
    z_arr = np.asarray(z, dtype=np.complex128)
    (out,) = wirtinger_orders(np.atleast_1d(z_arr), nl, (order,))
    return complex(out[0]) if z_arr.ndim == 0 else out


def evaluate_F_in_place(z: np.ndarray, nl: PowerNonlinearity) -> np.ndarray:
    """Overwrite the C-contiguous complex array z with sign * |z|^p z and
    return it; same bits as evaluating that expression into a new array."""
    if not z.flags.c_contiguous:
        raise ValueError("evaluate_F_in_place needs a C-contiguous array")
    flat = z.reshape(-1)
    # a 0-d z stays 0-d, so numpy takes |z|^p with its scalar power, as it
    # does for a scalar expression
    parts = [flat[rows] for rows in slabs(flat.size, flat.itemsize)] if z.ndim else [z[...]]
    for v in parts:
        r = np.abs(v)
        r **= nl.p
        r *= nl.sign
        v *= r
    return z


def evaluate_F(z, nl: PowerNonlinearity):
    """Pointwise sign * |z|^p z of a scalar or an array of any shape; z is
    never written."""
    return evaluate_F_in_place(np.array(z, dtype=np.complex128, order="C"), nl)[()]


def apply_F(field: SpectralField, nl: PowerNonlinearity, oversample: int = 4) -> SpectralField:
    """Evaluate F pointwise on an oversampled grid and truncate back to M;
    raises FloatingPointError when F(u) overflows to non-finite values.

    F is evaluated in place on the samples of the grid to_grid made, so one
    call holds that grid, slab-sized temporaries and to_spectral's
    (2M+1, n, n) first pass."""
    if oversample < 2:
        raise GridTooSmall("apply_F requires oversample >= 2")
    grid = to_grid(field, oversample)
    # overflow is reported once, below, not as numpy warnings on the way
    with np.errstate(over="ignore", invalid="ignore"):
        evaluate_F_in_place(grid.samples, nl)
        try:
            return to_spectral(grid, field.bandlimit)
        except ValueError as exc:  # the truncated field rejects NaN and Inf
            raise FloatingPointError(f"F(u) is not finite: {exc}") from exc


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
    full = evaluate_F_in_place(to_grid(field, oversample).samples, nl)
    full -= evaluate_F_in_place(to_grid(project_leq(field, N, profile), oversample).samples, nl)
    return GridField(field.metric, full).lp_norm(q)


# ---------------------------------------------------------------------------
# Quadrature for the FTC linearizations


@lru_cache(maxsize=None)
def _gauss_legendre_01(K: int):
    x, w = np.polynomial.legendre.leggauss(K)
    return (x + 1.0) / 2.0, w / 2.0


def _graded_nodes(c: np.ndarray, K: int):
    """The graded rule on [0, 1], per point: composite K-point Gauss-Legendre
    on ten panels whose widths shrink geometrically (ratio 1/4) toward c,
    clipped into [1e-3, 1 - 1e-3].  Yields blocks (t, weight) of node rows,
    one row per node in node order, each block within one panel and of at
    most max(1, 2**16 // c.size) rows; blocks and panel edges are made only
    as they are reached, so a pass over many points holds one row at a time.
    """
    c = np.clip(c, 1e-3, 1.0 - 1e-3)
    f = [0.0] + [1.0 - 0.25**l for l in range(1, 5)] + [1.0]
    edges = chain((c * x for x in f), (c + (1.0 - c) * (1.0 - x) for x in f[-2::-1]))
    nodes, weights = _gauss_legendre_01(K)
    rows = max(1, 2**16 // max(c.size, 1))
    for a, b in pairwise(edges):
        length = b - a
        for i in range(0, K, rows):
            x, gw = nodes[i:i + rows, None], weights[i:i + rows, None]
            yield a + length * x, gw * length


_FIRST_ORDERS = ((1, 0), (0, 1))
_SECOND_ORDERS = ((2, 0), (1, 1), (0, 2))


def _ftc_integrals(u: np.ndarray, w: np.ndarray, nl: PowerNonlinearity, orders, K: int):
    """int_0^1 d^a_z d^b_zbar F(u + t w) dt for each (a, b) in orders,
    elementwise over flat complex arrays u, w, in one pass over the nodes.

    Panels are graded toward the in-segment minimizer of |u + t w| so the
    quadrature stays accurate when the segment passes near the origin.
    """
    wsq = np.abs(w) ** 2
    c = np.full(u.shape, 0.5)
    nz = wsq > 0
    c[nz] = -np.real(np.conj(u[nz]) * w[nz]) / wsq[nz]
    accs = [np.zeros(u.shape, dtype=np.complex128) for _ in orders]
    for t, weight in _graded_nodes(c, K):
        for acc, d in zip(accs, wirtinger_orders(u + t * w, nl, orders)):
            for row_weight, row in zip(weight, d):  # in node order, for the same sums
                acc += row_weight * row
    return accs


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
    i_z, i_zbar = _ftc_integrals(u_flat, w_flat, nl, _FIRST_ORDERS, quad_nodes)
    out = (w_flat * i_z + np.conj(w_flat) * i_zbar).reshape(u_arr.shape)
    return complex(out) if u_arr.ndim == 0 else out


def _low_and_shell(f: SpectralField, N: int, oversample: int, profile: str):
    """P_{<=N/2} f and P_N f on the oversampled grid, the low part first."""
    return (to_grid(blended_projection(f, N, 0.0, profile), oversample),
            to_grid(project_dyadic(f, N, profile), oversample))


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
    low, shell = _low_and_shell(u, N, oversample, profile)
    g_shell = shell.samples.ravel()
    i_z, i_zbar = _ftc_integrals(low.samples.ravel(), g_shell, nl, _FIRST_ORDERS, quad_nodes)

    t1 = GridField(u.metric, (g_shell * i_z).reshape(shell.samples.shape))
    t2 = GridField(u.metric, (np.conj(g_shell) * i_zbar).reshape(shell.samples.shape))
    return to_spectral(t1, u.bandlimit), to_spectral(t2, u.bandlimit)


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
    a_z, a_zbar = _ftc_integrals(u_low + w_low, u_shell + w_shell, nl, _FIRST_ORDERS, K)

    # Second-order double integrals: for each outer node t, the inner
    # integral runs over e in [0,1] along b_t(u) + e * b_t(w).  The outer
    # rule is the graded rule, graded toward the t at which the blend family
    # passes closest to the origin; the outer node axis is then folded into
    # the point axis, so one inner pass serves all three orders.
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

    t_mat, w_mat = map(np.concatenate, zip(*_graded_nodes(t_star, K)))   # (P*K, npts) each
    bt_u = u_low[None, :] + t_mat * u_shell[None, :]
    bt_w = w_low[None, :] + t_mat * w_shell[None, :]
    i_zz, i_zzbar, i_zbarzbar = (
        inner.reshape(t_mat.shape)
        for inner in _ftc_integrals(bt_u.ravel(), bt_w.ravel(), nl, _SECOND_ORDERS, K)
    )
    w_bt_w, w_bt_wbar = w_mat * bt_w, w_mat * np.conj(bt_w)
    d_zz = np.sum(w_bt_w * i_zz, axis=0)
    d_zzbar = np.sum(w_bt_wbar * i_zzbar, axis=0)
    d_zbarz = np.sum(w_bt_w * i_zzbar, axis=0)
    d_zbarzbar = np.sum(w_bt_wbar * i_zbarzbar, axis=0)

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
    ul, us = _low_and_shell(u, N, oversample, profile)
    wl, ws = _low_and_shell(w, N, oversample, profile)
    terms = second_order_expansion_pointwise(
        ul.samples, us.samples, wl.samples, ws.samples, nl, quad_nodes
    )
    n = ul.n
    out = {}
    for name, vals in terms.items():
        out[name] = to_spectral(GridField(u.metric, vals.reshape(n, n, n)), u.bandlimit)
    return out
