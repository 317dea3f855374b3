"""Structural Fourier-support identities behind the cubic estimate.

Two exact facts are checked on random data:

* cube pairing: a trilinear integral of dyadic pieces is unchanged when the
  two high-frequency factors are decomposed into cubes of side N2 and the
  double sum is restricted to pairs whose frequency-sum box meets the ball
  |xi| <= 2 N2 (every discarded pair contributes exactly zero);
* quadrilinear vanishing: the integral of four dyadic pieces vanishes
  identically when the top frequency exceeds six times the next one.

Each check computes both a grid-quadrature route and a lattice-sum route;
both must agree.  Deliberately broken variants (shrunken relation radius,
comparable frequencies) must produce nonzero discrepancies.
"""

from __future__ import annotations

import numpy as np

from ..lattice import TorusMetric, lattice_points, to_grid
from ..littlewood_paley import _sum_box_distance
from .samplers import SamplerSpec, random_field


def _shell_modes(field):
    """(modes, values) of the nonzero coefficients, modes as (k, 3) ints."""
    nz = np.flatnonzero(field.coeffs.ravel())
    pts = lattice_points(field.bandlimit)[nz]
    return pts, field.coeffs.ravel()[nz]


def cube_identity_check(
    N0: int,
    N1: int,
    N2: int,
    seed: int,
    bandlimit: int | None = None,
    metric: TorusMetric | None = None,
    relation_radius: float | None = None,
) -> float:
    """Max discrepancy between the full trilinear integral and its
    cube-paired restriction; < 1e-10 is expected unless the relation radius
    is deliberately shrunk (negative control)."""
    if not (N0 >= N2 and N1 >= N2):
        raise ValueError("need N0, N1 >= N2")
    metric = metric or TorusMetric()
    M = bandlimit or max(N0, N1)
    rng = np.random.default_rng(seed)
    spec = SamplerSpec("gaussian_shell")
    v = random_field(spec, metric, M, N0, rng)
    u = random_field(spec, metric, M, N1, rng)
    g = random_field(SamplerSpec("gaussian_shell", support="ball"), metric, M, 2 * N2, rng)

    # route 1: oversampled grid quadrature of the full product (exact: the
    # trilinear frequency sums stay below the grid's alias threshold)
    gv, gu, gg = (to_grid(f, 2).samples for f in (v, u, g))
    lhs_grid = np.mean(gv * gu * gg)

    # route 2: lattice triple sum  sum_{xi,eta} v(xi) u(eta) g(-xi-eta)
    mv, cv = _shell_modes(v)
    mu, cu = _shell_modes(u)
    pad = np.zeros((4 * M + 1,) * 3, dtype=np.complex128)
    pad[M : 3 * M + 1, M : 3 * M + 1, M : 3 * M + 1] = g.coeffs
    s = mv[:, None, :] + mu[None, :, :]          # (kv, ku, 3)
    idx = -s + 2 * M
    gvals = pad[idx[..., 0], idx[..., 1], idx[..., 2]]
    prod = cv[:, None] * cu[None, :] * gvals
    lhs_spec = prod.sum()

    # route 3: restrict to cube pairs whose sum box meets |xi| <= R
    R = 2.0 * N2 if relation_radius is None else float(relation_radius)
    anchor_v = (np.floor(mv / N2) * N2).astype(int)
    anchor_u = (np.floor(mu / N2) * N2).astype(int)
    asum = anchor_v[:, None, :] + anchor_u[None, :, :]
    related = _sum_box_distance(asum, N2) <= R
    rhs = prod[related].sum()

    return float(max(abs(lhs_grid - rhs), abs(lhs_spec - rhs)))


def vanishing_check(
    N0: int,
    N1: int,
    N2: int,
    N3: int,
    seed: int,
    bandlimit: int | None = None,
    metric: TorusMetric | None = None,
) -> float:
    """|integral of the product of four dyadic pieces| on random data.

    Vanishes identically when N0 > 6 N1 >= 6 N2 >= 6 N3 (the top shell
    cannot be reached by the sum of the other supports); generically
    nonzero otherwise.
    """
    metric = metric or TorusMetric()
    M = bandlimit or max(N0, N1, N2, N3)
    rng = np.random.default_rng(seed)
    spec = SamplerSpec("gaussian_shell")
    grids = [
        to_grid(random_field(spec, metric, M, N, rng), 2).samples for N in (N0, N1, N2, N3)
    ]
    return float(abs(np.mean(grids[0] * grids[1] * grids[2] * grids[3])))
