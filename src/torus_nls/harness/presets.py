"""Preset experiments: one executable check per estimate in the program.

Each preset pairs an EstimateSpec (metadata: functionals, predicted
exponent, dyadic range, sampler, and params, the one source of the preset's
settings, n_time of its time grid included) with an evaluator
``(spec, env, N, rng) -> (lhs, rhs)`` in one table.  Implicit constants are
unknown, so evaluators fold any fixed N-power into lhs or rhs and the
verdict tests only scaling slopes and boundedness of ratios.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..errors import NotFound
from ..lattice import (GridField, SpectralField, fractional_multiplier,
                       gradient_fields, slabs, to_grid, to_spectral)
from ..littlewood_paley import project_dyadic, project_leq
from ..nonlinearity import (PowerNonlinearity, bony_tail, evaluate_F,
                           evaluate_F_in_place, s_critical, wirtinger_orders)
from ..norms import (SpaceTimePath, TimeGrid, dual_quotient, sobolev_norm, spacetime_lp,
                     y_norm)
from .estimates import EstimateSpec, RunEnvironment
from .samplers import SamplerSpec, random_field, sample_path


def _mk_grid(spec: EstimateSpec, env: RunEnvironment) -> TimeGrid:
    grid = TimeGrid(env.T, int(spec.param("n_time")))
    env.check_guard(n_time=grid.n)
    return grid


def _sample(spec, env, N, rng, M, grid, **over) -> SpaceTimePath:
    env.check_guard(M)
    s = replace(spec.sampler, **over) if over else spec.sampler
    return sample_path(s, env.metric, M, N, grid, rng)


def _field(spec, env, N, rng, M, oversample=None, **over) -> SpectralField:
    """A random field of bandlimit M, guarded at the oversample of its grids
    (by default the run's)."""
    env.check_guard(M, oversample=oversample)
    s = replace(spec.sampler, **over) if over else spec.sampler
    return random_field(s, env.metric, M, N, rng)


def _static(field: SpectralField, grid: TimeGrid) -> SpaceTimePath:
    return SpaceTimePath.from_fields(grid, [field] * grid.n)


def _hoelder_factor(h: SpectralField, alpha: float, M: int) -> SpectralField:
    """G(h) = |h|^alpha, sampled on the 4x grid (written in place, slab by
    slab) and truncated to bandlimit M."""
    grid = to_grid(h, 4)
    flat = grid.samples.reshape(-1)
    for part in slabs(flat.size, flat.itemsize):
        r = np.abs(flat[part])
        r **= alpha
        flat[part] = r
    return to_spectral(grid, M)


# --------------------------------------------------------------------------
# Strichartz family


def _strichartz_evaluator(spec, env, N, rng):
    p = spec.param("p")
    M = max(1, N // 2)          # a side-N cube anchored at -N/2 fits in [-M, M]
    grid = _mk_grid(spec, env)
    path = _sample(spec, env, N, rng, M, grid, support="cube")
    return spacetime_lp(path, p, p, env.oversample), y_norm(path, 0.0)


def _bilinear_evaluator(spec, env, N, rng):
    """N plays the role of the low frequency N2; lhs is the worst ratio over
    the high-frequency menu N1, testing N1-uniformity implicitly."""
    n1_menu = [int(x) for x in spec.param("n1_range")]
    M = max(max(n1_menu), N)
    grid = _mk_grid(spec, env)
    best = 0.0
    for n1 in n1_menu:
        u = _sample(spec, env, n1, rng, M, grid)
        v = _sample(spec, env, N, rng, M, grid)
        acc = 0.0
        for gu, gv in zip(u.grid_frames(env.oversample), v.grid_frames(env.oversample)):
            acc += grid.dt * np.mean(np.abs(gu.samples * gv.samples) ** 2)
        lhs = float(np.sqrt(acc))
        rhs = y_norm(u, 0.0) * y_norm(v, 0.0)
        if rhs > 0:
            best = max(best, lhs / rhs)
    return best, 1.0


def _critical_strichartz_evaluator(spec, env, N, rng):
    p = spec.param("p")
    r = 2.5 * p
    M = N
    grid = _mk_grid(spec, env)
    path = _sample(spec, env, N, rng, M, grid)
    return spacetime_lp(path, r, r, env.oversample), y_norm(path, s_critical(p))


def _gradient_family_evaluator(spec, env, N, rng):
    p = spec.param("p")
    if p == 2:
        raise ValueError("gradient estimates are unavailable at p = 2")
    M = N
    grid = _mk_grid(spec, env)
    path = _sample(spec, env, N, rng, M, grid, support="ball")
    r_a = 10.0 * p / (p + 4.0)
    r_b = 20.0 * p / (p + 8.0)
    # (operator, Lebesgue exponent, expected power of N)
    members = [("grad", r_a, 0.5), ("grad", r_b, 0.75), ("laplace", r_a, 1.5)]
    acc = {i: 0.0 for i in range(len(members))}
    for k in range(grid.n):
        f = path.frame(k)
        gmag = np.sqrt(sum(np.abs(to_grid(g, env.oversample).samples) ** 2
                           for g in gradient_fields(f)))
        lap = to_grid(fractional_multiplier(f, 2.0, "homogeneous"), env.oversample)
        lmag = np.abs(lap.samples) * path.metric.laplace_scale
        for i, (op, r, _) in enumerate(members):
            mag = gmag if op == "grad" else lmag
            acc[i] += grid.dt * np.mean(mag**r)
    lhs = max(
        (acc[i] ** (1.0 / r)) / N**e for i, (_, r, e) in enumerate(members)
    )
    return lhs, y_norm(path, s_critical(p))


# --------------------------------------------------------------------------
# Fractional calculus family


def _frac_product_evaluator(spec, env, N, rng):
    s = spec.param("s")
    M = N
    u = _field(spec, env, N, rng, M, oversample=2)
    v = _field(spec, env, N, rng, M, oversample=2)
    gu, gv = to_grid(u, 2), to_grid(v, 2)
    prod = to_spectral(GridField(u.metric, gu.samples * gv.samples), 2 * M)  # uv is 2M-limited
    lhs = sobolev_norm(prod, s)

    def js_lp(f, r):
        return to_grid(fractional_multiplier(f, s), 2).lp_norm(r)

    rhs = js_lp(u, 3.0) * gv.lp_norm(6.0) + gu.lp_norm(6.0) * js_lp(v, 3.0)
    return lhs, rhs


def _frac_chain_evaluator(spec, env, N, rng):
    s = spec.param("s")
    p = spec.param("p")
    nl = PowerNonlinearity(p)
    M = N
    u = _field(spec, env, N, rng, M, oversample=4)
    gu = to_grid(u, 4).samples
    F_trunc = to_spectral(GridField(u.metric, evaluate_F(gu, nl)), 2 * M)
    lhs = sobolev_norm(F_trunc, s)
    d_z, d_zbar = wirtinger_orders(gu, nl, ((1, 0), (0, 1)))
    dmag = GridField(u.metric, np.abs(d_z) + np.abs(d_zbar))
    rhs = dmag.lp_norm(3.0) * to_grid(fractional_multiplier(u, s), 2).lp_norm(6.0)
    return lhs, rhs


def _bernstein_evaluator(spec, env, N, rng):
    """||P_N G(u)||_{L^{p/alpha}} vs N^{-alpha} ||grad u||_{L^p}^alpha for the
    Hoelder-alpha map G(z) = |z|^{p-2}, alpha = p-2."""
    p = spec.param("p")
    alpha = p - 2.0
    M_out = int(spec.param("out_bandlimit"))
    u = _field(spec, env, int(spec.param("data_band")), rng, M_out, oversample=4,
               support="ball")
    G = _hoelder_factor(u, alpha, M_out)
    lhs = to_grid(project_dyadic(G, N, env.profile), 2).lp_norm(p / alpha)
    gmag = np.sqrt(
        sum(np.abs(to_grid(g, 2).samples) ** 2 for g in gradient_fields(u))
    )
    rhs = GridField(u.metric, gmag).lp_norm(p) ** alpha
    return lhs, rhs


def _bony_evaluator(spec, env, N, rng):
    p = spec.param("p")
    q = spec.param("q")
    nl = PowerNonlinearity(p)
    M = int(spec.param("bandlimit"))
    g = _field(spec, env, M, rng, M, oversample=4, support="ball")
    lhs = bony_tail(g, N, nl, q, oversample=4, profile=env.profile)
    diff = g - project_leq(g, N, env.profile)
    r = 3.0 * q / (3.0 - 2.0 * q)
    s_c = s_critical(p)
    rhs = to_grid(diff, 2).lp_norm(r) * (
        sobolev_norm(g, s_c) ** p + sobolev_norm(project_leq(g, N, env.profile), s_c) ** p
    )
    return lhs, rhs


# --------------------------------------------------------------------------
# Multilinear estimates


def _draw_factors(spec, env, N, rng):
    """Grid, bandlimit M, N2 and the factors [v_N, u_N, u_{N2}, u_{N3}],
    drawn in that order, of the quadrilinear presets."""
    n2, n3 = int(spec.param("N2")), int(spec.param("N3"))
    M = max(N, n2, n3)
    grid = _mk_grid(spec, env)
    return grid, M, n2, [_field(spec, env, n, rng, M) for n in (N, N, n2, n3)]


def _integral(grid: TimeGrid, env, fields, weight=None) -> float:
    """T |mean(prod to_grid(f) * weight)|: the space-time integral of a
    product of static factors, times an optional grid weight."""
    prod = to_grid(fields[0], env.oversample).samples
    for f in fields[1:]:
        prod *= to_grid(f, env.oversample).samples
    if weight is not None:
        prod *= weight
    return grid.T * abs(np.mean(prod))


def _y_product(grid: TimeGrid, s_c: float, fields) -> float:
    """||f_0||_{Y^{-s_c}} prod_{i>0} ||f_i||_{Y^{s_c}}, each f_i held static on the grid."""
    out = y_norm(_static(fields[0], grid), -s_c)
    for f in fields[1:]:
        out *= y_norm(_static(f, grid), s_c)
    return out


def _cubic_main_evaluator(spec, env, N, rng):
    s_c = s_critical(2.0)  # 1/2
    grid, _, _, fields = _draw_factors(spec, env, N, rng)
    return _integral(grid, env, fields), _y_product(grid, s_c, fields)


def contraction_ratio(
    p: float,
    amplitude: float,
    M: int,
    grid: TimeGrid,
    env: RunEnvironment,
    rng: np.random.Generator,
    dual_candidates: int = 4,
):
    """One draw of the duality ratio behind the contraction estimate:

        |int int v (F(u+w) - F(u))| /
            (||v||_{Y^{-s_c}} ||w||_{Y^{s_c}} (||u||_{Y^{s_c}} + ||w||_{Y^{s_c}})^p)

    The sup over v is approximated by a max of dual_quotient over sampled
    step atoms, so the returned ratio underestimates the true duality
    quotient (a valid necessary test).  int v X = <conj(X(-.)), v>, so the
    conjugate-reflected X is held static.  Exactly homogeneous in the data
    amplitude.
    """
    nl = PowerNonlinearity(p)
    s_c = nl.s_c
    base = SamplerSpec("gaussian_shell", support="ball", decay=1.0)
    u = random_field(replace(base, amplitude=amplitude), env.metric, M, M, rng)
    w = random_field(replace(base, amplitude=0.5 * amplitude), env.metric, M, M, rng)
    gu = to_grid(u, 4).samples
    grid_w = to_grid(w, 4)
    gw = grid_w.samples
    gw += gu                                # u + w, in w's grid
    evaluate_F_in_place(gw, nl)
    gw -= evaluate_F_in_place(gu, nl)       # F(u + w) - F(u)
    X = to_spectral(grid_w, M)
    Xr = _static(X.with_coeffs(np.conj(X.coeffs[::-1, ::-1, ::-1])), grid)

    y_u = y_norm(_static(u, grid), s_c)
    y_w = y_norm(_static(w, grid), s_c)
    atom = SamplerSpec("step_atom", support="ball")
    best = max((dual_quotient(Xr, sample_path(atom, env.metric, M, M, grid, rng), s_c)
                for _ in range(dual_candidates)), default=0.0)
    denom = y_w * (y_u + y_w) ** p
    return best / denom if denom > 0 else 0.0


def _contraction_evaluator(spec, env, N, rng):
    """N is reused as an amplitude scale (the estimate carries no frequency
    parameter); exact homogeneity predicts slope 0 in N."""
    M = int(spec.param("bandlimit"))
    env.check_guard(M, oversample=4)  # contraction_ratio's grids
    grid = _mk_grid(spec, env)
    return contraction_ratio(spec.param("p"), 0.05 * N, M, grid, env, rng), 1.0


def _incomparable_evaluator(spec, env, N, rng):
    s_c = s_critical(spec.param("p"))
    grid, _, _, fields = _draw_factors(spec, env, N, rng)
    v, u1, w, u3 = fields
    du1 = fractional_multiplier(u1, 1.0, "homogeneous")  # |Q|^{1/2} derivative weight
    return _integral(grid, env, [v, du1, w, u3]), N * _y_product(grid, s_c, fields)


def _comparable_p3_evaluator(spec, env, N, rng):
    s_c = s_critical(3.0)
    grid, M, n2, fields = _draw_factors(spec, env, N, rng)
    h = _field(spec, env, n2, rng, M, support="ball")
    gh = np.abs(to_grid(h, env.oversample).samples)  # |h|^{p-2}, p-2 = 1
    return _integral(grid, env, fields, gh), _y_product(grid, s_c, fields + [h])


def _comparable_low_evaluator(spec, env, N, rng):
    p = spec.param("p")
    s_c = s_critical(p)
    alpha = p - 2.0
    grid, M, n2, fields = _draw_factors(spec, env, N, rng)
    h = _field(spec, env, n2, rng, M, support="ball")
    G = _hoelder_factor(h, alpha, M)
    gG = to_grid(project_leq(G, n2, env.profile), env.oversample).samples
    rhs = (_y_product(grid, s_c, fields)
           * max(y_norm(_static(h, grid), s_c), 1e-30) ** alpha)
    return _integral(grid, env, fields, gG), rhs


def _comparable_high_evaluator(spec, env, N, rng):
    """N is the *output* frequency of the Hoelder-continuous factor; the
    nonlinear Bernstein gain predicts decay N^{-(p-2)}."""
    p = spec.param("p")
    s_c = s_critical(p)
    alpha = p - 2.0
    M = int(spec.param("bandlimit"))
    grid = _mk_grid(spec, env)
    fields = [_field(spec, env, M, rng, M, support="ball")]
    fields += [_field(spec, env, n, rng, M) for n in (4, 2, 1)]
    h = _field(spec, env, 2, rng, M, support="ball")
    G = _hoelder_factor(h, alpha, M)
    gG = to_grid(project_dyadic(G, N, env.profile), env.oversample).samples
    rhs = (_y_product(grid, s_c, fields)
           * max(y_norm(_static(h, grid), s_c), 1e-30) ** alpha)
    return _integral(grid, env, fields, gG), rhs


def _embedding_evaluator(spec, env, N, rng):
    s = spec.param("s")
    M = N
    grid = _mk_grid(spec, env)
    path = _sample(spec, env, N, rng, M, grid)
    lhs = max(sobolev_norm(path.frame(k), s) for k in range(grid.n))
    return lhs, y_norm(path, s)


# --------------------------------------------------------------------------
# Registry: each preset's evaluator next to its spec, whose params are the
# preset's settings.  Specs carry seed 0 and their default trials.

_GAUSS = SamplerSpec("gaussian_shell")
_FLOW = SamplerSpec("free_flow")
_STEP = SamplerSpec("step_atom")
_SMOOTH = SamplerSpec("gaussian_shell", support="ball", decay=1.0)

_PRESETS = {spec.name: (evaluator, spec) for evaluator, spec in [
    (_strichartz_evaluator, EstimateSpec(
        "strichartz_L6", "||P_C u||_{L^6_{t,x}}", "||P_C u||_{Y^0}", 3 / 2 - 5 / 6,
        (2, 4, 8, 16, 32), _FLOW, 50, params=(("p", 6.0), ("n_time", 12)))),
    (_strichartz_evaluator, EstimateSpec(
        "strichartz_L18_5", "||P_C u||_{L^{18/5}_{t,x}}", "||P_C u||_{Y^0}", 3 / 2 - 25 / 18,
        (2, 4, 8, 16, 32), _FLOW, 50, params=(("p", 3.6), ("n_time", 12)))),
    (_bilinear_evaluator, EstimateSpec(
        "bilinear", "max_{N1} ||u_{N1} v_{N2}||_{L^2_{t,x}} / (||u||_{Y^0}||v||_{Y^0})", "1",
        0.5, (1, 2, 4), _FLOW, 50, params=(("n1_range", (4, 8)), ("n_time", 8)))),
    (_critical_strichartz_evaluator, EstimateSpec(
        "critical_strichartz", "||u||_{L^{5p/2}_{t,x}}", "||u||_{Y^{s_c}}", 0.0,
        (2, 4, 8, 16), _FLOW, 20, params=(("p", 2.5), ("n_time", 8)))),
    (_gradient_family_evaluator, EstimateSpec(
        "gradient_family", "max over the (grad, Laplace) x L^r menu of norm / N^e",
        "||u_{<=N}||_{Y^{s_c}}", 0.0, (2, 4, 8, 16), _FLOW, 20,
        params=(("p", 2.5), ("n_time", 8)))),
    (_frac_product_evaluator, EstimateSpec(
        "frac_product", "||J^s(uv)||_{L^2}",
        "||J^s u||_{L^3}||v||_{L^6} + ||u||_{L^6}||J^s v||_{L^3}", 0.0, (2, 4, 8), _SMOOTH,
        30, params=(("s", 0.5),))),
    (_frac_chain_evaluator, EstimateSpec(
        "frac_chain", "||J^s F(u)||_{L^2}", "||F'(u)||_{L^3}||J^s u||_{L^6}", 0.0, (2, 4, 8),
        _SMOOTH, 30, params=(("s", 0.5), ("p", 2.5)))),
    (_bernstein_evaluator, EstimateSpec(
        "nonlinear_bernstein", "||P_N |u|^{p-2}||_{L^{p/(p-2)}}", "||grad u||_{L^p}^{p-2}",
        -(2.5 - 2.0), (2, 4, 8, 16), _SMOOTH, 30,
        params=(("p", 2.5), ("out_bandlimit", 16), ("data_band", 2)))),
    (_bony_evaluator, EstimateSpec(
        "bony_convergence", "||F(g) - F(g_{<=N})||_{L^q}",
        "||g - g_{<=N}||_{L^{3q/(3-2q)}} (||g||^p + ||g_{<=N}||^p)_{H^{s_c}}", 0.0, (1, 2, 4),
        SamplerSpec("gaussian_shell", support="ball", decay=2.0), 30,
        params=(("p", 2.5), ("q", 1.2), ("bandlimit", 8)))),
    (_cubic_main_evaluator, EstimateSpec(
        "cubic_main", "|int v_N u_N u_{N2} u_{N3}|", "||v||_{Y^{-1/2}} prod ||u||_{Y^{1/2}}",
        0.0, (2, 4, 8, 16), _GAUSS, 30, params=(("N2", 2), ("N3", 1), ("n_time", 8)))),
    (_contraction_evaluator, EstimateSpec(
        "contraction", "|int int v (F(u+w) - F(u))|",
        "||v||_{Y^{-s_c}} ||w||_{Y^{s_c}} (||u|| + ||w||)^p_{Y^{s_c}}", 0.0, (1, 2, 4, 8),
        _STEP, 30, params=(("p", 2.0), ("bandlimit", 8), ("n_time", 16)))),
    (_incomparable_evaluator, EstimateSpec(
        "incomparable_reduced", "|int v_N D(u_N) w_{N2} u_{N3}| / N",
        "||v||_{Y^{-s_c}} prod ||.||_{Y^{s_c}}", 0.0, (4, 8, 16), _GAUSS, 30,
        params=(("p", 2.5), ("N2", 2), ("N3", 1), ("n_time", 8)))),
    (_comparable_p3_evaluator, EstimateSpec(
        "comparable_p3", "|int v_N w_N u_{N2} u_{N3} |h||",
        "||v||_{Y^{-s_c}} prod ||.||_{Y^{s_c}} ||h||_{Y^{s_c}}", 0.0, (2, 4, 8, 16), _GAUSS,
        30, params=(("N2", 2), ("N3", 1), ("n_time", 8)))),
    (_comparable_low_evaluator, EstimateSpec(
        "comparable_p23_low", "|int v_N u_N u_{N2} w_{N3} P_{<=N2}G(h)|",
        "||v||_{Y^{-s_c}} prod ||.||_{Y^{s_c}} ||h||^{p-2}", 0.0, (4, 8, 16), _GAUSS, 30,
        params=(("p", 2.5), ("N2", 2), ("N3", 1), ("n_time", 8)))),
    (_comparable_high_evaluator, EstimateSpec(
        "comparable_p23_high", "|int v u_4 u_2 w_1 P_N G(h_{<=2})|",
        "||v||_{Y^{-s_c}} prod ||.||_{Y^{s_c}} ||h||^{p-2}", -(2.5 - 2.0), (4, 8, 16), _GAUSS,
        30, params=(("p", 2.5), ("bandlimit", 16), ("n_time", 8)))),
    (_embedding_evaluator, EstimateSpec(
        "embedding_checks", "sup_t ||u(t)||_{H^s}", "||u||_{Y^s}", 0.0, (2, 4, 8), _STEP, 30,
        params=(("s", 0.5), ("n_time", 16)))),
]}


def _entry(name: str):
    if name not in _PRESETS:
        raise NotFound(f"unknown preset {name!r}")
    return _PRESETS[name]


def preset_registry(seed: int = 0, trials: int | None = None) -> list[EstimateSpec]:
    """All presets, pure and total; every estimate name resolves here."""
    return [get_preset(name, seed, trials) for name in _PRESETS]


def get_preset(name: str, seed: int = 0, trials: int | None = None, **overrides) -> EstimateSpec:
    spec = _entry(name)[1]
    return replace(spec, seed=seed, trials=spec.trials if trials is None else trials,
                   **overrides)


def get_evaluator(name: str):
    return _entry(name)[0]


def preset_names() -> list[str]:
    return list(_PRESETS)
