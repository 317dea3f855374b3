import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_nls.errors import GridMismatch
from torus_nls.evolution import free_flow_path
from torus_nls.lattice import (GridField, SpectralField, TorusMetric, bracket_sq, q_grid,
                               to_grid)
from torus_nls.littlewood_paley import dyadic_ladder, project_dyadic
from torus_nls.harness.samplers import SamplerSpec, sample_path, xnorm_lower_bound
from torus_nls.norms import (ModePath, SpaceTimePath, TimeGrid, _kappa,
                             _twisted_coeffs, _v2_batch, duality_pairing,
                             flow_phases, sobolev_norm, spacetime_lp,
                             u2_upper_bound, v2_norm, y_norm)

from helpers import METRIC, brute_v2, random_field


def random_path(M=2, n_t=8, T=1.0, seed=0):
    rng = np.random.default_rng(seed)
    nn = 2 * M + 1
    c = rng.standard_normal((n_t, nn, nn, nn)) + 1j * rng.standard_normal((n_t, nn, nn, nn))
    return SpaceTimePath(TimeGrid(T, n_t), METRIC, M, c)


def many_step_path(grid, metric, M, rng):
    """A free_steps path with a drawn block count in 2..max(2, n_t // 2)."""
    nn = 2 * M + 1
    k = int(rng.integers(2, max(2, grid.n // 2) + 1))
    cuts = np.sort(rng.choice(np.arange(1, grid.n), size=k - 1, replace=False))
    steps = rng.standard_normal((k, nn, nn, nn)) + 1j * rng.standard_normal((k, nn, nn, nn))
    return SpaceTimePath.free_steps(grid, metric, M, steps, cuts)


def test_time_grid():
    g = TimeGrid(2.0, 4)
    assert g.dt == pytest.approx(0.5)
    assert np.allclose(g.times, [0.0, 0.5, 1.0, 1.5])
    with pytest.raises(ValueError):
        TimeGrid(0.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1)


def test_v2_hand_examples():
    # constant path c: single jump to the terminal 0 -> |c|
    assert v2_norm([3.0, 3.0, 3.0]) == pytest.approx(3.0)
    # alternating +-1: chain through every sign flip
    assert v2_norm([1.0, -1.0]) == pytest.approx(np.sqrt(4 + 1))
    # monotone staircase 0..1: best single jump beats many small ones
    stair = np.linspace(0.0, 1.0, 5)
    assert v2_norm(stair) == pytest.approx(np.sqrt(1.0 + 1.0))
    assert v2_norm([0.0, 0.0]) == 0.0
    with pytest.raises(ValueError, match="nonempty"):
        v2_norm([])


def _oracle_values(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.mark.parametrize("seed", range(8))
def test_v2_brute_force_oracle(seed):
    values = _oracle_values(seed)
    assert v2_norm(values) == pytest.approx(brute_v2(values), rel=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_v2_batch_terminal_node_matches_appended_zero_row(seed):
    # ending each chain at |a_i|^2 is the program run on a zero row appended
    # at t = T, bit for bit (0 - a = -a exactly)
    values = _oracle_values(seed).reshape(-1, 1)
    a = np.concatenate([values, np.zeros((1, 1), dtype=values.dtype)])
    best = np.zeros(a.shape)
    for j in range(1, a.shape[0]):
        best[j] = np.max(best[:j] + np.abs(a[j][None, :] - a[:j]) ** 2, axis=0)
    assert np.array_equal(_v2_batch(values), np.sqrt(best[-1]))


def test_u2_upper_bound_examples():
    # single step of height c: exactly |c|
    assert u2_upper_bound([2.0, 2.0]) == pytest.approx(2.0)
    # distinct steps: root-sum-square of the step values
    assert u2_upper_bound([1.0, 2.0, 2.0, -1.0]) == pytest.approx(np.sqrt(1 + 4 + 1))
    # like v2_norm, it rejects an empty or non-finite path
    for bad in ([], [np.nan, 1.0]):
        with pytest.raises(ValueError, match="nonempty finite"):
            u2_upper_bound(bad)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 12))
def test_u2_bound_controls_half_v2(seed, n):
    # the step-atom bound controls V^2 up to the factor 2 from the
    # telescoping of each jump through two step values
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert u2_upper_bound(values) >= v2_norm(values) / 2.0 - 1e-12


def test_v2_scaling_and_mode_path():
    rng = np.random.default_rng(3)
    values = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    assert v2_norm(3.0 * values) == pytest.approx(3.0 * v2_norm(values))
    path = random_path(1, 5, seed=4)
    mp = path.mode_path((1, 0, -1))
    assert isinstance(mp, ModePath)
    assert np.allclose(mp.values, path.coeffs[:, 2, 1, 0])


def test_y_norm_free_flow_equals_sobolev():
    u0 = random_field(2, seed=5)
    path = free_flow_path(u0, TimeGrid(1.0, 16))
    for s in (-0.5, 0.0, 0.5, 1.5):
        assert y_norm(path, s) == pytest.approx(sobolev_norm(u0, s), rel=1e-12)


def full_dp_y_norm(path, s):
    """Y^s with the V^2 dynamic program run on every twisted row."""
    v2 = _v2_batch(_twisted_coeffs(path))
    w = bracket_sq(path.metric, path.bandlimit).ravel() ** s
    return float(np.sqrt(np.sum(w * v2**2)))


@pytest.mark.parametrize("theta", [(1.0, 1.0, 1.0), (1.0, np.sqrt(2.0), np.sqrt(3.0))])
def test_y_norm_static_path_matches_full_dp(theta):
    metric = TorusMetric(theta)
    f = SpectralField(metric, 3, random_field(3, seed=20).coeffs)
    coeffs = np.broadcast_to(f.coeffs, (32,) + f.coeffs.shape)
    stored = SpaceTimePath(TimeGrid(0.5, 32), metric, 3, coeffs)
    static = SpaceTimePath.from_fields(TimeGrid(0.5, 32), [f] * 32)
    assert static.static is f
    for path in (stored, static):
        for s in (-0.5, 0.0, 1.25):
            assert y_norm(path, s) == pytest.approx(full_dp_y_norm(path, s), rel=1e-12)


def test_y_norm_step_atom_runs_on_its_blocks():
    grid = TimeGrid(0.5, 32)
    for theta in [(1.0, 1.0, 1.0), (1.0, np.sqrt(2.0), np.sqrt(3.0))]:
        metric = TorusMetric(theta)
        path = sample_path(SamplerSpec("step_atom", support="ball"), metric, 3, 3, grid,
                           np.random.default_rng(21))
        assert path.steps.shape == (4, 7, 7, 7)  # the sampler's default block count
        candidate = many_step_path(grid, metric, 3, np.random.default_rng(26))
        for atom in (path, candidate):
            for s in (-0.5, 0.5):
                assert y_norm(atom, s) == pytest.approx(full_dp_y_norm(atom, s), rel=1e-12)


def test_y_norm_free_flow_runs_on_one_row():
    path = free_flow_path(random_field(3, seed=22), TimeGrid(0.5, 32))
    assert path.steps.shape == (1, 7, 7, 7)
    candidate = sample_path(SamplerSpec("free_flow", support="ball"), METRIC, 3, 3,
                            path.grid, np.random.default_rng(27))
    assert candidate.steps.shape == (1, 7, 7, 7)
    for flow in (path, candidate):
        assert y_norm(flow, 0.5) == pytest.approx(full_dp_y_norm(flow, 0.5), rel=1e-12)


def test_y_norm_varying_paths_run_the_full_dp():
    # paths built without free_steps carry no steps, so every row runs the
    # program and the result is the full program's, bit for bit, even for a
    # step atom
    path = random_path(2, 12, seed=23)
    assert path.steps is None
    assert y_norm(path, 0.5) == full_dp_y_norm(path, 0.5)
    atom = sample_path(SamplerSpec("step_atom", support="ball"), METRIC, 3, 3,
                       TimeGrid(0.5, 32), np.random.default_rng(24))
    plain = SpaceTimePath(atom.grid, METRIC, 3, atom.coeffs)
    assert plain.steps is None
    for s in (-0.5, 0.5):
        assert y_norm(plain, s) == full_dp_y_norm(plain, s)


def test_free_steps_coefficients():
    grid = TimeGrid(0.5, 16)
    flow = flow_phases(METRIC, grid, q_grid(METRIC, 2))
    assert flow.flags.c_contiguous
    blocks = np.stack([random_field(2, seed=k).coeffs for k in range(3)])
    cuts = np.array([5, 11])
    block_of = np.searchsorted(cuts, np.arange(grid.n), side="right")
    path = SpaceTimePath.free_steps(grid, METRIC, 2, blocks, cuts)
    assert np.array_equal(path.coeffs, flow * blocks[block_of])
    assert np.array_equal(path.steps, blocks)
    u0 = random_field(2, seed=3)
    one = SpaceTimePath.free_steps(grid, METRIC, 2, u0.coeffs[None])
    assert np.array_equal(one.coeffs, flow * u0.coeffs[None])
    assert not path.steps.flags.writeable
    # frame maps and stacked fields are general paths
    assert path.map_frames(lambda f: f).steps is None
    with pytest.raises(ValueError, match="steps shape"):
        SpaceTimePath.free_steps(grid, METRIC, 2, blocks, [5])
    with pytest.raises(ValueError, match="steps shape"):
        SpaceTimePath.free_steps(grid, METRIC, 1, blocks, cuts)
    for bad in ([0, 5], [5, 16], [11, 5], [5, 5]):
        with pytest.raises(ValueError, match="cuts"):
            SpaceTimePath.free_steps(grid, METRIC, 2, blocks, bad)
    with pytest.raises(TypeError):
        SpaceTimePath(grid, METRIC, 2, path.coeffs, steps=blocks)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 8, 64]), st.sampled_from([(1.0, 1.0, 1.0), (1.0, 2.0, 3.0),
                                                     (1.0, np.sqrt(2.0), np.sqrt(3.0))]),
       st.sampled_from(["free_flow", "step_atom", "many_steps"]),
       st.integers(0, 2**32 - 1))
def test_free_steps_builds_coeffs_on_read(n_t, theta, kind, seed):
    metric, grid = TorusMetric(theta), TimeGrid(0.5, n_t)
    rng = np.random.default_rng(seed)
    nn = 5
    u0 = SpectralField(metric, 2, rng.standard_normal((nn,) * 3)
                       + 1j * rng.standard_normal((nn,) * 3))
    if kind == "free_flow":
        path = free_flow_path(u0, grid)
    elif kind == "step_atom":
        path = sample_path(SamplerSpec("step_atom", support="ball"), metric, 2, 2, grid, rng)
    else:
        path = many_step_path(grid, metric, 2, rng)
    # y_norm and the time integral come from the steps; nothing n_t-sized is built
    y_norm(path, 0.5)
    integral = path.time_integral()
    assert path._coeffs is None
    flow = flow_phases(metric, grid, q_grid(metric, 2))
    if path.cuts.size:
        eager = flow * path.steps[np.searchsorted(path.cuts, np.arange(n_t), side="right")]
    else:
        eager = flow * path.steps
    assert path.coeffs.flags.c_contiguous
    assert np.array_equal(path.coeffs.view(np.uint64),
                          np.ascontiguousarray(eager).view(np.uint64))
    assert not path.coeffs.flags.writeable and not path.cuts.flags.writeable
    assert path.coeffs is path.coeffs  # built once
    want = grid.dt * eager.sum(axis=0)
    assert np.max(np.abs(integral - want)) <= 1e-13 * np.max(np.abs(want))


def test_time_integral_of_a_stored_path():
    path = random_path(2, 6, seed=30)
    assert np.array_equal(path.time_integral(), path.grid.dt * path.coeffs.sum(axis=0))


def test_free_steps_rejects_non_finite_steps():
    grid = TimeGrid(0.5, 8)
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        blocks = np.stack([random_field(1, seed=k).coeffs for k in range(2)])
        blocks[1, 0, 2, 1] = bad
        with pytest.raises(ValueError, match="NaN or Inf"):
            SpaceTimePath.free_steps(grid, METRIC, 1, blocks, [3])


def test_static_path_holds_its_one_field(monkeypatch):
    grid = TimeGrid(0.5, 16)
    f = random_field(2, seed=32)
    static = SpaceTimePath.from_fields(grid, [f] * grid.n)
    assert static.static is f and static.steps is None
    assert not static.coeffs.flags.writeable
    assert np.array_equal(static.coeffs, np.stack([f.coeffs] * grid.n))
    for k, g in enumerate(static.grid_frames(2)):
        assert not g.samples.flags.writeable
        assert g.samples.tobytes() == to_grid(static.frame(k), 2).samples.tobytes()
    # a static f pairs with the steps of a factored v, never building its coeffs
    atom = many_step_path(grid, METRIC, 2, np.random.default_rng(33))
    got = duality_pairing(static, atom)
    assert atom._coeffs is None
    want = grid.dt * np.sum(static.coeffs * np.conj(atom.coeffs))
    assert abs(got - want) <= 1e-13 * abs(want)
    # equal but distinct fields make a stored path with the same norm
    stored = SpaceTimePath.from_fields(grid, [f.with_coeffs(f.coeffs) for _ in range(grid.n)])
    assert stored.static is None
    for s in (-0.5, 0.5):
        assert y_norm(stored, s) == pytest.approx(y_norm(static, s), rel=1e-12)
    # one L^p norm serves every node, bit for bit
    calls = []
    lp_norm = GridField.lp_norm
    monkeypatch.setattr(GridField, "lp_norm", lambda g, p: calls.append(p) or lp_norm(g, p))
    for p_t in (4.0, np.inf):
        assert spacetime_lp(static, p_t, 3.0) == spacetime_lp(stored, p_t, 3.0)
    assert len(calls) == 2 * (1 + grid.n)


def test_kappa_is_computed_once_per_grid_and_read_only():
    f = random_field(2, seed=31)
    grid = TimeGrid(0.5, 16)
    static = SpaceTimePath.from_fields(grid, [f] * grid.n)
    _kappa.cache_clear()
    first = y_norm(static, 0.5)
    assert y_norm(static, 0.5) == first
    assert y_norm(SpaceTimePath.from_fields(grid, [2.0 * f] * grid.n), -0.5) > 0
    info = _kappa.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    kappa = _kappa(METRIC, grid, 2)
    assert not kappa.flags.writeable
    assert kappa is _kappa(METRIC, TimeGrid(0.5, 16), 2)
    assert _kappa(METRIC, TimeGrid(0.5, 8), 2) is not kappa


def test_y_norm_dyadic_identity():
    # sharp dyadic blocks are orthogonal mode sets, so the squares add exactly
    path = random_path(2, 6, seed=6)
    total_sq = 0.0
    s = 0.75
    for N in dyadic_ladder(2):
        block = path.map_frames(lambda f: project_dyadic(f, N))
        total_sq += y_norm(block, s) ** 2
    assert np.sqrt(total_sq) == pytest.approx(y_norm(path, s), rel=1e-12)


def test_spacetime_lp():
    ones = np.ones((4, 3, 3, 3), dtype=complex)
    ones[:, :, :, :] = 0.0
    ones[:, 1, 1, 1] = 1.0  # constant-in-x field, 4 frames
    path = SpaceTimePath(TimeGrid(2.0, 4), METRIC, 1, ones)
    assert spacetime_lp(path, 2.0, 6.0) == pytest.approx(np.sqrt(2.0))
    assert spacetime_lp(path, np.inf, 2.0) == pytest.approx(1.0)
    for p_t, p_x in ((0.5, 2.0), (np.nan, 2.0), (2.0, np.nan)):
        with pytest.raises(ValueError):
            spacetime_lp(path, p_t, p_x)


def test_duality_pairing():
    f = random_path(1, 6, T=1.5, seed=8)
    g = random_path(1, 6, T=1.5, seed=9)
    got = duality_pairing(f, g)
    want = f.grid.dt * np.sum(f.coeffs * np.conj(g.coeffs))
    assert got == pytest.approx(complex(want))
    # Cauchy-Schwarz in L^2_{t,x}
    nf = np.sqrt(f.grid.dt * np.sum(np.abs(f.coeffs) ** 2))
    ng = np.sqrt(g.grid.dt * np.sum(np.abs(g.coeffs) ** 2))
    assert abs(got) <= nf * ng * (1 + 1e-12)


def test_grid_mismatch():
    f = random_path(1, 6, seed=10)
    g = random_path(1, 8, seed=11)
    with pytest.raises(GridMismatch):
        duality_pairing(f, g)
    h = random_path(2, 6, seed=12)
    with pytest.raises(GridMismatch):
        duality_pairing(f, h)


def test_xnorm_lower_bound_zero_and_monotone():
    zero = SpaceTimePath(TimeGrid(1.0, 4), METRIC, 1, np.zeros((4, 3, 3, 3), complex))
    assert xnorm_lower_bound(zero, 0.5, 8, seed=0) == 0.0
    f = random_path(1, 8, seed=13)
    # same seed => candidate prefix property: more candidates never lowers the sup
    vals = [xnorm_lower_bound(f, 0.5, m, seed=42) for m in (1, 2, 4, 8, 16)]
    assert all(vals[i + 1] >= vals[i] for i in range(len(vals) - 1))
    with pytest.raises(ValueError):
        xnorm_lower_bound(f, 0.5, 0, seed=0)


def test_xnorm_lower_bound_on_two_nodes():
    # a 2-node grid has one cut position, so a step candidate has two blocks
    f = random_path(1, 2, seed=14)
    for seed in range(8):
        assert xnorm_lower_bound(f, 0.5, 4, seed=seed) > 0


def test_xnorm_lower_bound_one_mode_sanity():
    # a constant one-mode path pairs maximally with its own free-flow dual,
    # so with enough candidates the bound lands within a sane band of T*|c|
    grid = TimeGrid(1.0, 8)
    coeffs = np.zeros((8, 3, 3, 3), dtype=complex)
    coeffs[:, 1, 1, 1] = 2.0  # zero mode: twist is trivial
    f = SpaceTimePath(grid, METRIC, 1, coeffs)
    lb = xnorm_lower_bound(f, 0.0, 64, seed=7)
    exact_l2_dual = 2.0 * grid.T  # attained by the constant dual path
    assert 0.2 * exact_l2_dual <= lb <= exact_l2_dual * (1 + 1e-9)


def test_sobolev_norm_weights():
    d = SpectralField.delta(METRIC, 2, (1, 1, 0), 2.0)
    q = 1.0 + np.sqrt(2.0)
    assert sobolev_norm(d, 1.0) == pytest.approx(2.0 * np.sqrt(1 + q))
    assert sobolev_norm(d, 0.0) == pytest.approx(2.0)


def test_path_validation():
    with pytest.raises(ValueError):
        SpaceTimePath(TimeGrid(1.0, 4), METRIC, 1, np.zeros((3, 3, 3, 3), complex))
    bad = np.zeros((4, 3, 3, 3), complex)
    bad[0, 0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        SpaceTimePath(TimeGrid(1.0, 4), METRIC, 1, bad)
    with pytest.raises(ValueError):
        SpaceTimePath.from_fields(TimeGrid(1.0, 4), [random_field(1)] * 3)
