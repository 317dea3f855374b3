import itertools

import numpy as np
import pytest

from torus_nls.lattice import SpectralField, TorusMetric, euclidean_norm_grid
from torus_nls.littlewood_paley import (CubeDecomposition, blended_projection,
                                        cube_mask, dyadic_ladder, phi_weight,
                                        project_cube, project_dyadic,
                                        project_leq, psi_weight,
                                        related_cube_pairs)

METRIC = TorusMetric((1.0, np.sqrt(2.0), np.sqrt(3.0)))


def random_field(M=4, seed=0):
    rng = np.random.default_rng(seed)
    nn = 2 * M + 1
    return SpectralField(METRIC, M, rng.standard_normal((nn,) * 3)
                         + 1j * rng.standard_normal((nn,) * 3))


@pytest.mark.parametrize("profile", ["sharp", "smooth"])
def test_partition_of_unity(profile):
    # sum of psi_N over the ladder telescopes to phi at the top scale,
    # which is identically 1 on the truncated lattice
    M = 4
    r = euclidean_norm_grid(M)
    ladder = dyadic_ladder(M)
    total = sum(psi_weight(profile, N, r) for N in ladder)
    assert np.max(np.abs(total - 1.0)) < 1e-12


@pytest.mark.parametrize("profile", ["sharp", "smooth"])
def test_reconstruction(profile):
    f = random_field(4, seed=1)
    total = SpectralField.zero(METRIC, 4)
    for N in dyadic_ladder(4):
        total = total + project_dyadic(f, N, profile)
    assert np.max(np.abs(total.coeffs - f.coeffs)) < 1e-12


def test_sharp_idempotence_orthogonality():
    f = random_field(4, seed=2)
    for N in (1, 2, 4):
        p1 = project_dyadic(f, N)
        p2 = project_dyadic(p1, N)
        assert np.max(np.abs(p1.coeffs - p2.coeffs)) == 0.0
    a = project_dyadic(f, 2)
    b = project_dyadic(a, 4)
    assert np.max(np.abs(b.coeffs)) == 0.0
    low = project_leq(project_leq(f, 4), 2)
    assert np.allclose(low.coeffs, project_leq(f, 2).coeffs)


def test_smooth_profile_shape():
    assert phi_weight("smooth", 2, np.array([0.0, 2.0]))[0] == 1.0
    assert phi_weight("smooth", 2, np.array([4.0]))[0] == 0.0
    mid = phi_weight("smooth", 2, np.array([3.0]))[0]
    assert 0.0 < mid < 1.0
    with pytest.raises(ValueError):
        phi_weight("boxcar", 2, np.array([1.0]))


def test_dyadic_validation():
    with pytest.raises(ValueError):
        psi_weight("sharp", 3, np.array([1.0]))
    with pytest.raises(ValueError):
        project_leq(random_field(2), 0)


def test_blended_projection_endpoints():
    f = random_field(4, seed=3)
    for N in (2, 4):
        b0 = blended_projection(f, N, 0.0)
        b1 = blended_projection(f, N, 1.0)
        assert np.allclose(b0.coeffs, project_leq(f, N // 2).coeffs)
        assert np.allclose(b1.coeffs, project_leq(f, N).coeffs)
    # N = 1 convention: the low-pass block is empty
    b = blended_projection(f, 1, 0.0)
    assert np.max(np.abs(b.coeffs)) == 0.0
    with pytest.raises(ValueError):
        blended_projection(f, 2, 1.5)


def test_dyadic_ladder():
    assert dyadic_ladder(4) == [1, 2, 4, 8]
    assert dyadic_ladder(5) == [1, 2, 4, 8, 16]
    assert dyadic_ladder(0) == [1]


def test_cube_decomposition_partitions_lattice():
    for M, side in ((4, 2), (4, 3), (5, 4)):
        decomp = CubeDecomposition.build(M, side)
        r = range(-M, M + 1)
        for xi in itertools.product(r, r, r):
            a = decomp.anchor_of(xi)
            assert a in decomp.anchors
            assert all(a[i] <= xi[i] < a[i] + side for i in range(3))
        # masks partition the coefficient cube
        total = np.zeros((2 * M + 1,) * 3, dtype=int)
        for a in decomp.anchors:
            total += cube_mask(a, side, M).astype(int)
        assert np.all(total == 1)


def test_project_cube_partition():
    f = random_field(4, seed=4)
    decomp = CubeDecomposition.build(4, 2)
    total = SpectralField.zero(METRIC, 4)
    for a in decomp.anchors:
        total = total + project_cube(f, a, 2)
    assert np.max(np.abs(total.coeffs - f.coeffs)) == 0.0


def brute_related(decomp, R):
    """Oracle: pairs whose cube sum sets actually meet the ball |xi| <= R."""
    side = decomp.side
    offsets = list(itertools.product(range(side), repeat=3))
    related = set()
    for a in decomp.anchors:
        for b in decomp.anchors:
            if b < a:
                continue
            hit = any(
                sum((a[i] + o1[i] + b[i] + o2[i]) ** 2 for i in range(3)) <= R * R
                for o1 in offsets for o2 in offsets
            )
            if hit:
                related.add((a, b))
    return related


def test_related_cube_pairs_exact():
    decomp = CubeDecomposition.build(3, 2)
    for R in (1.0, 2.0, 4.0):
        got = {tuple(sorted(p)) for p in related_cube_pairs(decomp, R)}
        want = {tuple(sorted(p)) for p in brute_related(decomp, R)}
        assert got == want


def test_partner_count_bound():
    # per-cube partner count stays <= 125 at desk scale
    for M, side in ((8, 2), (16, 4), (12, 2)):
        decomp = CubeDecomposition.build(M, side)
        pairs = related_cube_pairs(decomp, 2.0 * side)
        counts: dict = {}
        for a, b in pairs:
            counts[a] = counts.get(a, 0) + 1
            if a != b:
                counts[b] = counts.get(b, 0) + 1
        assert max(counts.values()) <= 125


def test_related_pairs_validation():
    decomp = CubeDecomposition.build(4, 2)
    with pytest.raises(ValueError):
        related_cube_pairs(decomp, 0.0)
