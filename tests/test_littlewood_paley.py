import itertools

import numpy as np
import pytest

from torus_nls.harness.checks import _sum_box_distance
from torus_nls.lattice import SpectralField, euclidean_norm_grid
from torus_nls.littlewood_paley import (blended_projection, cube_mask,
                                        dyadic_ladder, phi_weight,
                                        project_dyadic, project_leq,
                                        psi_weight)

from helpers import METRIC, random_field


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


def cube_anchors(M, side):
    """Anchors (multiples of side) of the cubes [a, a + side)^3 meeting [-M, M]^3."""
    axis = range(int(np.floor(-M / side)) * side, M + 1, side)
    return list(itertools.product(axis, axis, axis))


def test_cube_decomposition_partitions_lattice():
    for M, side in ((4, 2), (4, 3), (5, 4)):
        anchors = cube_anchors(M, side)
        r = range(-M, M + 1)
        for xi in itertools.product(r, r, r):
            a = tuple(int(np.floor(x / side)) * side for x in xi)
            assert a in anchors
            assert all(a[i] <= xi[i] < a[i] + side for i in range(3))
        # masks partition the coefficient cube
        total = np.zeros((2 * M + 1,) * 3, dtype=int)
        for a in anchors:
            total += cube_mask(a, side, M).astype(int)
        assert np.all(total == 1)


def brute_related(anchors, side, R):
    """Oracle: pairs whose cube sum sets actually meet the ball |xi| <= R."""
    offsets = list(itertools.product(range(side), repeat=3))
    related = set()
    for a in anchors:
        for b in anchors:
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
    # the sum-box distance test that cube_identity_check restricts pairs with
    side = 2
    anchors = cube_anchors(3, side)
    pairs = [(a, b) for a in anchors for b in anchors if b >= a]
    sums = np.array([[x + y for x, y in zip(a, b)] for a, b in pairs])
    for R in (1.0, 2.0, 4.0):
        keep = _sum_box_distance(sums, side) <= R
        got = {p for p, k in zip(pairs, keep) if k}
        assert got == brute_related(anchors, side, R)
