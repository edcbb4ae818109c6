import numpy as np
import pytest

from robust_coords.core_types import Configuration, centroid, restrict_common
from robust_coords.dimred import _column_signs
from robust_coords.errors import DimensionMismatch, EmptyOverlap
from robust_coords.procrustes_pair import (
    affine_procrustes,
    orthogonal_procrustes,
    procrustes_distance,
)

from conftest import random_config, random_motion, random_orthogonal, rotation_2d


def brute_force_distance_2d(x, y, n_angles=200_000):
    """Independent oracle: scan rotations and reflections on an angle grid.

    Inputs are centered (d, m) matrices; returns min ||R X - Y||_F over the
    grid of rotations R(theta) and reflected rotations R(theta) @ diag(1,-1).
    """
    thetas = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    best = np.inf
    flip = np.diag([1.0, -1.0])
    for chunk in np.array_split(thetas, 40):
        c, s = np.cos(chunk), np.sin(chunk)
        rots = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
        for base in (x, flip @ x):
            moved = rots @ base
            res = np.sqrt(((moved - y) ** 2).sum(axis=(1, 2)))
            best = min(best, res.min())
    return best


def center_cols(m):
    return m - m.mean(axis=1, keepdims=True)


def test_exact_rotation_recovery(rng):
    r = rotation_2d(np.pi / 2)
    x = rng.normal(size=(2, 10))
    x = center_cols(x)
    q = orthogonal_procrustes(Configuration(x), Configuration(r @ x))
    assert np.allclose(q, r, atol=1e-10)


def test_identity_on_full_rank_self(rng):
    x = center_cols(rng.normal(size=(3, 8)))
    q = orthogonal_procrustes(Configuration(x), Configuration(x))
    assert np.linalg.norm(q @ x - x) <= 1e-10


def test_half_scale_instance():
    # scaling is not in the transformation group, so the best orthogonal map
    # is the identity and the residual stays sqrt(0.5)
    x = np.array([[-0.5, 0.5], [0.0, 0.0]])
    y = np.array([[-1.0, 1.0], [0.0, 0.0]])
    q = orthogonal_procrustes(Configuration(x), Configuration(y))
    assert np.allclose(q, np.eye(2), atol=1e-12)
    assert np.isclose(np.linalg.norm(q @ x - y), np.sqrt(0.5), atol=1e-10)
    oracle = brute_force_distance_2d(x, y)
    assert np.isclose(np.sqrt(0.5), oracle, atol=1e-6)


def test_affine_recovers_rigid_motion(rng):
    for _ in range(10):
        x = random_config(rng, d=3, n=12)
        g = random_motion(rng, 3)
        y = x.transformed(g)
        pa = affine_procrustes(x, y)
        assert pa.distance <= 1e-9
        assert np.allclose(pa.motion.apply(x.present_matrix()), y.present_matrix(), atol=1e-9)


def test_affine_partial_overlap_zero_distance(rng):
    coords = rng.normal(size=(2, 4))
    x = Configuration(coords, [True, True, True, False])
    y = Configuration(coords, [True, True, False, True])
    pa = affine_procrustes(x, y)
    assert pa.overlap_size == 2
    assert pa.distance <= 1e-12


def test_affine_translation_invariance():
    x = Configuration(np.array([[-0.5, 0.5], [0.0, 0.0]]))
    y = Configuration(np.array([[-1.0, 1.0], [0.0, 0.0]]) + np.array([[5.0], [5.0]]))
    pa = affine_procrustes(x, y)
    assert np.isclose(pa.distance, np.sqrt(0.5), atol=1e-9)


def test_distance_identity_and_group_invariance(rng):
    x = random_config(rng, d=2, n=15)
    assert procrustes_distance(x, x) <= 1e-12
    g = random_motion(rng, 2)
    h = random_motion(rng, 2)
    y = random_config(rng, d=2, n=15)
    base = procrustes_distance(x, y)
    assert abs(procrustes_distance(x.transformed(g), y.transformed(h)) - base) <= 1e-9


def test_distance_symmetry(rng):
    for _ in range(20):
        x = random_config(rng, d=2, n=12)
        y = random_config(rng, d=2, n=12)
        assert abs(procrustes_distance(x, y) - procrustes_distance(y, x)) <= 1e-9


def test_triangle_inequality_full_domain(rng):
    # quotient pseudometric on full equal-index domains
    for _ in range(50):
        x, y, z = (random_config(rng, d=2, n=10) for _ in range(3))
        dxy = procrustes_distance(x, y)
        dyz = procrustes_distance(y, z)
        dxz = procrustes_distance(x, z)
        assert dxz <= dxy + dyz + 1e-9


def test_empty_overlap_raises():
    x = Configuration(np.ones((2, 4)), [True, True, False, False])
    y = Configuration(np.ones((2, 4)), [False, False, True, True])
    with pytest.raises(EmptyOverlap):
        procrustes_distance(x, y)


def test_matches_angle_grid_oracle(rng):
    # closed form vs grid search over O(2); modest grid here, the full
    # million-angle sweep runs in the acceptance suite
    for _ in range(10):
        x = center_cols(rng.normal(size=(2, 12)))
        y = center_cols(rng.normal(size=(2, 12)))
        closed = procrustes_distance(Configuration(x), Configuration(y))
        grid = brute_force_distance_2d(x, y)
        assert abs(closed - grid) <= 1e-5 * max(1.0, grid)


# ------------------------------------------- former route as the oracle


def restricted_signed_svd_route(x, y):
    """The former route of ``affine_procrustes``: restrict both sides to the
    common domain as Configurations, centre them by ``centroid``, and take
    Q = U Vt from an SVD whose singular-vector signs are fixed first."""
    xr, yr = restrict_common(x, y)
    a, b = centroid(xr), centroid(yr)
    xm = xr.present_matrix() - a[:, None]
    ym = yr.present_matrix() - b[:, None]
    u, _, vt = np.linalg.svd(ym @ xm.T)
    signs = _column_signs(u)
    q = (u * signs) @ (vt * signs[:, None])
    return q, b - q @ a, float(np.linalg.norm(q @ xm - ym)), xr.n_present


def partial_pair(rng, d):
    return random_config(rng, d=d, n=30, mask_prob=0.6), random_config(rng, d=d, n=30, mask_prob=0.6)


def reflected_pair(rng, d):
    x = random_config(rng, d=d, n=25, mask_prob=0.8)
    flip = np.diag([-1.0] + [1.0] * (d - 1)) @ random_orthogonal(rng, d, allow_reflection=False)
    coords = flip @ x.coords + 0.01 * rng.normal(size=x.coords.shape)
    return x, Configuration(coords, rng.random(25) < 0.8)


def collinear_pair(rng, d):
    # X lies on a line: the cross-covariance has rank 1
    t = rng.normal(size=20)
    x = Configuration(np.outer(rng.normal(size=d), t), rng.random(20) < 0.7)
    return x, random_config(rng, d=d, n=20, mask_prob=0.7)


@pytest.mark.parametrize("make_pair", [partial_pair, reflected_pair, collinear_pair])
@pytest.mark.parametrize("d", [2, 3])
def test_affine_matches_former_route_bit_for_bit(rng, make_pair, d):
    # U Vt does not depend on the signs of the singular vectors, so
    # fixing the signs first leaves every bit of the result as it is
    for _ in range(25):
        x, y = make_pair(rng, d)
        if not (x.mask & y.mask).any():
            continue
        q, v, dist, overlap = restricted_signed_svd_route(x, y)
        pa = affine_procrustes(x, y)
        assert np.array_equal(pa.motion.rotation, q)
        assert np.array_equal(pa.motion.translation, v)
        assert pa.distance == dist
        assert pa.overlap_size == overlap


@pytest.mark.parametrize(
    "x, y, error",
    [
        (Configuration(np.ones((2, 4))), Configuration(np.ones((3, 4))), DimensionMismatch),
        (Configuration(np.ones((2, 4))), Configuration(np.ones((2, 5))), DimensionMismatch),
        (
            Configuration(np.ones((2, 4)), [True, True, False, False]),
            Configuration(np.ones((2, 4)), [False, False, True, True]),
            EmptyOverlap,
        ),
    ],
    ids=["dim", "n_global", "disjoint"],
)
def test_affine_raises_as_restrict_common(x, y, error):
    with pytest.raises(error) as ours:
        affine_procrustes(x, y)
    with pytest.raises(error) as ref:
        restrict_common(x, y)
    assert str(ours.value) == str(ref.value)
