import pickle
import tracemalloc

import numpy as np
import pytest

from robust_coords.core_types import (
    Configuration,
    RigidMotion,
    center,
    centroid,
    restrict_common,
)
from robust_coords.dimred import EmbeddingOutput, EmbeddingParams
from robust_coords.ensemble import PipelineConfig, _stack_into, _stacks, build_ensemble
from robust_coords.errors import EmptyOverlap, NonFinite
from robust_coords.procrustes_pair import affine_procrustes

from conftest import random_config, random_motion, set_process_count


def test_absent_columns_are_canonically_zero():
    cfg = Configuration([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [True, False, True])
    assert np.array_equal(cfg.coords[:, 1], [0.0, 0.0])
    assert cfg.n_present == 2
    assert np.array_equal(cfg.present_indices(), [0, 2])


def test_mask_canonicalization_ignores_absent_values():
    # two coordinate matrices agreeing on present columns give equal configs
    mask = np.array([True, False, True])
    a = Configuration([[1.0, 99.0, 3.0]], mask)
    b = Configuration([[1.0, -5.0, 3.0]], mask)
    assert np.array_equal(a.coords, b.coords)


def test_rejects_nonfinite_present_values():
    with pytest.raises(NonFinite):
        Configuration([[np.nan, 1.0]])
    # non-finite garbage at absent indices is irrelevant after zeroing
    cfg = Configuration([[np.inf, 1.0]], [False, True])
    assert cfg.coords[0, 0] == 0.0


def test_rejects_empty_domain():
    with pytest.raises(ValueError):
        Configuration([[1.0, 2.0]], [False, False])


def test_coords_are_immutable():
    cfg = Configuration([[1.0, 2.0]])
    with pytest.raises(ValueError):
        cfg.coords[0, 0] = 7.0


def test_from_rows_round_trip(rng):
    pts = rng.normal(size=(5, 3))
    idx = np.array([2, 4, 5, 8, 9])
    cfg = Configuration.from_rows(pts, idx, n_global=12)
    assert cfg.n_global == 12
    assert np.array_equal(cfg.present_indices(), idx)
    assert np.allclose(cfg.present_matrix().T, pts)


def test_from_rows_refuses_what_it_used_to_truncate():
    pts = np.ones((3, 2))
    for indices in ([0.5, 1.7, 2.9], [True, False, 2], np.array([True, False, True]),
                    np.array([0.0, 1.0, 2.0])):
        with pytest.raises(ValueError, match="^indices must be"):
            Configuration.from_rows(pts, indices)
    for n_global in (4.7, 4.0, True):
        with pytest.raises(ValueError, match="n_global must be an integer"):
            Configuration.from_rows(pts, n_global=n_global)
    cfg = Configuration.from_rows(pts, [np.int32(4), 1, 2], n_global=np.int64(6))
    assert np.array_equal(cfg.present_indices(), [1, 2, 4]) and cfg.n_global == 6
    with pytest.raises(ValueError, match="configuration domain is empty"):
        Configuration.from_rows(np.empty((0, 2)), [], n_global=4)


def assert_read_only(cfg):
    for stored in (cfg.present_matrix(), cfg.present_indices()):
        assert not stored.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            stored[..., 0] = 4


def test_pickle_round_trip_keeps_the_arrays_read_only(rng):
    cfg = random_config(rng, d=3, n=30, mask_prob=0.5)
    back = pickle.loads(pickle.dumps(cfg))
    assert_read_only(cfg)
    assert_read_only(back)
    assert back.n_global == cfg.n_global
    assert np.array_equal(back.coords, cfg.coords)
    assert back.present_matrix().flags.f_contiguous


def test_members_made_in_worker_processes_are_read_only(monkeypatch):
    x = Configuration(np.random.default_rng(3).normal(size=(3, 60)))
    config = PipelineConfig(
        n_subsamples=4,
        subsample_size=30,
        dimred=(EmbeddingParams(method="pca", target_dim=2),),
    )
    set_process_count(monkeypatch, 2)
    members = build_ensemble(x, config)
    assert len(members) == 4
    for member in members:
        assert_read_only(member.config)


def test_restrict_common_basic():
    x = Configuration(np.arange(10.0).reshape(2, 5), [True, True, True, False, False])
    y = Configuration(np.arange(10.0).reshape(2, 5), [False, True, True, True, False])
    xr, yr = restrict_common(x, y)
    assert np.array_equal(xr.present_indices(), [1, 2])
    assert np.array_equal(yr.present_indices(), [1, 2])
    assert np.allclose(xr.present_matrix(), x.coords[:, 1:3])


def test_restrict_common_disjoint_raises():
    x = Configuration(np.ones((2, 4)), [True, True, False, False])
    y = Configuration(np.ones((2, 4)), [False, False, True, True])
    with pytest.raises(EmptyOverlap):
        restrict_common(x, y)


def test_restrict_common_identity_case(rng):
    x = random_config(rng, n=5)
    y = random_config(rng, n=5)
    xr, yr = restrict_common(x, y)
    assert np.array_equal(xr.coords, x.coords)
    assert np.array_equal(yr.coords, y.coords)


def test_centroid_examples():
    cfg = Configuration(np.array([[0.0, 2.0], [0.0, 0.0]]))
    assert np.allclose(centroid(cfg), [1.0, 0.0])
    single = Configuration(np.array([[3.0], [-1.0]]))
    assert np.allclose(centroid(single), [3.0, -1.0])
    square = Configuration(np.array([[0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0]]))
    assert np.allclose(centroid(square), [0.5, 0.5])


def test_centroid_ignores_absent_columns():
    cfg = Configuration(np.array([[1.0, 50.0, 3.0]]), [True, False, True])
    assert np.allclose(centroid(cfg), [2.0])


def test_centroid_permutation_invariant(rng):
    pts = rng.normal(size=(3, 15))
    perm = rng.permutation(15)
    assert np.allclose(centroid(Configuration(pts)), centroid(Configuration(pts[:, perm])))


def test_center_examples():
    cfg = Configuration(np.array([[1.0, 3.0], [1.0, 1.0]]))
    centered, c = center(cfg)
    assert np.allclose(c, [2.0, 1.0])
    assert np.allclose(centered.coords, [[-1.0, 1.0], [0.0, 0.0]])
    single = Configuration(np.array([[5.0], [2.0]]))
    centered, c = center(single)
    assert np.allclose(centered.coords, 0.0)
    assert np.allclose(c, [5.0, 2.0])


def test_center_idempotent(rng):
    for _ in range(10):
        cfg = random_config(rng, d=3, n=12, mask_prob=0.7)
        once, _ = center(cfg)
        again, c2 = center(once)
        assert np.abs(c2).max() <= 1e-12
        assert np.allclose(again.coords, once.coords, atol=1e-12)


def test_rigid_motion_validation(rng):
    with pytest.raises(ValueError):
        RigidMotion(np.array([[1.0, 0.1], [0.0, 1.0]]), np.zeros(2))
    g = random_motion(rng, 3)
    h = g.compose(g.inverse())
    assert np.allclose(h.rotation, np.eye(3), atol=1e-12)
    assert np.allclose(h.translation, 0.0, atol=1e-12)


def test_transformed_applies_motion(rng):
    cfg = random_config(rng, d=2, n=8, mask_prob=0.6)
    g = random_motion(rng, 2)
    moved = cfg.transformed(g)
    assert np.allclose(
        moved.present_matrix(), g.apply(cfg.present_matrix()), atol=1e-12
    )
    assert np.array_equal(moved.mask, cfg.mask)


# --------------------------------------- compact storage, dense oracle


class DenseConfiguration:
    """The former dense Configuration, trimmed: a d x n matrix that is zero
    at absent indices, and the presence mask."""

    def __init__(self, coords, mask=None):
        coords = np.array(coords, dtype=float)
        if mask is None:
            mask = np.ones(coords.shape[1], dtype=bool)
        mask = np.array(mask, dtype=bool)
        coords[:, ~mask] = 0.0
        self.coords, self.mask = coords, mask

    @classmethod
    def from_rows(cls, points, indices, n_global):
        coords = np.zeros((points.shape[1], n_global))
        coords[:, indices] = points.T
        mask = np.zeros(n_global, dtype=bool)
        mask[indices] = True
        return cls(coords, mask)

    def present_indices(self):
        return np.flatnonzero(self.mask)

    def present_matrix(self):
        return self.coords[:, self.present_indices()]

    def restrict(self, keep_mask):
        return DenseConfiguration(self.coords, self.mask & keep_mask)

    def transformed(self, motion):
        out = motion.rotation @ self.coords + motion.translation[:, None]
        return DenseConfiguration(out, self.mask)


def dense_centroid(x):
    return x.present_matrix().mean(axis=1)


def dense_center(x):
    c = dense_centroid(x)
    return DenseConfiguration(x.coords - c[:, None], x.mask), c


def dense_restrict_common(x, y):
    common = x.mask & y.mask
    return DenseConfiguration(x.coords, common), DenseConfiguration(y.coords, common)


def dense_affine_procrustes(x, y):
    """The former ``affine_procrustes``, on the two dense matrices."""
    common = x.mask & y.mask
    xm = x.coords[:, common]
    ym = y.coords[:, common]
    a = xm.mean(axis=1)
    b = ym.mean(axis=1)
    xm -= a[:, None]
    ym -= b[:, None]
    u, _, vt = np.linalg.svd(ym @ xm.T)
    q = u @ vt
    return q, b - q @ a, float(np.linalg.norm(q @ xm - ym)), xm.shape[1]


def dense_stacks(configs):
    """The former ``_stack_into``: every member's dense matrix and mask."""
    x, m, sq = _stacks(len(configs), configs[0].coords.shape[0], configs[0].coords.shape[1])
    np.stack([c.coords for c in configs], out=x)
    np.stack([c.mask for c in configs], out=m)
    np.einsum("idn,idn->in", x, x, optimize=False, out=sq)
    return x, m, sq


def assert_same_bits(ours, ref):
    ours, ref = np.asarray(ours), np.asarray(ref)
    assert ours.dtype == ref.dtype and ours.shape == ref.shape
    assert np.array_equal(ours, ref)
    assert ours.tobytes() == ref.tobytes()


def assert_same_config(ours, ref):
    assert ours.n_global == ref.coords.shape[1]
    assert_same_bits(ours.present_matrix(), ref.present_matrix())
    assert_same_bits(ours.present_indices(), ref.present_indices())
    assert_same_bits(ours.coords, ref.coords)
    assert_same_bits(ours.mask, ref.mask)
    # axis-1 reductions such as centroid's mean add in an order that depends
    # on the layout, and indexing a dense matrix's columns gives Fortran
    # order, so the compact matrix keeps that layout to keep every bit
    assert ours.present_matrix().flags.f_contiguous
    assert ref.present_matrix().flags.f_contiguous


def random_pair_of_forms(rng, d, n=None):
    """One random partial configuration, compact and dense; one present
    point is as likely as a full domain."""
    n = int(rng.integers(1, 60)) if n is None else n
    coords = rng.normal(size=(d, n)) * rng.uniform(0.1, 100.0)
    mask = rng.random(n) < rng.uniform(0.05, 1.0)
    mask[rng.integers(n)] = True
    return Configuration(coords, mask), DenseConfiguration(coords, mask)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_compact_storage_matches_dense_oracle_bit_for_bit(rng, d):
    for _ in range(60):
        x, dense_x = random_pair_of_forms(rng, d)
        assert_same_config(x, dense_x)
        assert_same_bits(centroid(x), dense_centroid(dense_x))
        (centred, c), (dense_centred, dense_c) = center(x), dense_center(dense_x)
        assert_same_config(centred, dense_centred)
        assert_same_bits(c, dense_c)
        g = random_motion(rng, d)
        assert_same_config(x.transformed(g), dense_x.transformed(g))
        keep = rng.random(x.n_global) < 0.5
        if (keep & dense_x.mask).any():
            assert_same_config(x.restrict(keep), dense_x.restrict(keep))

        y, dense_y = random_pair_of_forms(rng, d, x.n_global)
        if (dense_x.mask & dense_y.mask).any():
            for ours, ref in zip(restrict_common(x, y), dense_restrict_common(dense_x, dense_y)):
                assert_same_config(ours, ref)
            pa = affine_procrustes(x, y)
            q, v, dist, overlap = dense_affine_procrustes(dense_x, dense_y)
            assert_same_bits(pa.motion.rotation, q)
            assert_same_bits(pa.motion.translation, v)
            assert pa.distance == dist and pa.overlap_size == overlap

        m = int(rng.integers(1, 40))
        n_global = m + int(rng.integers(0, 40))
        points = rng.normal(size=(m, d))
        indices = rng.permutation(n_global)[:m]
        assert_same_config(
            Configuration.from_rows(points, indices, n_global=n_global),
            DenseConfiguration.from_rows(points, indices, n_global),
        )


@pytest.mark.parametrize("d", [1, 2, 3])
def test_dissimilarity_stacks_match_dense_oracle_bit_for_bit(rng, d):
    members, dense = zip(*(random_pair_of_forms(rng, d, 50) for _ in range(12)))
    stacks = _stacks(len(members), d, 50)
    for a, b in zip(_stack_into(stacks, members), dense_stacks(dense)):
        assert_same_bits(a, b)
    # refilling the same stacks with other members leaves no trace of the
    # first fill
    for a, b in zip(_stack_into(stacks, members[:0:-1]), dense_stacks(dense[:0:-1])):
        assert_same_bits(a, b)


def test_members_do_not_grow_with_the_global_index_set(rng):
    n_global = 100_000
    draws = []
    for _ in range(20):
        indices = rng.choice(n_global, 300, replace=False)
        keep = np.zeros(n_global, dtype=bool)
        keep[rng.choice(indices, 250, replace=False)] = True
        draws.append((rng.normal(size=(300, 2)), indices, keep))
    tracemalloc.start()
    try:
        members = [
            Configuration.from_rows(points, indices, n_global=n_global).restrict(keep)
            for points, indices, keep in draws
        ]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a dense 2 x 100,000 matrix and mask would take 1.7 MB per member
    assert peak < 1 << 20
    assert all(c.n_present == 250 and c.n_global == n_global for c in members)
    out = EmbeddingOutput(config=members[0], dropped=np.arange(50))
    assert len(pickle.dumps(out)) < 10_000
