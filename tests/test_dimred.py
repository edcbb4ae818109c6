import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import LinAlgError
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path
from scipy.sparse.linalg import ArpackNoConvergence
from scipy.spatial.distance import pdist, squareform

import robust_coords
from robust_coords import dimred
from robust_coords.core_types import Configuration
from robust_coords.dimred import (
    EmbeddingParams,
    classical_mds,
    embed,
    isomap,
    pca_embed,
)
from robust_coords.errors import (
    DegenerateGraph,
    DimensionMismatch,
    EigensolverFailed,
    EmptyOverlap,
    NonFinite,
    NotSymmetric,
    TooFewPoints,
)
from robust_coords.procrustes_pair import procrustes_distance
from robust_coords.synth import buckyball, swiss_roll

from conftest import random_config, random_motion

# the largest input that isomap's dense solvers take
LIMIT = dimred._DENSE_MAX


def test_params_validation():
    with pytest.raises(ValueError):
        EmbeddingParams(method="isomap", target_dim=2)  # no neighbor rule
    with pytest.raises(ValueError):
        EmbeddingParams(method="isomap", target_dim=2, epsilon=1.0, knn=3)
    with pytest.raises(ValueError):
        EmbeddingParams(method="nope", target_dim=2)
    with pytest.raises(ValueError):
        EmbeddingParams(method="external", target_dim=2)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"method": "pca", "epsilon": 3.0},
        {"method": "pca", "knn": 5},
        {"method": "pca", "source": "chart.csv"},
        {"method": "external", "source": "chart.csv", "epsilon": 3.0},
        {"method": "external", "source": "chart.csv", "knn": 5},
        {"method": "isomap", "knn": 5, "source": "chart.csv"},
    ],
    ids=["pca-epsilon", "pca-knn", "pca-source", "external-epsilon", "external-knn",
         "isomap-source"],
)
def test_params_reject_knobs_the_method_ignores(kwargs):
    with pytest.raises(ValueError, match="takes no"):
        EmbeddingParams(target_dim=2, **kwargs)


def test_collinear_points_unroll_exactly():
    pts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]], dtype=float)
    out = isomap(
        Configuration.from_rows(pts),
        EmbeddingParams(method="isomap", target_dim=1, knn=2),
    )
    emb = np.sort(out.config.present_matrix()[0])
    assert out.dropped.size == 0
    assert np.allclose(np.diff(emb), 1.0, atol=1e-9)


def test_isomap_keeps_global_indexing(rng):
    pts = rng.normal(size=(30, 3))
    idx = np.arange(10, 40)
    cfg = Configuration.from_rows(pts, idx, n_global=50)
    out = isomap(cfg, EmbeddingParams(method="isomap", target_dim=2, knn=6))
    union = np.union1d(out.config.present_indices(), out.dropped)
    assert np.array_equal(union, idx)
    assert np.intersect1d(out.config.present_indices(), out.dropped).size == 0


def test_isomap_drops_isolated_points(rng):
    cloud = rng.normal(size=(20, 2))
    far = np.array([[100.0, 100.0], [101.0, 100.0], [100.0, 101.0]])
    cfg = Configuration.from_rows(np.vstack([cloud, far]))
    out = isomap(cfg, EmbeddingParams(method="isomap", target_dim=2, epsilon=5.0))
    assert np.array_equal(out.dropped, [20, 21, 22])
    assert out.config.n_present == 20


def test_isomap_degenerate_graph():
    pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0], [5.0, 5.0]])
    with pytest.raises(DegenerateGraph):
        isomap(
            Configuration.from_rows(pts),
            EmbeddingParams(method="isomap", target_dim=2, epsilon=0.5),
        )
    with pytest.raises(TooFewPoints):
        isomap(
            Configuration.from_rows(pts[:3]),
            EmbeddingParams(method="isomap", target_dim=2, epsilon=0.5),
        )


def test_isomap_complete_graph_equals_mds(rng):
    pts = rng.normal(size=(25, 3))
    cfg = Configuration.from_rows(pts)
    diameter = pdist(pts).max()
    out = isomap(cfg, EmbeddingParams(method="isomap", target_dim=2, epsilon=diameter))
    direct = classical_mds(squareform(pdist(pts)), 2)
    assert procrustes_distance(out.config, direct) <= 1e-9


def test_isomap_equivariance(rng):
    pts = rng.normal(size=(40, 3))
    cfg = Configuration.from_rows(pts)
    moved = cfg.transformed(random_motion(rng, 3))
    params = EmbeddingParams(method="isomap", target_dim=2, knn=7)
    a = isomap(cfg, params)
    b = isomap(moved, params)
    assert procrustes_distance(a.config, b.config) <= 1e-8


def test_isomap_swiss_roll_unrolls():
    sample = swiss_roll(900, seed=5)
    out = isomap(sample.points3d, EmbeddingParams(method="isomap", target_dim=2, knn=10))
    chart = sample.intrinsic
    kept = out.config.present_indices()
    diam = pdist(chart.present_matrix().T).max()
    dist = procrustes_distance(out.config, chart)
    per_point = dist / np.sqrt(kept.size)
    assert per_point <= 0.02 * diam


def _geodesic_graph(points, params):
    # the weighted graph isomap builds, stored zeros between duplicates included
    dmat = squareform(pdist(points))
    return dimred._geodesic_graph(dmat, dimred._neighborhood_graph(dmat, params))


@pytest.mark.parametrize("kind", ["epsilon", "union-knn", "coincident", "disconnected"])
def test_directed_dijkstra_matches_undirected_oracle(kind):
    # isomap relaxes each stored edge once (directed=True); the graph is
    # exactly symmetric, so the geodesics equal the undirected call's bits
    points = swiss_roll(150, seed=4).points3d.present_matrix().T
    params = EmbeddingParams(target_dim=2, epsilon=4.0)
    if kind == "union-knn":
        params = EmbeddingParams(target_dim=2, knn=6)
    elif kind == "coincident":
        points = np.vstack([points, points[:20]])
    elif kind == "disconnected":
        points = np.vstack([points, points[:30] + 1000.0])
    graph = _geodesic_graph(points, params)
    assert (graph != graph.T).nnz == 0
    fast = shortest_path(graph, method="D", directed=True)
    oracle = shortest_path(graph, method="D", directed=False)
    assert np.array_equal(fast, oracle)
    if kind == "disconnected":
        assert np.isinf(fast).any()


# ------------------------------------------------------ Isomap oracle
# Isomap as it was built before its graph was filled in one pass: the CSR
# converted from the COO edge list, the largest component always cut out,
# and the Gram matrix double-centred through temporaries.


def isomap_oracle(x, params):
    d = params.target_dim
    dmat = squareform(pdist(x.present_matrix().T))
    rows, cols = np.nonzero(dimred._neighborhood_graph(dmat, params))
    graph = csr_matrix((dmat[rows, cols], (rows, cols)), shape=dmat.shape)
    labels = connected_components(graph, directed=False)[1]
    in_comp = labels == np.bincount(labels).argmax()
    geo = shortest_path(graph[in_comp][:, in_comp], method="D", directed=True)
    sq = geo.astype(float) ** 2
    row = sq.mean(axis=1, keepdims=True)
    col = sq.mean(axis=0, keepdims=True)
    b = -0.5 * (sq - row - col + sq.mean())
    b = 0.5 * (b + b.T)
    vals, vecs = dimred._top_eigpairs(b, d)
    vecs = vecs * dimred._column_signs(vecs)
    vals = np.clip(vals, 0.0, None)
    vals[vals < 1e-12 * vals[0]] = 0.0
    coords = (vecs * np.sqrt(vals)).T
    coords = coords - coords.mean(axis=1, keepdims=True)
    return dimred._placed(x, coords, x.present_indices()[in_comp], params), graph


@pytest.mark.parametrize("kind", ["epsilon", "two-component", "union-knn", "duplicate"])
def test_isomap_matches_coo_graph_oracle_bit_for_bit(kind):
    points = swiss_roll(150, seed=4).points3d.present_matrix().T
    params = EmbeddingParams(target_dim=2, epsilon=6.0)
    if kind == "two-component":
        points = np.vstack([points, 0.01 * points[:30] + 1000.0])
    elif kind == "union-knn":
        params = EmbeddingParams(target_dim=2, knn=6)
    elif kind == "duplicate":
        points = np.vstack([points, points[:1]])
    x = Configuration.from_rows(points, np.arange(10, 10 + len(points)), n_global=len(points) + 20)
    ref, graph = isomap_oracle(x, params)
    out = embed(x, params)
    n_comp = connected_components(graph, directed=False)[0]
    assert n_comp == (2 if kind == "two-component" else 1)
    assert (graph.data == 0).any() == (kind == "duplicate")
    assert out.dropped.size == (30 if kind == "two-component" else 0)
    assert np.array_equal(out.dropped, ref.dropped)
    assert np.array_equal(out.config.mask, ref.config.mask)
    assert np.array_equal(out.config.coords, ref.config.coords)


def spy_on_shortest_path(monkeypatch):
    """Record each call into dimred.shortest_path: the graph, the keyword
    arguments and the geodesics returned."""
    seen = []

    def spy(graph, **kw):
        seen.append((graph, kw, shortest_path(graph, **kw)))
        return seen[-1][2]

    monkeypatch.setattr(dimred, "shortest_path", spy)
    return seen


@pytest.mark.parametrize("params", [
    EmbeddingParams(target_dim=2, knn=5),
    EmbeddingParams(target_dim=2, epsilon=1.5),
])
def test_isomap_exact_duplicate_is_at_geodesic_distance_zero(rng, monkeypatch, params):
    # a cloud plus one exact copy of point 0: the weight-0 edge between the
    # copies is kept, so their geodesics agree and the copies embed together
    points = rng.normal(size=(30, 3))
    points = np.vstack([points, points[:1]])
    seen = spy_on_shortest_path(monkeypatch)
    out = isomap(Configuration.from_rows(points), params)
    # the whole graph, before any component is cut out
    ((graph, kw, geo),) = seen
    assert graph.shape == (31, 31)
    assert geo[0, 30] == geo[30, 0] == 0.0
    assert np.array_equal(geo[0], geo[30])
    assert np.array_equal(geo, shortest_path(graph, method=kw["method"], directed=False))
    kept = out.config.present_indices()
    assert kept[0] == 0 and kept[-1] == 30
    coords = out.config.coords
    assert np.abs(coords[:, 0] - coords[:, 30]).max() <= 1e-12 * np.abs(coords).max()
    if params.knn is not None:
        # each copy keeps knn neighbours besides itself, the other copy first
        adj = dimred._neighborhood_graph(squareform(pdist(points)), params)
        assert adj[0, 30] and adj[30, 0]
        assert adj.sum(axis=1).min() >= params.knn


# ------------------------------------------ dense shortest paths
# Up to _DENSE_MAX points, isomap's geodesics come from Floyd-Warshall.
# Dijkstra, which it uses above, is the oracle: both sum the edge weights
# along shortest paths, in different orders, so they agree up to rounding.


def split_case(m, kind):
    """m roll points and Isomap params that give one kind of graph."""
    points = swiss_roll(m, seed=m).points3d.present_matrix().T
    # the radius grows as the roll thins out, so that few points are cut off
    params = EmbeddingParams(target_dim=2, epsilon=6.0 * np.sqrt(150 / m))
    if kind == "union-knn":
        params = EmbeddingParams(target_dim=2, knn=6)
    elif kind == "duplicate":
        points[-1] = points[0]
    elif kind == "two-component":
        points[-8:] = 0.01 * points[-8:] + 1000.0
    return points, params


def dijkstra_everywhere(graph, method, directed):
    return shortest_path(graph, method="D", directed=directed)


SPLIT_KINDS = ["epsilon", "union-knn", "duplicate", "two-component"]


@pytest.mark.parametrize("kind", SPLIT_KINDS)
@pytest.mark.parametrize("m", [31, 60, LIMIT])
def test_dense_geodesics_match_dijkstra_oracle(monkeypatch, m, kind):
    points, params = split_case(m, kind)
    x = Configuration.from_rows(points, np.arange(5, 5 + m), n_global=m + 10)
    seen = spy_on_shortest_path(monkeypatch)
    out = isomap(x, params)
    ((graph, kw, geo),) = seen
    assert kw == {"method": "FW", "directed": True}
    assert (graph.data == 0).any() == (kind == "duplicate")
    ref = shortest_path(graph, method="D", directed=True)
    assert np.array_equal(np.isinf(geo), np.isinf(ref))
    finite = np.isfinite(ref)
    assert np.abs(geo[finite] - ref[finite]).max() <= 1e-14 * ref[finite].max()

    monkeypatch.setattr(dimred, "shortest_path", dijkstra_everywhere)
    oracle = isomap(x, params)
    if kind == "two-component":
        assert np.array_equal(out.dropped, np.arange(m - 3, m + 5))
    assert np.array_equal(out.dropped, oracle.dropped)
    assert np.array_equal(out.config.mask, oracle.config.mask)
    ref = oracle.config.coords
    assert np.abs(out.config.coords - ref).max() <= 1e-11 * np.abs(ref).max()


@pytest.mark.parametrize("m, method", [(LIMIT, "FW"), (LIMIT + 1, "D")])
def test_shortest_path_method_is_chosen_by_size(monkeypatch, m, method):
    seen = spy_on_shortest_path(monkeypatch)
    isomap(swiss_roll(m, seed=m).points3d, EmbeddingParams(target_dim=2, knn=8))
    assert [kw for _, kw, _ in seen] == [{"method": method, "directed": True}]


@pytest.mark.parametrize("m", [45, LIMIT + 45])
def test_isomap_keeps_largest_component_as_connected_components_labels_it(rng, m):
    # a 5-point cluster holding vertex 0, then two equal clusters of the
    # rest, interleaved and far apart: the largest component read off the
    # geodesics is the one bincount(labels).argmax() picks, the lower label
    half = (m - 5) // 2
    points = np.empty((m, 3))
    points[:5] = rng.normal(size=(5, 3)) - 1000.0
    points[5::2] = rng.normal(size=(half, 3))
    points[6::2] = rng.normal(size=(half, 3)) + 1000.0
    params = EmbeddingParams(target_dim=2, knn=4)
    graph = _geodesic_graph(points, params)
    labels = connected_components(graph, directed=False)[1]
    assert np.array_equal(np.bincount(labels), [5, half, half])
    out = isomap(Configuration.from_rows(points), params)
    assert np.array_equal(out.config.present_indices(), np.arange(5, m, 2))
    assert np.array_equal(labels[out.config.present_indices()], np.ones(half))


@pytest.mark.parametrize("kind", SPLIT_KINDS)
def test_floyd_warshall_geodesics_are_exactly_symmetric(kind):
    # on an exactly symmetric graph, relaxing the stored direction alone
    # gives the undirected call's bits, as it does for Dijkstra
    graph = _geodesic_graph(*split_case(LIMIT, kind))
    assert (graph != graph.T).nnz == 0
    geo = shortest_path(graph, method="FW", directed=True)
    assert np.array_equal(geo, geo.T)
    assert np.array_equal(geo, shortest_path(graph, method="FW", directed=False))


# ------------------------------------------------------- kNN oracle
# The union-kNN rule as it was built before rows were partitioned: each row
# sorted in full, stably, so that ties go to the lower index; a point that
# exact duplicates crowd out of its own first ell + 1 gives up its farthest
# candidate instead.


def stable_sort_knn_graph(dmat, knn):
    m = dmat.shape[0]
    ell = min(knn, m - 1)
    order = np.argsort(dmat, axis=1, kind="stable")[:, : ell + 1]
    is_self = order == np.arange(m)[:, None]
    is_self[~is_self.any(axis=1), -1] = True
    adj = np.zeros((m, m), dtype=bool)
    adj[np.repeat(np.arange(m), ell), order[~is_self]] = True
    adj |= adj.T
    np.fill_diagonal(adj, False)
    return adj


def knn_case(kind):
    rng = np.random.default_rng(11)
    if kind == "lattice":
        return np.argwhere(np.ones((5, 6))).astype(float)
    if kind == "shuffled-lattice-3d":
        return rng.permutation(np.argwhere(np.ones((3, 3, 4))).astype(float))
    if kind == "lattice-with-repeats":
        return rng.integers(0, 3, size=(40, 2)).astype(float)
    if kind == "duplicates":
        cloud = rng.normal(size=(15, 3))
        return rng.permutation(np.vstack([cloud, cloud, cloud[:4]]))
    return np.zeros((6, 2))  # every point coincident


@pytest.mark.parametrize(
    "kind",
    ["lattice", "shuffled-lattice-3d", "lattice-with-repeats", "duplicates", "coincident"],
)
def test_knn_graph_matches_stable_sort_oracle(kind):
    points = knn_case(kind)
    m = len(points)
    dmat = squareform(pdist(points))
    for knn in sorted({1, 2, 3, 5, 8, m - 2, m - 1, m, m + 4} - {0}):
        ours = dimred._neighborhood_graph(dmat, EmbeddingParams(target_dim=2, knn=knn))
        assert np.array_equal(ours, stable_sort_knn_graph(dmat, knn)), knn
        if knn >= m - 1:
            assert ours.sum() == m * (m - 1)


def test_mds_345_triangle():
    d = np.array([[0.0, 3.0, 5.0], [3.0, 0.0, 4.0], [5.0, 4.0, 0.0]])
    cfg = classical_mds(d, 2)
    rec = np.sort(pdist(cfg.present_matrix().T))
    assert np.allclose(rec, [3.0, 4.0, 5.0], atol=1e-9)


def test_mds_recovers_planar_sets(rng):
    pts = rng.normal(size=(30, 2))
    cfg = classical_mds(squareform(pdist(pts)), 2)
    assert procrustes_distance(cfg, Configuration.from_rows(pts)) <= 1e-8


def test_mds_rank_deficient_axes_are_zero(rng):
    pts = rng.normal(size=(12, 1))  # rank-1 geometry embedded in d=3
    cfg = classical_mds(squareform(pdist(pts)), 3)
    coords = cfg.present_matrix()
    assert np.abs(coords[1:]).max() <= 1e-9


def test_mds_centered_output(rng):
    pts = rng.normal(size=(20, 2)) + 100.0
    cfg = classical_mds(squareform(pdist(pts)), 2)
    assert np.abs(cfg.present_matrix().mean(axis=1)).max() <= 1e-9


# -------------------------------------------------------- MDS oracle
# A full dense eigendecomposition: both solvers of _top_eigpairs, the
# dense top-d solve up to _DENSE_MAX points and Lanczos above it, must
# reproduce it.


def dense_top_eigpairs(b, d):
    vals, vecs = np.linalg.eigh(b)
    return vals[::-1][:d], vecs[:, ::-1][:, :d]


def library_and_oracle(monkeypatch, embed_fn):
    """Coordinates from the library solver, then from the dense oracle."""
    ours = embed_fn()
    monkeypatch.setattr(dimred, "_top_eigpairs", dense_top_eigpairs)
    return ours, embed_fn()


def solvers_called(monkeypatch):
    """Count the calls into the two solvers that _top_eigpairs chooses from."""
    calls = Counter()
    for name in ("eigh", "eigsh"):
        def spy(*args, _name=name, _fn=getattr(dimred, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(dimred, name, spy)
    return calls


def solver_and_oracle(monkeypatch, solver, embed_fn):
    """Coordinates from ``solver`` ("eigh" or "eigsh"), made the library's
    choice at every size by moving the limit, then from the dense oracle."""
    calls = solvers_called(monkeypatch)
    monkeypatch.setattr(dimred, "_DENSE_MAX", np.inf if solver == "eigh" else 0)
    ours = embed_fn()
    assert calls == {solver: 1}
    monkeypatch.setattr(dimred, "_top_eigpairs", dense_top_eigpairs)
    return ours, embed_fn()


# the sizes of bucky-rp2's members, homology balls and MDS view, both
# sides of the limit, and the 250-point members of the larger workloads
SOLVER_SIZES = [48, 60, 100, LIMIT, LIMIT + 1, 250]


@pytest.mark.parametrize(
    "points, knn",
    [(swiss_roll(m, seed=m).points3d, 8) for m in (5, 60, 250, 800)]
    # criterion 8's members: the top three eigenvalues of a noisy
    # buckyball's geodesic Gram matrix lie within 14 %
    + [(buckyball(0.06, seed=5000), 5)],
    ids=["roll-5", "roll-60", "roll-250", "roll-800", "noisy-buckyball"],
)
def test_mds_matches_dense_oracle_with_eigengap(monkeypatch, points, knn):
    # an eigengap at d, so the coordinates themselves are defined
    params = EmbeddingParams(target_dim=2, knn=knn)
    ours, ref = library_and_oracle(monkeypatch, lambda: isomap(points, params).config.coords)
    assert np.abs(ours - ref).max() <= 1e-11 * np.abs(ref).max()


def regular_polygon(n):
    ang = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([np.cos(ang), np.sin(ang)])


@pytest.mark.parametrize(
    "points, d, block",
    [
        (regular_polygon(12), 2, 2),
        (buckyball(0.0, seed=0).present_matrix().T, 3, 3),
        (buckyball(0.0, seed=0).present_matrix().T, 2, 3),
    ],
    ids=["12-gon", "buckyball-d3", "buckyball-d2"],
)
def test_mds_matches_dense_oracle_on_repeated_eigenvalues(monkeypatch, points, d, block):
    # the top eigenvalue has multiplicity ``block``: the eigenvectors are
    # defined only up to a rotation of that eigenspace, so compare the
    # eigenvalues and, when the whole eigenspace is embedded, the distances
    dmat = squareform(pdist(points))
    ours, ref = library_and_oracle(monkeypatch, lambda: classical_mds(dmat, d).coords)
    assert np.allclose(np.sum(ours**2, axis=1), np.sum(ref**2, axis=1), rtol=1e-12)
    if d == block:
        assert np.abs(pdist(ours.T) - pdist(ref.T)).max() <= 1e-11 * np.abs(ref).max()


@pytest.mark.parametrize("solver", ["eigh", "eigsh"])
@pytest.mark.parametrize("m", SOLVER_SIZES)
def test_each_solver_matches_dense_oracle_with_eigengap(monkeypatch, solver, m):
    # a kNN graph on a roll keeps every point, so the Gram matrix has m rows
    points = swiss_roll(m, seed=m).points3d
    params = EmbeddingParams(target_dim=2, knn=8)
    assert isomap(points, params).dropped.size == 0
    ours, ref = solver_and_oracle(
        monkeypatch, solver, lambda: isomap(points, params).config.coords
    )
    assert np.abs(ours - ref).max() <= 1e-11 * np.abs(ref).max()


@pytest.mark.parametrize("solver", ["eigh", "eigsh"])
@pytest.mark.parametrize(
    "points, d, block",
    [(regular_polygon(m), 2, 2) for m in SOLVER_SIZES if m != 60]
    + [
        (buckyball(0.0, seed=0).present_matrix().T, 3, 3),
        (buckyball(0.0, seed=0).present_matrix().T, 2, 3),
    ],
    ids=[f"{m}-gon" for m in SOLVER_SIZES if m != 60] + ["buckyball-d3", "buckyball-d2"],
)
def test_each_solver_matches_dense_oracle_on_repeated_eigenvalues(
    monkeypatch, solver, points, d, block
):
    dmat = squareform(pdist(points))
    ours, ref = solver_and_oracle(monkeypatch, solver, lambda: classical_mds(dmat, d).coords)
    assert np.allclose(np.sum(ours**2, axis=1), np.sum(ref**2, axis=1), rtol=1e-12)
    if d == block:
        assert np.abs(pdist(ours.T) - pdist(ref.T)).max() <= 1e-11 * np.abs(ref).max()


@pytest.mark.parametrize("m, solver", [(LIMIT, "eigh"), (LIMIT + 1, "eigsh")])
def test_solver_is_chosen_by_size(monkeypatch, m, solver):
    calls = solvers_called(monkeypatch)
    classical_mds(squareform(pdist(regular_polygon(m))), 2)
    assert calls == {solver: 1}


def _lapack_fails(*args, **kwargs):
    raise LinAlgError("the algorithm failed to converge")


def _arpack_fails(*args, **kwargs):
    raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))


@pytest.mark.parametrize(
    "m, solver, failure", [(LIMIT, "eigh", _lapack_fails), (LIMIT + 1, "eigsh", _arpack_fails)]
)
def test_solver_failure_is_eigensolver_failed(monkeypatch, m, solver, failure):
    monkeypatch.setattr(dimred, solver, failure)
    with pytest.raises(EigensolverFailed, match="MDS eigensolver failed"):
        classical_mds(squareform(pdist(regular_polygon(m))), 2)


DENSE_BITS_SCRIPT = """
import hashlib
from scipy.spatial.distance import pdist, squareform
from robust_coords import dimred
from robust_coords.synth import swiss_roll
points = swiss_roll(dimred._DENSE_MAX, seed=7).points3d
coords = dimred.classical_mds(squareform(pdist(points.present_matrix().T)), 2).coords
print(hashlib.sha256(coords.tobytes()).hexdigest())
out = dimred.isomap(points, dimred.EmbeddingParams(target_dim=2, knn=8))
print(hashlib.sha256(out.config.coords.tobytes()).hexdigest())
"""


def test_dense_solver_independent_of_blas_threads():
    # the largest input the dense solvers take, as a Gram matrix and through
    # isomap, solved in fresh processes at 1 and 2 OpenBLAS threads, gives
    # the same bits
    src = str(Path(robust_coords.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", DENSE_BITS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        digests.append(proc.stdout.split())
    assert [len(digest) for digest in digests[0]] == [64, 64]
    assert digests[0] == digests[1]


@pytest.mark.parametrize("m, d", [(3, 1), (3, 2), (5, 1), (5, 2)])
def test_mds_of_coincident_points_matches_dense_oracle(m, d):
    # all-zero distances give a zero Gram matrix, which leaves Lanczos
    # nothing to work on; the dense oracle puts every point at the origin
    dmat = np.zeros((m, m))
    vals, vecs = dense_top_eigpairs(dmat, d)
    ref = (vecs * np.sqrt(np.clip(vals, 0.0, None))).T
    out = classical_mds(dmat, d)
    assert out.coords.shape == (d, m)
    assert np.array_equal(out.coords, ref)


def test_mds_rejects_asymmetric():
    d = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(NotSymmetric):
        classical_mds(d, 1)


def test_mds_rejects_non_finite_distances():
    # an infinite distance used to reach ARPACK, which failed after LAPACK
    # printed an error to stderr
    d = np.array([[0.0, 1.0, np.inf], [1.0, 0.0, 1.0], [np.inf, 1.0, 0.0]])
    with pytest.raises(NonFinite):
        classical_mds(d, 1)


@pytest.mark.parametrize("m", [5, 130])
def test_mds_refuses_distances_whose_squares_overflow(capfd, m):
    # finite distances past ~1.3e154 square to inf: 5 points used to fail in
    # eigh with a ValueError that is no RobustCoordsError, and 130 points in
    # ARPACK after LAPACK printed errors to stderr
    p = np.random.default_rng(m).standard_normal(m) * 1e156
    dmat = np.abs(p[:, None] - p[None, :])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="overflow when squared"):
            classical_mds(dmat, 2)
    assert capfd.readouterr().err == ""


def test_pca_plane_reconstruction(rng):
    basis = np.linalg.qr(rng.normal(size=(5, 2)))[0]
    latent = rng.normal(size=(40, 2))
    cfg = Configuration.from_rows(latent @ basis.T)
    out = pca_embed(cfg, 2)
    assert out.dropped.size == 0
    assert np.abs(pdist(out.config.present_matrix().T) - pdist(latent)).max() <= 1e-10


def test_pca_captured_variance(rng):
    pts = rng.normal(size=(300, 4))
    cfg = Configuration.from_rows(pts)
    out = pca_embed(cfg, 2)
    centered = pts - pts.mean(axis=0)
    spectrum = np.linalg.svd(centered, compute_uv=False) ** 2
    captured = float(np.sum(out.config.present_matrix() ** 2))
    assert np.isclose(captured, spectrum[:2].sum(), rtol=1e-10)


def test_pca_full_dim_is_rigid(rng):
    cfg = random_config(rng, d=3, n=30)
    out = pca_embed(cfg, 3)
    assert procrustes_distance(out.config, cfg) <= 1e-9


def test_pca_equivariance(rng):
    cfg = random_config(rng, d=3, n=30)
    moved = cfg.transformed(random_motion(rng, 3))
    a = pca_embed(cfg, 2)
    b = pca_embed(moved, 2)
    assert procrustes_distance(a.config, b.config) <= 1e-8


def test_external_embedding_restricts_to_domain(tmp_path, rng):
    from robust_coords.cli_io import write_points_csv

    full = Configuration.from_rows(rng.normal(size=(10, 2)))
    path = tmp_path / "ext.csv"
    write_points_csv(full, path)
    sub = Configuration.from_rows(rng.normal(size=(6, 3)), indices=np.arange(2, 8), n_global=10)
    params = EmbeddingParams(method="external", target_dim=2, source=str(path))
    out = embed(sub, params)
    assert np.array_equal(out.config.present_indices(), np.arange(2, 8))
    assert np.allclose(out.config.coords[:, 2:8], full.coords[:, 2:8])


def test_external_embedding_with_gaps_and_ids_beyond_input(tmp_path, rng):
    from robust_coords.cli_io import read_points_csv, write_points_csv

    # the source lacks ids 2 and 5 of the input and holds ids 11-12 beyond it
    source_ids = np.array([0, 1, 3, 4, 6, 7, 8, 11, 12])
    path = tmp_path / "ext.csv"
    write_points_csv(Configuration.from_rows(rng.normal(size=(9, 2)), source_ids), path)
    source = read_points_csv(path)
    x = Configuration.from_rows(
        rng.normal(size=(6, 3)), indices=np.array([1, 2, 3, 5, 6, 8]), n_global=10
    )
    out = embed(x, EmbeddingParams(method="external", target_dim=2, source=str(path)))
    assert out.config.n_global == 10
    assert np.array_equal(out.config.present_indices(), [1, 3, 6, 8])
    assert np.array_equal(out.dropped, [2, 5])
    assert np.array_equal(out.config.present_matrix(), source.coords[:, [1, 3, 6, 8]])
    assert not out.config.coords[:, ~out.config.mask].any()


def test_external_embedding_rejects_wrong_dimension(tmp_path, rng):
    from robust_coords.cli_io import write_points_csv

    path = tmp_path / "ext3d.csv"
    write_points_csv(Configuration.from_rows(rng.normal(size=(10, 3))), path)
    x = Configuration.from_rows(rng.normal(size=(10, 3)))
    params = EmbeddingParams(method="external", target_dim=2, source=str(path))
    with pytest.raises(DimensionMismatch, match="dimension 3, not target_dim 2") as info:
        embed(x, params)
    assert str(path) in str(info.value)


def test_external_embedding_without_overlap_is_skipped(tmp_path, rng, caplog):
    from robust_coords.cli_io import write_points_csv
    from robust_coords.ensemble import PipelineConfig, build_ensemble

    # the source holds ids 20-29, beyond every index of the 20-point input
    path = tmp_path / "ext.csv"
    write_points_csv(Configuration.from_rows(rng.normal(size=(10, 2)), np.arange(20, 30)), path)
    x = Configuration.from_rows(rng.normal(size=(20, 3)))
    external = EmbeddingParams(method="external", target_dim=2, source=str(path))
    with pytest.raises(EmptyOverlap, match="covers none of the input's indices"):
        embed(x, external)
    config = PipelineConfig(
        n_subsamples=3,
        subsample_size=12,
        dimred=(external, EmbeddingParams(method="pca", target_dim=2)),
    )
    with caplog.at_level("WARNING", logger="robust_coords.ensemble"):
        members = build_ensemble(x, config)
    assert [m.params_index for m in members] == [1, 1, 1]
    assert caplog.text.count("covers none of the input's indices") == 3
