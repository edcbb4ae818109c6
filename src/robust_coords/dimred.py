"""Pluggable dimensionality reduction: Isomap, classical MDS, PCA.

Every method consumes a Configuration (possibly partial on the global index
set) and emits an EmbeddingOutput whose configuration inherits the input's
global indexing.  Isomap may exclude points that fall outside the largest
component of the neighborhood graph; those are reported in ``dropped`` and
become missing points downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, eigh
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path
from scipy.sparse.linalg import ArpackError, eigsh
from scipy.spatial.distance import pdist, squareform

from .core_types import Configuration, _check_fields, _check_value, read_points_csv
from .errors import (
    DegenerateGraph,
    DimensionMismatch,
    EigensolverFailed,
    EmptyOverlap,
    NonFinite,
    NotSymmetric,
    TooFewPoints,
)

__all__ = [
    "EmbeddingParams",
    "EmbeddingOutput",
    "embed",
    "isomap",
    "classical_mds",
    "pca_embed",
]

_METHODS = ("isomap", "pca", "external")

# MDS and PCA axes are eigen- or singular vectors, defined only up to sign;
# fixing the sign keeps output coordinates independent of the solver's choice.
# Entries up to this fraction of max(1, largest magnitude) count as zero.
_SIGN_EPS = 1e-12

# Inputs of at most this many points take the dense path of both solvers
# in ``isomap``: Floyd-Warshall geodesics instead of Dijkstra, and one dense
# LAPACK eigensolve (``eigh``, driver evr) of the Gram matrix instead of
# Lanczos.  Per call, each dense solver is faster below a crossover measured
# on 1 OpenBLAS thread: evr against ARPACK at 120-124 points (2-d target),
# where ARPACK's fixed cost of reverse communication still dominates, and
# Floyd-Warshall against Dijkstra at about 150-200 points on kNN and epsilon
# graphs.  Up to this size evr's bits do not depend on the BLAS thread
# count; at 256 points they do, so the limit may not be raised that far.
_DENSE_MAX = 120


def _column_signs(vecs):
    """+1 or -1 per column: the sign that makes its first entry of
    non-negligible magnitude positive."""
    signs = np.ones(vecs.shape[1])
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        big = np.flatnonzero(np.abs(col) > _SIGN_EPS * max(1.0, np.abs(col).max()))
        if big.size and col[big[0]] < 0:
            signs[j] = -1.0
    return signs


@dataclass(frozen=True)
class EmbeddingParams:
    """Method choice plus the knobs that control it.

    For ``isomap`` exactly one of ``epsilon`` (neighborhood radius) or
    ``knn`` (nearest-neighbor count, symmetrized by union) must be set.
    ``source`` points external-method params at a CSV of precomputed
    coordinates.  A knob that the method does not use must stay None.
    """

    target_dim: int
    method: str = "isomap"
    epsilon: float | None = None
    knn: int | None = None
    source: str | None = None

    def __post_init__(self):
        _check_fields(self)
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected {_METHODS}")
        if self.target_dim < 1:
            raise ValueError("target_dim must be >= 1")
        if self.method == "isomap":
            if (self.epsilon is None) == (self.knn is None):
                raise ValueError("isomap needs exactly one of epsilon or knn")
            if self.epsilon is not None and not self.epsilon > 0:
                raise ValueError("epsilon must be positive")
            if self.knn is not None and self.knn < 1:
                raise ValueError("knn must be >= 1")
        elif self.epsilon is not None or self.knn is not None:
            raise ValueError(f"{self.method} takes no epsilon or knn")
        if self.method == "external" and self.source is None:
            raise ValueError("external method needs a source path")
        if self.method != "external" and self.source is not None:
            raise ValueError(f"{self.method} takes no source")


@dataclass(frozen=True, eq=False)
class EmbeddingOutput:
    """An embedded configuration plus the input indices it excluded.

    ``subsample_index`` and ``params_index`` locate the output inside an
    ensemble, the latter as the position of its EmbeddingParams in the
    pipeline's mesh; they stay None for standalone embeddings.
    """

    config: Configuration
    dropped: np.ndarray
    subsample_index: int | None = None
    params_index: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "dropped", np.asarray(self.dropped, dtype=int))


def embed(x, params, chart=None):
    """Dispatch on ``params.method``.

    External embeddings take the points CSV at ``params.source``, given
    already read as ``chart`` or else read here, restricted to the input's
    domain; the source's points at indices the input lacks are ignored,
    and the input's indices the source lacks are dropped.  Raises
    DimensionMismatch when the source's dimension is not ``target_dim``,
    and EmptyOverlap when it covers none of the input's indices.
    """
    if params.method == "isomap":
        return isomap(x, params)
    if params.method == "pca":
        return pca_embed(x, params.target_dim)
    if chart is None:
        chart = read_points_csv(params.source)
    if chart.dim != params.target_dim:
        raise DimensionMismatch(
            f"external embedding {params.source} has dimension {chart.dim}, "
            f"not target_dim {params.target_dim}"
        )
    kept, cols, _ = np.intersect1d(
        chart.present_indices(), x.present_indices(), assume_unique=True, return_indices=True
    )
    if not kept.size:
        raise EmptyOverlap(
            f"external embedding {params.source} covers none of the input's indices"
        )
    return _placed(x, chart.present_matrix()[:, cols], kept)


def _placed(x, chart, kept):
    """The (d, len(kept)) chart placed at ``kept``, sorted and distinct
    present indices of the input ``x``; the input's other present indices
    come back in ``dropped``."""
    config = Configuration._compact(np.array(chart, order="F"), kept, x.n_global)
    if kept.size < x.n_present:
        dropped = np.setdiff1d(x.present_indices(), kept, assume_unique=True)
    else:
        dropped = np.empty(0, dtype=int)
    return EmbeddingOutput(config=config, dropped=dropped)


def _neighborhood_graph(dmat, params):
    """Boolean adjacency under the epsilon or union-kNN rule.

    Under kNN each point takes its ell = min(knn, m - 1) nearest other
    points, ties broken towards the lower index, so an exact duplicate is
    taken like any other point at distance 0.  One partition per row finds
    the ell-th distance; every point nearer than it is taken, and the points
    at that distance in index order until ell are, so no row is sorted.
    """
    m = dmat.shape[0]
    if params.epsilon is not None:
        adj = dmat <= params.epsilon
    else:
        ell = min(params.knn, m - 1)
        others = dmat.copy()
        np.fill_diagonal(others, np.inf)
        cut = np.partition(others, ell - 1, axis=1)[:, ell - 1 : ell]
        adj = others < cut
        tied = others == cut
        free = ell - adj.sum(axis=1, keepdims=True)
        adj |= tied & (np.cumsum(tied, axis=1) <= free)
        adj |= adj.T
    np.fill_diagonal(adj, False)
    return adj


def _geodesic_graph(dmat, adj):
    """The weighted neighbourhood graph as a CSR matrix, built row by row
    from the adjacency: edge weights are the ambient distances.

    Every adjacent pair is stored, also the weight-0 edge between exact
    duplicates, which csgraph treats as an edge.
    """
    indptr = np.zeros(adj.shape[0] + 1, dtype=np.int64)
    np.cumsum(adj.sum(axis=1), out=indptr[1:])
    rows, cols = np.nonzero(adj)
    return csr_matrix((dmat[rows, cols], cols, indptr), shape=adj.shape)


def isomap(x, params):
    """Geodesic embedding: neighborhood graph, shortest paths, then MDS.

    Edge weights are ambient distances, and the graph's CSR arrays are
    filled straight from the adjacency's rows (``_geodesic_graph``).
    Shortest paths run on the whole graph: by Floyd-Warshall up to
    ``_DENSE_MAX`` points and by Dijkstra above.  The largest connected
    component, of several that large the one holding the lowest vertex, is
    read off the geodesics' finite pattern: the vertices that the first
    vertex of largest reach reaches.  Only its points are embedded, and the
    remaining input points come back in ``dropped``.  Raises
    DegenerateGraph when that component has fewer than target_dim + 2
    vertices.
    """
    d = params.target_dim
    if x.n_present < d + 2:
        raise TooFewPoints(f"isomap needs at least {d + 2} points")
    points = x.present_matrix().T
    dmat = squareform(pdist(points))
    graph = _geodesic_graph(dmat, _neighborhood_graph(dmat, params))
    del dmat  # the geodesics and MDS below need one m x m array fewer alive
    # the graph is exactly symmetric, so each edge is relaxed once, in the
    # direction it is stored, with the same geodesics as directed=False
    method = "FW" if graph.shape[0] <= _DENSE_MAX else "D"
    geo = shortest_path(graph, method=method, directed=True)
    kept = x.present_indices()
    reached = np.isfinite(geo)
    in_comp = reached[reached.sum(axis=1).argmax()]
    if not in_comp.all():
        n = int(in_comp.sum())
        if n < d + 2:
            raise DegenerateGraph(f"largest graph component has {n} < {d + 2} vertices")
        # one flat mask copies the block faster than indexing rows and columns
        geo = geo[np.outer(in_comp, in_comp)].reshape(n, n)
        kept = kept[in_comp]
    embedded = classical_mds(geo, d)
    return _placed(x, embedded.present_matrix(), kept)


def _top_eigpairs(b, d):
    """Top d eigenpairs of a double-centred Gram matrix, largest first;
    needs d < b.shape[0].

    Up to ``_DENSE_MAX`` points, one dense LAPACK solve (evr) of the
    top d eigenpairs, without ``eigh``'s finiteness pass (``classical_mds``
    has checked its input); above it, one Lanczos solve (ARPACK) from a
    fixed start vector, for reproducibility, which is centred: the constant
    vector lies in the kernel of a double-centred matrix, so it would leave
    Lanczos only rounding noise (exactly zero on exact inputs).  Either
    solver's failure raises EigensolverFailed.
    """
    m = b.shape[0]
    try:
        if m <= _DENSE_MAX:
            vals, vecs = eigh(
                b, subset_by_index=[m - d, m - 1], driver="evr", check_finite=False
            )
        else:
            v0 = np.random.default_rng(0).standard_normal(m)
            v0 -= v0.mean()
            vals, vecs = eigsh(b, k=d, which="LA", v0=v0)
    except (ArpackError, LinAlgError) as exc:
        raise EigensolverFailed(f"MDS eigensolver failed: {exc}") from None
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def classical_mds(dmat, d):
    """Embed a distance matrix by double centering and top eigenpairs.

    The matrix must be square, finite (else NonFinite) and symmetric within
    1e-8 times the larger of 1 and its largest magnitude.  Its squares must
    sum without overflow: entries above sqrt(largest float) / m are refused
    as NonFinite before anything is squared.  It is double-centred in two
    m x m buffers: the squares, centred in place, and the symmetry check's
    buffer, which then takes the symmetrised Gram matrix.  These checks
    make the Gram matrix finite, so the solve skips ``eigh``'s own
    finiteness pass.  The top d eigenpairs come from one solve
    (``_top_eigpairs``): dense LAPACK up to ``_DENSE_MAX`` points, Lanczos
    from a fixed, centred start vector above; it raises EigensolverFailed
    if it fails.
    Negative eigenvalues are clamped to zero, so coordinates past the rank
    of the Gram matrix are identically zero, and coincident points (a zero
    Gram matrix) embed at the origin without a solve.  The output
    configuration is centered at the origin and indexed 0..m-1.  Raises
    ValueError when d is not an integer or d < 1.
    """
    _check_value("d", d, int)
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    dmat = np.asarray(dmat, dtype=float)
    if dmat.ndim != 2 or dmat.shape[0] != dmat.shape[1]:
        raise NotSymmetric("distance matrix must be square")
    m = dmat.shape[0]
    if m < d + 1:
        raise TooFewPoints(f"MDS into {d} dimensions needs at least {d + 1} points")
    # a NaN propagates into both extremes, and an infinity into one of them
    top, bottom = float(dmat.max()), float(dmat.min())
    if not (np.isfinite(top) and np.isfinite(bottom)):
        raise NonFinite("distance matrix has a NaN or infinite entry")
    scale = max(1.0, top, -bottom)
    # the Gram matrix's grand mean sums m * m squares
    if scale > np.sqrt(np.finfo(float).max) / m:
        raise NonFinite(f"distance matrix entries up to {scale:.3g} overflow when squared")
    buf = np.subtract(dmat, dmat.T, out=np.empty((m, m)))
    np.abs(buf, out=buf)
    if buf.max() > 1e-8 * scale:
        raise NotSymmetric("distance matrix is not symmetric")

    # in the order -0.5 * (sq - row - col + mean), then 0.5 * (b + b.T)
    b = np.square(dmat)
    row = b.mean(axis=1, keepdims=True)
    col = b.mean(axis=0, keepdims=True)
    total = b.mean()
    b -= row
    b -= col
    b += total
    b *= -0.5
    b = np.add(b, b.T, out=buf)
    b *= 0.5
    if not b.any():
        # coincident points: a zero Gram matrix, on which Lanczos fails
        return Configuration(np.zeros((d, m)))

    vals, vecs = _top_eigpairs(b, d)
    vecs = vecs * _column_signs(vecs)
    vals = np.clip(vals, 0.0, None)
    # numerically-zero tail of the spectrum yields exactly-zero coordinates
    if vals.size and vals[0] > 0:
        vals[vals < 1e-12 * vals[0]] = 0.0
    coords = (vecs * np.sqrt(vals)).T
    coords = coords - coords.mean(axis=1, keepdims=True)
    return Configuration(coords)


def pca_embed(x, d):
    """Project the centered configuration onto its top d principal
    directions; the output keeps the input's indices and drops none.
    Raises ValueError when d is not an integer or d < 1."""
    _check_value("d", d, int)
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if x.n_present < d + 1:
        raise TooFewPoints(f"PCA into {d} dimensions needs at least {d + 1} points")
    if d > x.dim:
        raise TooFewPoints("target dimension exceeds ambient dimension")
    m = x.present_matrix()
    m = m - m.mean(axis=1, keepdims=True)
    u, _, _ = np.linalg.svd(m, full_matrices=False)
    u = u[:, :d] * _column_signs(u[:, :d])
    return _placed(x, u.T @ m, x.present_indices())
