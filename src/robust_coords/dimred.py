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
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path
from scipy.sparse.linalg import eigsh
from scipy.spatial.distance import pdist, squareform

from .core_types import Configuration
from .errors import DegenerateGraph, NotSymmetric, TooFewPoints
from .procrustes_pair import _column_signs

__all__ = [
    "EmbeddingParams",
    "EmbeddingOutput",
    "embed",
    "isomap",
    "classical_mds",
    "pca_embed",
]

_METHODS = ("isomap", "pca", "external")

# Above this size the double-centered Gram matrix is diagonalized by a
# Lanczos solver for the top eigenpairs instead of a full eigh.
_DENSE_EIG_LIMIT = 700


@dataclass(frozen=True)
class EmbeddingParams:
    """Method choice plus the knobs that control it.

    For ``isomap`` exactly one of ``epsilon`` (neighborhood radius) or
    ``knn`` (nearest-neighbor count, symmetrized by union) must be set.
    ``source`` points external-method params at a CSV of precomputed
    coordinates.
    """

    method: str
    target_dim: int
    epsilon: float | None = None
    knn: int | None = None
    seed: int = 0
    source: str | None = None

    def __post_init__(self):
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
        if self.method == "external" and self.source is None:
            raise ValueError("external method needs a source path")


@dataclass
class EmbeddingOutput:
    """An embedded configuration plus the input indices it excluded.

    ``subsample_index`` and ``params_index`` locate the output inside an
    ensemble; they stay None for standalone embeddings.
    """

    config: Configuration
    dropped: np.ndarray
    params: EmbeddingParams
    subsample_index: int | None = None
    params_index: int | None = None

    def __post_init__(self):
        self.dropped = np.asarray(self.dropped, dtype=int)


def embed(x, params, loader=None):
    """Dispatch on ``params.method``.

    ``loader`` supplies the reader used for external embeddings (a callable
    path -> Configuration); the CLI passes the CSV reader.
    """
    if params.method == "isomap":
        return isomap(x, params)
    if params.method == "pca":
        return pca_embed(x, params.target_dim, params=params)
    if loader is None:
        from .cli_io import read_points_csv as loader  # lazy: avoids cycle
    full = loader(params.source)
    if full.n_global < x.n_global:
        pad = np.zeros((full.dim, x.n_global))
        pad[:, : full.n_global] = full.coords
        mask = np.zeros(x.n_global, dtype=bool)
        mask[full.present_indices()] = True
        full = Configuration(pad, mask)
    keep = full.mask[: x.n_global].copy()
    keep &= x.mask
    config = Configuration(full.coords[:, : x.n_global], keep)
    dropped = np.flatnonzero(x.mask & ~keep)
    return EmbeddingOutput(config=config, dropped=dropped, params=params)


def _neighborhood_graph(dmat, params):
    """Boolean adjacency under the epsilon or union-kNN rule."""
    m = dmat.shape[0]
    if params.epsilon is not None:
        adj = dmat <= params.epsilon
    else:
        ell = min(params.knn, m - 1)
        order = np.argsort(dmat, axis=1, kind="stable")
        adj = np.zeros((m, m), dtype=bool)
        rows = np.repeat(np.arange(m), ell)
        # column 0 of the stable argsort is the point itself (distance 0)
        adj[rows, order[:, 1 : ell + 1].ravel()] = True
        adj |= adj.T
    np.fill_diagonal(adj, False)
    return adj


def isomap(x, params):
    """Geodesic embedding: neighborhood graph, shortest paths, then MDS.

    Edge weights are ambient distances.  Shortest paths are computed on the
    largest connected component only; the remaining input points come back
    in ``dropped``.  Raises DegenerateGraph when that component has fewer
    than target_dim + 2 vertices.
    """
    d = params.target_dim
    if x.n_present < d + 2:
        raise TooFewPoints(f"isomap needs at least {d + 2} points")
    points = x.present_matrix().T
    dmat = squareform(pdist(points))
    adj = _neighborhood_graph(dmat, params)

    graph = csr_matrix(np.where(adj, dmat, 0.0))
    n_comp, labels = connected_components(graph, directed=False)
    keep_label = np.bincount(labels).argmax()
    in_comp = labels == keep_label
    if in_comp.sum() < d + 2:
        raise DegenerateGraph(
            f"largest graph component has {int(in_comp.sum())} < {d + 2} vertices"
        )

    sub = graph[in_comp][:, in_comp]
    geo = shortest_path(sub, method="D", directed=False)
    embedded = classical_mds(geo, d)

    present = x.present_indices()
    kept_global = present[in_comp]
    coords = np.zeros((d, x.n_global))
    coords[:, kept_global] = embedded.present_matrix()
    mask = np.zeros(x.n_global, dtype=bool)
    mask[kept_global] = True
    return EmbeddingOutput(
        config=Configuration(coords, mask),
        dropped=present[~in_comp],
        params=params,
    )


def _top_eigpairs(b, d):
    m = b.shape[0]
    if m <= _DENSE_EIG_LIMIT:
        vals, vecs = np.linalg.eigh(b)
        vals = vals[::-1][:d]
        vecs = vecs[:, ::-1][:, :d]
    else:
        # fixed start vector keeps the Lanczos iteration reproducible
        v0 = np.full(m, 1.0 / np.sqrt(m))
        vals, vecs = eigsh(b, k=d, which="LA", v0=v0)
        order = np.argsort(vals)[::-1]
        vals = vals[order]
        vecs = vecs[:, order]
    return vals, vecs


def classical_mds(dmat, d):
    """Embed a distance matrix by double centering and top eigenpairs.

    Negative eigenvalues are clamped to zero, so coordinates past the rank
    of the Gram matrix are identically zero.  The output configuration is
    centered at the origin and indexed 0..m-1.
    """
    dmat = np.asarray(dmat, dtype=float)
    if dmat.ndim != 2 or dmat.shape[0] != dmat.shape[1]:
        raise NotSymmetric("distance matrix must be square")
    m = dmat.shape[0]
    if m < d + 1:
        raise TooFewPoints(f"MDS into {d} dimensions needs at least {d + 1} points")
    scale = max(1.0, float(np.abs(dmat).max()))
    if np.abs(dmat - dmat.T).max() > 1e-8 * scale:
        raise NotSymmetric("distance matrix is not symmetric")

    sq = dmat.astype(float) ** 2
    row = sq.mean(axis=1, keepdims=True)
    col = sq.mean(axis=0, keepdims=True)
    b = -0.5 * (sq - row - col + sq.mean())
    b = 0.5 * (b + b.T)

    vals, vecs = _top_eigpairs(b, d)
    vecs = vecs * _column_signs(vecs)
    vals = np.clip(vals, 0.0, None)
    # numerically-zero tail of the spectrum yields exactly-zero coordinates
    if vals.size and vals[0] > 0:
        vals[vals < 1e-12 * vals[0]] = 0.0
    coords = (vecs * np.sqrt(vals)).T
    coords = coords - coords.mean(axis=1, keepdims=True)
    return Configuration(coords)


def pca_embed(x, d, params=None):
    """Project the centered configuration onto its top principal directions."""
    if x.n_present < d + 1:
        raise TooFewPoints(f"PCA into {d} dimensions needs at least {d + 1} points")
    if d > x.dim:
        raise TooFewPoints("target dimension exceeds ambient dimension")
    m = x.present_matrix()
    m = m - m.mean(axis=1, keepdims=True)
    u, _, _ = np.linalg.svd(m, full_matrices=False)
    u = u[:, :d] * _column_signs(u[:, :d])
    coords = np.zeros((d, x.n_global))
    coords[:, x.present_indices()] = u.T @ m
    if params is None:
        params = EmbeddingParams(method="pca", target_dim=d)
    return EmbeddingOutput(
        config=Configuration(coords, x.mask.copy()),
        dropped=np.empty(0, dtype=int),
        params=params,
    )
