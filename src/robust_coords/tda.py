"""Vietoris-Rips persistent homology over prime fields, dimensions 0..2.

The filtration assigns each simplex the largest pairwise distance among its
vertices and orders the simplices of one dimension by that value, then
lexicographically by vertices; simplices beyond the radius cap are never
built, so features surviving the cap come out as infinite bars.  Nor is
anything built beyond the enclosing radius (the smallest row maximum of
the distance matrix), where the complex is a cone and the bars are final.

Dimension 0 comes from a union-find over the edges in filtration order.
Dimensions 1..max_dim come from persistent cohomology over F_p: the
coboundary columns of the q-simplices are reduced in reverse filtration
order, each column's pivot being its earliest cofacet, and the q-simplices
already paired one dimension down are skipped (clearing).  Cohomology reads
off the same persistence pairs as homology (de Silva, Morozov &
Vejdemo-Johansson, "Dualities in persistent (co)homology", 2011), and on
Rips filtrations most columns need no addition at all (Bauer, "Ripser",
J. Appl. Comput. Topol. 2021).

Only dimensions 0..max_dim are built.  The cofacets of the top dimension,
max_dim + 1, stay implicit, as in Ripser: each is keyed by the rank of its
diameter among the distinct distances, times m^(max_dim+2), plus the
base-m code of its vertices, so that keys ascend in filtration order
(value, then lexicographic vertices) and a death is read off its pivot's
key.  The simplex budget still counts the top dimension, chunk by chunk,
without storing it.

Point sets larger than the landmark budget are first thinned by farthest-
point (maxmin) sampling, which is deterministic: it starts from the most
eccentric point and breaks ties by index.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .core_types import Configuration
from .errors import NotSymmetric, TooManySimplices

__all__ = [
    "PersistenceDiagram",
    "rips_persistence",
    "rips_from_distances",
    "max_bar_length",
    "maxmin_landmarks",
]

DEFAULT_LANDMARK_BUDGET = 150
DEFAULT_MAX_SIMPLICES = 10_000_000
_CHUNK = 1 << 16  # entries of one (simplices x vertices) neighbour mask


@dataclass(frozen=True)
class PersistenceDiagram:
    """Birth/death bars per homology dimension over one prime field.

    ``bars[q]`` is a (b, 2) float array sorted by (birth, death); deaths
    beyond the filtration cap are ``inf``.  Dimension 0 carries one
    infinite bar per connected component at the cap.
    """

    prime: int
    max_radius: float
    bars: dict

    def dims(self):
        return sorted(self.bars)


def _check_prime(p):
    if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        raise ValueError(f"{p} is not prime")


def maxmin_landmarks(dmat, count):
    """Greedy farthest-point subset of a distance matrix, sorted by index.

    Starts at the point with the largest total distance to the rest (most
    eccentric; ties broken by lowest index), then repeatedly adds the point
    farthest from the chosen set.
    """
    m = dmat.shape[0]
    count = min(count, m)
    start = int(dmat.sum(axis=1).argmax())
    chosen = [start]
    closest = dmat[start].copy()
    while len(chosen) < count:
        nxt = int(closest.argmax())
        chosen.append(nxt)
        np.minimum(closest, dmat[nxt], out=closest)
    return np.sort(np.asarray(chosen))


def _common_neighbours(adj, verts):
    """Mask (simplices x vertices): vertex w is adjacent to every vertex of the row."""
    common = adj[verts[:, 0]]
    for c in range(1, verts.shape[1]):
        common = common & adj[verts[:, c]]
    return common


def _chunks(n, m):
    """Slices of range(n) whose (slice x m) neighbour masks hold about _CHUNK entries."""
    step = max(1, _CHUNK // max(m, 1))
    return (slice(lo, lo + step) for lo in range(0, n, step))


def _build_simplices(dmat, max_dim, max_radius, max_simplices, *, build_top=True):
    """Rips simplices of dimension 0 .. max_dim+1 up to max_radius, per dimension.

    A simplex's filtration value is its largest pairwise vertex distance.
    Each dimension is ``(verts, filts, ranks)``: vertex rows and values in
    filtration order (value, then lexicographic vertices), and for the i-th
    simplex in lexicographic order its filtration rank.  A q-simplex is a
    (q-1)-simplex extended by a common neighbour above its last vertex;
    extending in lexicographic order keeps that order.  Also returns the
    adjacency matrix at max_radius.

    Without ``build_top`` the (max_dim+1)-simplices are counted against
    ``max_simplices``, chunk by chunk as if built, but not stored.
    """
    m = dmat.shape[0]
    adj = dmat <= max_radius
    np.fill_diagonal(adj, False)
    above = np.arange(m)
    lex_v, lex_f = np.arange(m, dtype=np.int64)[:, None], np.zeros(m)
    out = {0: (lex_v, lex_f, np.arange(m))}
    total = m
    for q in range(1, max_dim + 2):
        store = build_top or q <= max_dim
        new_v, new_f = [np.empty((0, q + 1), dtype=np.int64)], [np.empty(0)]
        for part in _chunks(len(lex_v), m):
            v = lex_v[part]
            new = _common_neighbours(adj, v) & (above > v[:, -1:])
            if store:
                rows, ws = np.nonzero(new)
                new_v.append(np.column_stack([v[rows], ws]))
                new_f.append(np.maximum(lex_f[part][rows], dmat[v[rows], ws[:, None]].max(axis=1)))
            # checked per chunk, so the budget also bounds the memory spent
            total += np.count_nonzero(new)
            if total > max_simplices:
                raise TooManySimplices(
                    f"at least {total} simplices exceed budget {max_simplices}"
                )
        if not store:
            break
        lex_v, lex_f = np.concatenate(new_v), np.concatenate(new_f)
        order = np.argsort(lex_f, kind="stable")
        ranks = np.empty_like(order)
        ranks[order] = np.arange(len(order))
        out[q] = (lex_v[order], lex_f[order], ranks)
    return out, adj


def _h0_death_edges(edges, m):
    """Edges, by filtration rank, that merge two components (union-find)."""
    parent = list(range(m))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    deaths = []
    for e, (u, v) in enumerate(zip(edges[:, 0].tolist(), edges[:, 1].tolist())):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
            deaths.append(e)
            if len(deaths) == m - 1:
                break
    return deaths


def _heap_pivot(column, p):
    """Pivot (key, coefficient) of a heap column of entries ``key * p +
    coefficient``, popping entries that cancel."""
    while column:
        key, val = divmod(heapq.heappop(column), p)
        while column and column[0] // p == key:
            val += heapq.heappop(column) % p
        if val % p:
            heapq.heappush(column, key * p + val % p)
            return key, val % p
    return None, 0


def _summed(rows, vals, p):
    """Sorted column with the coefficients of repeated rows summed mod p, zeros dropped."""
    order = np.argsort(rows, kind="stable")
    rows, vals = rows[order], vals[order]
    first = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    rows, vals = rows[first], np.add.reduceat(vals, first) % p
    return rows[vals != 0], vals[vals != 0]


def _coboundary_reduce(simplices, adj, values, ranks, q, p, cleared):
    """Reduce the coboundary columns of the q-simplices over F_p.

    The (q+1)-simplices are never built.  A column's entries are the
    cofacets ``v + w`` for the common neighbours w of the simplex v, each
    keyed ``rank * m**(q+2) + code``: ``rank`` is the dense rank of the
    cofacet's diameter among the distinct entries ``values`` of the
    distance matrix (``ranks`` holds each entry's rank) and ``code`` the
    base-m number spelled by its sorted vertices.  Keys therefore ascend in
    filtration order, value first and then lexicographic vertices, as the
    built simplices do.

    Columns run in reverse filtration order and skip ``cleared`` (the
    q-simplices paired one dimension down).  A column's pivot is its
    earliest cofacet, the smallest key.  Columns are computed chunk by
    chunk; each pivot's column is kept as its slice (bounds) of its chunk's
    arrays, or as its reduced entries when it needed an addition, so no
    coboundary is computed twice.  Returns (pairs: list of (column, pivot key),
    columns that reduce to zero).
    """
    verts = simplices[q][0]
    own = np.searchsorted(values, simplices[q][1])
    flat_ranks = ranks.ravel()
    m = adj.shape[0]
    powers = m ** np.arange(q + 1, -1, -1, dtype=np.int64)
    scale = m * powers[0]
    sign = np.array([1, p - 1], dtype=np.int8 if p < 128 else np.int64)
    inverse = [0] + [pow(a, p - 2, p) for a in range(1, p)]

    def coboundaries(js):
        """Keys and coefficients of the columns js, grouped by column, with
        each column's bounds and pivot (key, coefficient); pivot -1 marks an
        empty column.  Entries are gathered by flat ``take``, which is much
        faster than 2-d fancy indexing."""
        v = verts[js]
        col, ws = np.nonzero(_common_neighbours(adj, v))
        rank, t = own[js].take(col), 0
        for c in range(q + 1):
            vc = v[:, c].take(col)
            np.maximum(rank, flat_ranks.take(vc * m + ws), out=rank)
            t = t + (vc < ws)
        # w enters the cofacet at position t: vertices before it keep their
        # place value in the code, vertices after it drop one place
        zero = np.zeros((len(v), 1), dtype=np.int64)
        before = np.cumsum(np.hstack([zero, v * powers[:-1]]), axis=1)
        after = np.cumsum(np.hstack([v * powers[1:], zero])[:, ::-1], axis=1)[:, ::-1]
        code = (before + after).ravel().take(col * (q + 2) + t) + ws * powers.take(t)
        keys = rank * scale + code
        # [cofacet : simplex] = (-1)^t
        vals = sign.take(t & 1)
        bounds = np.searchsorted(col, np.arange(len(js) + 1))
        lo = bounds[:-1]
        full = bounds[1:] > lo
        pivots = np.full(len(js), -1, dtype=np.int64)
        pivot_vals = np.zeros(len(js), dtype=np.int64)
        if keys.size:
            pivots[full] = np.minimum.reduceat(keys, lo[full])
            pivot_vals[full] = vals[keys == np.repeat(pivots, np.diff(bounds))]
        return keys, vals, bounds, pivots, pivot_vals

    owners = {}  # pivot key -> (keys, coefficients, lo, hi, inverse of pivot coefficient)
    pairs, zeros = [], []
    todo = np.ones(len(verts), dtype=bool)
    todo[cleared] = False
    todo = np.flatnonzero(todo)[::-1]
    for part in _chunks(len(todo), m):
        keys, vals, bounds, pivots, pivot_vals = coboundaries(todo[part])
        for j, lo, hi, pivot, val in zip(
            todo[part].tolist(), bounds[:-1].tolist(), bounds[1:].tolist(),
            pivots.tolist(), pivot_vals.tolist(),
        ):
            column = (keys, vals, lo, hi)
            if pivot in owners:
                # entries ``key * p + coefficient``, whose order is the keys';
                # the entries of one key are summed lazily as they reach the top
                heap = [k * p + x for k, x in zip(keys[lo:hi].tolist(), vals[lo:hi].tolist())]
                heapq.heapify(heap)
                while pivot in owners:
                    okeys, ovals, olo, ohi, inv = owners[pivot]
                    factor = p - val * inv % p
                    added = okeys[olo:ohi] * p + ovals[olo:ohi].astype(np.int64) * factor % p
                    for entry in added.tolist():
                        heapq.heappush(heap, entry)
                    pivot, val = _heap_pivot(heap, p)
                if pivot is not None:
                    heap = np.array(heap, dtype=np.int64)
                    column = (*_summed(heap // p, heap % p, p), 0, None)
            if pivot is None or pivot < 0:
                zeros.append(j)
            else:
                owners[pivot] = (*column, inverse[val])
                pairs.append((j, pivot))
    return pairs, zeros


def rips_from_distances(
    dmat,
    max_dim=1,
    p=2,
    max_radius=None,
    landmark_budget=DEFAULT_LANDMARK_BUDGET,
    max_simplices=DEFAULT_MAX_SIMPLICES,
):
    """Rips persistence of a finite metric space given as a distance matrix.

    The matrix must be symmetric within 1e-9 times the larger of 1 and its
    largest entry.  Above ``landmark_budget`` points it is first cut to its
    maxmin landmarks, and it is then read from its upper triangle.
    Simplices of dimension 0..max_dim
    are built up to the smaller of ``max_radius`` (default: half the
    largest distance) and the enclosing radius.  The (max_dim+1)-simplices
    are only counted, but count towards ``max_simplices`` as if built:
    TooManySimplices is raised where building them would pass the budget,
    and also when their filtration keys (distance rank times m^(max_dim+2)
    plus vertex code, times p in the reduction) would overflow int64.
    """
    _check_prime(p)
    if not 0 <= max_dim <= 2:
        raise ValueError("max_dim must be 0, 1, or 2")
    dmat = np.asarray(dmat, dtype=float)
    if dmat.ndim != 2 or dmat.shape[0] != dmat.shape[1]:
        raise NotSymmetric("distance matrix must be square")
    if dmat.size and np.abs(dmat - dmat.T).max() > 1e-9 * max(1.0, dmat.max()):
        raise NotSymmetric("distance matrix is not symmetric")

    if dmat.shape[0] > landmark_budget:
        keep = maxmin_landmarks(dmat, landmark_budget)
        dmat = dmat[np.ix_(keep, keep)]
    # the build reads each distance above the diagonal and the coboundaries
    # read both halves, so the half below is made to match
    dmat = np.triu(dmat) + np.triu(dmat, 1).T
    if max_radius is None:
        max_radius = 0.5 * float(dmat.max())
    if not max_radius > 0:
        raise ValueError("max_radius must be positive")

    # Above the enclosing radius, the smallest row maximum, every Rips
    # complex is a cone on that row's point: no bar is born or dies there,
    # so the build stops at it.  The diagram keeps the requested radius.
    build_radius = dmat.max(axis=1, initial=0.0).min(initial=max_radius)
    m = dmat.shape[0]
    # raveled first, so that the inverse is flat under every numpy version
    values, ranks = np.unique(dmat.ravel(), return_inverse=True)
    ranks = ranks.reshape(m, m)
    # a key of dimension q is below (ranks up to the build radius) * m^(q+2),
    # and the reduction's heap entries are keys * p + coefficient
    reach = int(np.searchsorted(values, build_radius, side="right"))
    if max_dim and reach * m ** (max_dim + 2) * p > 2**63:
        raise TooManySimplices(
            f"{m} points with {reach} distinct distances overflow the int64 "
            f"filtration keys of dimension {max_dim + 1}; use fewer landmarks"
        )
    simplices, adj = _build_simplices(
        dmat, max_dim, build_radius, max_simplices, build_top=max_dim == 0
    )
    edge_f = simplices[1][1]
    cleared = _h0_death_edges(simplices[1][0], m)
    bars = {0: [(0.0, edge_f[e]) for e in cleared if edge_f[e] > 0]}
    bars[0] += [(0.0, np.inf)] * (m - len(cleared))
    for q in range(1, max_dim + 1):
        pairs, zeros = _coboundary_reduce(simplices, adj, values, ranks, q, p, cleared)
        js, pivots = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        births, deaths = simplices[q][1][js], values[pivots // m ** (q + 2)]
        alive = deaths > births
        bars[q] = list(zip(births[alive].tolist(), deaths[alive].tolist()))
        bars[q] += [(b, np.inf) for b in simplices[q][1][zeros].tolist()]
        if q < max_dim:
            # clearing: the pivots are keys of the built (q+1)-simplices,
            # whose keys ascend in their filtration order
            verts, filts, _ = simplices[q + 1]
            keys = np.searchsorted(values, filts) * m ** (q + 2)
            keys += verts @ m ** np.arange(q + 1, -1, -1, dtype=np.int64)
            cleared = np.searchsorted(keys, pivots)

    packed = {}
    for q, entries in bars.items():
        arr = np.asarray(sorted(entries), dtype=float).reshape(-1, 2)
        packed[q] = arr
    return PersistenceDiagram(prime=p, max_radius=float(max_radius), bars=packed)


def rips_persistence(
    points,
    max_dim=1,
    p=2,
    max_radius=None,
    landmark_budget=DEFAULT_LANDMARK_BUDGET,
    max_simplices=DEFAULT_MAX_SIMPLICES,
):
    """Rips persistence of a point set (Configuration or row array)."""
    if isinstance(points, Configuration):
        rows = points.present_matrix().T
    else:
        rows = np.asarray(points, dtype=float)
        if rows.ndim != 2:
            raise ValueError("points must be a 2-d row array")
    if rows.shape[0] < 1:
        raise ValueError("need at least one point")
    dmat = squareform(pdist(rows))
    return rips_from_distances(
        dmat,
        max_dim=max_dim,
        p=p,
        max_radius=max_radius,
        landmark_budget=landmark_budget,
        max_simplices=max_simplices,
    )


def max_bar_length(diagram, q):
    """Largest death - birth among the finite bars in dimension q.

    Infinite bars are excluded; returns 0.0 when no finite bar exists.
    """
    if q not in (0, 1, 2):
        raise ValueError("q must be 0, 1, or 2")
    arr = diagram.bars.get(q)
    if arr is None or arr.size == 0:
        return 0.0
    lengths = arr[:, 1] - arr[:, 0]
    finite = lengths[np.isfinite(lengths)]
    return float(finite.max()) if finite.size else 0.0
