"""Vietoris-Rips persistent homology over prime fields, dimensions 0..2.

The filtration assigns each simplex the largest pairwise distance among its
vertices and orders the simplices of one dimension by that value, then
lexicographically by vertices; simplices beyond the radius cap are never
built, so features surviving the cap come out as infinite bars.  Nor is
anything built beyond the enclosing radius (the smallest row maximum of
the distance matrix), where the complex is a cone and the bars are final.

Dimension 0 comes from a union-find over the edges in filtration order.
Dimensions 1..max_dim come from persistent cohomology over F_p, for primes
with (p-1)^2 < 2^63 so that a product of two coefficients fits int64: the
coboundary columns of the q-simplices are reduced in reverse filtration
order, each column's pivot being its earliest cofacet, and the q-simplices
already paired one dimension down are skipped (clearing).  Cohomology reads
off the same persistence pairs as homology (de Silva, Morozov &
Vejdemo-Johansson, "Dualities in persistent (co)homology", 2011), and on
Rips filtrations most columns need no addition at all (Bauer, "Ripser",
J. Appl. Comput. Topol. 2021).

Every simplex, built or not, is keyed by one integer: the dense rank of
its diameter among the distinct distances, times m^(q+1) for a
q-simplex on m points, plus the base-m code of its sorted vertices.  Keys
ascend in filtration order (value, then lexicographic vertices), and a
value is read back as the distance of its key's rank.  Only dimensions
0..max_dim are built, and the edges always are, for H0.  The cofacets of
the top dimension, max_dim + 1, stay implicit, as in Ripser: a death is
read off its pivot's key.  The simplex budget still counts the top
dimension, chunk by chunk, without storing it.

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
from .errors import NonFinite, NotSymmetric, TooManySimplices

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
    if (p - 1) ** 2 >= 2**63:
        raise ValueError(f"{p} is too large: (p-1)^2 must stay below 2^63")
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


def _build_simplices(ranks, reach, max_dim, max_simplices):
    """Rips simplices of dimension 0 .. max(max_dim, 1) within reach, per dimension.

    ``ranks`` holds the dense rank of each distance among the distinct
    ones, and two vertices span an edge when their rank is below
    ``reach``.  A simplex's rank is the largest among its edges.  Each
    dimension q is ``(verts, keys)``, sorted by the filtration key ``rank *
    m**(q+1) + code``, where ``code`` is the base-m number spelled by the
    sorted vertices of the row.  A q-simplex is a (q-1)-simplex extended by
    a common neighbour above its last vertex.  Also returns the adjacency
    matrix.

    The edges are always stored, for H0.  At max_dim 1 or 2 the
    (max_dim+1)-simplices are only counted against ``max_simplices``,
    chunk by chunk as if built.
    """
    m = ranks.shape[0]
    adj = ranks < reach
    np.fill_diagonal(adj, False)
    above = np.arange(m)
    verts, keys = np.arange(m, dtype=np.int64)[:, None], np.arange(m, dtype=np.int64)
    out = {0: (verts, keys)}
    total = m
    for q in range(1, max_dim + 2):
        store = q <= max(max_dim, 1)
        own = keys // m**q
        new_v, new_r = [np.empty((0, q + 1), dtype=np.int64)], [np.empty(0, dtype=np.int64)]
        for part in _chunks(len(verts), m):
            v = verts[part]
            new = _common_neighbours(adj, v) & (above > v[:, -1:])
            if store:
                rows, ws = np.nonzero(new)
                new_v.append(np.column_stack([v[rows], ws]))
                new_r.append(np.maximum(own[part][rows], ranks[v[rows], ws[:, None]].max(axis=1)))
            # checked per chunk, so the budget also bounds the memory spent
            total += np.count_nonzero(new)
            if total > max_simplices:
                raise TooManySimplices(
                    f"at least {total} simplices exceed budget {max_simplices}"
                )
        if not store:
            break
        verts = np.concatenate(new_v)
        keys = np.concatenate(new_r) * m ** (q + 1)
        keys += verts @ m ** np.arange(q, -1, -1, dtype=np.int64)
        order = np.argsort(keys)
        verts, keys = verts[order], keys[order]
        out[q] = (verts, keys)
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


def _coboundary_reduce(simplices, adj, ranks, q, p, cleared):
    """Reduce the coboundary columns of the q-simplices over F_p.

    The (q+1)-simplices are never built.  A column's entries are the
    cofacets ``v + w`` for the common neighbours w of the simplex v, each
    under its filtration key ``rank * m**(q+2) + code``, as the built
    simplices are: ``rank`` is the largest of the simplex's own rank, read
    off its key, and the ranks (``ranks``) of the distances from w to v.

    Columns run in reverse filtration order and skip ``cleared`` (the
    q-simplices paired one dimension down).  A column's pivot is its
    earliest cofacet, the smallest key.  Columns are computed chunk by
    chunk; each pivot's column is kept as its slice (bounds) of its chunk's
    arrays, or as its reduced entries when it needed an addition, so no
    coboundary is computed twice.  Returns (pairs: list of (column, pivot key),
    columns that reduce to zero).
    """
    verts = simplices[q][0]
    m = adj.shape[0]
    own = simplices[q][1] // m ** (q + 1)
    flat_ranks = ranks.ravel()
    powers = m ** np.arange(q + 1, -1, -1, dtype=np.int64)
    scale = m * powers[0]
    sign = np.array([1, p - 1], dtype=np.int8 if p < 128 else np.int64)

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
                owners[pivot] = (*column, pow(val, p - 2, p))
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

    The matrix must be finite (else NonFinite), non-negative and symmetric
    within 1e-9 times the larger of 1 and its largest entry.  Above
    ``landmark_budget`` points it is first cut to its maxmin landmarks, and
    it is then read from its upper triangle.  Simplices of dimension
    0..max(max_dim, 1) are built up to the smaller of ``max_radius`` (if
    passed, positive; by default half the largest distance, 0 for one or
    coincident points) and the enclosing radius; the edges always are, for
    H0.  Each is keyed by the rank of its diameter among the distinct
    distances, times m^(q+1), plus its vertex code, and every value is read
    back through that rank.  At max_dim 1 or 2 the
    (max_dim+1)-simplices are only counted, but count towards
    ``max_simplices`` as if built: TooManySimplices is raised where
    building them would pass the budget, and also when their keys (times p
    in the reduction) would overflow int64.  The prime p must satisfy
    (p-1)^2 < 2^63, ``landmark_budget`` must be at least 1 and the matrix
    must not be empty, else ValueError.
    """
    _check_prime(p)
    if not 0 <= max_dim <= 2:
        raise ValueError("max_dim must be 0, 1, or 2")
    if landmark_budget < 1:
        raise ValueError(f"landmark_budget must be >= 1, got {landmark_budget}")
    if max_radius is not None and not max_radius > 0:
        raise ValueError("max_radius must be positive")
    dmat = np.asarray(dmat, dtype=float)
    if dmat.ndim != 2 or dmat.shape[0] != dmat.shape[1]:
        raise NotSymmetric("distance matrix must be square")
    if dmat.shape[0] < 1:
        raise ValueError("need at least one point")
    if not np.isfinite(dmat).all():
        raise NonFinite("distance matrix has a NaN or infinite entry")
    if (dmat < 0).any():
        raise ValueError("distance matrix has a negative entry")
    if np.abs(dmat - dmat.T).max() > 1e-9 * max(1.0, dmat.max()):
        raise NotSymmetric("distance matrix is not symmetric")

    if dmat.shape[0] > landmark_budget:
        keep = maxmin_landmarks(dmat, landmark_budget)
        dmat = dmat[np.ix_(keep, keep)]
    # the build reads each distance above the diagonal and the coboundaries
    # read both halves, so the half below is made to match
    dmat = np.triu(dmat) + np.triu(dmat, 1).T
    if max_radius is None:
        max_radius = 0.5 * float(dmat.max())

    # Above the enclosing radius, the smallest row maximum, every Rips
    # complex is a cone on that row's point: no bar is born or dies there,
    # so the build stops at it.  The diagram keeps the requested radius.
    build_radius = dmat.max(axis=1, initial=0.0).min(initial=max_radius)
    m = dmat.shape[0]
    # raveled first, so that the inverse is flat under every numpy version
    values, ranks = np.unique(dmat.ravel(), return_inverse=True)
    ranks = ranks.reshape(m, m)
    # a key of dimension q is below (ranks up to the build radius) * m^(q+1),
    # and the reduction's heap entries are keys * p + coefficient
    reach = int(np.searchsorted(values, build_radius, side="right"))
    if max_dim and reach * m ** (max_dim + 2) * p > 2**63:
        raise TooManySimplices(
            f"{m} points with {reach} distinct distances overflow the int64 "
            f"filtration keys of dimension {max_dim + 1}; use fewer landmarks"
        )
    simplices, adj = _build_simplices(ranks, reach, max_dim, max_simplices)
    edge_f = values[simplices[1][1] // m**2]
    cleared = _h0_death_edges(simplices[1][0], m)
    bars = {0: [(0.0, edge_f[e]) for e in cleared if edge_f[e] > 0]}
    bars[0] += [(0.0, np.inf)] * (m - len(cleared))
    for q in range(1, max_dim + 1):
        pairs, zeros = _coboundary_reduce(simplices, adj, ranks, q, p, cleared)
        js, pivots = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        filts = values[simplices[q][1] // m ** (q + 1)]
        births, deaths = filts[js], values[pivots // m ** (q + 2)]
        alive = deaths > births
        bars[q] = list(zip(births[alive].tolist(), deaths[alive].tolist()))
        bars[q] += [(b, np.inf) for b in filts[zeros].tolist()]
        if q < max_dim:
            # clearing: the pivots are keys of built (q+1)-simplices
            cleared = np.searchsorted(simplices[q + 1][1], pivots)

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
    """Rips persistence of a point set (Configuration or row array); the
    other arguments are those of ``rips_from_distances``."""
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
