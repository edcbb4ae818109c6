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


def _build_simplices(dmat, max_dim, max_radius, max_simplices):
    """Rips simplices of dimension 0 .. max_dim+1 up to max_radius, per dimension.

    A simplex's filtration value is its largest pairwise vertex distance.
    Each dimension is ``(verts, filts, ranks)``: vertex rows and values in
    filtration order (value, then lexicographic vertices), and for the i-th
    simplex in lexicographic order its filtration rank.  A q-simplex is a
    (q-1)-simplex extended by a common neighbour above its last vertex;
    extending in lexicographic order keeps that order.  Also returns the
    adjacency matrix at max_radius.
    """
    m = dmat.shape[0]
    adj = dmat <= max_radius
    np.fill_diagonal(adj, False)
    above = np.arange(m)
    lex_v, lex_f = np.arange(m, dtype=np.int64)[:, None], np.zeros(m)
    out = {0: (lex_v, lex_f, np.arange(m))}
    total = m
    for q in range(1, max_dim + 2):
        new_v, new_f = [np.empty((0, q + 1), dtype=np.int64)], [np.empty(0)]
        for part in _chunks(len(lex_v), m):
            v = lex_v[part]
            rows, ws = np.nonzero(_common_neighbours(adj, v) & (above > v[:, -1:]))
            new_v.append(np.column_stack([v[rows], ws]))
            new_f.append(np.maximum(lex_f[part][rows], dmat[v[rows], ws[:, None]].max(axis=1)))
            # checked per chunk, so the budget also bounds the memory spent
            total += len(ws)
            if total > max_simplices:
                raise TooManySimplices(
                    f"at least {total} simplices exceed budget {max_simplices}"
                )
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
    """Pivot (row, coefficient) of a heap column, popping entries that cancel."""
    while column:
        row, val = heapq.heappop(column)
        while column and column[0][0] == row:
            val += heapq.heappop(column)[1]
        if val % p:
            heapq.heappush(column, (row, val % p))
            return row, val % p
    return None, 0


def _summed(rows, vals, p):
    """Sorted column with the coefficients of repeated rows summed mod p, zeros dropped."""
    order = np.argsort(rows, kind="stable")
    rows, vals = rows[order], vals[order]
    first = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    rows, vals = rows[first], np.add.reduceat(vals, first) % p
    return rows[vals != 0], vals[vals != 0]


def _coboundary_reduce(simplices, adj, q, p, cleared):
    """Reduce the coboundary columns of the q-simplices over F_p.

    Columns run in reverse filtration order and skip ``cleared`` (the
    q-simplices paired one dimension down).  A column's pivot is its
    earliest cofacet.  Returns (pairs: list of (column, pivot), columns
    that reduce to zero).  A pivot's reduced column is kept only when it
    needed an addition; otherwise its coboundary is recomputed on demand.
    """
    verts = simplices[q][0]
    m = adj.shape[0]
    powers = m ** np.arange(q + 1, -1, -1, dtype=np.int64)
    cofacet_verts, _, by_code = simplices[q + 1]
    codes = cofacet_verts[by_code] @ powers  # ascending: lexicographic order

    def coboundaries(js):
        """Entries (cofacet rank, coefficient) of the columns js, grouped by column."""
        v = verts[js]
        col, ws = np.nonzero(_common_neighbours(adj, v))
        # w enters the cofacet at position t: vertices before it keep their
        # place value in the code, vertices after it drop one place
        t = (v[:, :, None] < np.arange(m)).sum(axis=1)[col, ws]
        zero = np.zeros((len(v), 1), dtype=np.int64)
        before = np.cumsum(np.hstack([zero, v * powers[:-1]]), axis=1)
        after = np.cumsum(np.hstack([v * powers[1:], zero])[:, ::-1], axis=1)[:, ::-1]
        rows = by_code[np.searchsorted(codes, (before + after)[col, t] + ws * powers[t])]
        # [cofacet : simplex] = (-1)^t
        return rows, np.where(t % 2, p - 1, 1), np.searchsorted(col, np.arange(len(js) + 1))

    owners = {}
    pairs, zeros = [], []
    todo = np.ones(len(verts), dtype=bool)
    todo[cleared] = False
    todo = np.flatnonzero(todo)[::-1]
    for part in _chunks(len(todo), m):
        rows, vals, bounds = coboundaries(todo[part])
        for j, lo, hi in zip(todo[part].tolist(), bounds[:-1].tolist(), bounds[1:].tolist()):
            pivot, val, reduced = None, 0, None
            if hi > lo:
                k = lo + int(rows[lo:hi].argmin())
                pivot, val = int(rows[k]), int(vals[k])
            if pivot in owners:
                # entries of one row are summed lazily as they reach the top
                column = list(zip(rows[lo:hi].tolist(), vals[lo:hi].tolist()))
                heapq.heapify(column)
                while pivot in owners:
                    other, stored, inv = owners[pivot]
                    orows, ovals = stored if stored is not None else coboundaries([other])[:2]
                    for entry in zip(orows.tolist(), (ovals * (p - val * inv % p) % p).tolist()):
                        heapq.heappush(column, entry)
                    pivot, val = _heap_pivot(column, p)
                if pivot is not None:
                    reduced = _summed(*np.array(column, dtype=np.int64).T, p)
            if pivot is None:
                zeros.append(j)
            else:
                owners[pivot] = (j, reduced, pow(val, p - 2, p))
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
    """Rips persistence of a finite metric space given as a distance matrix."""
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
    if max_radius is None:
        max_radius = 0.5 * float(dmat.max())
    if not max_radius > 0:
        raise ValueError("max_radius must be positive")

    # Above the enclosing radius, the smallest row maximum, every Rips
    # complex is a cone on that row's point: no bar is born or dies there,
    # so the build stops at it.  The diagram keeps the requested radius.
    build_radius = dmat.max(axis=1, initial=0.0).min(initial=max_radius)
    simplices, adj = _build_simplices(dmat, max_dim, build_radius, max_simplices)
    m = dmat.shape[0]
    edge_f = simplices[1][1]
    cleared = _h0_death_edges(simplices[1][0], m)
    bars = {0: [(0.0, edge_f[e]) for e in cleared if edge_f[e] > 0]}
    bars[0] += [(0.0, np.inf)] * (m - len(cleared))
    for q in range(1, max_dim + 1):
        pairs, zeros = _coboundary_reduce(simplices, adj, q, p, cleared)
        births, deaths = simplices[q][1], simplices[q + 1][1]
        bars[q] = [(births[j], deaths[t]) for j, t in pairs if deaths[t] > births[j]]
        bars[q] += [(births[j], np.inf) for j in zeros]
        cleared = [t for _, t in pairs]

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
