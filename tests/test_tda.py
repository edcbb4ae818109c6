import heapq
import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from robust_coords import dimred, ensemble, synth, tda
from robust_coords.errors import NonFinite, NotSymmetric, TooManySimplices
from robust_coords.tda import (
    DEFAULT_LANDMARK_BUDGET,
    DEFAULT_MAX_SIMPLICES,
    _build_simplices,
    _chunks,
    _common_neighbours,
    _h0_death_edges,
    _heap_pivot,
    _summed,
    max_bar_length,
    maxmin_landmarks,
    rips_from_distances,
    rips_persistence,
)


# ------------------------------------------------------------ oracle
# Plain global boundary-matrix reduction, no clearing, no per-dimension
# blocks, dense columns: an independent check for small point sets.


def oracle_rips(dmat, max_dim, p, max_radius):
    m = dmat.shape[0]
    simplices = [((v,), 0.0) for v in range(m)]
    for q in range(1, max_dim + 2):
        for verts in itertools.combinations(range(m), q + 1):
            filt = max(dmat[a][b] for a, b in itertools.combinations(verts, 2))
            if filt <= max_radius:
                simplices.append((verts, filt))
    simplices.sort(key=lambda s: (s[1], len(s[0]), s[0]))
    index = {s[0]: i for i, s in enumerate(simplices)}
    n = len(simplices)
    cols = []
    for verts, _ in simplices:
        col = {}
        if len(verts) > 1:
            for t in range(len(verts)):
                facet = verts[:t] + verts[t + 1 :]
                col[index[facet]] = 1 if t % 2 == 0 else p - 1
        cols.append(col)
    lows = {}
    for j in range(n):
        col = cols[j]
        while col:
            low = max(col)
            if low not in lows:
                lows[low] = j
                break
            other = cols[lows[low]]
            factor = (col[low] * pow(other[low], p - 2, p)) % p
            for r, v in other.items():
                nv = (col.get(r, 0) - factor * v) % p
                if nv:
                    col[r] = nv
                elif r in col:
                    del col[r]
    bars = {q: [] for q in range(max_dim + 1)}
    for low, j in lows.items():
        birth, death = simplices[low][1], simplices[j][1]
        q = len(simplices[low][0]) - 1
        if q <= max_dim and death > birth:
            bars[q].append((birth, death))
    for j in range(n):
        if cols[j]:
            continue
        if j in lows:
            continue
        q = len(simplices[j][0]) - 1
        if q <= max_dim:
            bars[q].append((simplices[j][1], np.inf))
    return {q: np.asarray(sorted(v), dtype=float).reshape(-1, 2) for q, v in bars.items()}


# ------------------------------------------------------ block reducer oracle
# The boundary-matrix reducer that rips_from_distances used before its
# cohomology reducer: one dimension block at a time from the top down, each
# block clearing the columns paired in the block above.  Both read the same
# persistence pairs, so their bars must agree exactly.


def _reduce_block(col_verts, row_verts, m, p, skip_cols):
    """Column-reduce one boundary block over F_p.

    Columns are dim-q simplices in filtration order; rows index the sorted
    dim-(q-1) simplices.  ``skip_cols`` marks columns cleared by the block
    above.  Returns (pairs: row -> column, zero_columns: list).
    """
    row_of = {}
    for t, verts in enumerate(row_verts.tolist()):
        code = 0
        for v in verts:
            code = code * m + v
        row_of[code] = t

    pivots = {}
    pairs = {}
    zeros = []
    width = col_verts.shape[1]
    col_list = col_verts.tolist()
    push = heapq.heappush
    pop = heapq.heappop
    if p == 2:
        # F2 columns are plain row sets; addition is symmetric difference.
        for c in range(len(col_list)):
            if c in skip_cols:
                continue
            verts = col_list[c]
            rows_in = set()
            heap = []
            for t in range(width):
                code = 0
                for s in range(width):
                    if s != t:
                        code = code * m + verts[s]
                r = row_of[code]
                rows_in.add(r)
                push(heap, -r)
            while True:
                low = None
                while heap:
                    cand = -heap[0]
                    if cand in rows_in:
                        low = cand
                        break
                    pop(heap)
                if low is None:
                    zeros.append(c)
                    break
                hit = pivots.get(low)
                if hit is None:
                    pivots[low] = list(rows_in)
                    pairs[low] = c
                    break
                for r in hit:
                    if r in rows_in:
                        rows_in.discard(r)
                    else:
                        rows_in.add(r)
                        push(heap, -r)
        return pairs, zeros

    for c in range(len(col_list)):
        if c in skip_cols:
            continue
        verts = col_list[c]
        coeffs = {}
        heap = []
        for t in range(width):
            code = 0
            for s in range(width):
                if s != t:
                    code = code * m + verts[s]
            r = row_of[code]
            coeffs[r] = 1 if t % 2 == 0 else p - 1
            push(heap, -r)
        while True:
            low = None
            while heap:
                cand = -heap[0]
                if cand in coeffs:
                    low = cand
                    break
                pop(heap)
            if low is None:
                zeros.append(c)
                break
            hit = pivots.get(low)
            if hit is None:
                pivots[low] = (
                    list(coeffs.keys()),
                    list(coeffs.values()),
                    pow(int(coeffs[low]), p - 2, p),
                )
                pairs[low] = c
                break
            rows, vals, inv_piv = hit
            factor = (coeffs[low] * inv_piv) % p
            for r, v in zip(rows, vals):
                nv = (coeffs.get(r, 0) - factor * v) % p
                if nv:
                    if r not in coeffs:
                        push(heap, -r)
                    coeffs[r] = nv
                elif r in coeffs:
                    del coeffs[r]
    return pairs, zeros


def built_complex(dmat, max_dim, max_radius):
    """The Rips simplices of dimension 0..max_dim up to max_radius, per
    dimension (verts, keys, filtration values read off the keys), and the
    adjacency matrix."""
    m = dmat.shape[0]
    values, ranks = np.unique(dmat.ravel(), return_inverse=True)
    reach = int(np.searchsorted(values, max_radius, side="right"))
    simplices, adj = _build_simplices(ranks.reshape(m, m), reach, max_dim, DEFAULT_MAX_SIMPLICES)
    return {
        q: (verts, keys, values[keys // m ** (q + 1)]) for q, (verts, keys) in simplices.items()
    }, adj


def block_reducer_bars(dmat, max_dim, p, max_radius):
    simplices, _ = built_complex(dmat, max_dim + 1, max_radius)
    m = dmat.shape[0]
    top = max_dim + 1

    bars = {q: [] for q in range(max_dim + 1)}
    prev_pairs = {}
    for q in range(top, 0, -1):
        col_verts, _, col_filts = simplices[q]
        row_verts, _, row_filts = simplices[q - 1]
        pairs, zero_cols = _reduce_block(col_verts, row_verts, m, p, prev_pairs)
        for r, c in pairs.items():
            birth, death = row_filts[r], col_filts[c]
            if death > birth:
                bars[q - 1].append((birth, death))
        if q <= max_dim:
            qf = col_filts
            for c in zero_cols:
                if c not in prev_pairs:
                    bars[q].append((qf[c], np.inf))
        prev_pairs = pairs
    for v in range(m):
        if v not in prev_pairs:
            bars[0].append((0.0, np.inf))
    return {q: np.asarray(sorted(v), dtype=float).reshape(-1, 2) for q, v in bars.items()}


def assert_bars_equal(a, b, atol=1e-12):
    assert a.shape == b.shape
    finite_a, finite_b = np.isfinite(a), np.isfinite(b)
    assert np.array_equal(finite_a, finite_b)
    assert np.allclose(a[finite_a], b[finite_b], atol=atol)


# ------------------------------------------------------------- unit truths


def equilateral_triangle():
    return np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])


def unit_square():
    return np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def test_triangle_loop_fills_at_birth():
    dg = rips_persistence(equilateral_triangle(), max_dim=1, p=2, max_radius=2.0)
    assert dg.bars[1].shape == (0, 2)
    bars0 = dg.bars[0]
    finite = bars0[np.isfinite(bars0[:, 1])]
    assert finite.shape == (2, 2)
    assert np.allclose(finite, [[0.0, 1.0], [0.0, 1.0]], atol=1e-12)
    assert np.isinf(bars0[:, 1]).sum() == 1


def test_unit_square_single_loop():
    dg = rips_persistence(unit_square(), max_dim=1, p=2, max_radius=2.0)
    assert dg.bars[1].shape == (1, 2)
    assert np.allclose(dg.bars[1][0], [1.0, np.sqrt(2.0)], atol=1e-12)
    assert np.isclose(max_bar_length(dg, 1), np.sqrt(2.0) - 1.0, atol=1e-12)


def test_max_bar_length_empty_and_triangle():
    dg = rips_persistence(equilateral_triangle(), max_dim=1, p=2, max_radius=2.0)
    assert max_bar_length(dg, 1) == 0.0
    assert max_bar_length(dg, 2) == 0.0


def test_circle_dominant_loop_cross_field():
    ang = np.linspace(0.0, 2.0 * np.pi, 21)[:-1]
    circle = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    d2 = rips_persistence(circle, max_dim=1, p=2, max_radius=2.0)
    d3 = rips_persistence(circle, max_dim=1, p=3, max_radius=2.0)
    assert d2.bars[1].shape[0] >= 1
    lengths = d2.bars[1][:, 1] - d2.bars[1][:, 0]
    top = np.argmax(lengths)
    assert lengths[top] >= 3.0 * np.partition(lengths, -2)[-2] if len(lengths) > 1 else True
    assert_bars_equal(d2.bars[1], d3.bars[1])


def test_default_max_radius_is_half_the_largest_distance():
    # a regular 10-gon: its loop is born at the side 0.618 and dies at 1.902,
    # past the default cap of half the diameter 2, so there it never dies
    ang = 2.0 * np.pi * np.arange(10) / 10
    dmat = squareform(pdist(np.stack([np.cos(ang), np.sin(ang)], axis=1)))
    default = rips_from_distances(dmat, max_dim=1)
    assert default.max_radius == 0.5 * dmat.max()
    capped = rips_from_distances(dmat, max_dim=1, max_radius=0.5 * dmat.max())
    for q in (0, 1):
        assert np.array_equal(default.bars[q], capped.bars[q])
    side = 2.0 * np.sin(np.pi / 10)
    assert np.allclose(default.bars[1], [[side, np.inf]])
    full = rips_from_distances(dmat, max_dim=1, max_radius=np.inf)
    assert np.allclose(full.bars[1], [[side, 2.0 * np.sin(4 * np.pi / 10)]])


def test_component_counting():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
    dg = rips_persistence(pts, max_dim=1, p=2, max_radius=1.0)
    assert np.isinf(dg.bars[0][:, 1]).sum() == 2


def test_single_point():
    dg = rips_persistence(np.zeros((1, 2)), max_dim=1, p=2, max_radius=1.0)
    assert np.allclose(dg.bars[0], [[0.0, np.inf]])


# --------------------------------------------------------------- properties


def test_permutation_invariance(rng):
    pts = rng.normal(size=(18, 2))
    perm = rng.permutation(18)
    a = rips_persistence(pts, max_dim=1, p=2, max_radius=3.0)
    b = rips_persistence(pts[perm], max_dim=1, p=2, max_radius=3.0)
    for q in (0, 1):
        assert_bars_equal(a.bars[q], b.bars[q])


def test_stability_under_perturbation(rng):
    pts = rng.uniform(size=(25, 2))
    delta = 1e-3
    bumped = pts + rng.uniform(-delta, delta, size=pts.shape) / np.sqrt(2.0)
    a = rips_persistence(pts, max_dim=1, p=2, max_radius=1.0)
    b = rips_persistence(bumped, max_dim=1, p=2, max_radius=1.0)
    # bottleneck stability, checked on the dominant finite bars
    for q in (0, 1):
        fa = a.bars[q][np.isfinite(a.bars[q][:, 1])]
        fb = b.bars[q][np.isfinite(b.bars[q][:, 1])]
        la = np.sort(fa[:, 1] - fa[:, 0])[::-1]
        lb = np.sort(fb[:, 1] - fb[:, 0])[::-1]
        keep = min(3, len(la), len(lb))
        assert np.abs(la[:keep] - lb[:keep]).max() <= 4.0 * delta


def test_f2_f3_agreement_on_torsion_free_sets(rng):
    for pts in (unit_square(), rng.uniform(size=(15, 2))):
        d2 = rips_persistence(pts, max_dim=1, p=2, max_radius=2.0)
        d3 = rips_persistence(pts, max_dim=1, p=3, max_radius=2.0)
        for q in (0, 1):
            assert_bars_equal(d2.bars[q], d3.bars[q])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_matches_bruteforce_oracle(rng, p):
    for trial in range(12):
        n = int(rng.integers(4, 9))
        pts = rng.normal(size=(n, 2))
        dmat = squareform(pdist(pts))
        radius = 0.8 * dmat.max()
        ours = rips_from_distances(dmat, max_dim=1, p=p, max_radius=radius)
        ref = oracle_rips(dmat, 1, p, radius)
        for q in (0, 1):
            assert_bars_equal(ours.bars[q], ref[q])


def test_matches_bruteforce_oracle_dim2(rng):
    for trial in range(6):
        n = int(rng.integers(5, 9))
        pts = rng.normal(size=(n, 3))
        dmat = squareform(pdist(pts))
        radius = 0.9 * dmat.max()
        ours = rips_from_distances(dmat, max_dim=2, p=2, max_radius=radius)
        ref = oracle_rips(dmat, 2, 2, radius)
        for q in (0, 1, 2):
            assert_bars_equal(ours.bars[q], ref[q])



def thick_annulus(seed, n):
    rng = np.random.default_rng(seed)
    ang = rng.uniform(0.0, 2.0 * np.pi, n)
    rad = rng.uniform(0.8, 1.2, n)
    return np.column_stack([rad * np.cos(ang), rad * np.sin(ang), rng.uniform(-0.3, 0.3, n)])


@pytest.mark.parametrize("seed", range(20))
def test_matches_block_reducer_oracle(seed):
    # seeds cycle through F2/F3 x max_dim 1/2 x full/capped radius; the
    # full complex is the block reducer's slowest input, so it gets the
    # smaller clouds
    p = (2, 3)[seed % 2]
    max_dim = (1, 2)[seed // 2 % 2]
    capped = seed // 4 % 2 == 1
    if capped:
        n = 30 + 7 * seed % 31
    else:
        n = 40 + seed % 6 if max_dim == 1 else 30 + seed % 3
    dmat = squareform(pdist(thick_annulus(seed, n)))
    # the cap closes the ring but stays below the hole's filling scale
    radius = 1.0 if capped else float(dmat.max())
    ours = rips_from_distances(dmat, max_dim=max_dim, p=p, max_radius=radius)
    ref = block_reducer_bars(dmat, max_dim, p, radius)
    assert sorted(ours.bars) == sorted(ref)
    for q in ref:
        assert np.array_equal(ours.bars[q], ref[q])
    assert np.isinf(ref[1][:, 1]).any() == capped


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("radius", [1.5, 2.0, 2.5, None])
def test_matches_block_reducer_oracle_on_ties(p, radius):
    # an integer lattice: many equal distances, so the lexicographic
    # tie-break decides most pivots.  Every radius but 1.5 lies above the
    # enclosing radius sqrt(3), where our build stops and the oracle's does not
    pts = np.indices((3, 3, 3)).reshape(3, -1).T.astype(float)
    dmat = squareform(pdist(pts))
    radius = radius or 1.01 * float(dmat.max())
    ours = rips_from_distances(dmat, max_dim=2, p=p, max_radius=radius)
    ref = block_reducer_bars(dmat, 2, p, radius)
    for q in ref:
        assert np.array_equal(ours.bars[q], ref[q])


def test_build_simplices_enumerates_every_clique_in_filtration_order():
    dmat = squareform(pdist(thick_annulus(7, 24)))
    dmat = np.round(dmat, 1)  # ties, so the lexicographic order matters
    radius = 1.2
    simplices, adj = built_complex(dmat, 3, radius)
    assert np.array_equal(adj, (dmat <= radius) & ~np.eye(24, dtype=bool))
    for q in range(4):
        expected = []
        for verts in itertools.combinations(range(24), q + 1):
            filt = max((dmat[a, b] for a, b in itertools.combinations(verts, 2)), default=0.0)
            if filt <= radius:
                expected.append((filt, verts))
        expected.sort()
        verts, keys, filts = simplices[q]
        assert np.array_equal(verts, np.array([v for _, v in expected]).reshape(-1, q + 1))
        assert np.array_equal(filts, [f for f, _ in expected])
        assert (np.diff(keys) > 0).all()


# ------------------------------------------------- implicit top dimension
# rips_from_distances keys each cofacet by its diameter's rank and its
# vertex code and never builds the top dimension; the block reducer builds
# every dimension and reads its filtration order off the built simplices.


def rounded_annulus(seed, n):
    # distances rounded to one decimal: thousands of cofacets share a few
    # dozen diameters, so the lexicographic tie-break decides most pivots
    return np.round(squareform(pdist(thick_annulus(seed, n))), 1)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("max_dim", [1, 2])
@pytest.mark.parametrize("case", ["enclosing", "capped", "landmarked"])
def test_implicit_cofacets_match_block_reducer_on_ties(case, max_dim, p):
    seed = 10 * max_dim + p
    dmat = rounded_annulus(seed, 40 if case == "landmarked" else 24)
    budget = 20 if case == "landmarked" else DEFAULT_LANDMARK_BUDGET
    # the cap closes the ring but stays below the hole's filling scale
    radius = 1.2 if case == "capped" else np.inf
    ours = rips_from_distances(dmat, max_dim=max_dim, p=p, max_radius=radius,
                               landmark_budget=budget)
    if case == "landmarked":
        keep = maxmin_landmarks(dmat, budget)
        dmat = dmat[np.ix_(keep, keep)]
    # the oracle builds the same complex: ours stops at the enclosing radius
    build_radius = min(radius, float(dmat.max(axis=1).min()))
    assert (build_radius < dmat.max(axis=1).min()) == (case == "capped")
    ref = block_reducer_bars(dmat, max_dim, p, build_radius)
    assert sorted(ours.bars) == sorted(ref)
    for q in ref:
        assert np.array_equal(ours.bars[q], ref[q])
    assert np.isinf(ref[1][:, 1]).any() == (case == "capped")
    simplices, _ = built_complex(dmat, max_dim + 1, build_radius)
    top = simplices[max_dim + 1][2]
    assert len(top) >= 20 * len(np.unique(top))


# ------------------------------------------------- every-owner reducer oracle
# The coboundary reduction as it was before it kept only one chunk: every
# owner column stays alive as its slice of its chunk's arrays, or as its
# reduced entries.  It runs the same algorithm, so the pairs and the zero
# columns must be the same sets.


def oracle_coboundary_reduce(simplices, adj, ranks, q, p, cleared):
    verts = simplices[q][0]
    m = adj.shape[0]
    own = simplices[q][1] // m ** (q + 1)
    flat_ranks = ranks.ravel()
    powers = m ** np.arange(q + 1, -1, -1, dtype=np.int64)
    scale = m * powers[0]
    sign = np.array([1, p - 1], dtype=np.int8 if p < 128 else np.int64)

    def coboundaries(js):
        v = verts[js]
        col, ws = np.nonzero(_common_neighbours(adj, v))
        rank, t = own[js].take(col), 0
        for c in range(q + 1):
            vc = v[:, c].take(col)
            np.maximum(rank, flat_ranks.take(vc * m + ws), out=rank)
            t = t + (vc < ws)
        zero = np.zeros((len(v), 1), dtype=np.int64)
        before = np.cumsum(np.hstack([zero, v * powers[:-1]]), axis=1)
        after = np.cumsum(np.hstack([v * powers[1:], zero])[:, ::-1], axis=1)[:, ::-1]
        code = (before + after).ravel().take(col * (q + 2) + t) + ws * powers.take(t)
        keys = rank * scale + code
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
    js, pivots = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return js, pivots, np.array(zeros, dtype=np.int64)


def reductions(reduce, dmat, max_dim, p, radius, budget=DEFAULT_LANDMARK_BUDGET):
    """{q: (set of (column, pivot key) pairs, set of zero columns)} for
    q = 1..max_dim, from ``reduce`` on the complex that rips_from_distances
    builds from a symmetric matrix, cleared as it clears them.  ``reduce``
    returns the pairs' columns and pivot keys and the zero columns, as
    arrays."""
    if dmat.shape[0] > budget:
        keep = maxmin_landmarks(dmat, budget)
        dmat = dmat[np.ix_(keep, keep)]
    m = dmat.shape[0]
    values, ranks = np.unique(dmat.ravel(), return_inverse=True)
    ranks = ranks.reshape(m, m)
    radius = min(radius, float(dmat.max(axis=1).min()))
    reach = int(np.searchsorted(values, radius, side="right"))
    simplices, adj = _build_simplices(ranks, reach, max_dim, DEFAULT_MAX_SIMPLICES)
    cleared = _h0_death_edges(simplices[1][0], m)
    out = {}
    for q in range(1, max_dim + 1):
        js, pivots, zeros = reduce(simplices, adj, ranks, q, p, cleared)
        out[q] = (set(zip(js.tolist(), pivots.tolist())), set(zeros.tolist()))
        assert len(out[q][0]) == len(js) and len(out[q][1]) == len(zeros)
        if q < max_dim:
            cleared = np.searchsorted(simplices[q + 1][1], pivots)
    return out


@pytest.fixture(scope="module")
def bucky_ensemble():
    # the dissimilarities of 100 Isomap embeddings of noisy buckyballs, as
    # the benchmark's bucky-rp2 homology half computes them
    params = dimred.EmbeddingParams(method="isomap", target_dim=2, knn=5)
    outs = [dimred.embed(synth.buckyball(0.06, seed=5000 + i), params) for i in range(100)]
    return ensemble.dissimilarity_matrix(outs)


@pytest.mark.parametrize("chunk", [64, 512])
@pytest.mark.parametrize(
    "case", [f"block{seed}" for seed in range(20)] + ["lattice1.5", "lattice2.0", "bucky"]
)
def test_one_chunk_reducer_matches_every_owner_oracle(case, chunk, monkeypatch, request):
    # chunks of 64 and 512 mask entries hold 1-2 and 8-18 columns of these
    # 24-60-point complexes, so most owners lie in an earlier chunk
    monkeypatch.setattr(tda, "_CHUNK", chunk)
    budget = DEFAULT_LANDMARK_BUDGET
    if case == "bucky":
        dmat = request.getfixturevalue("bucky_ensemble")
        max_dim, radius, budget = 2, 1.01 * float(dmat.max()), 38
    elif case.startswith("lattice"):
        dmat = squareform(pdist(np.indices((3, 3, 3)).reshape(3, -1).T.astype(float)))
        max_dim, radius = 2, float(case[7:])
    else:
        # test_matches_block_reducer_oracle's inputs, at their max_dim
        seed = int(case[5:])
        max_dim = (1, 2)[seed // 2 % 2]
        capped = seed // 4 % 2 == 1
        if capped:
            n = 30 + 7 * seed % 31
        else:
            n = 40 + seed % 6 if max_dim == 1 else 30 + seed % 3
        dmat = squareform(pdist(thick_annulus(seed, n)))
        radius = 1.0 if capped else float(dmat.max())
    for p in (2, 3, 5):
        ours = reductions(tda._coboundary_reduce, dmat, max_dim, p, radius, budget)
        assert ours == reductions(oracle_coboundary_reduce, dmat, max_dim, p, radius, budget)


def test_one_chunk_reducer_takes_every_slow_path(monkeypatch, bucky_ensemble):
    # spies on the helpers that the three slow paths call: an owner from an
    # earlier chunk is recomputed by _Coboundary.column, a column that needed
    # an addition is stored as _summed returns it and reused when _entries
    # reads those same arrays, and _Coboundary.columns shows each chunk's
    # initial pivots, against which the pairs show a reduction that ended on
    # a pivot that a later column of its chunk held
    monkeypatch.setattr(tda, "_CHUNK", 512)
    seen = {"recomputed": 0, "reused": 0, "later holder": 0}
    stored, chunks = [], []
    column, columns = tda._Coboundary.column, tda._Coboundary.columns
    summed, entries = tda._summed, tda._entries

    def spy_column(self, j):
        seen["recomputed"] += 1
        return column(self, j)

    def spy_columns(self, js):
        out = columns(self, js)
        chunks.append((js.tolist(), out[3].tolist()))
        return out

    def spy_summed(rows, vals, p):
        out = summed(rows, vals, p)
        stored.append(out[0])
        return out

    def spy_entries(keys, vals, factor, p):
        seen["reused"] += any(keys is s for s in stored)
        return entries(keys, vals, factor, p)

    def reduce(*args):
        chunks.clear()
        js, pivots, zeros = tda._coboundary_reduce(*args)
        final = dict(zip(js.tolist(), pivots.tolist()))
        for cols, initial in chunks:
            for i, j in enumerate(cols):
                if final.get(j, initial[i]) != initial[i]:
                    seen["later holder"] += final[j] in initial[i + 1 :]
        return js, pivots, zeros

    monkeypatch.setattr(tda._Coboundary, "column", spy_column)
    monkeypatch.setattr(tda._Coboundary, "columns", spy_columns)
    monkeypatch.setattr(tda, "_summed", spy_summed)
    monkeypatch.setattr(tda, "_entries", spy_entries)
    for p in (2, 3):
        reductions(reduce, bucky_ensemble, 2, p, 1.01 * float(bucky_ensemble.max()), 38)
    assert min(seen.values()) >= 1, seen


def test_reads_the_upper_triangle_of_a_nearly_symmetric_matrix():
    # below the diagonal, every distance is off by less than the symmetry
    # tolerance: the bars are those of the upper triangle, to the bit
    dmat = rounded_annulus(3, 24)
    skewed = dmat + np.tril(np.full_like(dmat, 1e-10), -1)
    ours = rips_from_distances(skewed, max_dim=2, p=3, max_radius=np.inf)
    ref = block_reducer_bars(dmat, 2, 3, float(dmat.max(axis=1).min()))
    for q in ref:
        assert np.array_equal(ours.bars[q], ref[q])


def test_peak_memory_stays_below_that_of_building_the_triangles():
    # 100 points up to their enclosing radius: about 2.2 MB are traced when
    # only the edges are built and one chunk of coboundaries is kept, 5.4 MB
    # when every owner column was kept, and 9.0 MB when the triangles were
    # built too
    dmat = squareform(pdist(np.random.default_rng(0).uniform(size=(100, 3))))
    tracemalloc.start()
    try:
        dg = rips_from_distances(dmat, max_dim=1, max_radius=np.inf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dg.bars[1].shape[0] > 0
    assert peak < 4 * 2**20


def test_ph2_peak_memory_keeps_one_chunk_of_coboundaries(bucky_ensemble):
    # one F2 PH2 call at 60 landmarks traced 21.1 MiB when every owner
    # column stayed alive as a slice of its chunk, and 4.2 MiB with only the
    # current chunk, the pivot table and the reduced columns kept
    tracemalloc.start()
    try:
        dg = rips_from_distances(
            bucky_ensemble, max_dim=2, p=2, max_radius=1.01 * float(bucky_ensemble.max()),
            landmark_budget=60,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dg.bars[2].shape[0] > 0
    assert peak < 0.5 * 21.1 * 2**20


def test_simplex_budget_stops_a_built_dimension_within_it():
    # 80 points up to their enclosing radius hold 80 + 2,466 + 42,944
    # simplices of dimension 0..2; at max_dim 2 the triangles are built, and
    # the budget is checked chunk by chunk while they are
    pts = np.random.default_rng(0).uniform(size=(80, 3))
    with pytest.raises(TooManySimplices, match=r"at least \d+ simplices") as info:
        rips_persistence(pts, max_dim=2, max_radius=100.0, max_simplices=10_000)
    assert int(str(info.value).split()[2]) < 80 + 2466 + 42944


def test_filtration_keys_that_would_overflow_int64_raise():
    # 1500 points with distinct distances: 1500^4 codes times 1,124,251
    # distance ranks times p = 2 exceed 2^63, so no key is formed
    a = np.random.default_rng(0).uniform(1.0, 2.0, size=(1500, 1500))
    dmat = a + a.T
    np.fill_diagonal(dmat, 0.0)
    with pytest.raises(TooManySimplices, match="overflow the int64 filtration keys"):
        rips_from_distances(dmat, max_dim=2, max_radius=np.inf, landmark_budget=1500)
    # below every distance only the rank of 0 is in reach, and the keys fit
    dg = rips_from_distances(dmat, max_dim=2, max_radius=1.0, landmark_budget=1500)
    assert np.array_equal(dg.bars[0], np.tile([0.0, np.inf], (1500, 1)))
    assert dg.bars[1].size == dg.bars[2].size == 0

# ------------------------------------------------------------- guard rails


def test_landmarking_kicks_in(rng):
    pts = rng.normal(size=(40, 2))
    dg = rips_persistence(pts, max_dim=0, p=2, landmark_budget=10, max_radius=10.0)
    assert sum(arr.shape[0] for arr in dg.bars.values()) <= 10


def test_landmarks_are_deterministic_and_spread(rng):
    pts = rng.normal(size=(60, 2))
    dmat = squareform(pdist(pts))
    a = maxmin_landmarks(dmat, 12)
    b = maxmin_landmarks(dmat, 12)
    assert np.array_equal(a, b)
    sub = dmat[np.ix_(a, a)]
    np.fill_diagonal(sub, np.inf)
    assert sub.min() >= np.median(dmat) / 6.0


def test_simplex_budget_enforced(rng):
    pts = rng.normal(size=(30, 2))
    with pytest.raises(TooManySimplices):
        rips_persistence(pts, max_dim=2, p=2, max_radius=100.0, max_simplices=200)


def test_simplex_budget_raises_before_the_memory_is_spent():
    # 80 points up to their enclosing radius hold 498,281 tetrahedra (about
    # 40 MB built); the budget is passed within the first chunk of them
    pts = np.random.default_rng(0).uniform(size=(80, 3))
    tracemalloc.start()
    try:
        with pytest.raises(TooManySimplices):
            rips_persistence(pts, max_dim=2, max_radius=100.0, max_simplices=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    # the budget counts every simplex built, and the build stops at the
    # enclosing radius sqrt(3) of the 3x3x3 lattice, far below the radius
    # asked for: 27 + 158 + 400 + 548 simplices, not 27 + 351 + 2925 + 17550
    lattice = np.indices((3, 3, 3)).reshape(3, -1).T.astype(float)
    dg = rips_persistence(lattice, max_dim=2, max_radius=100.0, max_simplices=1133)
    assert dg.max_radius == 100.0
    with pytest.raises(TooManySimplices):
        rips_persistence(lattice, max_dim=2, max_radius=100.0, max_simplices=1132)


def test_invalid_inputs(rng):
    with pytest.raises(ValueError):
        rips_persistence(rng.normal(size=(5, 2)), p=4)
    with pytest.raises(ValueError):
        rips_persistence(rng.normal(size=(5, 2)), max_dim=3)
    with pytest.raises(NotSymmetric):
        rips_from_distances(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        rips_persistence(rng.normal(size=(5, 2)), max_radius=0.0)
    # a NaN once made the build radius NaN, so that no edge was built
    with pytest.raises(NonFinite):
        rips_from_distances(np.array([[0.0, 1.0, np.nan], [1.0, 0.0, 1.0], [np.nan, 1.0, 0.0]]))
    with pytest.raises(ValueError, match="negative"):
        rips_from_distances(np.array([[0.0, 1.0, -1.0], [1.0, 0.0, 1.0], [-1.0, 1.0, 0.0]]))
    # (p-1)^2 passes 2^63 just above 3,037,000,500, and the column additions
    # multiply two coefficients in int64
    with pytest.raises(ValueError, match="too large"):
        rips_persistence(rng.normal(size=(5, 2)), p=3_100_000_027)
    # a budget below 1 used to keep one landmark: the default radius then
    # came out 0 ("max_radius must be positive"), and an infinite radius
    # gave the diagram of one point
    pts = rng.normal(size=(8, 2))
    for budget, radius in ((0, None), (0, np.inf), (-3, None), (-3, np.inf)):
        with pytest.raises(ValueError, match="landmark_budget must be >= 1"):
            rips_persistence(pts, max_radius=radius, landmark_budget=budget)
        with pytest.raises(ValueError, match="landmark_budget must be >= 1"):
            rips_from_distances(squareform(pdist(pts)), max_radius=radius, landmark_budget=budget)


def test_one_point_and_coincident_points_have_one_infinite_bar():
    # their default radius, half the largest distance, is 0; it used to be
    # refused as if the caller had passed it
    for pts in (np.zeros((1, 3)), np.full((3, 2), 1.5)):
        for max_dim in (0, 1, 2):
            dg = rips_persistence(pts, max_dim=max_dim)
            assert dg.max_radius == 0.0
            assert dg.bars[0].tolist() == [[0.0, np.inf]]
            assert all(dg.bars[q].size == 0 for q in range(1, max_dim + 1))
    # a radius that the caller passes must still be positive
    for radius in (0, 0.0, -1.0):
        with pytest.raises(ValueError, match="max_radius must be positive"):
            rips_persistence(np.full((3, 2), 1.5), max_radius=radius)
        with pytest.raises(ValueError, match="max_radius must be positive"):
            rips_from_distances(np.zeros((3, 3)), max_radius=radius)


def test_empty_distance_matrix_is_refused():
    with pytest.raises(ValueError, match="need at least one point"):
        rips_from_distances(np.zeros((0, 0)))


def test_large_prime_costs_no_table_of_p_entries():
    # each stored pivot's coefficient is inverted on its own, so neither the
    # time nor the memory of the reduction grows with p
    ang = np.linspace(0.0, 2.0 * np.pi, 21)[:-1]
    circle = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    ref = rips_persistence(circle, max_dim=1, p=3, max_radius=2.0)
    tracemalloc.start()
    try:
        dg = rips_persistence(circle, max_dim=1, p=100_003, max_radius=2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert dg.bars[1].shape == (1, 2)
    for q in (0, 1):
        assert np.array_equal(dg.bars[q], ref.bars[q])


@pytest.mark.parametrize("p", [2_147_483_647, 3_037_000_493])
def test_primes_up_to_the_int64_bound_match_f3(p):
    # the column additions multiply two coefficients below p in int64
    dmat = rounded_annulus(0, 26)
    ours = rips_from_distances(dmat, max_dim=2, p=p, max_radius=np.inf)
    ref = rips_from_distances(dmat, max_dim=2, p=3, max_radius=np.inf)
    for q in ref.bars:
        assert np.array_equal(ours.bars[q], ref.bars[q])
