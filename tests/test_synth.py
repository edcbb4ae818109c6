import numpy as np
from scipy.sparse.csgraph import shortest_path
from scipy.sparse import csr_matrix
from scipy.spatial.distance import pdist, squareform

from robust_coords.core_types import Configuration
from robust_coords.synth import (
    _bucky_vertices,
    add_gaussian_noise,
    add_uniform_outliers,
    buckyball,
    swiss_roll,
)


def test_swiss_roll_generator_identity():
    sample = swiss_roll(500, seed=1)
    x, y, z = sample.points3d.coords
    t = np.sqrt(x * x + z * z)
    assert (t >= 1.5 * np.pi - 1e-9).all() and (t <= 4.5 * np.pi + 1e-9).all()
    # the radius recovers the parameter: x = t cos(t), z = t sin(t)
    assert np.abs(x - t * np.cos(t)).max() <= 1e-8
    assert np.abs(z - t * np.sin(t)).max() <= 1e-8
    assert (y >= 0).all() and (y <= 21.0).all()


def test_swiss_roll_chart_heights_match():
    sample = swiss_roll(200, seed=2)
    assert np.allclose(sample.intrinsic.coords[1], sample.points3d.coords[1])


def test_swiss_roll_equal_height_pairs_have_arclength_distance():
    # points sharing h: intrinsic distance equals arc-length difference
    sample = swiss_roll(50, seed=3)
    chart = sample.intrinsic.coords
    i, j = 4, 17
    forced = chart.copy()
    forced[1, j] = forced[1, i]
    dist = np.linalg.norm(forced[:, i] - forced[:, j])
    assert np.isclose(dist, abs(chart[0, i] - chart[0, j]))


def test_swiss_roll_deterministic():
    a = swiss_roll(2000, seed=7)
    b = swiss_roll(2000, seed=7)
    assert np.array_equal(a.points3d.coords, b.points3d.coords)
    assert np.array_equal(a.intrinsic.coords, b.intrinsic.coords)
    c = swiss_roll(2000, seed=8)
    assert not np.array_equal(a.points3d.coords, c.points3d.coords)


def test_swiss_roll_chart_is_isometric_to_surface():
    # geodesics on a dense neighborhood graph of the 3-d points approximate
    # distances in the intrinsic chart
    # epsilon = 5 keeps the graph connected at this density while staying
    # well below the inter-sheet gap of 2*pi
    sample = swiss_roll(500, seed=11)
    pts = sample.points3d.present_matrix().T
    dmat = squareform(pdist(pts))
    adj = dmat <= 5.0
    np.fill_diagonal(adj, False)
    graph = csr_matrix(np.where(adj, dmat, 0.0))
    geo = shortest_path(graph, method="D", directed=False)
    chart = sample.intrinsic.present_matrix()
    chart_d = squareform(pdist(chart.T))
    sel = np.isfinite(geo) & (chart_d > 10.0)
    rel = np.abs(geo[sel] - chart_d[sel]) / chart_d[sel]
    assert np.median(rel) <= 0.02


def test_gaussian_noise_properties(rng):
    sample = swiss_roll(300, seed=4)
    assert add_gaussian_noise(sample.points3d, 0.0, 9) is sample.points3d
    noisy = add_gaussian_noise(sample.points3d, 0.5, 9)
    assert np.array_equal(noisy.mask, sample.points3d.mask)
    again = add_gaussian_noise(sample.points3d, 0.5, 9)
    assert np.array_equal(noisy.coords, again.coords)
    big = add_gaussian_noise(swiss_roll(100_000, seed=5).points3d, 0.7, 10)
    resid = big.coords - swiss_roll(100_000, seed=5).points3d.coords
    assert np.abs(resid.std() - 0.7) <= 0.02 * 0.7


def test_uniform_outliers(rng):
    sample = swiss_roll(2000, seed=6)
    same, idx = add_uniform_outliers(sample.points3d, 0, 1)
    assert idx.size == 0 and same is sample.points3d
    widened, idx = add_uniform_outliers(sample.points3d, 100, 1)
    assert widened.n_global == 2100 and widened.n_present == 2100
    assert np.array_equal(idx, np.arange(2000, 2100))
    lo = sample.points3d.coords.min(axis=1)
    hi = sample.points3d.coords.max(axis=1)
    extra = widened.coords[:, 2000:]
    assert (extra >= lo[:, None] - 1e-12).all() and (extra <= hi[:, None] + 1e-12).all()


def test_buckyball_geometry():
    cfg = buckyball(0.0, seed=0)
    pts = cfg.present_matrix().T
    assert pts.shape == (60, 3)
    radii = np.linalg.norm(pts, axis=1)
    assert np.abs(radii - 1.0).max() <= 1e-12

    dmat = squareform(pdist(pts))
    np.fill_diagonal(dmat, np.inf)
    bond = dmat.min()
    # every vertex has exactly 3 neighbors at the bond distance
    neighbor_counts = (np.abs(dmat - bond) <= 1e-9).sum(axis=1)
    assert (neighbor_counts == 3).all()

    # the two shells beyond the bond length are the pentagon and hexagon
    # diagonals, at phi and sqrt(3) times the bond length
    finite = np.unique(np.round(dmat[np.isfinite(dmat)], 9))
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    assert np.isclose(finite[0], bond)
    assert np.isclose(finite[1], phi * bond, atol=1e-9)
    assert np.isclose(finite[2], np.sqrt(3.0) * bond, atol=1e-9)


def test_buckyball_noise_deterministic():
    a = buckyball(0.05, seed=3)
    b = buckyball(0.05, seed=3)
    assert np.array_equal(a.coords, b.coords)


def test_buckyball_is_the_normalized_vertex_set_plus_noise():
    # the unit vertices are built once; every call must still give the
    # vertex set scaled to the unit sphere, noisy or not, to the bit
    verts = _bucky_vertices()
    verts /= np.linalg.norm(verts[0])
    assert np.array_equal(buckyball(0.0, seed=0).coords, verts.T)
    for sigma, seed in ((0.06, 5000), (0.05, 3)):
        expected = add_gaussian_noise(Configuration(verts.T), sigma, seed)
        assert np.array_equal(buckyball(sigma, seed).coords, expected.coords)
    # and no call changed the shared vertices
    assert np.array_equal(buckyball(0.0, seed=1).coords, verts.T)
