"""Acceptance suite: one test per numbered criterion, plus a BLAS-thread
check on criterion 10's manifest.

Each test prints a ``criterion N: pass`` line on success (visible with
``pytest -v`` through test names as well).  The Swiss-roll and buckyball
reproductions are desk-scale versions of the large experiments and carry
the ``slow`` marker; everything runs in one ``pytest`` invocation.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import minimize
from scipy.spatial.distance import pdist

import robust_coords
from robust_coords.cli_io import run_command
from robust_coords.core_types import Configuration, RigidMotion
from robust_coords.dimred import EmbeddingParams, isomap
from robust_coords.ensemble import (
    PipelineConfig,
    _cutoffs,
    cluster_ensemble,
    dissimilarity_matrix,
    generate_subsamples,
    run_pipeline,
)
from robust_coords.errors import NoGoodCluster
from robust_coords.gpa_als import (
    AlsOptions,
    GpaProblem,
    als_align,
    gpa_loss,
    hessian_form,
)
from robust_coords.procrustes_pair import affine_procrustes, procrustes_distance
from robust_coords.synth import add_gaussian_noise, add_uniform_outliers, buckyball, swiss_roll
from robust_coords.tda import max_bar_length, rips_from_distances, rips_persistence

from conftest import random_config, random_orthogonal, set_process_count
from test_gpa_als import als_full


GAP = 2.0 * np.pi  # inter-sheet spacing of the roll (one full turn)


def announce(num, detail=""):
    print(f"criterion {num}: pass {detail}".rstrip())


def centered(rng, d, n):
    m = rng.normal(size=(d, n))
    return m - m.mean(axis=1, keepdims=True)


# --------------------------------------------------------------- criterion 1


def grid_min_residual_2d(x, y, rng, n_angles=1_000_000):
    """Exhaustive O(2) search: rotations on an angle grid plus reflections.

    The squared residual along the grid is evaluated through the exact
    expansion ||R X - Y||^2 = ||X||^2 + ||Y||^2 - 2 tr(R^T Y X^T), which the
    search minimizes by brute force (no SVD anywhere); the expansion itself
    is spot-checked against direct evaluation on a random angle subset.
    """
    thetas = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    sq = float(np.sum(x * x) + np.sum(y * y))
    best = np.inf
    flip = np.diag([1.0, -1.0])
    for base in (x, flip @ x):
        m = y @ base.T
        trace = (m[0, 0] + m[1, 1]) * np.cos(thetas) + (m[1, 0] - m[0, 1]) * np.sin(thetas)
        sq_res = np.maximum(sq - 2.0 * trace, 0.0)
        best = min(best, float(np.sqrt(sq_res.min())))
        for theta in rng.choice(thetas, size=8, replace=False):
            c, s = np.cos(theta), np.sin(theta)
            rot = np.array([[c, -s], [s, c]])
            direct = float(np.sum((rot @ base - y) ** 2))
            via_trace = sq - 2.0 * ((m[0, 0] + m[1, 1]) * c + (m[1, 0] - m[0, 1]) * s)
            assert abs(direct - via_trace) <= 1e-9 * max(1.0, direct)
    return best


def restart_min_residual_3d(x, y, rng, n_restarts=12):
    """Random-restart minimization over SO(3) x {identity, reflection}."""

    def rot(v):
        a = np.array(
            [[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]]
        )
        return expm(a)

    best = np.inf
    flip = np.diag([1.0, 1.0, -1.0])
    for base in (x, flip @ x):

        def objective(v, base=base):
            return float(np.linalg.norm(rot(v) @ base - y))

        for _ in range(n_restarts):
            v0 = rng.uniform(-np.pi, np.pi, size=3)
            out = minimize(objective, v0, method="Nelder-Mead",
                           options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 1200})
            best = min(best, float(out.fun))
    return best


@pytest.mark.slow
def test_criterion_01_closed_form_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(50):
        x, y = centered(rng, 2, 20), centered(rng, 2, 20)
        closed = procrustes_distance(Configuration(x), Configuration(y))
        grid = grid_min_residual_2d(x, y, rng)
        worst = max(worst, abs(closed - grid) / abs(grid))
    assert worst <= 1e-5
    worst3 = 0.0
    for trial in range(50):
        x, y = centered(rng, 3, 20), centered(rng, 3, 20)
        closed = procrustes_distance(Configuration(x), Configuration(y))
        oracle = restart_min_residual_3d(x, y, rng)
        # the oracle can only overshoot the true minimum
        assert closed <= oracle + 1e-7
        worst3 = max(worst3, abs(closed - oracle) / abs(oracle))
    assert worst3 <= 1e-5
    elapsed = time.time() - start
    assert elapsed < 60.0
    announce(1, f"(worst rel err 2d {worst:.2e}, 3d {worst3:.2e}, {elapsed:.0f}s)")


# --------------------------------------------------------------- criterion 2


@pytest.mark.slow
def test_criterion_02_als_correctness():
    start = time.time()
    rng = np.random.default_rng(202)
    worst_gap = 0.0
    for trial in range(1000):
        x = random_config(rng, d=2, n=15)
        y = random_config(rng, d=2, n=15)
        dist = affine_procrustes(x, y).distance
        res = als_align(GpaProblem((x, y)))
        worst_gap = max(worst_gap, abs(res.loss - dist * dist / 4.0))
        assert (np.diff(res.loss_trace) <= 1e-12).all()
    assert worst_gap <= 1e-8

    worst_trace = 0.0
    for trial in range(100):
        k = int(rng.integers(2, 6))
        cfgs = tuple(random_config(rng, d=2, n=18) for _ in range(k))
        refined = als_full(GpaProblem(cfgs), "refined")
        missing = als_align(GpaProblem(cfgs))
        n = min(len(refined.loss_trace), len(missing.loss_trace))
        worst_trace = max(
            worst_trace, np.abs(refined.loss_trace[:n] - missing.loss_trace[:n]).max()
        )
        assert (np.diff(missing.loss_trace) <= 1e-12).all()
    assert worst_trace <= 1e-10

    for trial in range(100):
        k = int(rng.integers(2, 6))
        if trial % 2 == 0:  # the frozen-mean oracle on full domains
            cfgs = tuple(random_config(rng, d=2, n=20) for _ in range(k))
            res = als_full(GpaProblem(cfgs), "basic")
        else:
            cfgs = tuple(random_config(rng, d=2, n=30, mask_prob=0.7) for _ in range(k))
            res = als_align(GpaProblem(cfgs))
        assert (np.diff(res.loss_trace) <= 1e-12).all()
    elapsed = time.time() - start
    assert elapsed < 120.0
    announce(2, f"(k=2 gap {worst_gap:.2e}, trace gap {worst_trace:.2e}, {elapsed:.0f}s)")


# --------------------------------------------------------------- criterion 3


def test_criterion_03_convergence_diagnostics():
    rng = np.random.default_rng(303)
    worst_sym = 0.0
    for trial in range(20):
        k = int(rng.integers(3, 6))
        cfgs = tuple(random_config(rng, d=2, n=20) for _ in range(k))
        res = als_align(GpaProblem(cfgs, AlsOptions(tol=1e-13, max_iter=5000)))
        worst_sym = max(worst_sym, float(res.symmetry_residuals.max()))
    assert worst_sym <= 1e-6

    h = 1e-4
    worst_fd = 0.0
    for trial in range(20):
        k = int(rng.integers(3, 6))
        d = int(rng.choice([2, 3]))
        problem = GpaProblem(
            tuple(random_config(rng, d=d, n=20) for _ in range(k)),
            AlsOptions(tol=1e-13, max_iter=5000),
        )
        res = als_align(problem)
        a = np.zeros((k, d, d))
        for i in range(1, k):
            m = rng.normal(size=(d, d))
            a[i] = 0.5 * (m - m.T)
        q = hessian_form(problem, res, a)

        def loss_at(t):
            motions = [
                RigidMotion(expm(a[i] * t) @ g.rotation, expm(a[i] * t) @ g.translation)
                for i, g in enumerate(res.motions)
            ]
            return gpa_loss(problem, motions)

        fd = (loss_at(h) - 2.0 * loss_at(0.0) + loss_at(-h)) / (h * h)
        worst_fd = max(worst_fd, abs(q - fd) / max(1e-30, abs(fd)))
    assert worst_fd <= 1e-4
    announce(3, f"(max symmetry residual {worst_sym:.2e}, worst Hessian rel err {worst_fd:.2e})")


# --------------------------------------------------------------- criterion 4


def perturbation_slopes(rng, isometric):
    eps_values = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    k, n, d = 5, 50, 2
    if isometric:
        base = centered(rng, d, n)
        cfgs = []
        for _ in range(k):
            q = random_orthogonal(rng, d)
            cfgs.append(Configuration(q @ base + rng.normal(size=(d, 1))))
        cfgs = tuple(cfgs)
    else:
        cfgs = tuple(Configuration(rng.normal(size=(d, n))) for _ in range(k))
    opts = AlsOptions(tol=1e-15, max_iter=3000)
    clean = als_align(GpaProblem(cfgs, opts))
    directions = [rng.normal(size=(d, n)) for _ in range(k)]
    directions = [e / np.linalg.norm(e) for e in directions]
    loss_resp, mean_disp = [], []
    for eps in eps_values:
        bumped = tuple(
            Configuration(c.coords + eps * e) for c, e in zip(cfgs, directions)
        )
        res = als_align(GpaProblem(bumped, opts))
        loss_resp.append(abs(res.loss - clean.loss))
        mean_disp.append(procrustes_distance(res.mean, clean.mean))
    le = np.log(eps_values)
    slope_loss = np.polyfit(le, np.log(loss_resp), 1)[0]
    slope_mean = np.polyfit(le, np.log(mean_disp), 1)[0]
    return slope_loss, slope_mean


def test_criterion_04_stability_scaling():
    # The loss of the alignment output responds quadratically to input
    # perturbations of a (near-)isometric ensemble and linearly for generic
    # ensembles; the aligned mean itself moves at first order in both
    # regimes (its leading response never cancels), which is asserted for
    # the generic case and printed for the record.
    rng = np.random.default_rng(404)
    iso_loss, iso_mean = [], []
    gen_loss, gen_mean = [], []
    for rep in range(5):
        sl, sm = perturbation_slopes(rng, isometric=True)
        iso_loss.append(sl)
        iso_mean.append(sm)
        sl, sm = perturbation_slopes(rng, isometric=False)
        gen_loss.append(sl)
        gen_mean.append(sm)
    iso_loss, gen_loss = np.mean(iso_loss), np.mean(gen_loss)
    iso_mean, gen_mean = np.mean(iso_mean), np.mean(gen_mean)
    assert abs(iso_loss - 2.0) <= 0.3
    assert abs(gen_loss - 1.0) <= 0.3
    assert abs(gen_mean - 1.0) <= 0.3  # normalized output mean moves at O(eps)
    announce(
        4,
        f"(loss-response slopes: near-isometric {iso_loss:.3f}, generic {gen_loss:.3f}; "
        f"mean-displacement slopes: {iso_mean:.3f} / {gen_mean:.3f})",
    )


# ----------------------------------------------------- criteria 5-7 fixtures
#
# One fixed Swiss-roll universe is shared by the desk-scale reproductions:
# 2000 points, chart diameter ~91.  The embedding mesh pairs a neighborhood
# radius just below the noisy bridging threshold (subsample variation then
# produces both unrolled and coiled charts) with one above it (tightly
# coiled charts, whose dominant loop is a large fraction of their diameter).

ROLL_SEED = 42
# epsilon = 5.0 sits just under the noisy bridging threshold (subsample
# variation yields both chart classes); 7.0 exceeds the inter-sheet gap and
# coils every subsample tightly
ROLL_MESH = (
    EmbeddingParams(method="isomap", target_dim=2, epsilon=5.0),
    EmbeddingParams(method="isomap", target_dim=2, epsilon=7.0),
)


def roll_universe():
    sample = swiss_roll(2000, seed=ROLL_SEED)
    chart = sample.intrinsic
    diam = float(pdist(chart.present_matrix().T).max())
    return sample, chart, diam


def normalized_chart_distance(config, chart):
    pa = affine_procrustes(config, chart)
    return pa.distance / np.sqrt(pa.overlap_size)


def member_ph1(config):
    """Degree-1 max bar with the pipeline's representative settings."""
    diam = float(pdist(config.present_matrix().T).max())
    diagram = rips_persistence(
        config, max_dim=1, p=2, max_radius=1.01 * diam, landmark_budget=100
    )
    return max_bar_length(diagram, 1), diam


def re_embed_member(x, config, record):
    """Recompute one ensemble member from its (subsample, params) record."""
    subsample_index, params_index = record.subsample, record.params
    present = x.present_indices()
    subsets = generate_subsamples(
        present.size, config.subsample_size, config.n_subsamples, config.seed
    )
    keep = np.zeros(x.n_global, dtype=bool)
    keep[present[subsets[subsample_index]]] = True
    return isomap(x.restrict(keep), config.dimred[params_index])


@pytest.mark.slow
def test_criterion_05_swiss_roll_noise():
    start = time.time()
    sample, chart, chart_diam = roll_universe()
    noisy = add_gaussian_noise(sample.points3d, 0.05 * GAP, seed=ROLL_SEED + 1)
    config = PipelineConfig(
        n_subsamples=200, subsample_size=600, dimred=ROLL_MESH, seed=7
    )
    report = run_pipeline(noisy, config)

    dist = normalized_chart_distance(report.embedding, chart)
    bound = 0.05 * chart_diam
    assert dist <= bound

    # the winning cluster satisfies the bar gate and is unrolled
    good = report.clusters[report.good_cluster]
    gamma = config.ph_bar_fraction
    assert max(good.ph1_max_bars) <= gamma * good.rep_diameter

    # separation of the degree-1 statistic between unrolled and coiled
    # representatives (re-embedded from their provenance records); coiled
    # representatives come from the large-radius members of the biggest
    # disjoint cluster — the canonical coiled class (a few transitional
    # small-radius charts chain into that cluster and sit between classes)
    rng = np.random.default_rng(505)
    coiled_cluster = max(
        (c for i, c in enumerate(report.clusters) if i != report.good_cluster),
        key=lambda c: c.size,
    )
    coiled_pool = np.asarray(
        [m for m in coiled_cluster.members if report.members[m].params == 1]
    )
    assert coiled_pool.size >= 100
    for rep in rng.choice(np.asarray(good.members), size=5, replace=False):
        out = re_embed_member(noisy, config, report.members[rep])
        assert normalized_chart_distance(out.config, chart) <= bound  # unrolled
        bar, diam = member_ph1(out.config)
        assert bar <= gamma * diam
    for rep in rng.choice(coiled_pool, size=5, replace=False):
        out = re_embed_member(noisy, config, report.members[rep])
        assert normalized_chart_distance(out.config, chart) > bound  # coiled
        bar, diam = member_ph1(out.config)
        assert bar >= 3.0 * gamma * diam
    elapsed = time.time() - start
    assert elapsed <= 600.0
    announce(
        5,
        f"(distance {dist:.3f} <= {bound:.2f}, good cluster size {good.size}, {elapsed:.0f}s)",
    )


@pytest.mark.slow
def test_criterion_06_swiss_roll_outliers():
    """Box-outlier reproduction: 100 uniform box outliers on the 2000-point roll.

    Two clauses.  The averaged embedding, compared with the ground-truth
    chart on the roll points, is unrolled (distance within 5% of the chart
    diameter).  At least 80% of the injected outliers are reported as
    outliers, that is, held by no member of the good cluster.

    Outliers between the turns of the roll would short-circuit every
    neighbourhood graph and coil every member.  The pipeline rejects them
    before embedding: each point is scored, against the full input, by its
    distance from the 2-d PCA plane of its nearest neighbours, and points
    scoring far above the median are left out of every member, so they
    reach the report's outliers through the missing-points path.
    """
    start = time.time()
    sample, chart, chart_diam = roll_universe()
    widened, injected = add_uniform_outliers(sample.points3d, 100, seed=ROLL_SEED + 2)
    config = PipelineConfig(
        n_subsamples=200, subsample_size=600, dimred=ROLL_MESH, seed=8
    )
    report = run_pipeline(widened, config)

    # the chart covers the roll points only; widened to the input's index
    # set, its mask keeps the distance measured on the roll
    roll_chart = Configuration.from_rows(chart.present_matrix().T, n_global=widened.n_global)
    dist = normalized_chart_distance(report.embedding, roll_chart)
    bound = 0.05 * chart_diam
    assert dist <= bound

    caught = float(np.isin(injected, report.outliers).mean())
    elapsed = time.time() - start
    print(
        f"criterion 6: unrolled output distance {dist:.3f} <= {bound:.2f}; "
        f"outlier capture {caught:.2f} (requirement 0.80), {elapsed:.0f}s"
    )
    assert caught >= 0.8, (
        f"only {caught:.0%} of injected outliers are reported as outliers; "
        "the rest are held by some member of the good cluster"
    )
    announce(6, f"(distance {dist:.3f}, capture {caught:.2f}, {elapsed:.0f}s)")


@pytest.mark.slow
def test_criterion_07_parameter_sweep():
    start = time.time()
    n = 1200  # clean roll at desk scale; the criterion pins the mesh, not n
    sample = swiss_roll(n, seed=21)
    chart = sample.intrinsic
    chart_diam = float(pdist(chart.present_matrix().T).max())
    mesh = np.linspace(2.4, 8.0, 30)
    params = tuple(
        EmbeddingParams(method="isomap", target_dim=2, epsilon=float(e)) for e in mesh
    )
    config = PipelineConfig(
        n_subsamples=1, subsample_size=n, dimred=params, seed=3, min_cluster_size=2
    )
    from robust_coords.ensemble import build_ensemble

    ensemble = build_ensemble(sample.points3d, config)
    assert len(ensemble) == 30
    d = dissimilarity_matrix(ensemble)
    clusters = cluster_ensemble(d, _cutoffs(d, config, 0.0), config.min_cluster_size)
    assert len(clusters) >= 2

    eps_index = np.array([out.params_index for out in ensemble])
    labels = np.array(
        [
            normalized_chart_distance(out.config, chart) <= 0.05 * chart_diam
            for out in ensemble
        ]
    )
    unrolled_cluster = max(
        clusters, key=lambda c: (labels[np.asarray(c.members)].sum(), c.size)
    )
    members = np.asarray(unrolled_cluster.members)
    assert labels[members].mean() >= 0.9
    # contiguity in the epsilon mesh
    positions = np.sort(eps_index[members])
    assert np.array_equal(positions, np.arange(positions[0], positions[-1] + 1))

    member_label = np.zeros(len(ensemble), dtype=int)
    for ci, c in enumerate(clusters):
        member_label[np.asarray(c.members)] = ci
    cross = d[member_label[:, None] != member_label[None, :]]
    ratio = cross.max() / max(unrolled_cluster.median_intra_distance, 1e-12)
    assert ratio >= 5.0
    elapsed = time.time() - start
    announce(
        7,
        f"({len(clusters)} clusters, unrolled eps block size {members.size}, "
        f"separation x{ratio:.0f}, {elapsed:.0f}s)",
    )


# --------------------------------------------------------------- criterion 8


@pytest.mark.slow
def test_criterion_08_buckyball():
    start = time.time()
    # pipeline half: subsampled noisy buckyball admits no good 2-d cluster
    bucky = buckyball(0.06, seed=5000)
    config = PipelineConfig(
        n_subsamples=200,
        subsample_size=48,
        dimred=(EmbeddingParams(method="isomap", target_dim=2, knn=5),),
        seed=9,
    )
    with pytest.raises(NoGoodCluster) as info:
        run_pipeline(bucky, config)
    assert info.value.report is not None
    assert all(c.verdict is not None for c in info.value.report.clusters)

    # homology half: the ensemble of embeddings of independently noisy
    # buckyballs approximates the real projective plane, whose degree-1 and
    # degree-2 classes exist over F2 but vanish over F3
    params = EmbeddingParams(method="isomap", target_dim=2, knn=5)
    outs = [isomap(buckyball(0.06, seed=5000 + i), params) for i in range(200)]
    d = dissimilarity_matrix(outs)
    bars = {}
    for p in (2, 3):
        diagram = rips_from_distances(
            d, max_dim=2, p=p, max_radius=1.01 * float(d.max()), landmark_budget=60
        )
        bars[p] = (max_bar_length(diagram, 1), max_bar_length(diagram, 2))
    ratio1 = bars[2][0] / max(bars[3][0], 1e-12)
    ratio2 = bars[2][1] / max(bars[3][1], 1e-12)
    assert ratio1 >= 3.0
    assert ratio2 >= 3.0
    elapsed = time.time() - start
    assert elapsed <= 900.0
    announce(
        8,
        f"(no good cluster; F2/F3 bar ratios PH1 x{ratio1:.2f}, PH2 x{ratio2:.2f}, {elapsed:.0f}s)",
    )


# -------------------------------------------------------------- criterion 10


C10_OUTPUTS = ("report.json", "embedding.csv", "outliers.csv", "mds_view.csv")


def write_c10_manifest(tmp_path):
    """Criterion 10's desk-scale roll and manifest; returns the manifest path."""
    roll_csv = tmp_path / "roll.csv"
    assert (
        run_command(
            ["synth", "swiss-roll", "--n", "500", "--seed", "12", "--out", str(roll_csv)]
        )
        == 0
    )
    manifest = {
        "format_version": "1",
        "input_path": "roll.csv",
        "output_dir": "out",
        "config": {
            "n_subsamples": 40,
            "subsample_size": 250,
            "seed": 5,
            "dimred": [{"method": "isomap", "target_dim": 2, "epsilon": 4.5}],
            "cluster_link_fraction": 1.0,
            "dense_median_fraction": 1.0,
            "ph_bar_fraction": 0.5,
            "min_cluster_size": 5,
            "ph_representatives": 5,
        },
    }
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    return mpath


@pytest.mark.slow
def test_criterion_10_determinism(tmp_path):
    # byte-identical outputs for equal seeds, exercised end to end through
    # the CLI on a desk-scale manifest
    mpath = write_c10_manifest(tmp_path)
    outputs = []
    for run_dir in ("r1", "r2"):
        code = run_command(
            ["run", "--manifest", str(mpath), "--out", str(tmp_path / run_dir)]
        )
        assert code == 0
        outputs.append(tmp_path / run_dir)
    for name in C10_OUTPUTS:
        a = (outputs[0] / name).read_bytes()
        b = (outputs[1] / name).read_bytes()
        assert a == b, f"{name} differs between equal-seed runs"
    announce(10, "(byte-identical report.json, embedding.csv, outliers.csv, mds_view.csv)")


@pytest.mark.slow
def test_outputs_independent_of_blas_threads(tmp_path):
    # criterion 10's manifest, run through the CLI in fresh processes at 1
    # and 2 OpenBLAS threads, writes the same bytes
    mpath = write_c10_manifest(tmp_path)
    src = str(Path(robust_coords.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / f"threads{threads}"
        subprocess.run(
            [sys.executable, "-c", "from robust_coords.cli_io import main; main()",
             "run", "--manifest", str(mpath), "--out", str(out), "--no-plots"],
            env=env, capture_output=True, text=True, timeout=600, check=True,
        )
        outputs.append(out)
    for name in C10_OUTPUTS:
        a = (outputs[0] / name).read_bytes()
        b = (outputs[1] / name).read_bytes()
        assert a == b, f"{name} differs between 1 and 2 BLAS threads"


@pytest.mark.slow
def test_outputs_independent_of_worker_count(tmp_path, monkeypatch):
    # criterion 10's manifest, embedded by 1 and by 2 processes, writes the
    # same bytes
    mpath = write_c10_manifest(tmp_path)
    outputs = []
    for workers in (1, 2):
        set_process_count(monkeypatch, workers)
        out = tmp_path / f"workers{workers}"
        assert run_command(["run", "--manifest", str(mpath), "--out", str(out)]) == 0
        outputs.append(out)
    for name in C10_OUTPUTS:
        a = (outputs[0] / name).read_bytes()
        b = (outputs[1] / name).read_bytes()
        assert a == b, f"{name} differs between 1 and 2 workers"


# --------------------------------------------------------------- criterion 9


def test_criterion_09_tda_unit_truths():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    dg = rips_persistence(square, max_dim=1, p=2, max_radius=2.0)
    assert dg.bars[1].shape == (1, 2)
    assert abs(dg.bars[1][0, 0] - 1.0) <= 1e-12
    assert abs(dg.bars[1][0, 1] - np.sqrt(2.0)) <= 1e-12

    triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
    dg = rips_persistence(triangle, max_dim=1, p=2, max_radius=2.0)
    assert dg.bars[1].shape == (0, 2)

    from test_tda import assert_bars_equal, oracle_rips
    from scipy.spatial.distance import squareform

    rng = np.random.default_rng(909)
    for trial in range(50):
        n = int(rng.integers(4, 9))
        pts = rng.normal(size=(n, 2))
        dmat = squareform(pdist(pts))
        radius = 0.85 * dmat.max()
        p = int(rng.choice([2, 3, 5]))
        ours = rips_from_distances(dmat, max_dim=1, p=p, max_radius=radius)
        ref = oracle_rips(dmat, 1, p, radius)
        for q in (0, 1):
            assert_bars_equal(ours.bars[q], ref[q])
    announce(9, "(unit-square bar [1, sqrt 2), triangle empty, 50 oracle matches)")
