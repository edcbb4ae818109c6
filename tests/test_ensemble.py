import copy
import logging
import os
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import pdist, squareform

import robust_coords
from robust_coords.core_types import Configuration, RigidMotion
from robust_coords.dimred import EmbeddingOutput, EmbeddingParams, classical_mds, pca_embed
from robust_coords.ensemble import (
    ClusterReport,
    MemberRecord,
    PipelineConfig,
    PipelineReport,
    Thresholds,
    _cutoffs,
    average_cluster,
    build_ensemble,
    cluster_ensemble,
    dissimilarity_matrix,
    generate_subsamples,
    off_manifold_points,
    run_pipeline,
    select_good_cluster,
)
from robust_coords.errors import DimensionMismatch, EmptyOverlap, NoGoodCluster, SizeTooLarge
from robust_coords.gpa_als import AlignmentResult, AlsOptions
from robust_coords.procrustes_pair import affine_procrustes
from robust_coords.tda import (
    PersistenceDiagram,
    max_bar_length,
    maxmin_landmarks,
    rips_from_distances,
    rips_persistence,
)

from conftest import (
    random_config,
    random_motion,
    random_orthogonal,
    rotation_2d,
    set_process_count,
)


PCA_PARAMS = EmbeddingParams(method="pca", target_dim=2)


def wrap(config, index=0):
    return EmbeddingOutput(
        config=config,
        dropped=np.empty(0, dtype=int),
        subsample_index=index,
        params_index=0,
    )


def clusters_of(d, config, scale=0.0):
    """cluster_ensemble at the thresholds that run_pipeline derives from
    config and the members' scale."""
    return cluster_ensemble(d, _cutoffs(d, config, scale), config.min_cluster_size)


def the_good_one(clusters):
    """The one cluster whose verdict is good; fails unless there is exactly one."""
    (winner,) = [c for c in clusters if c.verdict == "good"]
    return winner


def small_config(**kw):
    return PipelineConfig(
        n_subsamples=4,
        subsample_size=8,
        dimred=(PCA_PARAMS,),
        min_cluster_size=kw.pop("min_cluster_size", 2),
        ph_representatives=kw.pop("ph_representatives", 2),
        **kw,
    )


# ------------------------------------------------------------- subsamples


def test_generate_subsamples_full_set():
    subs = generate_subsamples(5, 5, 3, seed=0)
    assert len(subs) == 3
    for s in subs:
        assert np.array_equal(s, np.arange(5))


def test_generate_subsamples_reproducible():
    a = generate_subsamples(2000, 600, 200, seed=9)
    b = generate_subsamples(2000, 600, 200, seed=9)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = generate_subsamples(2000, 600, 200, seed=10)
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))
    for s in a:
        assert len(np.unique(s)) == 600


def test_generate_subsamples_invalid_sizes():
    with pytest.raises(SizeTooLarge):
        generate_subsamples(10, 11, 1, seed=0)
    with pytest.raises(SizeTooLarge):
        generate_subsamples(10, 0, 1, seed=0)


def test_integer_settings_refuse_non_integers():
    # these once reached numpy and died there with a TypeError
    def pipeline(**kw):
        return PipelineConfig(**{"n_subsamples": 2, "subsample_size": 8, "dimred": (PCA_PARAMS,), **kw})

    def isomap(**kw):
        return EmbeddingParams(**{"target_dim": 2, "knn": 6, **kw})

    cases = [
        (pipeline, "n_subsamples", 2.5), (pipeline, "subsample_size", 8.0),
        (pipeline, "seed", 1.5), (pipeline, "seed", True),
        (pipeline, "min_cluster_size", 5.0), (pipeline, "ph_representatives", "3"),
        (isomap, "knn", 6.0), (isomap, "knn", np.float64(6.0)), (isomap, "target_dim", 2.0),
        (AlsOptions, "max_iter", 5.5), (AlsOptions, "min_iter", False),
    ]
    for make, name, value in cases:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            make(**{name: value})
    # numpy integers are integers, and None stays allowed where the hint has it
    config = pipeline(seed=np.int64(3), min_cluster_size=np.int32(2))
    assert config.seed == 3
    assert isomap(knn=np.int64(6)).knn == 6
    assert isomap(epsilon=1.0, knn=None).knn is None
    assert AlsOptions(max_iter=np.uint8(9)).max_iter == 9


def test_stage_functions_refuse_non_integer_arguments(rng):
    # each once raised a TypeError deep inside, ran on a truncated value, or
    # took a bool as 1
    pts = rng.normal(size=(12, 3))
    dmat = squareform(pdist(pts))
    cases = [
        ("max_dim", lambda: rips_from_distances(dmat, max_dim=1.0)),
        ("max_dim", lambda: rips_from_distances(dmat, max_dim=True)),
        ("p", lambda: rips_from_distances(dmat, p=3.0)),
        ("landmark_budget", lambda: rips_from_distances(dmat, landmark_budget=2.5)),
        ("max_simplices", lambda: rips_from_distances(dmat, max_simplices=1e7)),
        ("max_dim", lambda: rips_persistence(pts, max_dim=np.float64(1.0))),
        ("d", lambda: pca_embed(Configuration.from_rows(pts), 2.0)),
        ("d", lambda: classical_mds(dmat, 2.0)),
        ("d", lambda: classical_mds(dmat, False)),
    ]
    for name, call in cases:
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call()
    # numpy integers are integers
    assert rips_from_distances(dmat, max_dim=np.int64(1), p=np.int32(3)).prime == 3
    assert classical_mds(dmat, np.int64(2)).dim == 2


def test_subsampling_and_landmark_functions_refuse_non_integer_arguments(rng):
    # each once raised numpy's TypeError or a slicing TypeError, or ran on a
    # truncated value, or took a bool as 1
    x = Configuration.from_rows(rng.normal(size=(40, 3)))
    dmat = squareform(pdist(x.present_matrix().T))
    cases = [
        ("size", lambda: generate_subsamples(10, 2.5, 2, 0)),
        ("count", lambda: generate_subsamples(10, 5, 2.0, 0)),
        ("seed", lambda: generate_subsamples(10, 5, 2, 0.5)),
        ("n", lambda: generate_subsamples(True, 1, 1, 0)),
        ("target_dim", lambda: off_manifold_points(x, 2.0)),
        ("target_dim", lambda: off_manifold_points(x, True)),
        ("count", lambda: maxmin_landmarks(dmat, 2.5)),
        ("count", lambda: maxmin_landmarks(dmat, True)),
    ]
    for name, call in cases:
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call()
    # numpy integers are integers
    subs = generate_subsamples(np.int64(10), np.int32(5), np.int64(2), np.int64(0))
    assert [len(s) for s in subs] == [5, 5]
    assert np.array_equal(off_manifold_points(x, np.int64(2)), off_manifold_points(x, 2))
    assert maxmin_landmarks(dmat, np.int64(3)).size == 3


# ----------------------------------------------------------- build_ensemble


def test_build_ensemble_singleton_equals_direct(rng):
    from robust_coords.dimred import pca_embed

    pts = rng.normal(size=(30, 4))
    x = Configuration.from_rows(pts)
    config = PipelineConfig(n_subsamples=1, subsample_size=30, dimred=(PCA_PARAMS,), seed=1)
    out = build_ensemble(x, config)
    assert len(out) == 1
    direct = pca_embed(x, 2)
    assert np.allclose(out[0].config.coords, direct.config.coords)


def test_build_ensemble_indexing_inherited(rng):
    pts = rng.normal(size=(40, 3))
    x = Configuration.from_rows(pts)
    config = PipelineConfig(n_subsamples=6, subsample_size=20, dimred=(PCA_PARAMS,), seed=3)
    outs = build_ensemble(x, config)
    subs = generate_subsamples(40, 20, 6, seed=3)
    assert len(outs) == 6
    for out, sub in zip(outs, subs):
        assert np.array_equal(out.config.present_indices(), sub)
        assert out.config.n_global == 40


def test_build_ensemble_skips_failures(rng, caplog):
    # epsilon far below the point spacing fragments the graph: every item
    # fails and is logged, none aborts the run
    pts = rng.normal(size=(20, 2)) * 100.0
    x = Configuration.from_rows(pts)
    bad = EmbeddingParams(method="isomap", target_dim=2, epsilon=1e-6)
    config = PipelineConfig(
        n_subsamples=2, subsample_size=15, dimred=(bad, PCA_PARAMS), seed=0
    )
    outs = build_ensemble(x, config)
    assert len(outs) == 2
    assert all(config.dimred[o.params_index].method == "pca" for o in outs)


def roll_with_partial_chart(tmp_path, rng):
    # a 3-d roll with box outliers, so that rejected points reach `dropped`,
    # and an external chart covering ids 0-5 only, so that the subsamples
    # holding none of them fail with EmptyOverlap
    from robust_coords.cli_io import write_points_csv
    from robust_coords.synth import add_uniform_outliers, swiss_roll

    x, _ = add_uniform_outliers(swiss_roll(150, seed=8).points3d, 10, seed=9)
    path = tmp_path / "partial.csv"
    write_points_csv(Configuration.from_rows(rng.normal(size=(6, 2))), path)
    config = PipelineConfig(
        n_subsamples=8,
        subsample_size=40,
        seed=2,
        dimred=(
            EmbeddingParams(target_dim=2, knn=8),
            EmbeddingParams(method="external", target_dim=2, source=str(path)),
        ),
    )
    return x, config


def test_build_ensemble_same_members_for_any_worker_count(
    tmp_path, rng, caplog, monkeypatch
):
    import multiprocessing

    x, config = roll_with_partial_chart(tmp_path, rng)
    runs = []
    for workers in (1, 2):
        set_process_count(monkeypatch, workers)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="robust_coords.ensemble"):
            members = build_ensemble(x, config)
        assert multiprocessing.active_children() == []
        logged = [(r.getMessage(), type(r.args[-1])) for r in caplog.records]
        runs.append((members, logged))
    (one, log_one), (two, log_two) = runs
    assert log_one == log_two
    assert any(kind is EmptyOverlap for _, kind in log_one)
    assert {m.params_index for m in one} == {0, 1}
    rejected = off_manifold_points(x, 2)
    assert rejected.size and any(np.isin(rejected, m.dropped).any() for m in one)
    assert len(one) == len(two)
    for p, q in zip(one, two):
        assert (p.subsample_index, p.params_index) == (q.subsample_index, q.params_index)
        assert np.array_equal(p.config.coords, q.config.coords)
        assert np.array_equal(p.config.mask, q.config.mask)
        assert np.array_equal(p.dropped, q.dropped)


def test_build_ensemble_leaves_each_embedding_as_embed_returned_it(tmp_path, rng, monkeypatch):
    # a tracer that keeps embed's results once read the rejected points and
    # the ensemble position off them, written in by build_ensemble
    from robust_coords import ensemble

    x, config = roll_with_partial_chart(tmp_path, rng)
    embed = ensemble.embed
    returned = []

    def kept(sub, params, chart=None):
        out = embed(sub, params, chart=chart)
        returned.append((out, out.dropped.copy()))
        return out

    monkeypatch.setattr(ensemble, "embed", kept)
    set_process_count(monkeypatch, 1)
    members = build_ensemble(x, config)
    rejected = off_manifold_points(x, 2)
    assert rejected.size and len(returned) == len(members) > 0
    for out, dropped in returned:
        assert (out.subsample_index, out.params_index) == (None, None)
        assert np.array_equal(out.dropped, dropped)
        assert not any(m is out for m in members)
    assert any(np.isin(rejected, m.dropped).any() for m in members)
    with pytest.raises(FrozenInstanceError):
        members[0].dropped = np.empty(0, dtype=int)


@pytest.mark.parametrize(
    "where, message",
    [
        ("worker", "raised in the worker"),
        ("parent", "raised in the parent"),
        ("dead worker", "worker process exited with code 3"),
    ],
)
def test_build_ensemble_reraises_other_errors_and_leaves_no_process(
    tmp_path, rng, monkeypatch, where, message
):
    import multiprocessing

    from robust_coords import ensemble

    x, config = roll_with_partial_chart(tmp_path, rng)
    parent = os.getpid()
    embed = ensemble.embed

    def embed_or_raise(sub, params, chart=None):
        if (os.getpid() == parent) == (where == "parent"):
            if where == "dead worker":
                os._exit(3)
            raise RuntimeError(f"raised in the {where}")
        return embed(sub, params, chart=chart)

    monkeypatch.setattr(ensemble, "embed", embed_or_raise)
    set_process_count(monkeypatch, 2)
    with pytest.raises(RuntimeError, match=message) as raised:
        build_ensemble(x, config)
    assert multiprocessing.active_children() == []
    if where == "worker":  # the worker's frames come along as the cause
        assert "in embed_or_raise" in str(raised.value.__cause__)


def test_build_ensemble_reads_each_external_source_once(tmp_path, rng, monkeypatch):
    from robust_coords import ensemble
    from robust_coords.core_types import write_points_csv
    from robust_coords.dimred import embed

    # 2-d input: nothing is rejected, so each member is its subsample's chart
    x = Configuration.from_rows(rng.normal(size=(60, 2)))
    path = tmp_path / "chart.csv"
    write_points_csv(Configuration.from_rows(rng.normal(size=(60, 2))), path)
    calls = tmp_path / "calls.txt"
    read = ensemble.read_points_csv

    def counted(source):  # a file, so that reads in a worker are counted too
        with open(calls, "a") as fh:
            fh.write(f"{source}\n")
        return read(source)

    monkeypatch.setattr(ensemble, "read_points_csv", counted)
    set_process_count(monkeypatch, 2)
    external = EmbeddingParams(method="external", target_dim=2, source=str(path))
    config = PipelineConfig(
        n_subsamples=8, subsample_size=30, seed=4, dimred=(external, PCA_PARAMS)
    )
    members = build_ensemble(x, config)
    assert calls.read_text().splitlines() == [str(path)]
    subsamples = generate_subsamples(60, 30, 8, seed=4)
    assert len(members) == 16
    for m in members[::2]:
        keep = np.zeros(60, dtype=bool)
        keep[subsamples[m.subsample_index]] = True
        oracle = embed(x.restrict(keep), external)  # reads the source itself
        assert np.array_equal(m.config.coords, oracle.config.coords)
        assert np.array_equal(m.config.mask, oracle.config.mask)


def test_build_ensemble_skips_all_rejected_subsample(rng, caplog, monkeypatch):
    from robust_coords import ensemble

    x = Configuration.from_rows(rng.normal(size=(80, 2)))
    config = PipelineConfig(
        n_subsamples=4,
        subsample_size=20,
        seed=3,
        dimred=(PCA_PARAMS, EmbeddingParams(target_dim=2, knn=6)),
    )
    subsamples = generate_subsamples(80, 20, 4, seed=3)
    # subsample 1 lies in the worker's share at 2 processes
    monkeypatch.setattr(ensemble, "off_manifold_points", lambda x, d: subsamples[1])
    runs = []
    for workers in (1, 2):
        set_process_count(monkeypatch, workers)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="robust_coords.ensemble"):
            members = build_ensemble(x, config)
        named = [r for r in caplog.records if "subsample 1," in r.getMessage()]
        assert [r.args[1] for r in named] == [0, 1]
        assert all(isinstance(r.args[-1], EmptyOverlap) for r in named)
        runs.append(members)
    one, two = runs
    assert [(m.subsample_index, m.params_index) for m in one] == [
        (a, b) for a in (0, 2, 3) for b in (0, 1)
    ]
    assert len(one) == len(two)
    for p, q in zip(one, two):
        assert (p.subsample_index, p.params_index) == (q.subsample_index, q.params_index)
        assert np.array_equal(p.config.coords, q.config.coords)
        assert np.array_equal(p.config.mask, q.config.mask)
        assert np.array_equal(p.dropped, q.dropped)


def test_build_ensemble_caps_processes_at_items(rng, caplog, tmp_path, monkeypatch):
    # the share key is the (subsample, setting) item, so one subsample under
    # two settings fills two processes, however many CPUs there are
    from robust_coords import ensemble

    monkeypatch.setattr(ensemble, "_CGROUP_ROOT", tmp_path)  # no quota
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    x = Configuration.from_rows(rng.normal(size=(20, 2)))
    config = PipelineConfig(n_subsamples=1, subsample_size=10, dimred=(PCA_PARAMS, PCA_PARAMS))
    with caplog.at_level(logging.INFO, logger="robust_coords.ensemble"):
        members = build_ensemble(x, config)
    assert "2 tasks in 2 processes, 1 of them in the parent" in caplog.messages
    assert [(m.subsample_index, m.params_index) for m in members] == [(0, 0), (0, 1)]
    assert np.array_equal(members[0].config.coords, members[1].config.coords)


def test_build_ensemble_same_members_at_three_workers(tmp_path, rng, caplog, monkeypatch):
    # 8 subsamples under 2 settings in 3 processes: shares of 6, 5 and 5
    # tasks, each mixing both settings
    x, config = roll_with_partial_chart(tmp_path, rng)
    runs = []
    for workers in (1, 3):
        set_process_count(monkeypatch, workers)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="robust_coords.ensemble"):
            members = build_ensemble(x, config)
        shares = [m for m in caplog.messages if "tasks in" in m]
        warned = [(r.getMessage(), type(r.args[-1])) for r in caplog.records
                  if r.levelno == logging.WARNING]
        runs.append((members, shares, warned))
    (one, share_one, warned_one), (three, share_three, warned_three) = runs
    assert share_one == ["16 tasks in 1 processes, 16 of them in the parent"]
    assert share_three == ["16 tasks in 3 processes, 6 of them in the parent"]
    assert warned_one == warned_three
    assert any(kind is EmptyOverlap for _, kind in warned_one)
    assert len(one) == len(three)
    for p, q in zip(one, three):
        assert (p.subsample_index, p.params_index) == (q.subsample_index, q.params_index)
        assert np.array_equal(p.config.coords, q.config.coords)
        assert np.array_equal(p.config.mask, q.config.mask)
        assert np.array_equal(p.dropped, q.dropped)


def test_map_in_processes_runs_share_k_in_process_k(monkeypatch):
    from robust_coords.ensemble import _map_in_processes

    set_process_count(monkeypatch, 3)
    results = _map_in_processes(lambda a: (a, os.getpid()), 7)
    assert [a for a, _ in results] == list(range(7))
    pids = [pid for _, pid in results]
    assert pids[0] == os.getpid()
    for a, pid in enumerate(pids):
        assert pid == pids[a % 3]
    assert len(set(pids)) == 3


def test_map_in_processes_caps_processes_at_tasks(tmp_path, monkeypatch, caplog):
    from robust_coords import ensemble

    monkeypatch.setattr(ensemble, "_CGROUP_ROOT", tmp_path)  # no CPU quota
    assert ensemble._process_count(1) == 1
    assert ensemble._process_count(10**6) == len(os.sched_getaffinity(0))
    set_process_count(monkeypatch, 3)
    with caplog.at_level(logging.INFO, logger="robust_coords.ensemble"):
        results = ensemble._map_in_processes(lambda a: (a, os.getpid()), 2)
    assert caplog.messages == ["2 tasks in 2 processes, 1 of them in the parent"]
    assert [a for a, _ in results] == [0, 1]
    assert results[0][1] == os.getpid() != results[1][1]


def test_map_in_processes_streams_shares_larger_than_a_pipe_buffer(monkeypatch):
    # each worker's share pickles to 2 MB, far beyond a 64 KiB pipe buffer
    from robust_coords.ensemble import _map_in_processes

    set_process_count(monkeypatch, 3)
    results = _map_in_processes(lambda a: (a, os.getpid(), np.full(1 << 17, float(a))), 7)
    assert [a for a, _, _ in results] == list(range(7))
    assert len({pid for _, pid, _ in results}) == 3
    for a, _, values in results:
        assert np.array_equal(values, np.full(1 << 17, float(a)))


def test_map_in_processes_sends_no_result_of_a_failed_share(monkeypatch):
    import multiprocessing

    from robust_coords.ensemble import _map_in_processes, _map_share

    def fail_last(a):
        if a == 3:
            raise ValueError(f"task {a} failed")
        return np.full(1 << 17, float(a))

    # the share's results are never sent: only the exception, with its frames
    reader, writer = multiprocessing.Pipe(duplex=False)
    _map_share(fail_last, range(1, 4), writer)
    writer.close()
    exc, text = reader.recv()
    assert isinstance(exc, ValueError) and "in fail_last" in text
    with pytest.raises(EOFError):
        reader.recv_bytes()
    reader.close()

    # task 3 is the last of the worker's share (1, 3) at 2 processes
    set_process_count(monkeypatch, 2)
    with pytest.raises(ValueError, match="task 3 failed") as raised:
        _map_in_processes(fail_last, 4)
    assert "in fail_last" in str(raised.value.__cause__)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "files, quota",
    [
        ({"cpu.max": "200000 100000\n"}, 2),
        ({"cpu.max": "150000 100000\n"}, 2),
        ({"cpu.max": "50000 100000\n"}, 1),
        ({"cpu.max": "max 100000\n"}, None),
        ({"cpu/cpu.cfs_quota_us": "250000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 3),
        ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, None),
        ({"cpu/cpu.cfs_quota_us": "100000\n"}, None),
        ({}, None),
    ],
    ids=["v2-2", "v2-1.5", "v2-0.5", "v2-max", "v1-2.5", "v1-none", "v1-no-period", "none"],
)
def test_cpu_quota_read_from_cgroup_files(tmp_path, files, quota):
    from robust_coords import ensemble

    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    assert ensemble._cpu_quota(tmp_path) == quota


def test_process_count_capped_at_cpu_quota(tmp_path, monkeypatch):
    from robust_coords import ensemble

    cpus = len(os.sched_getaffinity(0))
    monkeypatch.setattr(ensemble, "_CGROUP_ROOT", tmp_path)
    (tmp_path / "cpu.max").write_text("100000 100000\n")
    assert ensemble._process_count(10**6) == 1
    (tmp_path / "cpu.max").write_text(f"{100000 * (cpus + 1)} 100000\n")
    assert ensemble._process_count(10**6) == cpus
    assert ensemble._process_count(1) == 1


LAYERING_SCRIPT = """
import sys
import numpy as np
import robust_coords
from robust_coords.core_types import write_points_csv
chart = sys.argv[1]
rng = np.random.default_rng(6)
write_points_csv(robust_coords.Configuration.from_rows(rng.normal(size=(40, 2))), chart)
x = robust_coords.Configuration.from_rows(rng.normal(size=(40, 2)))
external = robust_coords.EmbeddingParams(method="external", target_dim=2, source=chart)
config = robust_coords.PipelineConfig(n_subsamples=3, subsample_size=20, dimred=(external,))
assert len(robust_coords.build_ensemble(x, config)) == 3
print(sorted(m for m in sys.modules if m.startswith("robust_coords")))
"""


def test_build_ensemble_never_imports_the_cli_module(tmp_path):
    src = str(Path(robust_coords.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", LAYERING_SCRIPT, str(tmp_path / "chart.csv")],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    loaded = proc.stdout.strip()
    assert "'robust_coords.ensemble'" in loaded
    assert "robust_coords.cli_io" not in loaded


# ---------------------------------------------------- dissimilarity matrix


def test_dissimilarity_identical_members(rng):
    cfg = random_config(rng, n=12)
    ens = [wrap(cfg, i) for i in range(4)]
    d = dissimilarity_matrix(ens)
    assert d.shape == (4, 4)
    assert np.abs(d).max() <= 1e-9


def test_dissimilarity_rigid_invariance_and_outlier(rng):
    base = random_config(rng, n=12)
    twisted = base.transformed(random_motion(rng, 2))
    stretched = Configuration(base.coords * np.array([[3.0], [0.2]]))
    d = dissimilarity_matrix([wrap(base), wrap(twisted), wrap(stretched)])
    assert d[0, 1] <= 1e-9
    assert d[0, 2] > 10 * (d[0, 1] + 1e-12)
    assert np.allclose(d, d.T)


def per_pair_dissimilarity(ensemble):
    """The reference: one exact ``affine_procrustes`` solve per pair, and
    inf for pairs sharing fewer than two indices."""
    k = len(ensemble)
    d = np.zeros((k, k))
    missing = []
    for i in range(k):
        for j in range(i + 1, k):
            try:
                pa = affine_procrustes(ensemble[i].config, ensemble[j].config)
                d[i, j] = d[j, i] = pa.distance / np.sqrt(pa.overlap_size)
            except EmptyOverlap:
                missing.append((i, j))
                continue
            if pa.overlap_size < 2:
                missing.append((i, j))
    for i, j in missing:
        d[i, j] = d[j, i] = np.inf
    return d


def nearest_pairs(d):
    """Each row's nearest other member, as (low, high) index pairs."""
    off = d + np.diag(np.full(len(d), np.inf))
    return {tuple(sorted((i, int(j)))) for i, j in enumerate(off.argmin(axis=1))}


def partial_ensemble(rng, d, kind, k=12, n=40):
    """Noisy rigid copies (reflections included) of one shape, on random
    partial domains; "collinear" shapes give rank-1 cross-covariances."""
    base = rng.normal(size=(d, n))
    if kind == "collinear":
        base = np.outer(rng.normal(size=d), rng.normal(size=n))
    ens = []
    for i in range(k):
        coords = random_orthogonal(rng, d) @ base + rng.normal(size=(d, 1))
        if kind == "collinear" and i % 2:
            coords = np.outer(rng.normal(size=d), rng.normal(size=n))
        else:
            coords = coords + 0.1 * rng.normal(size=(d, n))
        mask = rng.random(n) < 0.7
        mask[:3] = True  # every pair shares an index
        ens.append(wrap(Configuration(coords, mask), i))
    return ens


def assert_matches_per_pair_oracle(ens):
    got = dissimilarity_matrix(ens)
    want = per_pair_dissimilarity(ens)
    off = ~np.eye(len(ens), dtype=bool)
    assert np.array_equal(got, got.T)
    assert np.all(np.diag(got) == 0.0)
    assert np.max(np.abs(got - want)[off] / want[off]) <= 1e-10
    for i, j in nearest_pairs(got):
        assert got[i, j] == want[i, j]


@pytest.mark.parametrize("kind", ["reflected", "collinear"])
@pytest.mark.parametrize("d", [2, 3])
def test_dissimilarity_matches_per_pair_oracle(rng, d, kind):
    assert_matches_per_pair_oracle(partial_ensemble(rng, d, kind))


@pytest.mark.parametrize("kind", ["reflected", "collinear"])
@pytest.mark.parametrize("d", [2, 3])
def test_dissimilarity_matches_per_pair_oracle_across_tiles(rng, d, kind):
    from robust_coords.ensemble import _dissimilarity_tile

    assert _dissimilarity_tile(d, 2000) < 20
    assert_matches_per_pair_oracle(partial_ensemble(rng, d, kind, k=20, n=2000))


def test_dissimilarity_empty_overlap_sentinel(rng, caplog):
    from robust_coords.ensemble import _with_sentinel

    coords = rng.normal(size=(2, 10))
    a = Configuration(coords, np.arange(10) < 5)
    b = Configuration(coords, np.arange(10) >= 5)
    c = Configuration(coords)
    ens = [wrap(a), wrap(b), wrap(c)]
    with caplog.at_level(logging.WARNING, logger="robust_coords.ensemble"):
        d = dissimilarity_matrix(ens)
    assert d[0, 1] == d[1, 0] == np.inf
    # every finite entry is some member's nearest pair, so solved exactly
    assert np.array_equal(d, per_pair_dissimilarity(ens))
    # the MDS view places the pair at twice the largest finite entry
    finite_max = max(d[0, 2], d[1, 2])
    assert _with_sentinel(d)[0, 1] == 2.0 * finite_max
    (record,) = caplog.records
    assert record.getMessage() == "1 member pairs share fewer than 2 indices"


@pytest.mark.parametrize(
    "other",
    [
        Configuration(np.ones((3, 10))),
        Configuration(np.ones((2, 11))),
    ],
    ids=["dim", "n_global"],
)
def test_dissimilarity_rejects_incompatible_members(rng, other):
    ens = [wrap(random_config(rng, n=10)), wrap(random_config(rng, n=10)), wrap(other)]
    with pytest.raises(DimensionMismatch):
        dissimilarity_matrix(ens)
    with pytest.raises(ValueError):
        dissimilarity_matrix(ens[:1])


def near_copies(rng, count, sigma, n=250):
    """One chart-scale member and count - 1 copies of it plus N(0, sigma^2)."""
    base = np.vstack([rng.uniform(0.0, 50.0, n), rng.uniform(0.0, 21.0, n)])
    members = [base] + [base + sigma * rng.normal(size=base.shape) for _ in range(count - 1)]
    return [wrap(Configuration(c), i) for i, c in enumerate(members)]


def test_dissimilarity_near_identical_pair_is_exact(rng):
    # the closed form alone reads 0 here, or up to 60 times the exact value
    ens = near_copies(rng, 2, 1e-8)
    d = dissimilarity_matrix(ens)
    assert np.array_equal(d, per_pair_dissimilarity(ens))
    assert d[0, 1] > 0.0


@pytest.mark.parametrize("sigma", [1e-2, 1e-4, 1e-6, 1e-8])
def test_dissimilarity_near_identical_triple(rng, sigma):
    # at sigma <= 1e-6 the closed form alone ranks these pairs wrongly, so
    # re-solving only its own nearest pairs would miss the true nearest
    ens = near_copies(rng, 3, sigma)
    got = dissimilarity_matrix(ens)
    want = per_pair_dissimilarity(ens)
    for i, j in nearest_pairs(want):
        assert got[i, j] == want[i, j]
    iu = np.triu_indices(3, 1)
    assert np.max(np.abs(got - want)[iu] / want[iu]) <= 1e-10


BITS_SCRIPT = """
import hashlib, numpy as np
from robust_coords.core_types import Configuration
from robust_coords.dimred import EmbeddingOutput
from robust_coords.ensemble import dissimilarity_matrix
rng = np.random.default_rng(11)
ens = [
    EmbeddingOutput(config=Configuration(rng.normal(size=(2, 2000)), rng.random(2000) < 0.6),
                    dropped=np.empty(0, dtype=int), subsample_index=i, params_index=0)
    for i in range(64)
]
print(hashlib.sha256(dissimilarity_matrix(ens).tobytes()).hexdigest())
"""


def test_dissimilarity_independent_of_blas_threads():
    # 64 members over 2000 indices: large enough that threaded BLAS
    # products of this size change the last bits
    src = str(Path(robust_coords.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", BITS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def stacked_closed_form(configs):
    """The reference: the closed form over stacks of all k members, in
    blocks of rows against the columns from the block's first row on, with
    the upper triangle mirrored."""
    from robust_coords.ensemble import _CANCELLATION_TOL, _MIN_SHARED

    k = len(configs)
    x = np.stack([c.coords for c in configs])
    m = np.stack([c.mask for c in configs]).astype(float)
    sq = np.einsum("idn,idn->in", x, x, optimize=False)
    d = np.zeros((k, k))
    imprecise = np.zeros((k, k), dtype=bool)
    for start in range(0, k, 16):
        rows = slice(start, min(start + 16, k))
        cols = slice(start, k)
        count = np.einsum("in,jn->ij", m[rows], m[cols], optimize=False)
        sum_x = np.einsum("idn,jn->ijd", x[rows], m[cols], optimize=False)
        sum_y = np.einsum("in,jdn->ijd", m[rows], x[cols], optimize=False)
        norm_x = np.einsum("in,jn->ij", sq[rows], m[cols], optimize=False)
        norm_y = np.einsum("in,jn->ij", m[rows], sq[cols], optimize=False)
        cross = np.einsum("idn,jen->ijde", x[rows], x[cols], optimize=False)
        inv = 1.0 / np.maximum(count, 1.0)
        cross -= sum_x[..., :, None] * sum_y[..., None, :] * inv[..., None, None]
        nuclear = np.linalg.svd(cross, compute_uv=False).sum(axis=-1)
        centred = norm_x + norm_y - ((sum_x**2).sum(-1) + (sum_y**2).sum(-1)) * inv
        resid2 = np.maximum(centred - 2.0 * nuclear, 0.0)
        shared = count >= _MIN_SHARED
        d[rows, cols] = np.where(shared, np.sqrt(resid2 * inv), np.inf)
        imprecise[rows, cols] = shared & (resid2 <= _CANCELLATION_TOL * (norm_x + norm_y))
    d = np.triu(d, 1)
    return d + d.T, np.triu(imprecise, 1)


def tiled_ensemble(rng, d, k, n=2000):
    """k noisy rigid copies of one shape on random partial domains, with a
    near-identical pair, (1, k - 2), and a pair sharing one index, (0, k - 1),
    that lie in different column tiles once there are several."""
    base = rng.normal(size=(d, n))
    configs = []
    for _ in range(k):
        coords = random_orthogonal(rng, d) @ base + 0.1 * rng.normal(size=(d, n))
        configs.append(Configuration(coords, rng.random(n) < 0.5))
    configs[k - 2] = Configuration(configs[1].coords + 1e-9 * rng.normal(size=(d, n)),
                                   configs[1].mask)
    configs[0] = Configuration(configs[0].coords, np.arange(n) < n // 2)
    configs[k - 1] = Configuration(configs[k - 1].coords, np.arange(n) >= n // 2 - 1)
    return configs


@pytest.mark.parametrize("tiles", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3])
def test_tiled_closed_form_matches_stacked_oracle(rng, d, tiles):
    from robust_coords.ensemble import _closed_form_dissimilarities, _dissimilarity_tile

    tile = _dissimilarity_tile(d, 2000)
    k = (tiles - 1) * tile + tile // 2 + 3  # a partial last tile
    configs = tiled_ensemble(rng, d, k)
    got_d, got_imprecise = _closed_form_dissimilarities(configs)
    want_d, want_imprecise = stacked_closed_form(configs)
    assert -(-k // tile) == tiles
    assert np.array_equal(got_d, want_d)
    assert np.array_equal(got_imprecise, want_imprecise)
    assert got_d[0, k - 1] == got_d[k - 1, 0] == np.inf
    assert got_imprecise[1, k - 2] and not got_imprecise[k - 2, 1]


def test_dissimilarity_memory_does_not_grow_with_members_times_indices(rng):
    # stacking 400 members over 2000 indices takes 25.6 MB; one tile, 1 MB
    import tracemalloc

    base = rng.normal(size=(2, 2000))
    ens = []
    for i in range(400):
        mask = np.zeros(2000, dtype=bool)
        mask[rng.choice(2000, size=600, replace=False)] = True
        coords = random_orthogonal(rng, 2) @ base + 0.1 * rng.normal(size=(2, 2000))
        ens.append(wrap(Configuration(coords, mask), i))
    tracemalloc.start()
    try:
        dissimilarity_matrix(ens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_dissimilarity_normalizes_by_overlap(rng):
    # same per-point discrepancy at different overlap sizes gives the same
    # dissimilarity
    big = rng.normal(size=(2, 100))
    small = big[:, :25]
    jitter_big = Configuration(np.vstack([big[0] + 1.0, big[1]]))
    jitter_small = Configuration(np.vstack([small[0] + 1.0, small[1]]))
    mask_small = np.arange(25) < 25
    d_big = dissimilarity_matrix([wrap(Configuration(big)), wrap(Configuration(big + np.array([[0.0], [0.1]])))])[0, 1]
    d_small = dissimilarity_matrix([wrap(Configuration(small)), wrap(Configuration(small + np.array([[0.0], [0.1]])))])[0, 1]
    assert np.isclose(d_big, d_small, atol=1e-9)


# ----------------------------------------------------------------- cluster


def test_cluster_two_blobs():
    d = np.zeros((8, 8))
    blob = np.array([0, 1, 2, 3])
    other = np.array([4, 5, 6, 7])
    for grp in (blob, other):
        for i in grp:
            for j in grp:
                if i != j:
                    d[i, j] = 0.1
    for i in blob:
        for j in other:
            d[i, j] = d[j, i] = 10.0
    config = small_config()
    clusters = clusters_of(d, config)
    assert len(clusters) == 2
    sets = sorted(tuple(c.members) for c in clusters)
    assert sets == [tuple(blob), tuple(other)]


def test_cluster_all_zero_distances():
    d = np.zeros((6, 6))
    clusters = clusters_of(d, small_config())
    assert len(clusters) == 1
    assert clusters[0].size == 6


def test_cluster_uniform_chain_splits_into_singletons():
    # chain spacing just above the cut leaves every member alone
    n = 6
    pos = np.arange(n, dtype=float)
    d = np.abs(pos[:, None] - pos[None, :])
    config = small_config(cluster_link_fraction=0.4)
    # median off-diagonal distance of the chain is 2.0 -> cut at 0.8 < 1
    clusters = clusters_of(d, config)
    assert len(clusters) == n
    assert all(c.verdict == "rejected_sparse" for c in clusters)


def test_cluster_cutoffs_floored_at_member_scale():
    # the chain of the test above, shrunk to rounding size: unfloored, the
    # cutoffs split it as before; floored at the members' scale, it is one
    # dense cluster
    pos = np.arange(6, dtype=float) * 1e-15
    d = np.abs(pos[:, None] - pos[None, :])
    config = small_config(cluster_link_fraction=0.4)
    assert len(clusters_of(d, config)) == 6
    (whole,) = clusters_of(d, config, scale=1.0)
    assert whole.size == 6 and whole.dense and whole.verdict is None


@pytest.mark.parametrize("k", [1, 3])
def test_cutoffs_refuse_a_matrix_with_no_finite_pair(k):
    # no pair was compared, so there is no median to cut at; the cutoffs
    # used to come out NaN after a "Mean of empty slice" warning
    d = np.full((k, k), np.inf)
    np.fill_diagonal(d, 0.0)
    with pytest.raises(ValueError, match="no finite off-diagonal entry"):
        _cutoffs(d, small_config(), 1.0)


def disjoint_blocks(rng, groups, sigma):
    """Two members per group, each group on its own block of 10 ids: the
    group's first member and a copy of it plus N(0, sigma^2)."""
    n = 10 * groups
    ens = []
    for g in range(groups):
        base = rng.normal(size=(2, n))
        mask = np.arange(n) // 10 == g
        for copy in (base, base + sigma * rng.normal(size=base.shape)):
            ens.append(wrap(Configuration(copy, mask), len(ens)))
    return ens


def test_cluster_never_links_identical_pairs_sharing_no_index(rng):
    # two pairs of identical members on ids 0-9 and 10-19: the cross pairs
    # share no index, so however small the in-pair entries, the two pairs
    # are never linked and ALS never averages unrelated charts
    from robust_coords.ensemble import _member_scale

    ens = disjoint_blocks(rng, 2, 0.0)
    clusters = clusters_of(dissimilarity_matrix(ens), small_config(), _member_scale(ens))
    assert [list(c.members) for c in clusters] == [[0, 1], [2, 3]]
    assert all(c.dense for c in clusters)


def test_cluster_cutoffs_ignore_pairs_sharing_no_index(rng):
    # three groups of near-copies on disjoint ids: 12 of the 15 pairs share
    # no index, so they must not set the median, and no cluster spans groups
    from robust_coords.ensemble import _member_scale

    ens = disjoint_blocks(rng, 3, 0.01)
    d = dissimilarity_matrix(ens)
    config = small_config(cluster_link_fraction=1.0, dense_median_fraction=1.0)
    clusters = clusters_of(d, config, _member_scale(ens))
    assert all(len({m // 2 for m in c.members}) == 1 for c in clusters)
    assert sum(c.dense for c in clusters) == 2
    in_group = [d[0, 1], d[2, 3], d[4, 5]]
    assert _cutoffs(d, config, _member_scale(ens)).median_dissimilarity == np.median(in_group)


def charts_sharing(rng, shared):
    """Two near-copies (sigma 1e-3) of one chart on ids 0-9, and two of an
    unrelated chart five times larger on the 10 ids from 10 - shared on,
    so that the cross pairs share ``shared`` ids."""
    n = 20 - shared
    ens = []
    for scale, first in ((1.0, 0), (5.0, 10 - shared)):
        base = scale * rng.normal(size=(2, n))
        mask = (np.arange(n) >= first) & (np.arange(n) < first + 10)
        for copy in (base, base + 1e-3 * rng.normal(size=base.shape)):
            ens.append(wrap(Configuration(copy, mask), len(ens)))
    return ens


@pytest.mark.parametrize("shared", [1, 2, 3])
def test_pairs_sharing_one_index_are_not_compared(rng, caplog, shared):
    # one shared point always aligns exactly, so with one shared id the
    # cross pairs would read 0 and link the unrelated charts; they read inf
    # instead, and with two or three shared ids they are compared
    from robust_coords.ensemble import _member_scale

    ens = charts_sharing(rng, shared)
    with caplog.at_level(logging.WARNING, logger="robust_coords.ensemble"):
        d = dissimilarity_matrix(ens)
    want = per_pair_dissimilarity(ens)
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(d), finite)
    assert np.allclose(d[finite], want[finite], rtol=1e-10, atol=0.0)
    assert np.isinf(d[:2, 2:]).all() == (shared == 1)
    assert np.isfinite(d[:2, 2:]).all() == (shared > 1)
    messages = [r.getMessage() for r in caplog.records]
    assert messages == (["4 member pairs share fewer than 2 indices"] if shared == 1 else [])
    clusters = clusters_of(d, small_config(), _member_scale(ens))
    assert all(len({m // 2 for m in c.members}) == 1 for c in clusters)
    if shared > 1:
        assert [list(c.members) for c in clusters] == [[0, 1], [2, 3]]


def test_pipeline_with_no_pair_sharing_two_indices(rng, monkeypatch):
    # three members on ids 0-9, 9-18 and 18-27: some pairs share an index,
    # none shares two, so there is nothing to compare
    import robust_coords.ensemble as ens_mod

    ens = []
    for first in (0, 9, 18):
        mask = (np.arange(28) >= first) & (np.arange(28) < first + 10)
        ens.append(wrap(Configuration(rng.normal(size=(2, 28)), mask), len(ens)))
    monkeypatch.setattr(ens_mod, "build_ensemble", lambda x, config: ens)
    with pytest.raises(NoGoodCluster, match="no two embeddings share 2 or more indices") as info:
        run_pipeline(None, small_config())
    assert info.value.report is None


def test_pipeline_with_pairs_sharing_no_index(rng, monkeypatch):
    # the MDS view places pairs sharing no index at a finite sentinel, and
    # the average covers one block only
    import robust_coords.ensemble as ens_mod

    ens = disjoint_blocks(rng, 2, 0.0)
    monkeypatch.setattr(ens_mod, "build_ensemble", lambda x, config: ens)
    report = run_pipeline(None, small_config(ph_bar_fraction=1.0))
    assert np.isinf(report.dissimilarity[0, 2])
    assert np.isfinite(report.mds_view.coords).all()
    assert [c.size for c in report.clusters] == [2, 2]
    assert report.embedding.n_present == 10
    assert len(report.outliers) == 10


def test_cluster_verdicts_diffuse_cluster_sparse():
    # a tight blob 0-5 and a chain 6-11 of spacing 1, 10 apart: the median
    # dissimilarity is 10, so both link at 0.5 * 10, and the chain's median
    # internal distance 2 exceeds the dense cutoff 0.1 * 10
    d = np.full((12, 12), 10.0)
    d[:6, :6] = 0.1
    pos = np.arange(6, dtype=float)
    d[6:, 6:] = np.abs(pos[:, None] - pos[None, :])
    np.fill_diagonal(d, 0.0)
    config = small_config(dense_median_fraction=0.1)
    blob, chain = clusters_of(d, config)
    assert list(blob.members) == list(range(6))
    assert blob.dense and blob.verdict is None
    assert list(chain.members) == list(range(6, 12))
    assert not chain.dense and chain.verdict == "rejected_sparse"
    # below the size limit density is not tested: dense stays False
    config = small_config(dense_median_fraction=0.1, min_cluster_size=7)
    small = clusters_of(d, config)
    assert [(c.dense, c.verdict) for c in small] == [(False, "rejected_sparse")] * 2


def single_linkage_oracle(d, cutoff):
    """The members of each cluster of the single-linkage dendrogram cut at
    ``cutoff``, ordered by decreasing size, then lowest member."""
    labels = fcluster(linkage(squareform(d, checks=False), method="single"),
                      t=cutoff, criterion="distance")
    groups = [list(np.flatnonzero(labels == label)) for label in np.unique(labels)]
    return sorted(groups, key=lambda g: (-len(g), g[0]))


def random_dissimilarities(rng, k, ties):
    # integer entries from a few values give ties everywhere, and cutoffs
    # (a fraction of the median) that equal entries
    upper = rng.integers(1, 4, size=(k, k)).astype(float) if ties else rng.random((k, k))
    d = np.triu(upper, 1)
    return d + d.T


@pytest.mark.parametrize("ties", [False, True])
def test_cluster_matches_single_linkage_oracle(ties):
    rng = np.random.default_rng(31 + ties)
    at_entry = 0
    for trial in range(300):
        k = int(rng.integers(2, 16))
        d = random_dissimilarities(rng, k, ties)
        fraction = float(rng.choice([0.25, 0.5, 1.0]))
        config = small_config(cluster_link_fraction=fraction)
        cutoff = _cutoffs(d, config, 0.0).link_cutoff
        at_entry += bool((d[np.triu_indices(k, 1)] == cutoff).any())
        ours = [list(c.members) for c in clusters_of(d, config)]
        assert ours == single_linkage_oracle(d, cutoff)
    assert at_entry >= 40


PIPELINE_MODULES_SCRIPT = """
import sys
import robust_coords
from robust_coords.synth import swiss_roll
config = robust_coords.PipelineConfig(
    n_subsamples=6, subsample_size=120, seed=1, min_cluster_size=3, ph_representatives=2,
    cluster_link_fraction=1.0, dense_median_fraction=1.0,
    dimred=(robust_coords.EmbeddingParams(target_dim=2, knn=8),),
)
try:
    report = robust_coords.run_pipeline(swiss_roll(200, seed=3).points3d, config)
    print("clusters", len(report.clusters))
except robust_coords.NoGoodCluster as exc:
    print("clusters", len(exc.report.clusters))
print(sorted(m for m in sys.modules if m.startswith("scipy.cluster")))
"""


def test_run_pipeline_never_imports_scipy_cluster():
    src = str(Path(robust_coords.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", PIPELINE_MODULES_SCRIPT],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    clustered, loaded = proc.stdout.strip().splitlines()
    assert int(clustered.split()[1]) >= 1
    assert loaded == "[]"


# ------------------------------------------------------ selection and mean


def ring_config(rng, n=60, noise=0.01):
    ang = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    pts = np.stack([np.cos(ang), np.sin(ang)]) + rng.normal(size=(2, n)) * noise
    return Configuration(pts)


def disk_config(rng, n=60, noise=0.01):
    r = np.sqrt(rng.uniform(0.05, 1.0, n))
    ang = rng.uniform(0.0, 2.0 * np.pi, n)
    pts = np.stack([r * np.cos(ang), r * np.sin(ang)]) + rng.normal(size=(2, n)) * noise
    return Configuration(pts)


def test_select_prefers_disk_over_ring(rng):
    # rigid copies of one disk form the dense cluster; scaled rings carry a
    # large degree-1 bar and lose
    disk = disk_config(rng)
    ring = ring_config(rng)
    ens = [wrap(disk.transformed(random_motion(rng, 2)), i) for i in range(6)]
    ens += [wrap(ring.transformed(random_motion(rng, 2)), 6 + i) for i in range(6)]
    d = dissimilarity_matrix(ens)
    config = small_config(seed=5)
    clusters, failure = select_good_cluster(clusters_of(d, config), ens, config)
    assert failure is None
    winner = the_good_one(clusters)
    assert set(winner.members) == set(range(6))
    assert winner.verdict == "good"
    ring_cluster = [c for c in clusters if set(c.members) == set(range(6, 12))]
    assert ring_cluster and ring_cluster[0].verdict in ("rejected_ph", "rejected_sparse")


def test_uncapped_scoring_matches_capped_oracle(rng):
    # the clusters of test_select_prefers_disk_over_ring: scoring on the
    # uncapped filtration, which stops at the enclosing radius, gives the
    # bars and diameters of the old call capped just above the diameter
    disk = disk_config(rng)
    ring = ring_config(rng)
    ens = [wrap(disk.transformed(random_motion(rng, 2)), i) for i in range(6)]
    ens += [wrap(ring.transformed(random_motion(rng, 2)), 6 + i) for i in range(6)]
    d = dissimilarity_matrix(ens)
    config = small_config(seed=5)
    clusters, _ = select_good_cluster(clusters_of(d, config), ens, config)
    scored = [c for c in clusters if c.representatives.size]
    assert scored
    for cluster in scored:
        bars, diam = [], 0.0
        for r in cluster.representatives:
            cfg = ens[r].config
            rep_diam = float(pdist(cfg.present_matrix().T).max())
            diam = max(diam, rep_diam)
            diagram = rips_persistence(cfg, max_radius=1.01 * rep_diam, landmark_budget=100)
            bars.append(max_bar_length(diagram, 1))
        assert cluster.ph1_max_bars == tuple(bars)
        assert cluster.rep_diameter == diam


def test_select_rejects_flat_clusters(rng):
    # a tight cluster of essentially 1-d charts plus scattered wide ones:
    # the tight cluster is dense but fails the dimensionality check
    x = rng.uniform(-1.0, 1.0, 60)
    ens = []
    for i in range(6):
        coords = np.stack([x + 1e-5 * rng.normal(size=60), 1e-6 * rng.normal(size=60)])
        ens.append(wrap(Configuration(coords).transformed(random_motion(rng, 2)), i))
    for i in range(6):
        ens.append(wrap(random_config(rng, n=60), 6 + i))
    d = dissimilarity_matrix(ens)
    config = small_config(seed=6)
    clusters, failure = select_good_cluster(clusters_of(d, config), ens, config)
    assert failure is not None
    assert any(c.verdict == "rejected_dim" for c in clusters)


def test_select_prefers_dense_over_diffuse(rng):
    disk = disk_config(rng)
    dense = [wrap(disk.transformed(random_motion(rng, 2)), i) for i in range(6)]
    diffuse = [wrap(disk_config(rng, noise=0.4), 6 + i) for i in range(6)]
    ens = dense + diffuse
    d = dissimilarity_matrix(ens)
    config = small_config(seed=7)
    clusters, failure = select_good_cluster(clusters_of(d, config), ens, config)
    assert failure is None
    assert set(the_good_one(clusters).members) == set(range(6))


def test_select_ring_only_bar_exceeds_threshold(rng):
    # noisy rings only: the dense cluster among them is full-dimensional, so
    # it is scored, but its degree-1 bar is far above 0.1 times its diameter
    ens = [wrap(ring_config(rng).transformed(random_motion(rng, 2)), i) for i in range(6)]
    d = dissimilarity_matrix(ens)
    config = small_config(
        seed=8, cluster_link_fraction=1.0, dense_median_fraction=1.0, ph_bar_fraction=0.1
    )
    clusters = clusters_of(d, config)
    assert clusters[0].dense and clusters[0].size >= 2
    clusters, failure = select_good_cluster(clusters, ens, config)
    assert re.search("exceeds threshold", failure)
    rings = clusters[0]
    assert rings.verdict == "rejected_ph"
    assert max(rings.ph1_max_bars) > rings.ph_bar_threshold


def test_selection_returns_new_records_and_changes_nothing_it_is_given(rng):
    # a dense disk cluster (good), a dense ring cluster (rejected_ph) and a
    # scattered singleton (rejected_sparse by cluster_ensemble)
    disk = disk_config(rng)
    ring = ring_config(rng)
    ens = [wrap(disk.transformed(random_motion(rng, 2)), i) for i in range(6)]
    ens += [wrap(ring.transformed(random_motion(rng, 2)), 6 + i) for i in range(6)]
    ens.append(wrap(random_config(rng, n=60), 12))
    d = dissimilarity_matrix(ens)
    config = small_config(seed=5)
    clusters = clusters_of(d, config)
    given = list(clusters)
    before = [{f.name: copy.deepcopy(getattr(c, f.name)) for f in fields(c)} for c in clusters]

    scored, failure = select_good_cluster(clusters, ens, config)

    assert failure is None
    assert len(clusters) == len(given) and all(c is g for c, g in zip(clusters, given))
    for c, fields_before in zip(clusters, before):
        for name, value in fields_before.items():
            np.testing.assert_equal(getattr(c, name), value, err_msg=name)
    assert scored is not clusters and len(scored) == len(clusters)
    # records compare by identity, so they are matched by position
    for c, s in zip(clusters, scored):
        if c.verdict is None:
            assert s is not c and s.verdict in ("good", "rejected_ph", "rejected_dim")
            assert np.array_equal(s.members, c.members) and s.representatives.size
        else:
            assert s is c
    assert any(c.verdict == "rejected_sparse" for c in scored)
    assert [c.verdict for c in scored].count("good") == 1

    with pytest.raises(FrozenInstanceError):
        scored[0].verdict = "rejected_ph"
    report = PipelineReport(
        clusters=scored, mds_view=None, dissimilarity=d, members=[],
        thresholds=_cutoffs(d, config, 0.0), config=config, alignment=None,
    )
    with pytest.raises(FrozenInstanceError):
        report.alignment = None
    # the derived fields follow replace
    assert replace(scored[0], verdict="rejected_sparse").dense is False
    assert replace(scored[0], members=np.arange(3)).size == 3


def array_records():
    """One of each record holding numpy arrays, by name."""
    config = small_config()
    mean = Configuration(np.zeros((2, 3)))
    return {
        "ClusterReport": ClusterReport(np.arange(3), 0.0),
        "PipelineReport": PipelineReport(
            clusters=[], mds_view=None, dissimilarity=np.zeros((2, 2)), members=[],
            thresholds=Thresholds(1.0, 0.5, 0.25), config=config, alignment=None,
        ),
        "AlignmentResult": AlignmentResult(
            motions=(RigidMotion.identity(2),), mean=mean, loss_trace=np.array([1.0, 0.5]),
            converged=True, symmetry_residuals=np.zeros(1),
        ),
        "PersistenceDiagram": PersistenceDiagram(2, np.inf, {0: np.zeros((1, 2))}),
        "RigidMotion": RigidMotion.identity(2),
        "EmbeddingOutput": wrap(mean),
    }


@pytest.mark.parametrize("name", list(array_records()))
def test_records_holding_arrays_compare_by_identity(name):
    a = array_records()[name]
    b = replace(a)
    assert a == a and a != b
    assert len({a, b}) == 2  # hashable, and apart
    assert [a, b].index(b) == 1


# ---------------------------------------------------------------- average


def test_average_single_member(rng):
    cfg = random_config(rng, n=20, mask_prob=0.7)
    cluster = ClusterReport(members=np.array([0]), median_intra_distance=0.0)
    result = average_cluster([wrap(cfg)], cluster, small_config())
    assert np.allclose(result.mean.present_matrix(), result.motions[0].apply(cfg.present_matrix()), atol=1e-12)
    assert np.array_equal(result.mean.mask, cfg.mask)


def test_average_rigid_copies_recovers_shape(rng):
    from robust_coords.procrustes_pair import procrustes_distance

    base = random_config(rng, n=25)
    ens = [wrap(base.transformed(random_motion(rng, 2)), i) for i in range(5)]
    cluster = ClusterReport(members=np.arange(5), median_intra_distance=0.0)
    mean = average_cluster(ens, cluster, small_config(als=AlsOptions(tol=1e-16, max_iter=4000))).mean
    assert mean.mask.all()
    assert procrustes_distance(mean, base) <= 1e-8


def test_average_uses_only_covering_members(rng):
    # index 0 present in 3 of 5 members: its mean uses exactly those three
    coords = rng.normal(size=(2, 10))
    members = []
    for i in range(5):
        mask = np.ones(10, dtype=bool)
        if i >= 3:
            mask[0] = False
        members.append(wrap(Configuration(coords, mask), i))
    cluster = ClusterReport(members=np.arange(5), median_intra_distance=0.0)
    result = average_cluster(members, cluster, small_config())
    blocks = []
    for out, motion in zip(members, result.motions):
        if out.config.mask[0]:
            blocks.append(motion.apply(out.config.coords[:, [0]]))
    assert np.allclose(result.mean.coords[:, 0], np.mean(blocks, axis=0).ravel(), atol=1e-9)
    assert result.mean.mask.all()


# ------------------------------------------------------------ run_pipeline


def checkerboard_cloud(rng, n=120):
    pts = rng.uniform(-1.0, 1.0, size=(n, 5))
    pts[:, 2:] *= 0.02
    return Configuration.from_rows(pts)


def pipeline_config(**kw):
    # unit fixtures are homogeneous (every member equally good), so the
    # relative cut and density fractions sit at 1: one cluster of everything
    return PipelineConfig(
        n_subsamples=kw.pop("n_subsamples", 12),
        subsample_size=kw.pop("subsample_size", 60),
        dimred=kw.pop("dimred", (PCA_PARAMS,)),
        seed=kw.pop("seed", 11),
        min_cluster_size=kw.pop("min_cluster_size", 3),
        ph_representatives=kw.pop("ph_representatives", 3),
        cluster_link_fraction=kw.pop("cluster_link_fraction", 1.0),
        dense_median_fraction=kw.pop("dense_median_fraction", 1.0),
        # 60-point subsamples carry relatively large sampling holes
        ph_bar_fraction=kw.pop("ph_bar_fraction", 0.3),
        **kw,
    )


def test_run_pipeline_partition_invariant(rng):
    x = checkerboard_cloud(rng)
    report = run_pipeline(x, pipeline_config())
    union = np.union1d(report.embedding.present_indices(), report.outliers)
    assert np.array_equal(union, np.arange(x.n_global))
    assert np.intersect1d(report.embedding.present_indices(), report.outliers).size == 0
    assert report.good_cluster is not None
    assert report.mds_view.n_global == len(report.members)


def test_run_pipeline_deterministic(rng):
    x = checkerboard_cloud(rng)
    r1 = run_pipeline(x, pipeline_config())
    r2 = run_pipeline(x, pipeline_config())
    assert np.array_equal(r1.embedding.coords, r2.embedding.coords)
    assert np.array_equal(r1.outliers, r2.outliers)
    assert np.array_equal(r1.dissimilarity, r2.dissimilarity)


def test_run_pipeline_rigid_input_invariance(rng):
    x = checkerboard_cloud(rng)
    g = random_motion(rng, 5)
    moved = x.transformed(g)
    r1 = run_pipeline(x, pipeline_config())
    r2 = run_pipeline(moved, pipeline_config())
    assert np.abs(r1.dissimilarity - r2.dissimilarity).max() <= 1e-8
    w1 = r1.clusters[r1.good_cluster].members
    w2 = r2.clusters[r2.good_cluster].members
    assert np.array_equal(w1, w2)


def off_sheet_cloud(rng):
    """The checkerboard sheet plus four points far off it, and their indices."""
    sheet = checkerboard_cloud(rng).present_matrix().T
    far = np.zeros((4, sheet.shape[1]))
    far[:, :2] = [[-0.5, -0.5], [-0.5, 0.5], [0.5, -0.5], [0.5, 0.5]]
    far[:, 2] = 1.0
    pts = np.vstack([sheet, far])
    return Configuration.from_rows(pts), np.arange(len(sheet), len(pts))


def test_off_sheet_points_left_out_of_every_member(rng):
    x, far = off_sheet_cloud(rng)
    assert np.array_equal(off_manifold_points(x, 2), far)
    config = pipeline_config()
    outs = build_ensemble(x, config)
    subs = generate_subsamples(x.n_present, config.subsample_size, config.n_subsamples, config.seed)
    assert len(outs) == len(subs)
    for out, sub in zip(outs, subs):
        assert np.array_equal(out.config.present_indices(), np.setdiff1d(sub, far))
        assert np.array_equal(out.dropped, np.intersect1d(sub, far))
    assert any(out.dropped.size for out in outs)
    report = run_pipeline(x, config)
    assert np.isin(far, report.outliers).all()
    assert report.members == [
        MemberRecord(o.subsample_index, o.params_index, o.config.n_present, o.dropped.size)
        for o in outs
    ]


def test_off_manifold_rejection_leaves_flat_input_alone(rng):
    plane = np.vstack([rng.uniform(-1.0, 1.0, size=(60, 2)), [[5.0, 5.0], [-5.0, 5.0]]])
    x = Configuration.from_rows(plane)
    assert off_manifold_points(x, 2).size == 0
    config = PipelineConfig(n_subsamples=3, subsample_size=50, dimred=(PCA_PARAMS,), seed=0)
    outs = build_ensemble(x, config)
    subs = generate_subsamples(62, 50, 3, seed=0)
    for out, sub in zip(outs, subs):
        assert np.array_equal(out.config.present_indices(), sub)
        assert out.dropped.size == 0
    # an exactly flat sheet in 3-d scores at rounding level: nothing goes
    flat3d = np.column_stack([plane, np.zeros(len(plane))]) @ random_orthogonal(rng, 3)
    assert off_manifold_points(Configuration.from_rows(flat3d), 2).size == 0


def test_build_ensemble_full_size_subsample_with_rejections(rng):
    x, far = off_sheet_cloud(rng)
    config = PipelineConfig(
        n_subsamples=1, subsample_size=x.n_present, dimred=(PCA_PARAMS,), seed=0
    )
    (out,) = build_ensemble(x, config)
    assert np.array_equal(out.config.present_indices(), np.arange(far[0]))
    assert np.array_equal(out.dropped, far)


def test_run_pipeline_no_good_cluster_carries_report(rng):
    x = Configuration.from_rows(np.stack([rng.uniform(-1, 1, 150), 1e-5 * rng.normal(size=150)], axis=1))
    with pytest.raises(NoGoodCluster) as info:
        run_pipeline(x, pipeline_config(subsample_size=75))
    report = info.value.report
    assert report is not None
    assert report.embedding is None
    assert all(c.verdict is not None for c in report.clusters)


def test_report_reads_results_off_alignment_and_verdicts(rng, monkeypatch):
    import robust_coords.ensemble as ens_mod

    # failure: flat charts (rejected_dim), rigid copies of a ring whose
    # bar exceeds the gate (rejected_ph), and scattered singletons
    # (rejected_sparse)
    line = rng.uniform(-1.0, 1.0, 60)
    ring = ring_config(rng)
    ens = []
    for _ in range(6):
        flat = np.stack([line + 1e-5 * rng.normal(size=60), 1e-6 * rng.normal(size=60)])
        ens.append(wrap(Configuration(flat).transformed(random_motion(rng, 2)), len(ens)))
    for _ in range(6):
        ens.append(wrap(ring.transformed(random_motion(rng, 2)), len(ens)))
    for _ in range(4):
        ens.append(wrap(random_config(rng, n=60), len(ens)))
    monkeypatch.setattr(ens_mod, "build_ensemble", lambda x, config: ens)
    with pytest.raises(NoGoodCluster) as info:
        run_pipeline(None, small_config(seed=6, min_cluster_size=3))
    report = info.value.report
    verdicts = [c.verdict for c in report.clusters]
    assert {"rejected_sparse", "rejected_dim", "rejected_ph"} == set(verdicts)
    assert [c.dense for c in report.clusters] == [v != "rejected_sparse" for v in verdicts]
    assert report.alignment is None and report.embedding is None
    assert report.good_cluster is None
    assert report.outliers.dtype.kind == "i" and report.outliers.size == 0

    # success: two disjoint blocks, the average covers one of them
    monkeypatch.setattr(ens_mod, "build_ensemble", lambda x, config: disjoint_blocks(rng, 2, 0.0))
    report = run_pipeline(None, small_config(ph_bar_fraction=1.0))
    assert [c.verdict for c in report.clusters].count("good") == 1
    assert report.clusters[report.good_cluster].verdict == "good"
    assert report.embedding is report.alignment.mean
    assert np.array_equal(report.outliers, np.flatnonzero(~report.embedding.mask))
    assert report.outliers.size == 10
