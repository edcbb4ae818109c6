import dataclasses
import json
import logging
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import LinAlgError
from scipy.sparse.linalg import ArpackNoConvergence

from robust_coords import dimred
from robust_coords.cli_io import (
    read_manifest,
    read_points_csv,
    run_command,
    write_points_csv,
    write_report,
)
from robust_coords.core_types import Configuration
from robust_coords.dimred import EmbeddingParams
from robust_coords.ensemble import PipelineConfig, PipelineReport, Thresholds, generate_subsamples
from robust_coords.errors import DegenerateGraph, DuplicateId, EigensolverFailed, ParseError
from robust_coords.gpa_als import AlsOptions
from robust_coords.procrustes_pair import procrustes_distance

from conftest import random_config


# -------------------------------------------------------------- points CSV


def test_read_points_basic(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("id,x0,x1\n1,0.5,1.5\n2,-1,2\n3,0,0\n")
    cfg = read_points_csv(path)
    assert np.array_equal(cfg.present_indices(), [1, 2, 3])
    assert cfg.n_global == 4
    assert np.allclose(cfg.coords[:, 1], [0.5, 1.5])


def test_read_points_duplicate_id(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("id,x0\n1,0.5\n1,0.7\n")
    with pytest.raises(DuplicateId):
        read_points_csv(path)


def test_read_points_parse_errors(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("id,x0\n1,zap\n")
    with pytest.raises(ParseError) as info:
        read_points_csv(path)
    assert info.value.line == 2
    path.write_text("idx,x0\n1,0.5\n")
    with pytest.raises(ParseError):
        read_points_csv(path)
    path.write_text("id,x0\n")
    with pytest.raises(ParseError):
        read_points_csv(path)
    path.write_text("id,x0,x2\n1,0.5,1.0\n")
    with pytest.raises(ParseError):
        read_points_csv(path)


def test_points_round_trip(tmp_path, rng):
    cfg = random_config(rng, d=3, n=40, mask_prob=0.7)
    path = tmp_path / "rt.csv"
    write_points_csv(cfg, path)
    back = read_points_csv(path)
    assert np.array_equal(back.present_indices(), cfg.present_indices())
    assert np.array_equal(
        back.present_matrix(), cfg.present_matrix()
    )  # bit-exact at 17 significant digits


# ---------------------------------------------------------------- manifest


def manifest_doc(input_path, out_dir, **config_extra):
    config = {
        "n_subsamples": 8,
        "subsample_size": 50,
        "seed": 3,
        "min_cluster_size": 2,
        "ph_representatives": 2,
        "cluster_link_fraction": 1.0,
        "dense_median_fraction": 1.0,
        "ph_bar_fraction": 0.5,
        "dimred": [{"method": "pca", "target_dim": 2}],
        "als": {"tol": 1e-10},
    }
    config.update(config_extra)
    return {
        "format_version": "1",
        "input_path": str(input_path),
        "output_dir": str(out_dir),
        "config": config,
    }


def write_manifest(tmp_path, doc, name="manifest.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def plane_cloud_csv(tmp_path, rng, n=120):
    pts = rng.uniform(-1.0, 1.0, size=(n, 4))
    pts[:, 2:] *= 0.02
    cfg = Configuration.from_rows(pts)
    path = tmp_path / "cloud.csv"
    write_points_csv(cfg, path)
    return path


def test_manifest_round_trip(tmp_path, rng):
    data = plane_cloud_csv(tmp_path, rng)
    doc = manifest_doc(data, tmp_path / "out")
    path = write_manifest(tmp_path, doc)
    config, input_path, out_dir = read_manifest(path)
    assert config.n_subsamples == 8
    assert config.dimred[0].method == "pca"
    assert input_path == str(data)


def test_manifest_rejects_unknown_keys(tmp_path, rng):
    data = plane_cloud_csv(tmp_path, rng)
    doc = manifest_doc(data, tmp_path / "out")
    doc["config"]["subsample_sizee"] = 10
    with pytest.raises(ParseError):
        read_manifest(write_manifest(tmp_path, doc))
    doc = manifest_doc(data, tmp_path / "out")
    doc["extra_top"] = 1
    with pytest.raises(ParseError):
        read_manifest(write_manifest(tmp_path, doc, "m2.json"))
    doc = manifest_doc(data, tmp_path / "out")
    doc["format_version"] = "9"
    with pytest.raises(ParseError):
        read_manifest(write_manifest(tmp_path, doc, "m3.json"))


_ABSENT = object()


@pytest.mark.parametrize(
    "key, value",
    [
        ("n_subsamples", None),
        ("n_subsamples", _ABSENT),
        ("als", []),
        ("als", {"tol": 1e-10, "literal_missing_update": False}),
        ("dimred", [3]),
        ("dimred", {}),
        ("dimred", [{"method": "pca", "target_dim": 2, "knnn": 5}]),
        ("dimred", [{"method": "pca", "target_dim": 2, "seed": 4}]),
        ("n_subsamples", 2.7),
        ("n_subsamples", 8.0),
        ("n_subsamples", True),
        ("n_subsamples", "8"),
        ("ph_bar_fraction", True),
        ("als", {"tol": "1e-10"}),
        ("dimred", [{"method": "isomap", "target_dim": 2, "epsilon": "7"}]),
        ("input_path", 5),
        ("dimred", [{"method": "pca", "target_dim": 2, "knn": 5}]),
    ],
    ids=["null", "missing", "als-list", "als-unknown", "dimred-int", "dimred-object",
         "dimred-unknown", "dimred-seed", "int-float", "int-integral-float", "int-bool", "int-string",
         "float-bool", "float-string", "nested-float-string", "str-int", "dimred-unused-knn"],
)
def test_cli_run_rejects_malformed_manifest(tmp_path, rng, capsys, key, value):
    doc = manifest_doc(plane_cloud_csv(tmp_path, rng), tmp_path / "out")
    if value is _ABSENT:
        del doc["config"][key]
    elif key in doc:
        doc[key] = value
    else:
        doc["config"][key] = value
    manifest = write_manifest(tmp_path, doc)
    assert run_command(["run", "--manifest", str(manifest)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


def test_manifest_dimred_method_defaults_to_isomap(tmp_path, rng):
    doc = manifest_doc(tmp_path / "cloud.csv", tmp_path / "out",
                       dimred=[{"target_dim": 2, "knn": 6}])
    config, _, _ = read_manifest(write_manifest(tmp_path, doc))
    assert config.dimred == (EmbeddingParams(target_dim=2, method="isomap", knn=6),)


def test_report_config_reads_back_as_manifest_config(tmp_path):
    config = PipelineConfig(
        n_subsamples=7,
        subsample_size=60,
        dimred=(
            EmbeddingParams(target_dim=3, knn=9),
            EmbeddingParams(target_dim=3, epsilon=0.75),
        ),
        seed=11,
        cluster_link_fraction=0.9,
        min_cluster_size=3,
        dense_median_fraction=0.8,
        ph_representatives=2,
        ph_bar_fraction=0.6,
        essdim_rel_tol=0.07,
        als=AlsOptions(tol=1e-9, max_iter=40, min_iter=2),
    )
    defaults = PipelineConfig(n_subsamples=1, subsample_size=5, dimred=config.dimred[:1])
    for obj, base in ((config, defaults), (config.als, AlsOptions())):
        for f in dataclasses.fields(obj):
            assert getattr(obj, f.name) != getattr(base, f.name), f.name
    nan = float("nan")
    report = PipelineReport(
        clusters=[], alignment=None, mds_view=None, dissimilarity=np.zeros((0, 0)),
        members=[], thresholds=Thresholds(nan, nan, nan), config=config,
    )
    write_report(report, tmp_path / "rep", plots=False)
    written = json.loads((tmp_path / "rep" / "report.json").read_text())
    doc = manifest_doc("in.csv", "out")
    doc["config"] = written["config"]
    parsed, _, _ = read_manifest(write_manifest(tmp_path, doc))
    assert parsed == config


def test_readme_manifest_example_parses(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = readme.split("### Manifest", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    config, _, _ = read_manifest(write_manifest(tmp_path, json.loads(example)))
    # the example spells out every default, so they must be the dataclasses'
    assert config == PipelineConfig(
        n_subsamples=200,
        subsample_size=600,
        dimred=(EmbeddingParams(target_dim=2, epsilon=4.0),),
        seed=7,
    )


# --------------------------------------------------------------------- CLI


def test_cli_dist_self_is_zero(tmp_path, rng, capsys):
    cfg = random_config(rng, n=15)
    path = tmp_path / "a.csv"
    write_points_csv(cfg, path)
    assert run_command(["dist", str(path), str(path)]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) <= 1e-12  # zero up to floating-point round-off


def test_cli_usage_error_is_exit_1(capsys):
    assert run_command(["dist", "only-one.csv"]) == 1
    assert run_command(["definitely-not-a-command"]) == 1


def test_cli_missing_file_is_exit_1(tmp_path, capsys):
    assert run_command(["dist", str(tmp_path / "nope.csv"), str(tmp_path / "nope.csv")]) == 1


def test_cli_synth_and_embed(tmp_path, capsys):
    roll = tmp_path / "roll.csv"
    chart = tmp_path / "chart.csv"
    code = run_command(
        ["synth", "swiss-roll", "--n", "300", "--seed", "4", "--out", str(roll),
         "--intrinsic-out", str(chart)]
    )
    assert code == 0
    cfg = read_points_csv(roll)
    assert cfg.n_present == 300 and cfg.dim == 3
    emb = tmp_path / "emb.csv"
    code = run_command(
        ["embed", str(roll), "--method", "isomap", "--knn", "8", "--dim", "2",
         "--out", str(emb)]
    )
    assert code == 0
    assert read_points_csv(emb).dim == 2

    bucky = tmp_path / "bucky.csv"
    assert run_command(["synth", "buckyball", "--out", str(bucky)]) == 0
    assert read_points_csv(bucky).n_present == 60


def test_cli_gpa(tmp_path, rng, capsys):
    from conftest import random_motion

    base = random_config(rng, n=20)
    paths = []
    for i in range(3):
        p = tmp_path / f"in{i}.csv"
        write_points_csv(base.transformed(random_motion(rng, 2)), p)
        paths.append(str(p))
    out = tmp_path / "gpa_out"
    assert run_command(["gpa", *paths, "--out", str(out), "--tol", "1e-14"]) == 0
    summary = json.loads((out / "alignment.json").read_text())
    assert summary["loss"] <= 1e-12
    mean = read_points_csv(out / "mean.csv")
    assert mean.n_present == 20


def test_cli_dist_and_gpa_accept_files_with_different_largest_ids(tmp_path, rng, capsys):
    # both files hold ids 0-2, and only the first holds id 3
    pts = rng.normal(size=(4, 2))
    near = pts[:3] + 0.1 * rng.normal(size=(3, 2))
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_points_csv(Configuration.from_rows(pts), first)
    write_points_csv(Configuration.from_rows(near), second)
    assert run_command(["dist", str(first), str(second)]) == 0
    expected = procrustes_distance(Configuration.from_rows(pts[:3]), Configuration.from_rows(near))
    assert float(capsys.readouterr().out) == expected
    assert run_command(["dist", str(second), str(first)]) == 0
    assert float(capsys.readouterr().out) > 0
    out = tmp_path / "gpa_out"
    assert run_command(["gpa", str(first), str(second), "--out", str(out)]) == 0
    assert read_points_csv(out / "mean.csv").n_present == 4
    assert np.array_equal(read_points_csv(out / "aligned_1.csv").present_indices(), [0, 1, 2])


def test_cli_ph_unit_square(tmp_path, capsys):
    path = tmp_path / "sq.csv"
    path.write_text("id,x0,x1\n0,0,0\n1,1,0\n2,1,1\n3,0,1\n")
    assert run_command(["ph", str(path), "--max-dim", "1", "--max-radius", "2.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bars"]["1"] == [[1.0, np.sqrt(2.0)]]


def test_cli_ph_of_one_point(tmp_path, capsys):
    # no radius is given, and the default for one point is 0
    path = tmp_path / "one.csv"
    path.write_text("id,x0,x1\n0,0.5,2\n")
    assert run_command(["ph", str(path), "--max-dim", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_radius"] == 0.0
    assert doc["bars"] == {"0": [[0.0, None]], "1": []}


def test_cli_ph_out_file_holds_what_stdout_shows(tmp_path, capsys):
    path = tmp_path / "sq.csv"
    path.write_text("id,x0,x1\n0,0,0\n1,1,0\n2,1,1\n3,0,1\n")
    assert run_command(["ph", str(path), "--max-dim", "1"]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "ph.json"
    assert run_command(["ph", str(path), "--max-dim", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode()


def test_cli_run_writes_outputs(tmp_path, rng, capsys):
    data = plane_cloud_csv(tmp_path, rng)
    out_dir = tmp_path / "out"
    manifest = write_manifest(tmp_path, manifest_doc(data, out_dir))
    assert run_command(["run", "--manifest", str(manifest)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["good_cluster"] is not None
    assert {"members", "clusters", "thresholds", "alignment"} <= set(report)
    emb = read_points_csv(out_dir / "embedding.csv")
    with open(out_dir / "outliers.csv") as fh:
        n_outliers = sum(1 for _ in fh) - 1
    assert emb.n_present + n_outliers == 120
    assert (out_dir / "mds_view.csv").exists()
    assert (out_dir / "embedding.svg").exists()


def test_cli_run_3d_embedding_has_no_svg(tmp_path, rng):
    # the scatter plot draws 2-d points only: a 3-d average gets its CSV but
    # no SVG, while the 2-d MDS view keeps both
    pts = rng.uniform(-1.0, 1.0, size=(120, 4))
    pts[:, 3] *= 0.02
    data = tmp_path / "cloud.csv"
    write_points_csv(Configuration.from_rows(pts), data)
    out_dir = tmp_path / "out"
    doc = manifest_doc(data, out_dir, dimred=[{"method": "pca", "target_dim": 3}])
    assert run_command(["run", "--manifest", str(write_manifest(tmp_path, doc))]) == 0
    assert read_points_csv(out_dir / "embedding.csv").dim == 3
    assert not (out_dir / "embedding.svg").exists()
    assert (out_dir / "mds_view.svg").exists()


def test_cli_run_plot_failure_keeps_every_csv(tmp_path, rng, monkeypatch, caplog):
    from robust_coords import cli_io

    def broken(*args, **kwargs):
        raise RuntimeError("no canvas")

    monkeypatch.setattr(cli_io, "_svg_scatter", broken)
    out_dir = tmp_path / "out"
    manifest = write_manifest(tmp_path, manifest_doc(plane_cloud_csv(tmp_path, rng), out_dir))
    with caplog.at_level(logging.WARNING, logger="robust_coords.cli_io"):
        assert run_command(["run", "--manifest", str(manifest)]) == 0
    names = ("report.json", "mds_view.csv", "embedding.csv", "outliers.csv")
    assert sorted(os.listdir(out_dir)) == sorted(names)
    assert "plot generation failed: no canvas" in caplog.text


def test_cli_run_no_good_cluster_exit_2(tmp_path, rng, capsys):
    # essentially 1-d data embeds as rank-1 charts everywhere: every dense
    # cluster fails the dimensionality check
    pts = np.stack([rng.uniform(-1, 1, 150), 1e-5 * rng.normal(size=150)], axis=1)
    path = tmp_path / "flat.csv"
    write_points_csv(Configuration.from_rows(pts), path)
    out_dir = tmp_path / "out2"
    doc = manifest_doc(path, out_dir, subsample_size=75)
    manifest = write_manifest(tmp_path, doc)
    assert run_command(["run", "--manifest", str(manifest)]) == 2
    report = json.loads((out_dir / "report.json").read_text())
    assert report["good_cluster"] is None
    assert all(c["verdict"] is not None for c in report["clusters"])
    assert not (out_dir / "embedding.csv").exists()


def test_cli_has_no_als_variant(tmp_path, rng, capsys):
    # one ALS sweep: the manifest key, the gpa flag and both JSON fields are gone
    data = plane_cloud_csv(tmp_path, rng)
    doc = manifest_doc(data, tmp_path / "bad", als={"variant": "missing_points"})
    assert run_command(["run", "--manifest", str(write_manifest(tmp_path, doc))]) == 1
    assert capsys.readouterr().err.startswith("error: unknown keys in manifest.config.als")
    out_dir = tmp_path / "out"
    doc = manifest_doc(data, out_dir)
    assert run_command(["run", "--manifest", str(write_manifest(tmp_path, doc))]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert set(report["config"]["als"]) == {"tol", "max_iter", "min_iter"}
    assert "variant" not in report["alignment"]
    paths = [str(data), str(data)]
    assert run_command(["gpa", *paths, "--out", str(tmp_path / "g")]) == 0
    summary = json.loads((tmp_path / "g" / "alignment.json").read_text())
    assert "variant" not in summary and "loss" in summary


@pytest.mark.parametrize("variant", ["basic", "refined"])
def test_cli_full_domain_variants_reject_partial_domains(tmp_path, rng, capsys, variant):
    # 50-point subsamples of 120 points: the members' domains differ; the
    # full-domain variants are gone, so naming one is an input error
    data = plane_cloud_csv(tmp_path, rng)
    doc = manifest_doc(data, tmp_path / "out", als={"variant": variant})
    assert run_command(["run", "--manifest", str(write_manifest(tmp_path, doc))]) == 1
    assert capsys.readouterr().err.startswith("error: unknown keys in manifest.config.als")
    assert not (tmp_path / "out").exists()
    cloud = read_points_csv(data)
    paths = []
    for i, ids in enumerate((np.arange(0, 40), np.arange(10, 40))):
        paths.append(str(tmp_path / f"part{i}.csv"))
        write_points_csv(cloud.restrict(np.isin(np.arange(cloud.n_global), ids)), paths[-1])
    code = run_command(["gpa", *paths, "--variant", variant, "--out", str(tmp_path / "gpa")])
    assert code == 1
    assert f"error: unrecognized arguments: --variant {variant}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["gpa", "{x}", "{x}", "--out", "{tmp}/g", "--tol", "-1"],
        ["gpa", "{x}", "{x}", "--out", "{tmp}/g", "--max-iter", "1", "--min-iter", "5"],
        ["ph", "{x}", "--prime", "4"],
        ["ph", "{x}", "--prime", "3100000027"],
        ["ph", "{x}", "--max-dim", "3"],
        ["ph", "{x}", "--max-radius", "-1"],
        ["embed", "{x}", "--dim", "0", "--out", "{tmp}/e.csv"],
        ["embed", "{x}", "--method", "isomap", "--out", "{tmp}/e.csv"],
        ["synth", "swiss-roll", "--n", "0", "--out", "{tmp}/s.csv"],
        ["synth", "buckyball", "--noise", "-1", "--out", "{tmp}/s.csv"],
        ["synth", "swiss-roll", "--noise", "-1", "--out", "{tmp}/s.csv"],
        ["synth", "swiss-roll", "--outliers", "-1", "--out", "{tmp}/s.csv"],
        ["embed", "{x}", "--method", "pca", "--knn", "5", "--epsilon", "3", "--out", "{tmp}/e.csv"],
        ["synth", "buckyball", "--n", "7", "--out", "{tmp}/s.csv"],
        ["synth", "buckyball", "--outliers", "5", "--out", "{tmp}/s.csv"],
        ["synth", "buckyball", "--intrinsic-out", "{tmp}/e.csv", "--out", "{tmp}/s.csv"],
    ],
    ids=["gpa-tol", "gpa-min-iter", "ph-prime", "ph-huge-prime", "ph-max-dim",
         "ph-max-radius", "embed-dim", "embed-isomap-no-graph", "synth-n",
         "synth-bucky-noise", "synth-roll-noise", "synth-roll-outliers", "embed-pca-knn",
         "synth-bucky-n", "synth-bucky-outliers", "synth-bucky-intrinsic-out"],
)
def test_cli_value_errors_exit_1(tmp_path, rng, capsys, argv):
    x = tmp_path / "x.csv"
    write_points_csv(random_config(rng, d=3, n=12), x)
    argv = [a.format(x=x, tmp=tmp_path) for a in argv]
    assert run_command(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "s.csv").exists() and not (tmp_path / "e.csv").exists()


def test_negative_seed_is_rejected_before_reading_input(tmp_path, capsys):
    missing = tmp_path / "no-such-input.csv"
    doc = manifest_doc(missing, tmp_path / "out", seed=-3)
    with pytest.raises(ParseError, match="seed must be >= 0"):
        read_manifest(write_manifest(tmp_path, doc))
    manifest = write_manifest(tmp_path, manifest_doc(missing, tmp_path / "out"), "m2.json")
    assert run_command(["run", "--manifest", str(manifest), "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0\n"


def _eigensolver_never_converges(*args, **kwargs):
    raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))


def _lapack_never_converges(*args, **kwargs):
    raise LinAlgError("the algorithm failed to converge")


@pytest.mark.parametrize(
    "epsilon, error",
    [(0.5, EigensolverFailed), (0.01, DegenerateGraph)],
    ids=["eigensolver", "degenerate-graph"],
)
def test_cli_run_all_embeddings_failed_exit_2(
    tmp_path, rng, capsys, caplog, monkeypatch, epsilon, error
):
    if error is EigensolverFailed:
        # both solvers fail, whichever size a member has
        monkeypatch.setattr(dimred, "eigsh", _eigensolver_never_converges)
        monkeypatch.setattr(dimred, "eigh", _lapack_never_converges)
    out_dir = tmp_path / "out"
    doc = manifest_doc(plane_cloud_csv(tmp_path, rng), out_dir,
                       dimred=[{"method": "isomap", "target_dim": 2, "epsilon": epsilon}])
    with caplog.at_level(logging.WARNING, logger="robust_coords.ensemble"):
        assert run_command(["run", "--manifest", str(write_manifest(tmp_path, doc))]) == 2
    assert "only 0 embeddings succeeded" in capsys.readouterr().err
    assert not out_dir.exists()
    failures = [r for r in caplog.records if r.getMessage().startswith("embedding failed")]
    assert len(failures) == 8  # every subsample, one parameter setting
    assert all(isinstance(r.args[-1], error) for r in failures)


def test_cli_run_two_members_has_no_mds_view(tmp_path, rng):
    # a 2-d view needs 3 members; with 2 it is left out and clustering
    # decides the outcome (here one good cluster of both members)
    out_dir = tmp_path / "out"
    doc = manifest_doc(plane_cloud_csv(tmp_path, rng, n=60), out_dir, n_subsamples=2)
    assert run_command(["run", "--manifest", str(write_manifest(tmp_path, doc))]) == 0
    assert json.loads((out_dir / "report.json").read_text())["n_members"] == 2
    assert (out_dir / "embedding.csv").exists()
    assert not (out_dir / "mds_view.csv").exists()
    assert not (out_dir / "mds_view.svg").exists()


def test_cli_run_members_sharing_no_index_exit_2(tmp_path, rng, capsys):
    # 4 members of 10 out of 1000 points, drawn pairwise disjoint by seed 3
    doc = manifest_doc(plane_cloud_csv(tmp_path, rng, n=1000), tmp_path / "out",
                       n_subsamples=4, subsample_size=10)
    subsamples = generate_subsamples(1000, 10, 4, doc["config"]["seed"])
    assert all(
        np.intersect1d(a, b).size == 0
        for i, a in enumerate(subsamples) for b in subsamples[i + 1:]
    )
    assert run_command(["run", "--manifest", str(write_manifest(tmp_path, doc))]) == 2
    assert "no two embeddings share 2 or more indices" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_deterministic(tmp_path, rng):
    data = plane_cloud_csv(tmp_path, rng)
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    m1 = write_manifest(tmp_path, manifest_doc(data, out1), "m1.json")
    m2 = write_manifest(tmp_path, manifest_doc(data, out2), "m2.json")
    assert run_command(["run", "--manifest", str(m1)]) == 0
    assert run_command(["run", "--manifest", str(m2)]) == 0
    for name in ("report.json", "embedding.csv", "mds_view.csv", "outliers.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_run_has_no_thread_setting(tmp_path, rng, capsys, monkeypatch):
    # ROBUST_COORDS_THREADS is not read, even when it holds no number
    data = plane_cloud_csv(tmp_path, rng)
    plain, env = tmp_path / "plain", tmp_path / "env"
    m1 = write_manifest(tmp_path, manifest_doc(data, plain), "m1.json")
    m2 = write_manifest(tmp_path, manifest_doc(data, env), "m2.json")
    assert run_command(["run", "--manifest", str(m1)]) == 0
    monkeypatch.setenv("ROBUST_COORDS_THREADS", "two")
    assert run_command(["run", "--manifest", str(m2)]) == 0
    for name in ("report.json", "embedding.csv", "mds_view.csv", "outliers.csv"):
        assert (plain / name).read_bytes() == (env / name).read_bytes()
    assert run_command(["run", "--manifest", str(m1), "--threads", "2"]) == 1
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_cli_run_identical_members_form_one_good_cluster(tmp_path):
    # 6 external members, each a 100-point restriction of one 200-point roll
    # chart, differ by rounding only; the cutoffs' floor keeps them together
    synth = ["synth", "swiss-roll", "--n", "200", "--seed", "3", "--out", str(tmp_path / "roll.csv"),
             "--intrinsic-out", str(tmp_path / "chart.csv")]
    assert run_command(synth) == 0
    external = {"method": "external", "target_dim": 2, "source": "chart.csv"}
    doc = {"format_version": "1", "input_path": "roll.csv", "output_dir": "out",
           "config": {"n_subsamples": 6, "subsample_size": 100, "dimred": [external]}}
    assert run_command(["run", "--manifest", str(write_manifest(tmp_path, doc))]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["thresholds"]["median_dissimilarity"] < 1e-12
    assert [(c["size"], c["verdict"]) for c in report["clusters"]] == [(6, "good")]


def test_cli_run_seed_flag_overrides_manifest_seed(tmp_path, rng):
    data = plane_cloud_csv(tmp_path, rng)
    flag, manifest = tmp_path / "flag", tmp_path / "manifest"
    m3 = write_manifest(tmp_path, manifest_doc(data, flag, seed=3), "m3.json")
    m5 = write_manifest(tmp_path, manifest_doc(data, manifest, seed=5), "m5.json")
    assert run_command(["run", "--manifest", str(m3), "--seed", "5"]) == 0
    assert run_command(["run", "--manifest", str(m5)]) == 0
    for name in ("report.json", "embedding.csv", "mds_view.csv", "outliers.csv"):
        assert (flag / name).read_bytes() == (manifest / name).read_bytes()

def test_write_report_embedding_round_trip(tmp_path, rng):
    from robust_coords.ensemble import PipelineConfig, run_pipeline
    from robust_coords.dimred import EmbeddingParams

    pts = rng.uniform(-1.0, 1.0, size=(100, 3))
    pts[:, 2] *= 0.05
    x = Configuration.from_rows(pts)
    config = PipelineConfig(
        n_subsamples=6,
        subsample_size=50,
        dimred=(EmbeddingParams(method="pca", target_dim=2),),
        seed=2,
        min_cluster_size=2,
        ph_representatives=2,
        cluster_link_fraction=1.0,
        dense_median_fraction=1.0,
        ph_bar_fraction=0.5,
    )
    report = run_pipeline(x, config)
    files = write_report(report, tmp_path / "rep")
    emb = read_points_csv(tmp_path / "rep" / "embedding.csv")
    assert np.array_equal(emb.coords, report.embedding.coords)
    assert np.array_equal(emb.mask, report.embedding.mask)
    doc = json.loads((tmp_path / "rep" / "report.json").read_text())
    # the schema, pinned key set by key set
    assert set(doc) == {
        "format_version", "seed", "config", "n_members", "members", "thresholds",
        "clusters", "good_cluster", "outliers", "alignment", "embedding_points",
    }
    assert doc["members"]
    assert all(set(m) == {"subsample", "params", "n_points", "n_dropped"} for m in doc["members"])
    cluster_keys = {
        "members", "size", "median_intra_distance", "dense", "representatives",
        "ph1_max_bars", "essential_dims", "rep_diameter", "ph_bar_threshold", "verdict",
    }
    assert doc["clusters"]
    assert all(set(c) == cluster_keys for c in doc["clusters"])
    assert set(doc["thresholds"]) == {"median_dissimilarity", "link_cutoff", "dense_cutoff"}
    assert set(doc["alignment"]) == {
        "loss", "loss_trace", "iterations", "converged", "symmetry_residuals",
    }
    assert len(doc["outliers"]) == len(report.outliers)


def test_cli_run_resolves_source_against_manifest_directory(tmp_path, rng, monkeypatch):
    # the manifest, its input and its external chart sit together in proj/;
    # the run starts from proj's parent, where no chart.csv exists
    proj = tmp_path / "proj"
    proj.mkdir()
    data = plane_cloud_csv(proj, rng)
    write_points_csv(Configuration(read_points_csv(data).coords[:2]), proj / "chart.csv")
    external = {"method": "external", "target_dim": 2, "source": "chart.csv"}
    doc = manifest_doc(
        "cloud.csv", "out", dimred=[external, {"method": "pca", "target_dim": 2}]
    )
    manifest = write_manifest(proj, doc)
    monkeypatch.chdir(tmp_path)
    assert run_command(["run", "--manifest", str(manifest)]) == 0
    report = json.loads((proj / "out" / "report.json").read_text())
    assert report["n_members"] == 16
    assert report["config"]["dimred"][0]["source"] == str(proj / "chart.csv")
