import json
import os

import numpy as np
import pytest

from robust_coords.cli_io import (
    read_manifest,
    read_points_csv,
    run_command,
    write_points_csv,
    write_report,
)
from robust_coords.core_types import Configuration
from robust_coords.errors import DuplicateId, ParseError

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


def test_cli_ph_unit_square(tmp_path, capsys):
    path = tmp_path / "sq.csv"
    path.write_text("id,x0,x1\n0,0,0\n1,1,0\n2,1,1\n3,0,1\n")
    assert run_command(["ph", str(path), "--max-dim", "1", "--max-radius", "2.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bars"]["1"] == [[1.0, np.sqrt(2.0)]]


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


def test_cli_run_deterministic(tmp_path, rng):
    data = plane_cloud_csv(tmp_path, rng)
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    m1 = write_manifest(tmp_path, manifest_doc(data, out1), "m1.json")
    m2 = write_manifest(tmp_path, manifest_doc(data, out2), "m2.json")
    assert run_command(["run", "--manifest", str(m1)]) == 0
    assert run_command(["run", "--manifest", str(m2)]) == 0
    for name in ("report.json", "embedding.csv", "mds_view.csv", "outliers.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()



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
    cluster_keys = {
        "members", "size", "median_intra_distance", "dense", "representatives",
        "ph1_max_bars", "essential_dims", "rep_diameter", "ph_bar_threshold", "verdict",
    }
    assert all(cluster_keys <= set(c) for c in doc["clusters"])
    assert len(doc["outliers"]) == len(report.outliers)
