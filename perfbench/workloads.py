"""Benchmark workloads: their inputs, the timed job, and its correctness checks.

Importing this module pins BLAS to one thread (before numpy loads) and
imports ``robust_coords`` from the checkout's own ``src/`` directory.  It
refuses any other installed copy, so the benchmark always measures the
source tree it sits in and fails when that tree is absent.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from scipy.spatial.distance import pdist  # noqa: E402

import robust_coords  # noqa: E402
from robust_coords import cli_io, dimred, ensemble, synth, tda  # noqa: E402
from robust_coords.procrustes_pair import affine_procrustes  # noqa: E402

if Path(robust_coords.__file__).resolve().parent != SRC / "robust_coords":
    raise ImportError(f"robust_coords imported from {robust_coords.__file__}, not {SRC}")

GAP = 2.0 * math.pi  # inter-sheet spacing of the Swiss roll (one full turn)
CHART_ERROR_BOUND = 0.05  # criterion 5: averaged chart within 5% of its diameter
BUCKY_NOISE = 0.06
PIPELINE_OUTPUTS = ("report.json", "embedding.csv", "outliers.csv", "mds_view.csv")

NAMES = ("roll-desk", "wide-ensemble", "bucky-rp2")  # why each exists: README.md

# Layers a workload does not reach at this commit.  Their counters report 0
# and their timings are left out; any other layer that records no span is
# reported missing.
BYPASSES = {
    "roll-desk": {"tda.rips_from_distances:d2p2", "tda.rips_from_distances:d2p3"},
    "wide-ensemble": {"tda.rips_from_distances:d2p2", "tda.rips_from_distances:d2p3"},
    "bucky-rp2": {
        "tda.rips_from_distances:d1p2",
        "gpa_als.essential_dimension",
        "ensemble.average_cluster",
        "gpa_als.als_align",
    },
}


def _isomap(**kw):
    return {"method": "isomap", "target_dim": 2, **kw}


def spec_for(name, seed, toy=False):
    """Inputs and expectations of one workload; seed 0 uses the acceptance-test seeds."""
    if name == "roll-desk":
        # criterion-5 noise on a 1000-point roll.  400-point subsamples keep
        # both chart classes stable at 20 subsamples and the averaged chart
        # well inside its bound; the bar threshold sits between the classes
        # (coiled representatives have bars >= 0.3 of their diameter)
        return {
            "synth": ["swiss-roll", "--n", "1000", "--seed", str(42 + seed),
                      "--noise", repr(0.05 * GAP)],
            "chart": True,
            "expect_exit": 0,
            "config": {
                "n_subsamples": 10 if toy else 20,
                "subsample_size": 400,
                "seed": 7 + seed,
                "dimred": [_isomap(epsilon=4.5), _isomap(epsilon=7.0)],
                "min_cluster_size": 5 if toy else 8,
                "dense_median_fraction": 0.5,
                "ph_representatives": 1,
                "ph_bar_fraction": 0.2,
            },
            "homology": None,
        }
    if name == "wide-ensemble":
        # criterion-10 thresholds: one good cluster holding nearly every
        # member; 250-point subsamples are the sparsest whose average stays
        # well inside the chart bound
        return {
            "synth": ["swiss-roll", "--n", "1000", "--seed", str(12 + seed)],
            "chart": True,
            "expect_exit": 0,
            "config": {
                "n_subsamples": 20 if toy else 240,
                "subsample_size": 250,
                "seed": 5 + seed,
                "dimred": [_isomap(epsilon=5.5)],
                "cluster_link_fraction": 1.0,
                "dense_median_fraction": 1.0,
                "ph_bar_fraction": 0.5,
                "ph_representatives": 1,
            },
            "homology": None,
        }
    if name == "bucky-rp2":
        # criterion 8 at a reduced ensemble and landmark budget.  The seed
        # varies the pipeline half only: the homology half always embeds the
        # criterion-8 balls, because the PH2 reduction's cost differs by up to
        # 1.8x between ball ensembles and would swamp the run-to-run spread
        balls = 30 if toy else 100
        return {
            "synth": ["buckyball", "--seed", str(5000 + seed), "--noise", repr(BUCKY_NOISE)],
            "chart": False,
            "expect_exit": 2,
            "config": {
                "n_subsamples": 20 if toy else 100,
                "subsample_size": 48,
                "seed": 9 + seed,
                "dimred": [_isomap(knn=5)],
            },
            "homology": {
                "ball_seeds": [5000 + i for i in range(balls)],
                "landmarks": 24 if toy else 38,
            },
        }
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


def write_inputs(spec, inputs):
    """The set-up step: synthesize the input CSV and write the run manifest."""
    inputs.mkdir(parents=True, exist_ok=True)
    argv = ["synth", *spec["synth"], "--out", str(inputs / "points.csv")]
    if spec["chart"]:
        argv += ["--intrinsic-out", str(inputs / "chart.csv")]
    if cli_io.run_command(argv) != 0:
        raise RuntimeError(f"synth failed: {argv}")
    manifest = {
        "format_version": "1",
        "input_path": "points.csv",
        "output_dir": "out",
        "config": spec["config"],
    }
    (inputs / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")


def run_job(spec, inputs, out):
    """The timed user-visible job; returns (exit code, homology diagrams or None).

    Every library call goes through a module attribute so that a tracer
    which replaces those attributes sees it.
    """
    code = cli_io.run_command(["run", "--manifest", str(inputs / "manifest.json"), "--out", str(out)])
    if spec["homology"] is None:
        return code, None
    return code, _homology(spec["homology"])


def _homology(h):
    # embeddings of independently noisy buckyballs approximate RP^2, whose
    # degree-1 and degree-2 classes exist over F2 but vanish over F3
    params = dimred.EmbeddingParams(method="isomap", target_dim=2, knn=5)
    outs = [dimred.embed(synth.buckyball(BUCKY_NOISE, seed=s), params) for s in h["ball_seeds"]]
    d = ensemble.dissimilarity_matrix(outs)
    radius = 1.01 * float(d.max())
    return {
        p: tda.rips_from_distances(d, max_dim=2, p=p, max_radius=radius, landmark_budget=h["landmarks"])
        for p in (2, 3)
    }


def check_job(spec, code, diagrams, inputs, out):
    """Untimed checks of one job's outputs.

    Returns (failures, digest, observations).  The digest covers the
    pipeline's output files and the homology bars, so equal-seed jobs must
    agree on it byte for byte.
    """
    failures = []
    obs = {}
    if code != spec["expect_exit"]:
        failures.append(f"exit code {code}, expected {spec['expect_exit']}")
    h = hashlib.sha256()
    for name in PIPELINE_OUTPUTS:
        path = out / name
        if path.exists():
            h.update(name.encode() + b"\0" + path.read_bytes())
    report_path = out / "report.json"
    if not report_path.exists():
        failures.append("report.json not written")
    elif spec["expect_exit"] == 2:
        clusters = json.loads(report_path.read_text())["clusters"]
        unverdicted = sum(c["verdict"] is None for c in clusters)
        obs["clusters"] = len(clusters)
        if not clusters or unverdicted:
            failures.append(f"{unverdicted} of {len(clusters)} clusters carry no verdict")
    if spec["chart"] and not (out / "embedding.csv").exists():
        failures.append("embedding.csv not written")
    elif spec["chart"]:
        err = chart_error(cli_io.read_points_csv(out / "embedding.csv"),
                          cli_io.read_points_csv(inputs / "chart.csv"))
        obs["chart_error"] = err
        if not err <= CHART_ERROR_BOUND:
            failures.append(f"chart_error {err:.4g} > {CHART_ERROR_BOUND}")
    if spec["homology"] is not None:
        if diagrams is None:
            failures.append("homology job produced no diagrams")
        else:
            for p in (2, 3):
                for q in (1, 2):
                    h.update(np.ascontiguousarray(diagrams[p].bars[q]).tobytes())
            ratios = [
                tda.max_bar_length(diagrams[2], q) / max(tda.max_bar_length(diagrams[3], q), 1e-12)
                for q in (1, 2)
            ]
            obs["f2_over_f3_ph1"], obs["f2_over_f3_ph2"] = ratios
            if not min(ratios) > 1.0:
                failures.append(f"RP^2 signature lost: F2/F3 bar ratios {ratios[0]:.3g}, {ratios[1]:.3g}")
    return failures, h.hexdigest(), obs


def chart_error(embedding, chart):
    """Normalized Procrustes distance to the ground-truth chart over its diameter."""
    # a CSV read back ends at its largest present index; widen to the chart's
    embedding = robust_coords.Configuration.from_rows(
        embedding.present_matrix().T, indices=embedding.present_indices(), n_global=chart.n_global
    )
    pa = affine_procrustes(embedding, chart)
    diam = float(pdist(chart.present_matrix().T).max())
    return pa.distance / math.sqrt(pa.overlap_size) / diam
