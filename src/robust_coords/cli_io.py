"""Command-line driver, manifest/CSV/JSON formats, and SVG diagnostics.

File formats
------------
Points CSV: header ``id,x0,...,x{d-1}``; one row per present index; floats
written with 17 significant digits so a write/read round trip is exact.

Manifest JSON: ``{"format_version": "1", "input_path": ..., "output_dir":
..., "config": {...}}`` where ``config`` mirrors PipelineConfig field for
field (``dimred`` is a list of parameter objects, ``als`` an options
object).  Unknown keys anywhere are rejected.

Exit codes: 0 success, 1 usage or input errors, 2 when the pipeline
terminates because no good cluster exists (diagnostics are still written).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import os
import sys

import numpy as np

from .core_types import Configuration
from .dimred import EmbeddingParams, embed
from .ensemble import PipelineConfig, run_pipeline
from .errors import (
    DuplicateId,
    NoGoodCluster,
    ParseError,
    RobustCoordsError,
)
from .gpa_als import AlsOptions, GpaProblem, als_align, normalize_first_fixed
from .procrustes_pair import procrustes_distance
from .synth import add_gaussian_noise, add_uniform_outliers, buckyball, swiss_roll
from .tda import max_bar_length, rips_persistence

__all__ = [
    "read_points_csv",
    "write_points_csv",
    "read_manifest",
    "write_report",
    "run_command",
    "main",
]

logger = logging.getLogger(__name__)

FORMAT_VERSION = "1"


def _fmt(x):
    return format(float(x), ".17g")


# ---------------------------------------------------------------- points CSV


def read_points_csv(path):
    """Read a points CSV into a Configuration.

    Column 0 is the integer global index; the remaining columns are the
    coordinates.  Missing rows are missing points.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        header = [h.strip() for h in header]
        if not header or header[0] != "id":
            raise ParseError("header must start with 'id'", line=1)
        dim = len(header) - 1
        if dim < 1:
            raise ParseError("no coordinate columns", line=1)
        expected = [f"x{i}" for i in range(dim)]
        if header[1:] != expected:
            raise ParseError(
                f"coordinate columns must be {','.join(expected)}", line=1
            )
        ids = []
        rows = []
        seen = set()
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != dim + 1:
                raise ParseError(f"expected {dim + 1} fields, got {len(row)}", line=lineno)
            try:
                idx = int(row[0])
                vals = [float(v) for v in row[1:]]
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            if idx < 0:
                raise ParseError(f"negative id {idx}", line=lineno)
            if idx in seen:
                raise DuplicateId(f"duplicate id {idx}", line=lineno)
            seen.add(idx)
            ids.append(idx)
            rows.append(vals)
    if not ids:
        raise ParseError("file has no data rows")
    return Configuration.from_rows(np.asarray(rows), indices=np.asarray(ids))


def write_points_csv(config, path):
    """Write a Configuration's present points; inverse of read_points_csv."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"x{i}" for i in range(config.dim)])
        matrix = config.present_matrix()
        for col, idx in enumerate(config.present_indices()):
            writer.writerow([int(idx)] + [_fmt(v) for v in matrix[:, col]])


# ------------------------------------------------------------------ manifest


def _take(obj, allowed, context):
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ParseError(f"unknown keys in {context}: {sorted(unknown)}")


def _params_from_json(obj, pos):
    _take(obj, {"method", "target_dim", "epsilon", "knn", "seed", "source"},
          f"dimred[{pos}]")
    try:
        return EmbeddingParams(
            method=obj.get("method", "isomap"),
            target_dim=int(obj["target_dim"]),
            epsilon=None if obj.get("epsilon") is None else float(obj["epsilon"]),
            knn=None if obj.get("knn") is None else int(obj["knn"]),
            seed=int(obj.get("seed", 0)),
            source=obj.get("source"),
        )
    except (KeyError, ValueError) as exc:
        raise ParseError(f"dimred[{pos}]: {exc}") from None


def _als_from_json(obj):
    _take(obj, {"variant", "tol", "max_iter", "min_iter", "literal_missing_update"},
          "als")
    try:
        return AlsOptions(
            variant=obj.get("variant", "missing_points"),
            tol=float(obj.get("tol", 1e-10)),
            max_iter=int(obj.get("max_iter", 500)),
            min_iter=int(obj.get("min_iter", 3)),
            literal_missing_update=bool(obj.get("literal_missing_update", False)),
        )
    except ValueError as exc:
        raise ParseError(f"als: {exc}") from None


_CONFIG_KEYS = {
    "n_subsamples",
    "subsample_size",
    "dimred",
    "seed",
    "cluster_link_fraction",
    "min_cluster_size",
    "dense_median_fraction",
    "ph_representatives",
    "ph_bar_fraction",
    "essdim_rel_tol",
    "als",
}


def _config_from_json(obj):
    _take(obj, _CONFIG_KEYS, "config")
    if "dimred" not in obj or not isinstance(obj["dimred"], list):
        raise ParseError("config.dimred must be a list")
    params = tuple(_params_from_json(p, i) for i, p in enumerate(obj["dimred"]))
    kwargs = {}
    for key in ("cluster_link_fraction", "dense_median_fraction",
                "ph_bar_fraction", "essdim_rel_tol"):
        if key in obj:
            kwargs[key] = float(obj[key])
    for key in ("min_cluster_size", "ph_representatives", "seed"):
        if key in obj:
            kwargs[key] = int(obj[key])
    try:
        return PipelineConfig(
            n_subsamples=int(obj["n_subsamples"]),
            subsample_size=int(obj["subsample_size"]),
            dimred=params,
            als=_als_from_json(obj.get("als", {})),
            **kwargs,
        )
    except (KeyError, ValueError) as exc:
        raise ParseError(f"config: {exc}") from None


def read_manifest(path):
    """Parse a run manifest; returns (PipelineConfig, input_path, output_dir)."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"manifest is not valid JSON: {exc}") from None
    _take(doc, {"format_version", "input_path", "output_dir", "config"}, "manifest")
    if str(doc.get("format_version")) != FORMAT_VERSION:
        raise ParseError(
            f"unsupported format_version {doc.get('format_version')!r}"
        )
    for key in ("input_path", "output_dir", "config"):
        if key not in doc:
            raise ParseError(f"manifest is missing {key!r}")
    config = _config_from_json(doc["config"])
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    return config, resolve(doc["input_path"]), resolve(doc["output_dir"])


# -------------------------------------------------------------------- report


def _config_to_json(config):
    out = {
        "n_subsamples": config.n_subsamples,
        "subsample_size": config.subsample_size,
        "seed": config.seed,
        "cluster_link_fraction": config.cluster_link_fraction,
        "min_cluster_size": config.min_cluster_size,
        "dense_median_fraction": config.dense_median_fraction,
        "ph_representatives": config.ph_representatives,
        "ph_bar_fraction": config.ph_bar_fraction,
        "essdim_rel_tol": config.essdim_rel_tol,
        "dimred": [
            {
                "method": p.method,
                "target_dim": p.target_dim,
                "epsilon": p.epsilon,
                "knn": p.knn,
                "seed": p.seed,
                "source": p.source,
            }
            for p in config.dimred
        ],
        "als": {
            "variant": config.als.variant,
            "tol": config.als.tol,
            "max_iter": config.als.max_iter,
            "min_iter": config.als.min_iter,
            "literal_missing_update": config.als.literal_missing_update,
        },
    }
    return out


def _cluster_to_json(cluster):
    return {
        "members": [int(i) for i in cluster.members],
        "size": cluster.size,
        "median_intra_distance": float(cluster.median_intra_distance),
        "dense": bool(cluster.dense),
        "representatives": [int(i) for i in cluster.representatives],
        "ph1_max_bars": [float(b) for b in cluster.ph1_max_bars],
        "essential_dims": [int(e) for e in cluster.essential_dims],
        "rep_diameter": None if math.isnan(cluster.rep_diameter) else float(cluster.rep_diameter),
        "ph_bar_threshold": None
        if math.isnan(cluster.ph_bar_threshold)
        else float(cluster.ph_bar_threshold),
        "verdict": cluster.verdict,
    }


def write_report(report, out_dir, plots=True):
    """Write report.json, embedding/outliers/mds_view CSVs, and SVG plots.

    On a failed run (no good cluster) the embedding and outlier files are
    skipped but the JSON diagnostics are complete.  Returns the list of
    files written.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []

    doc = {
        "format_version": FORMAT_VERSION,
        "seed": report.config.seed,
        "config": _config_to_json(report.config),
        "n_members": len(report.members),
        "members": [
            {
                "subsample": a,
                "params": b,
                "n_points": int(n),
                "n_dropped": int(dr),
            }
            for a, b, n, dr in report.members
        ],
        "thresholds": {
            "median_dissimilarity": report.median_dissimilarity,
            "link_cutoff": report.link_cutoff,
            "dense_cutoff": report.dense_cutoff,
        },
        "clusters": [_cluster_to_json(c) for c in report.clusters],
        "good_cluster": report.good_cluster,
        "outliers": [int(i) for i in report.outliers],
        "alignment": None
        if report.alignment is None
        else {
            "loss": float(report.alignment.loss),
            "iterations": int(report.alignment.iterations),
            "converged": bool(report.alignment.converged),
            "variant": report.alignment.variant,
            "loss_trace": [float(v) for v in report.alignment.loss_trace],
            "symmetry_residuals": [
                float(v) for v in report.alignment.symmetry_residuals
            ],
        },
        "embedding_points": None
        if report.embedding is None
        else int(report.embedding.n_present),
    }
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    written.append(path)

    if report.mds_view is not None:
        path = os.path.join(out_dir, "mds_view.csv")
        write_points_csv(report.mds_view, path)
        written.append(path)
    if report.embedding is not None:
        path = os.path.join(out_dir, "embedding.csv")
        write_points_csv(report.embedding, path)
        written.append(path)
        path = os.path.join(out_dir, "outliers.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id"])
            for idx in report.outliers:
                writer.writerow([int(idx)])
        written.append(path)
    if plots:
        written.extend(_write_plots(report, out_dir))
    return written


# ----------------------------------------------------------------- SVG plots


def _svg_scatter(points, path, title):
    """Minimal dependency-free scatter plot: one circle per column."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] != 2 or pts.shape[1] == 0:
        return False
    lo = pts.min(axis=1)
    extent = np.ptp(pts, axis=1)
    span = np.where(extent > 0, extent, 1.0)
    size, margin = 640.0, 40.0
    scale = (size - 2 * margin) / span
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="100%" height="100%" fill="white"/>',
        f'<text x="{margin}" y="24" font-family="monospace" font-size="14">{title}</text>',
    ]
    xs = margin + (pts[0] - lo[0]) * scale[0]
    ys = size - margin - (pts[1] - lo[1]) * scale[1]
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2" fill="steelblue" fill-opacity="0.6"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
    return True


def _write_plots(report, out_dir):
    written = []
    try:
        if report.embedding is not None:
            path = os.path.join(out_dir, "embedding.svg")
            if _svg_scatter(report.embedding.present_matrix(), path, "averaged embedding"):
                written.append(path)
        if report.mds_view is not None:
            path = os.path.join(out_dir, "mds_view.svg")
            if _svg_scatter(report.mds_view.present_matrix(), path, "ensemble dissimilarity (MDS)"):
                written.append(path)
    except Exception as exc:  # plots are best-effort diagnostics only
        logger.warning("plot generation failed: %s", exc)
    return written


def _diagram_to_json(diagram):
    return {
        "prime": diagram.prime,
        "max_radius": diagram.max_radius,
        "bars": {
            str(q): [
                [float(b), None if math.isinf(d) else float(d)]
                for b, d in diagram.bars[q]
            ]
            for q in diagram.dims()
        },
    }


# ---------------------------------------------------------------------- CLI


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the pipeline reserves 2
    # for "no good cluster", so remap usage errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser():
    parser = _Parser(prog="robust-coords", description=__doc__.split("\n")[0])
    parser.add_argument("--verbose", action="store_true", help="log at DEBUG level")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a pipeline manifest")
    p_run.add_argument("--manifest", required=True)
    p_run.add_argument("--out", help="override the manifest's output_dir")
    p_run.add_argument("--seed", type=int, help="override the manifest's seed")
    p_run.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker budget (env ROBUST_COORDS_THREADS; computation is "
        "deterministic and currently single-threaded)",
    )
    p_run.add_argument("--no-plots", action="store_true")

    p_dist = sub.add_parser("dist", help="Procrustes distance of two point CSVs")
    p_dist.add_argument("first")
    p_dist.add_argument("second")

    p_gpa = sub.add_parser("gpa", help="align k point CSVs and write the average")
    p_gpa.add_argument("inputs", nargs="+")
    p_gpa.add_argument("--out", required=True)
    p_gpa.add_argument("--variant", default="missing_points")
    p_gpa.add_argument("--tol", type=float, default=1e-10)
    p_gpa.add_argument("--max-iter", type=int, default=500)
    p_gpa.add_argument("--min-iter", type=int, default=3)

    p_ph = sub.add_parser("ph", help="persistence diagram of a point CSV")
    p_ph.add_argument("input")
    p_ph.add_argument("--max-dim", type=int, default=1)
    p_ph.add_argument("--prime", type=int, default=2)
    p_ph.add_argument("--max-radius", type=float, default=None)
    p_ph.add_argument("--out", help="write JSON here instead of stdout")

    p_synth = sub.add_parser("synth", help="write synthetic fixtures")
    p_synth.add_argument("kind", choices=["swiss-roll", "buckyball"])
    p_synth.add_argument("--out", required=True, help="points CSV path")
    p_synth.add_argument("--n", type=int, default=2000, help="swiss-roll size")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--noise", type=float, default=0.0)
    p_synth.add_argument("--outliers", type=int, default=0)
    p_synth.add_argument("--intrinsic-out", help="write the ground-truth chart CSV")

    p_embed = sub.add_parser("embed", help="run one embedding on a point CSV")
    p_embed.add_argument("input")
    p_embed.add_argument("--method", default="isomap", choices=["isomap", "pca", "external"])
    p_embed.add_argument("--dim", type=int, default=2)
    p_embed.add_argument("--epsilon", type=float)
    p_embed.add_argument("--knn", type=int)
    p_embed.add_argument("--file", help="external embedding CSV")
    p_embed.add_argument("--out", required=True)
    return parser


def _cmd_run(args):
    config, input_path, out_dir = read_manifest(args.manifest)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.out:
        out_dir = args.out
    threads = args.threads
    if threads is None:
        threads = int(os.environ.get("ROBUST_COORDS_THREADS", "1"))
    if threads != 1:
        logger.info("thread budget %d noted; computation runs single-threaded", threads)
    points = read_points_csv(input_path)
    try:
        report = run_pipeline(points, config, loader=read_points_csv)
    except NoGoodCluster as exc:
        if exc.report is not None:
            write_report(exc.report, out_dir, plots=not args.no_plots)
        print(f"no good cluster: {exc}", file=sys.stderr)
        return 2
    write_report(report, out_dir, plots=not args.no_plots)
    print(
        f"embedded {report.embedding.n_present} points, "
        f"{len(report.outliers)} outliers -> {out_dir}"
    )
    return 0


def _cmd_dist(args):
    x = read_points_csv(args.first)
    y = read_points_csv(args.second)
    print(_fmt(procrustes_distance(x, y)))
    return 0


def _cmd_gpa(args):
    configs = tuple(read_points_csv(p) for p in args.inputs)
    options = AlsOptions(
        variant=args.variant,
        tol=args.tol,
        max_iter=args.max_iter,
        min_iter=args.min_iter,
    )
    result = normalize_first_fixed(als_align(GpaProblem(configs, options)))
    os.makedirs(args.out, exist_ok=True)
    write_points_csv(result.mean, os.path.join(args.out, "mean.csv"))
    for i, (cfg, motion) in enumerate(zip(configs, result.motions)):
        write_points_csv(
            cfg.transformed(motion), os.path.join(args.out, f"aligned_{i}.csv")
        )
    summary = {
        "loss": result.loss,
        "iterations": result.iterations,
        "converged": result.converged,
        "loss_trace": [float(v) for v in result.loss_trace],
        "symmetry_residuals": [float(v) for v in result.symmetry_residuals],
    }
    with open(os.path.join(args.out, "alignment.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"aligned {len(configs)} configurations; loss {result.loss:.6g}")
    return 0


def _cmd_ph(args):
    points = read_points_csv(args.input)
    diagram = rips_persistence(
        points, max_dim=args.max_dim, p=args.prime, max_radius=args.max_radius
    )
    doc = _diagram_to_json(diagram)
    doc["max_bar_lengths"] = {
        str(q): max_bar_length(diagram, q) for q in diagram.dims()
    }
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_synth(args):
    if args.kind == "swiss-roll":
        sample = swiss_roll(args.n, args.seed)
        points = sample.points3d
        if args.noise > 0:
            points = add_gaussian_noise(points, args.noise, args.seed + 1)
        if args.outliers > 0:
            points, _ = add_uniform_outliers(points, args.outliers, args.seed + 2)
        write_points_csv(points, args.out)
        if args.intrinsic_out:
            write_points_csv(sample.intrinsic, args.intrinsic_out)
    else:
        points = buckyball(args.noise, args.seed)
        write_points_csv(points, args.out)
    print(f"wrote {points.n_present} points to {args.out}")
    return 0


def _cmd_embed(args):
    points = read_points_csv(args.input)
    params = EmbeddingParams(
        method=args.method,
        target_dim=args.dim,
        epsilon=args.epsilon,
        knn=args.knn,
        source=args.file,
    )
    out = embed(points, params, loader=read_points_csv)
    write_points_csv(out.config, args.out)
    print(
        f"embedded {out.config.n_present} points "
        f"({len(out.dropped)} dropped) -> {args.out}"
    )
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "dist": _cmd_dist,
    "gpa": _cmd_gpa,
    "ph": _cmd_ph,
    "synth": _cmd_synth,
    "embed": _cmd_embed,
}


def run_command(argv):
    """Parse argv (without the program name) and execute; returns exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _COMMANDS[args.command](args)
    except (RobustCoordsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_command(sys.argv[1:]))
