"""Command-line driver, manifest/CSV/JSON formats, and SVG diagnostics.

File formats
------------
Points CSV: see ``core_types``; ``read_points_csv`` and ``write_points_csv``
are re-exported here.

Manifest JSON: ``{"format_version": "1", "input_path": ..., "output_dir":
..., "config": {...}}`` where ``config`` mirrors PipelineConfig field for
field, each ``dimred`` entry mirrors EmbeddingParams and ``als`` mirrors
AlsOptions.  Keys are read off the dataclass fields and absent keys take
the dataclass defaults; unknown keys anywhere are rejected.

Output JSON (``report.json``, ``gpa``'s ``alignment.json``, ``ph``'s
diagram) is derived from the dataclasses by ``_jsonable``: each dataclass
becomes an object keyed by its field names, except the fields declared
with ``field(metadata={"json": False})``, and all of it is written by
``_json_text``.  So the report's ``config`` section is written from the
fields the manifest is read by, and parses back to an equal
PipelineConfig.

Exit codes: 0 success, 1 usage or input errors, 2 when the pipeline
terminates because no good cluster exists (diagnostics are still written,
unless fewer than two embeddings succeeded or no two of them share two or
more indices).
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
import typing

import numpy as np

from .core_types import Configuration, _fmt, read_points_csv, write_points_csv
from .dimred import EmbeddingParams, embed
from .ensemble import PipelineConfig, run_pipeline
from .errors import NoGoodCluster, ParseError, RobustCoordsError
from .gpa_als import AlsOptions, GpaProblem, als_align
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


# ------------------------------------------------------------------ manifest


@dataclasses.dataclass(frozen=True)
class _Manifest:
    """The top level of a run manifest."""

    format_version: str
    input_path: str
    output_dir: str
    config: PipelineConfig


def _from_json(cls, obj, context):
    """Build dataclass ``cls`` from a JSON object keyed by its field names.

    Absent keys take the field's default.  Values are checked against the
    field's type hint: ``int`` (JSON integers only), ``float`` (any JSON
    number), ``str``, ``T | None``, a nested dataclass, or ``tuple[X, ...]``
    from a list; no scalar field takes a boolean.  Unknown keys, missing
    required keys and values that the hint or the dataclass rejects raise
    ParseError naming the path, e.g. ``manifest.config.dimred[0]``.
    """
    if not isinstance(obj, dict):
        raise ParseError(f"{context} must be an object")
    hints = typing.get_type_hints(cls)
    unknown = set(obj) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ParseError(f"unknown keys in {context}: {sorted(unknown)}")
    kwargs = {k: _coerce(hints[k], v, f"{context}.{k}") for k, v in obj.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{context}: {exc}") from None


# The JSON values each scalar field type accepts: an int field takes no
# float, and no field takes a string for a number or a number for a string.
_JSON_TYPES = {int: int, float: (int, float), str: str}


def _coerce(hint, value, context):
    if dataclasses.is_dataclass(hint):
        return _from_json(hint, value, context)
    args = typing.get_args(hint)
    if type(None) in args:  # T | None
        return None if value is None else _coerce(args[0], value, context)
    if typing.get_origin(hint) is tuple:  # tuple[X, ...]
        if not isinstance(value, list):
            raise ParseError(f"{context}: expected a list, got {type(value).__name__}")
        return tuple(_coerce(args[0], v, f"{context}[{i}]") for i, v in enumerate(value))
    # JSON booleans are Python ints, so they are ruled out by name
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[hint]):
        raise ParseError(f"{context}: expected {hint.__name__}, got {json.dumps(value)}")
    try:
        return hint(value)
    except OverflowError as exc:  # an integer literal too large for a float
        raise ParseError(f"{context}: {exc}") from None


def read_manifest(path):
    """Parse a run manifest; returns (PipelineConfig, input_path, output_dir)."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"manifest is not valid JSON: {exc}") from None
    manifest = _from_json(_Manifest, doc, "manifest")
    if manifest.format_version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {manifest.format_version!r}")
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    dimred = tuple(
        p if p.source is None else dataclasses.replace(p, source=resolve(p.source))
        for p in manifest.config.dimred
    )
    config = dataclasses.replace(manifest.config, dimred=dimred)
    return config, resolve(manifest.input_path), resolve(manifest.output_dir)


# -------------------------------------------------------------------- report


def _jsonable(value):
    """JSON-ready copy of a dataclass, dict, sequence or numpy value.

    A dataclass becomes an object keyed by its field names, leaving out
    each field whose metadata holds ``"json": False`` (data written to
    other files); non-finite floats (undefined diagnostics, infinite bars)
    become null.
    """
    if dataclasses.is_dataclass(value):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.metadata.get("json", True)
        }
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _json_text(value):
    """The text of an output JSON document: ``_jsonable(value)``, keys
    sorted, indented by one space, with a final newline."""
    return json.dumps(_jsonable(value), indent=1, sort_keys=True) + "\n"


def write_report(report, out_dir, plots=True):
    """Write report.json, embedding/outliers/mds_view CSVs, and SVG plots.

    Every record goes through ``_jsonable``; each cluster also gets its
    derived ``size`` and ``dense``.  On a failed run (no good cluster) the
    embedding and outlier files are skipped but the JSON diagnostics are
    complete.  Returns the list of files written.
    """
    os.makedirs(out_dir, exist_ok=True)
    doc = {
        "format_version": FORMAT_VERSION,
        "seed": report.config.seed,
        "config": report.config,
        "n_members": len(report.members),
        "members": report.members,
        "thresholds": report.thresholds,
        "clusters": [{**_jsonable(c), "size": c.size, "dense": c.dense} for c in report.clusters],
        "good_cluster": report.good_cluster,
        "outliers": report.outliers,
        "alignment": report.alignment,
        "embedding_points": None if report.embedding is None else report.embedding.n_present,
    }
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as fh:
        fh.write(_json_text(doc))
    written = [path]

    charts = (
        ("mds_view", report.mds_view, "ensemble dissimilarity (MDS)"),
        ("embedding", report.embedding, "averaged embedding"),
    )
    for stem, chart, _ in charts:
        if chart is not None:
            path = os.path.join(out_dir, f"{stem}.csv")
            write_points_csv(chart, path)
            written.append(path)
    if report.embedding is not None:
        path = os.path.join(out_dir, "outliers.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id"])
            for idx in report.outliers:
                writer.writerow([int(idx)])
        written.append(path)
    if plots:
        try:
            for stem, chart, title in charts:
                path = os.path.join(out_dir, f"{stem}.svg")
                if chart is not None and _svg_scatter(chart.present_matrix(), path, title):
                    written.append(path)
        except Exception as exc:  # plots are best-effort diagnostics only
            logger.warning("plot generation failed: %s", exc)
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
    p_run.add_argument("--no-plots", action="store_true")

    p_dist = sub.add_parser("dist", help="Procrustes distance of two point CSVs")
    p_dist.add_argument("first")
    p_dist.add_argument("second")

    p_gpa = sub.add_parser("gpa", help="align k point CSVs and write the average")
    p_gpa.add_argument("inputs", nargs="+")
    p_gpa.add_argument("--out", required=True)
    p_gpa.add_argument("--tol", type=float, default=AlsOptions.tol)
    p_gpa.add_argument("--max-iter", type=int, default=AlsOptions.max_iter)
    p_gpa.add_argument("--min-iter", type=int, default=AlsOptions.min_iter)

    p_ph = sub.add_parser("ph", help="persistence diagram of a point CSV")
    p_ph.add_argument("input")
    p_ph.add_argument("--max-dim", type=int, default=1)
    p_ph.add_argument("--prime", type=int, default=2)
    p_ph.add_argument("--max-radius", type=float, default=None)
    p_ph.add_argument("--out", help="write JSON here instead of stdout")

    p_synth = sub.add_parser("synth", help="write synthetic fixtures")
    p_synth.add_argument("kind", choices=["swiss-roll", "buckyball"])
    p_synth.add_argument("--out", required=True, help="points CSV path")
    p_synth.add_argument("--n", type=int, help="swiss-roll size (default 2000)")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--noise", type=float, default=0.0)
    p_synth.add_argument("--outliers", type=int, default=0, help="swiss-roll only")
    p_synth.add_argument(
        "--intrinsic-out", help="write the ground-truth chart CSV (swiss-roll only)"
    )

    p_embed = sub.add_parser("embed", help="run one embedding on a point CSV")
    p_embed.add_argument("input")
    p_embed.add_argument(
        "--method", default=EmbeddingParams.method, choices=["isomap", "pca", "external"]
    )
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
    points = read_points_csv(input_path)
    try:
        report = run_pipeline(points, config)
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


def _read_on_common_index_set(paths):
    """Read points CSVs, each widened to the largest id + 1 over all of them."""
    configs = [read_points_csv(p) for p in paths]
    n = max(c.n_global for c in configs)
    return tuple(
        Configuration.from_rows(c.present_matrix().T, c.present_indices(), n_global=n)
        for c in configs
    )


def _cmd_dist(args):
    x, y = _read_on_common_index_set([args.first, args.second])
    print(_fmt(procrustes_distance(x, y)))
    return 0


def _cmd_gpa(args):
    configs = _read_on_common_index_set(args.inputs)
    options = AlsOptions(tol=args.tol, max_iter=args.max_iter, min_iter=args.min_iter)
    result = als_align(GpaProblem(configs, options))
    os.makedirs(args.out, exist_ok=True)
    write_points_csv(result.mean, os.path.join(args.out, "mean.csv"))
    for i, (cfg, motion) in enumerate(zip(configs, result.motions)):
        write_points_csv(
            cfg.transformed(motion), os.path.join(args.out, f"aligned_{i}.csv")
        )
    with open(os.path.join(args.out, "alignment.json"), "w") as fh:
        fh.write(_json_text(result))
    print(f"aligned {len(configs)} configurations; loss {result.loss:.6g}")
    return 0


def _cmd_ph(args):
    points = read_points_csv(args.input)
    diagram = rips_persistence(
        points, max_dim=args.max_dim, p=args.prime, max_radius=args.max_radius
    )
    text = _json_text({
        **_jsonable(diagram),
        "max_bar_lengths": {q: max_bar_length(diagram, q) for q in diagram.dims()},
    })
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_synth(args):
    if args.kind == "swiss-roll":
        sample = swiss_roll(2000 if args.n is None else args.n, args.seed)
        points = sample.points3d
        points = add_gaussian_noise(points, args.noise, args.seed + 1)
        points, _ = add_uniform_outliers(points, args.outliers, args.seed + 2)
        write_points_csv(points, args.out)
        if args.intrinsic_out:
            write_points_csv(sample.intrinsic, args.intrinsic_out)
    else:
        if args.n is not None or args.outliers or args.intrinsic_out:
            raise ValueError("buckyball takes no --n, --outliers or --intrinsic-out")
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
    out = embed(points, params)
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
    except (RobustCoordsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_command(sys.argv[1:]))
