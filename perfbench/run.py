"""Benchmark of the robust-coords consensus pipeline.

    python3 perfbench/run.py --workload roll-desk --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --toy        # smoke test, every workload

One run prepares the workload's inputs (the set-up, timed three times in
fresh processes), then repeats the user-visible job on them until
``--seconds`` have passed and at least two jobs ran.  Every job's outputs
are checked; a job that fails a check counts in ``failed`` and never
crashes the run.  With ``--trace 0`` the result carries the end-to-end
metrics, measured untraced; with ``--trace 1`` traced and untraced jobs
alternate and the result carries the per-layer metrics.  The last line of
standard output is the JSON result; a fuller record, including the spans
of a traced run and the run's provenance, goes to
``.bench_work/results/``.  ``--workload all`` runs every workload in both
modes, each in its own process, and prints a summary.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

import workloads  # first: it pins BLAS threads before numpy loads

import numpy as np
import scipy
import tracing

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
MIN_JOBS = 2


def _parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="small inputs, for the smoke test")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


# --------------------------------------------------------------- provenance


def _git_sha(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_sha256(src):
    h = hashlib.sha256()
    for path in sorted((src / "robust_coords").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas_threads_in_force():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(args):
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    try:
        threads = _blas_threads_in_force()
    except OSError:
        threads = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "toy": args.toy,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(workloads.ROOT),
        "source_sha256": _source_sha256(workloads.SRC),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {v: os.environ.get(v) for v in workloads.BLAS_THREAD_VARS},
        "blas_threads_in_force": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


# -------------------------------------------------------------------- run


def set_up(args, inputs):
    """Run the set-up process SETUP_REPEATS times; returns its wall times."""
    argv = [sys.executable, str(HERE / "prepare.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--out", str(inputs)] + (["--toy"] if args.toy else [])
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up failed with exit code {proc.returncode}")
    return times


def one_job(workload, spec, inputs, out, traced):
    """Run and check one job; returns its record (and its tracer, if traced)."""
    tracer = tracing.Tracer() if traced else None
    error = None
    code, diagrams = None, None
    with redirect_stdout(io.StringIO()), (tracer or nullcontext()):
        t0 = time.perf_counter()
        try:
            with tracer.span("job") if tracer else nullcontext():
                code, diagrams = workloads.run_job(spec, inputs, out)
        except Exception as exc:  # a crashing job is a failed job, not a failed run
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    try:
        failures, digest, obs = workloads.check_job(spec, code, diagrams, inputs, out)
    except Exception as exc:  # unreadable outputs fail the job, not the run
        failures, digest, obs = [f"check raised {type(exc).__name__}: {exc}"], "", {}
    if error:
        failures.insert(0, f"job raised {error}")
    record = {"seconds": seconds, "traced": traced, "failures": failures, "digest": digest, **obs}
    if tracer is not None:
        try:
            values, status = tracing.layer_metrics(tracer, workloads.BYPASSES[workload])
        except Exception as exc:  # a layer that raised left no result to count
            failures.append(f"layer metrics raised {type(exc).__name__}: {exc}")
            values, status = {}, {}
        split = tracing.stage_split(tracer)
        record.update(layers=values, status=status, stages=split,
                      coverage=sum(split.values()) / seconds)
    return record, tracer


def run_workload(args):
    if args.workload not in workloads.NAMES:
        raise SystemExit(f"unknown workload {args.workload!r}; expected one of {workloads.NAMES} or 'all'")
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    prov = provenance(args)
    spec = workloads.spec_for(args.workload, args.seed, args.toy)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}"
    work = workloads.ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    inputs = work / "inputs"
    try:
        setup_times = set_up(args, inputs)
        jobs, first_tracer = [], None
        start = time.perf_counter()
        while True:
            # traced runs alternate traced and untraced jobs, traced first
            traced = bool(args.trace) and len(jobs) % 2 == 0
            record, tracer = one_job(args.workload, spec, inputs, work / f"job{len(jobs)}", traced)
            jobs.append(record)
            first_tracer = first_tracer or tracer
            n_traced = sum(j["traced"] for j in jobs)
            n_plain = len(jobs) - n_traced
            enough = (n_traced >= MIN_JOBS and n_plain >= 1) if args.trace else n_plain >= MIN_JOBS
            if enough and time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    _cross_check(jobs)
    failed = sum(bool(j["failures"]) for j in jobs)
    summary = _summarize(args, jobs, setup_times, wanted)
    lines = _report_lines(args, jobs, summary, first_tracer)
    print("\n".join(lines))
    print("provenance " + json.dumps(prov, sort_keys=True))

    results = workloads.ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"provenance": prov, "summary": summary, "jobs": jobs}
    if first_tracer is not None:
        record["spans"] = [
            [s.name, s.tag, s.parent, s.start, s.end, s.error] for s in first_tracer.spans
        ]
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    metrics = {m["name"]: {"value": summary["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in summary["metrics"]}
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed, "metrics": metrics}))


def _cross_check(jobs):
    """Equal-seed jobs must agree on the output digest and on every counter."""
    ref = jobs[0]
    for job in jobs[1:]:
        if job["digest"] != ref["digest"]:
            job["failures"].append("output digest differs from job 0")
    traced = [j for j in jobs if j["traced"]]
    for job in traced[1:]:
        for name, value in traced[0]["layers"].items():
            if isinstance(value, int) and job["layers"].get(name) != value:
                job["failures"].append(f"counter {name} differs between traced jobs")


def _summarize(args, jobs, setup_times, wanted):
    plain = [j["seconds"] for j in jobs if not j["traced"]]
    traced = [j for j in jobs if j["traced"]]
    metrics = {}
    summary = {
        "job_s_samples": len(plain),
        "failed_frac": sum(bool(j["failures"]) for j in jobs) / len(jobs),
        "metrics": metrics,
    }
    if args.trace:
        for name in traced[0]["layers"]:
            vals = [j["layers"][name] for j in traced if name in j["layers"]]
            metrics[name] = vals[0] if isinstance(vals[0], int) else statistics.median(vals)
        metrics["trace.coverage"] = statistics.median(j["coverage"] for j in traced)
        summary["status"] = traced[0]["status"]
        summary["trace_overhead_s"] = (statistics.median(j["seconds"] for j in traced)
                                       - statistics.median(plain))
    else:
        metrics["job_s"] = statistics.median(plain)
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    charts = [j["chart_error"] for j in jobs if "chart_error" in j]
    if charts:
        summary["chart_error"] = charts[0]
    summary["missing"] = [m["name"] for m in wanted if m["name"] not in metrics]
    return summary


def _report_lines(args, jobs, summary, tracer):
    m = summary["metrics"]
    plain = [j["seconds"] for j in jobs if not j["traced"]]
    lines = [f"# workload {args.workload}  seed {args.seed}  {'toy' if args.toy else 'full'} size  "
             f"BLAS threads {workloads.BLAS_THREADS}  trace {args.trace}"]
    if not args.trace:
        lines += [
            f"job_s        {m['job_s']:.4f} s   median of {len(plain)} jobs "
            f"(min {min(plain):.4f}, max {max(plain):.4f})",
            f"setup_s      {m['setup_s']:.4f} s   median of {SETUP_REPEATS} set-up processes",
            f"peak_rss_mb  {m['peak_rss_mb']:.1f} MB  peak resident memory of this process",
        ]
    else:
        status = summary["status"]
        lines.append(f"{'layer metric':34} {'value':>14}")
        names = [n for n, _ in tracing.TIME_METRICS] + [n for n, _, _ in tracing.COUNT_METRICS]
        for name in names + ["trace.coverage"]:
            if name in m:
                v = m[name]
                lines.append(f"{name:34} {v:>14}" if isinstance(v, int) else f"{name:34} {v:>14.4f}")
            elif name in status and status[name] == "missing":
                lines.append(f"{name:34} {'missing':>14}")
        for name in sorted(n for n in m if n.startswith("dimred.embed_failed.")):
            lines.append(f"{name:34} {m[name]:>14}")
        for name, st in sorted(status.items()):
            if st == "n/a" and name not in m:
                lines.append(f"{name:34} {'n/a':>14}   (layer not on this workload's path)")
        job = jobs[0]
        lines.append(f"stage split of traced job 0 ({job['seconds']:.3f} s):")
        for label, secs in sorted(job["stages"].items(), key=lambda kv: -kv[1]):
            lines.append(f"  {label:16} {secs:9.3f} s  {100 * secs / job['seconds']:5.1f}%")
        rest = job["seconds"] - sum(job["stages"].values())
        lines.append(f"  {'(remainder)':16} {rest:9.3f} s  {100 * rest / job['seconds']:5.1f}%")
        lines.append(f"trace coverage {m['trace.coverage']:.4f}; tracing overhead "
                     f"{summary['trace_overhead_s']:+.4f} s (median traced job_s minus median untraced job_s)")
        lines.append("spans of traced job 0 (calls, total s, self s):")
        for key, (calls, total, own) in sorted(tracing.span_table(tracer).items(), key=lambda kv: -kv[1][1]):
            lines.append(f"  {key:40} {calls:7d} {total:10.4f} {own:10.4f}")
    if "chart_error" in summary:
        lines.append(f"chart_error  {summary['chart_error']:.6f} of chart diameter (bound "
                     f"{workloads.CHART_ERROR_BOUND})")
    for key in ("f2_over_f3_ph1", "f2_over_f3_ph2", "clusters"):
        if key in jobs[0]:
            lines.append(f"{key:12} {jobs[0][key]:.4g}")
    failed = sum(bool(j["failures"]) for j in jobs)
    lines.append(f"failed_frac  {summary['failed_frac']:.4g}  ({failed} of {len(jobs)} jobs failed)")
    for i, job in enumerate(jobs):
        for failure in job["failures"]:
            lines.append(f"FAILED job {i}: {failure}")
    if summary["missing"]:
        lines.append("MISSING metrics (their layer recorded no span): " + ", ".join(summary["missing"]))
    lines.append(f"digest {jobs[0]['digest']}")
    return lines


# ---------------------------------------------------------------- all mode


def run_all(args):
    """Every workload in both modes, each in a fresh process; prints a summary."""
    names = workloads.NAMES
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in names:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)] + (["--toy"] if args.toy else [])
            proc = subprocess.run(argv, capture_output=True, text=True)
            out = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(out[:-1]))
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                total["correct"] = False
                rows.append(f"{name:14} trace {trace}: exit code {proc.returncode}")
                continue
            result = json.loads(out[-1])
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            if trace == 1:
                stage = out[next(i for i, ln in enumerate(out) if ln.startswith("stage split")) + 1]
                overhead = next(ln for ln in out if ln.startswith("trace coverage"))
                rows.append(f"{name:14} top stage {stage.strip()};  {overhead}")
            else:
                m = result["metrics"]
                for metric, v in m.items():
                    total["metrics"][f"{name}.{metric}"] = v
                chart = next((ln.split()[1] for ln in out if ln.startswith("chart_error")), "-")
                rows.append(
                    f"{name:14} setup_s {m['setup_s']['value']:.3f} s  job_s {m['job_s']['value']:.3f} s "
                    f"(n={result['attempted']})  peak_rss_mb {m['peak_rss_mb']['value']:.1f} MB  "
                    f"chart_error {chart}  failed_frac {result['failed'] / result['attempted']:.3g}"
                )
    print("# summary")
    print("\n".join(rows))
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main():
    args = _parse_args()
    if args.workload == "all":
        sys.exit(run_all(args))
    run_workload(args)


if __name__ == "__main__":
    main()
