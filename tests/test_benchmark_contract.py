"""The benchmark's result line carries every metric that BENCHMARK.json declares.

Each case runs ``perfbench/run.py`` at toy sizes on one workload, untraced
or traced, in its own process with standard error merged into standard
output, and reads the last line as the result, as any consumer of the
benchmark does.  A traced layer that is no longer called in-process, for
example a Procrustes solver no longer reached through the module attribute
the tracer wraps, leaves its declared metrics out of that line; so does a
run that crashes or prints after its result.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.slow
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_result_line_carries_every_declared_metric(workload, trace):
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--toy", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-3000:]
    wanted = {m["name"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    assert sorted(wanted - set(result["metrics"])) == []
