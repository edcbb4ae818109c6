"""The benchmark's result line carries every metric that BENCHMARK.json declares.

Each case runs ``perfbench/run.py`` at toy sizes on one workload, untraced
or traced, in its own process with standard error merged into standard
output, and reads the last line as the result, as any consumer of the
benchmark does.  A traced layer that is no longer called in-process, for
example a Procrustes solver no longer reached through the module attribute
the tracer wraps, leaves its declared metrics out of that line; so does a
run that crashes or prints after its result.

Those cases run the benchmark and are slow; a fast test counts the calls
through the wrapped module attributes of ``dimred`` and ``tda`` directly.
"""

import json
import subprocess
import sys
from collections import Counter
from contextlib import suppress
from pathlib import Path

import numpy as np
import pytest

from robust_coords import dimred, tda
from robust_coords.core_types import Configuration
from robust_coords.dimred import EmbeddingOutput, EmbeddingParams
from robust_coords.ensemble import (
    PipelineConfig,
    cluster_ensemble,
    dissimilarity_matrix,
    select_good_cluster,
)
from robust_coords.errors import NoGoodCluster
from robust_coords.synth import swiss_roll

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


def test_traced_layers_are_called_through_module_attributes(monkeypatch, rng):
    # the tracer wraps these attributes; a call that bypasses one drops its
    # layer from the traced result line
    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for module, name in ((dimred, "pdist"), (dimred, "shortest_path"),
                         (dimred, "classical_mds"), (tda, "rips_from_distances")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))

    # Floyd-Warshall below dimred._DENSE_MAX points and Dijkstra above, both
    # through the one attribute that dimred.dijkstra_s times
    for m in (60, 150):
        calls.clear()
        dimred.embed(swiss_roll(m, seed=0).points3d, EmbeddingParams(target_dim=2, knn=6))
        assert calls == {"pdist": 1, "shortest_path": 1, "classical_mds": 1}

    # rigid copies of a disk and of a ring: two dense clusters, both scored
    calls.clear()
    pca = EmbeddingParams(method="pca", target_dim=2)
    ensemble = []
    for shape in ("disk", "ring"):
        ang = rng.uniform(0.0, 2.0 * np.pi, 60)
        r = np.sqrt(rng.uniform(0.05, 1.0, 60)) if shape == "disk" else 1.0
        points = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
        for _ in range(6):
            theta = rng.uniform(0.0, 2.0 * np.pi)
            turned = points @ np.array([[np.cos(theta), -np.sin(theta)],
                                        [np.sin(theta), np.cos(theta)]])
            ensemble.append(EmbeddingOutput(Configuration.from_rows(turned), [], pca,
                                            subsample_index=len(ensemble), params_index=0))
    config = PipelineConfig(n_subsamples=4, subsample_size=8, dimred=(pca,),
                            min_cluster_size=2, ph_representatives=2, seed=5)
    clusters = cluster_ensemble(dissimilarity_matrix(ensemble), config, scale=0.0)
    with suppress(NoGoodCluster):
        select_good_cluster(clusters, ensemble, config)
    representatives = sum(c.representatives.size for c in clusters)
    assert representatives == 4
    assert calls == {"rips_from_distances": representatives}
