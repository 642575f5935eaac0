"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert 0 <= result["failed"] <= result["attempted"]
    assert result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], float)


def test_same_seed_gives_same_digest():
    digests = set()
    for _ in range(2):
        out = _run("train", 0)
        assert out.returncode == 0, out.stderr
        digests |= {line.split()[1] for line in out.stdout.splitlines()
                    if line.strip().startswith("digest ")}
    assert len(digests) == 1


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_shims_restore_originals_and_skip_missing_targets(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    from trackseg import tracknet
    from trackseg.harness import pipeline

    original = pipeline.build_graph
    monkeypatch.delattr(tracknet, "cluster_params_from_states")
    tracer = tracing.Tracer()
    with tracer.installed():
        assert pipeline.build_graph is not original
    assert pipeline.build_graph is original
    assert tracer.skipped == ["trackseg.tracknet.cluster_params_from_states"]
    metrics, absent = tracer.metrics(overhead_s=0.0)
    assert "tracknet.cluster_params.s" in absent
    assert metrics["tracknet.cluster_params.s"]["value"] == 0.0
