"""Smoke test of the benchmark's own code at tiny sizes.

Run with ``python -m pytest perfbench/test_smoke.py`` from the checkout
root.  Every workload, timed and traced, must print every metric that
BENCHMARK.json names, with its unit, and pass its output checks; without
the source tree the benchmark must fail without printing a result.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    full_mix = workloads.cli_mix
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "COLD_START_SAMPLES", 1)
    monkeypatch.setattr(workloads, "EMBED_NETWORKS", ("rev_pair", "triangle"))
    monkeypatch.setattr(workloads, "EMBED_EPSILONS", (0.5,))
    monkeypatch.setattr(workloads, "EMBED_TRIALS", 10)
    monkeypatch.setattr(workloads, "CURVE_NETWORKS", ("rev_pair",))
    monkeypatch.setattr(workloads, "CURVE_EPSILONS", (0.9,))
    monkeypatch.setattr(workloads, "CURVE_SCHEDULES", 2)
    monkeypatch.setattr(workloads, "GENERATED_NETWORKS", 1)
    monkeypatch.setattr(workloads, "cli_mix",
                        lambda *a: full_mix(*a)[:1] + full_mix(*a)[-1:])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(tiny, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3",
                     "--seconds", "0.01", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec}
    for name, unit in printed.items():
        assert any(line.startswith(f"{name}: ") and line.endswith(f" {unit}")
                   for line in lines[:-1]), name
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / run.HERE.name / "run.py"),
         "--workload", "embed_sampling", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_absent_function_is_reported_and_originals_come_back(monkeypatch):
    import tracing
    from toric_gac import dynamics, network

    field = dynamics.mass_action_field
    monkeypatch.delattr(network, "parse_network")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert dynamics.mass_action_field is not field
    finally:
        tracer.uninstall()
    assert dynamics.mass_action_field is field
    assert tracer.absent == ["network.parse_network"]
    metrics = tracer.metrics(1.0)
    assert metrics["network.parse_network.calls"] == (0, "count")
    assert metrics["trace.absent_functions"] == (1, "count")
