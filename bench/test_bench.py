"""Self-tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

They run every workload at a tiny size, so they take seconds, not minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

SPEC = run.spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_metric(workload, trace, group):
    result, record = run.run_workload(workload, seed=3, seconds=0.05, trace=trace, size="tiny")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    assert record["reported"]["error_rate"]["value"] == 0.0
    if trace == 0:
        samples = sorted(record["setup_samples_s"])
        assert len(samples) == run.SETUP_PAUSES
        assert samples[-2] <= result["metrics"]["setup_s"]["value"] <= samples[-1]
    assert list(result["metrics"]) == [m["name"] for m in SPEC[group]]
    for m in SPEC[group]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


def _shift_first_importance(workload, i, calls):
    if i == 1:
        doc = json.loads(calls[0].out)
        doc["importance"][0] += 1e-3
        calls[0].out = json.dumps(doc)


def _fail_last_call(workload, i, calls):
    if i == 0:
        calls[-1].rc = 1


@pytest.mark.parametrize("workload, tamper, op", [
    ("report", _shift_first_importance, 1),
    ("crosscheck", _fail_last_call, 0),
    ("axioms", _fail_last_call, 0),
])
def test_corrupted_output_counts_in_error_rate(workload, tamper, op, capsys):
    result, record = run.run_workload(workload, seed=3, seconds=0.05, trace=0, size="tiny",
                                      tamper=tamper)
    assert not result["correct"]
    assert result["failed"] == 1
    assert record["reported"]["error_rate"]["value"] == 1 / result["attempted"]
    assert f"FAILED op {workload}#{op}" in capsys.readouterr().err


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "report", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert child.returncode != 0
    assert child.stdout == ""


def test_tracer_reports_absent_names_and_restores_bindings(monkeypatch):
    run.import_karycap()
    import karycap
    from karycap import cli, indices, verify

    import tracer

    monkeypatch.setitem(tracer.SPANNED, "karycap.indices",
                        {**tracer.SPANNED["karycap.indices"], "no_such_function": None})
    original = indices.interaction
    t = tracer.Tracer()
    t.install()
    try:
        assert verify.interaction is cli.interaction is karycap.interaction is not original
        verify.verify_axiom("E", 1, 1, 2, 1)
    finally:
        t.uninstall()
    assert indices.interaction is verify.interaction is cli.interaction is original
    assert t.absent == ["karycap.indices.no_such_function"]
    metrics = tracer.layer_metrics(t)
    assert metrics["verify.trials"] == 1
    assert metrics["verify.index_queries"] == metrics["indices.closed_form.calls"] == 2


def _record(directory, workload, seed, value, run=0):
    directory.mkdir(exist_ok=True)
    record = {"meta": {"workload": workload, "seed": seed}, "trace": 0,
              "result": {"metrics": {"op_p90_ms": {"value": value, "unit": "ms"}}}}
    (directory / f"{workload}-s{seed}-t0-{run:03d}.json").write_text(json.dumps(record))


def test_compare_flags_a_regression_and_passes_a_match(tmp_path):
    import compare

    parent, same, slower = tmp_path / "parent", tmp_path / "same", tmp_path / "slower"
    for seed in range(10):
        _record(parent, "report", seed, 10.0 + 0.01 * seed)
        _record(same, "report", seed, 10.0 + 0.01 * (9 - seed))
        _record(slower, "report", seed, 20.0 + 0.01 * seed)
    assert compare.main([str(parent), str(same)]) == 0
    assert compare.main([str(parent), str(slower)]) == 1
    assert compare.main([str(parent)]) == 0


def test_compare_counts_every_run_of_a_repeated_seed(tmp_path):
    import compare

    parent, slower = tmp_path / "parent", tmp_path / "slower"
    for run_index in range(10):
        _record(parent, "report", 1, 10.0 + 0.01 * run_index, run_index)
        _record(slower, "report", 1, 20.0 if run_index < 6 else 10.0, run_index)
    runs = compare.load(str(slower))["report", 0]["op_p90_ms"]
    assert runs == {1: [20.0] * 6 + [10.0] * 4}
    assert compare.main([str(parent), str(slower)]) == 1
    assert compare.main([str(slower)]) == 1  # spread 0.5, above the bound: unsteady
