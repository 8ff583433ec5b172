"""Self-test of the benchmark, at tiny sizes except for the committed digests.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
E2E_REPORTED = {"setup_s", "verdicts_per_s", "op_ms_p50", "op_ms_tail", "failed_frac",
                "peak_rss_mb"}
ABSENT = {"grid": ["racah", "leonard.scan"], "deep": ["leonard.scan"], "search": ["hyper", "racah"]}


@pytest.fixture(autouse=True)
def spans_to_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def _run(capsys, workload, trace, **options):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0.3", "--trace", str(trace)]
    assert run.main(argv, tiny=True, **options) == 0
    report, result = capsys.readouterr().out.strip().rsplit("\n", 1)
    return json.loads(report), json.loads(result)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["grid", "deep", "search"])
def test_every_metric_printed_with_its_unit(capsys, workload, trace):
    report, result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if trace:
        assert report["absent_layers"] == ABSENT[workload]
        assert not report["unbound_names"]
    else:
        assert set(report["end_to_end"]) == E2E_REPORTED
        assert report["end_to_end"]["failed_frac"]["value"] == 0


def test_bypassed_layers_read_zero(capsys):
    _, grid = _run(capsys, "grid", 1)
    _, search = _run(capsys, "search", 1)
    assert grid["metrics"]["leonard.scan.calls"]["value"] == 0
    assert grid["metrics"]["racah.build.self_ms"]["value"] == 0
    assert search["metrics"]["hyper.hypergeom.calls"]["value"] == 0
    assert search["metrics"]["leonard.scan.calls"]["value"] > 0


def test_wrong_expected_digest_is_reported_as_failures(capsys):
    report, result = _run(capsys, "grid", 0, expected=["0" * 16] * 3)
    assert result["failed"] == 3 and not result["correct"]
    assert report["outputs"]["committed"] == "3 mismatches"


@pytest.mark.parametrize("workload", ["grid", "deep", "search"])
def test_committed_digests_match_at_the_default_seed(workload):
    _, workloads = run.load_program()
    wl = workloads.make_workload(workload, run.DEFAULT_SEED)
    expected = run.committed_digests(workload, run.DEFAULT_SEED)
    assert len(expected) == wl.digest_prefix
    phase = run.run_phase(wl, ops=wl.digest_prefix, expected=expected)
    assert phase.failed == 0, phase.problems


def test_inputs_depend_on_the_seed_only():
    _, workloads = run.load_program()
    for name in workloads.WORKLOADS:
        first = workloads.make_workload(name, 7).inputs_digest()
        assert workloads.make_workload(name, 7).inputs_digest() == first
        assert workloads.make_workload(name, 8).inputs_digest() != first


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
