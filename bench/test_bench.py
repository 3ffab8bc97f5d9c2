"""Tests of the benchmark itself, in its smoke sizes (seconds per run).

    PYTHONPATH=src python3 -m pytest -q bench

The negative controls plant a wrong expectation and require the gate to fail
every operation and run.py to exit nonzero.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
import gate
from tracer import METRIC_SPECS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--smoke", "--seed", "1", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def _planted(tmp_path, workload, change):
    """A copy of expected/ whose smoke section of workload is edited by change."""
    target = tmp_path / "expected"
    shutil.copytree(BENCH / "expected", target)
    path = target / f"{workload}.json"
    data = json.loads(path.read_text())
    change(data["smoke"])
    path.write_text(json.dumps(data))
    return target


@pytest.mark.parametrize("workload", ["verify7", "falsify6", "compute"])
def test_smoke_run_is_correct_and_reports_every_end_to_end_metric(workload):
    code, result = _run("--workload", workload)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    code, result = _run("--workload", "falsify6", "--trace", "1")
    assert code == 0 and result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["harness.theorem_report.calls"] == 71
    assert metrics["bulk.sweep_order_bulk.calls"] == 4


def test_per_layer_specs_match_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(spec) for spec in METRIC_SPECS
    ]


def test_falsified_digest_fails_every_operation(tmp_path):
    def corrupt(section):
        section["sha256"] = "0" * 16

    code, result = _run(
        "--workload", "falsify6", "--expected", str(_planted(tmp_path, "falsify6", corrupt))
    )
    assert code != 0
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_falsified_sweep_where_a_clean_one_is_expected_fails(tmp_path):
    def falsify(section):
        section["argv"] = section["argv"] + ["--t41-divisor", "1"]

    code, result = _run(
        "--workload", "verify7", "--expected", str(_planted(tmp_path, "verify7", falsify))
    )
    assert code != 0
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_wrong_compute_digests_fail_every_operation(tmp_path):
    def corrupt(section):
        section["digests"]["1"] = ["0" * 16] * len(section["digests"]["1"])

    code, result = _run(
        "--workload", "compute", "--expected", str(_planted(tmp_path, "compute", corrupt))
    )
    assert code != 0
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, result = _run("--workload", "verify7", cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert code != 0 and result is None


def test_graph6_encoder_matches_the_program_parser():
    from irregraph.graph import parse_graph6

    for line, rows in corpus.corpus(3) + corpus.corpus(3, smoke=True):
        assert list(parse_graph6(line).rows) == rows


def test_corpus_is_a_function_of_the_seed():
    assert corpus.corpus(5) == corpus.corpus(5)
    assert corpus.corpus(5) != corpus.corpus(6)


def test_witness_check_recomputes_the_cut():
    from irregraph.graph import parse_graph6
    from irregraph.params import full_report

    line, rows = corpus.corpus(2, smoke=True)[-1]
    report = full_report(parse_graph6(line)).to_json()
    assert gate.witness_problems(rows, report) == []
    report["beta"] += 1
    assert any("beta" in p for p in gate.witness_problems(rows, report))
    report["beta"] -= 1
    report["witnesses"]["gamma_ir"] = report["witnesses"]["gamma_ir"][1:]
    assert any("gamma_ir" in p for p in gate.witness_problems(rows, report))
