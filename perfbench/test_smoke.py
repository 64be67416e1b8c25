"""Smoke test of the benchmark itself, at tiny input sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

It is not part of the tier-1 suite (pytest collects only tests/ by default).
"""
import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(capsys, workload, trace=0, seed=3):
    from perfbench import run

    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                     "--trace", str(trace), "--size", "tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(capsys, workload):
    code, lines, result = bench(capsys, workload)
    assert code == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] != 0
        assert any(line.startswith(f"# {metric['name']} = ") and line.split()[4] == metric["unit"]
                   for line in lines)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    meta = json.loads(next(line for line in lines if line.startswith("# meta "))[7:])
    assert {"nproc", "python", "numpy", "git_commit", "threads_default", "src_lines"} <= set(meta)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_print_every_layer_metric_and_repeat_their_counts(capsys, workload):
    runs = [bench(capsys, workload, trace=1) for _ in range(2)]
    for code, lines, result in runs:
        assert code == 0, lines
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC["per_layer"]
        }
    counts = [
        {n: m["value"] for n, m in result["metrics"].items() if m["unit"] not in ("s", "MB", "items/s", "ratio")}
        for _, _, result in runs
    ]
    assert counts[0] == counts[1]
    assert (ROOT / ".bench_work" / f"trace-{workload}-s3.json").is_file()


def test_gate_rejects_wrong_contribution_scores(capsys, monkeypatch):
    from genomelm import design

    right = design.contribution_scores

    def wrong(predictor, sequence):
        return [c + 0.01 for c in right(predictor, sequence)]

    monkeypatch.setattr(design, "contribution_scores", wrong)
    code, lines, result = bench(capsys, "design")
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert any("contrib" in line for line in lines if line.startswith("# gate: "))


def test_gate_rejects_wrong_sequence_logprob(capsys, monkeypatch):
    from genomelm import lm

    right = lm.sequence_logprob
    monkeypatch.setattr(lm, "sequence_logprob", lambda model, ids: right(model, ids) * (1 + 1e-6))
    code, lines, result = bench(capsys, "corpus-train")
    assert code == 1 and result["correct"] is False
    assert any("stepwise" in line for line in lines if line.startswith("# gate: "))


def test_fails_without_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
