"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def bench_copy(tmp_path, with_program: bool) -> str:
    """A checkout holding BENCHMARK.json and perfbench/, and the program's
    sources if ``with_program``."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    if with_program:
        os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    return str(tmp_path)


def flip_expected(checkout: str, flip) -> None:
    """Rewrite the copy's expected.json through ``flip``."""
    path = os.path.join(checkout, "perfbench", "expected.json")
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    flip(data)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_listed_metric(workload, trace):
    proc = run("--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    out = result(proc)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert list(out["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]


def test_flipped_expected_verdict_is_caught(tmp_path):
    def flip(data):
        record = data["emptiness"]["corpus"]["tiny"]
        record["verdicts"] = {"E": "N", "N": "E"}[record["verdicts"][0]] + record["verdicts"][1:]

    checkout = bench_copy(tmp_path, with_program=True)
    flip_expected(checkout, flip)
    proc = run("--workload", "emptiness", "--seed", "1", "--seconds", "1", "--trace", "0",
               "--size", "tiny", cwd=checkout)
    assert proc.returncode == 1
    out = result(proc)
    assert out["correct"] is False and out["failed"] >= 1
    assert out["metrics"]["verdict_ok_ratio"]["value"] < 1
    assert "request 0: verdict" in proc.stderr


def test_flipped_canary_verdict_is_caught(tmp_path):
    def flip(data):
        canary = data["membership"]["canary"]
        canary["verdicts"] = {"T": "F", "F": "T"}[canary["verdicts"][0]] + canary["verdicts"][1:]

    checkout = bench_copy(tmp_path, with_program=True)
    flip_expected(checkout, flip)
    proc = run("--workload", "membership", "--seed", "1", "--seconds", "1", "--trace", "0",
               "--size", "tiny", cwd=checkout)
    assert proc.returncode == 1
    assert result(proc)["correct"] is False
    assert "oracle_almost_sure_buchi" in proc.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generated_inputs_match_stored_digests(workload):
    with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as fh:
        data = json.load(fh)[workload]
    assert workloads.digest(workloads.canary(workload)) == data["canary"]["digest"]
    for size, record in data["corpus"].items():
        assert workloads.digest(workloads.corpus(workload, size)) == record["digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_two_seeds_or_passes_send_the_same_text(workload):
    n = len(workloads.corpus(workload, "tiny"))
    sent: dict = {}
    for seed in (1, 2):
        for _, i, req in itertools.islice(workloads.schedule(workload, seed, "tiny"), 2 * n):
            sent.setdefault(i, []).append(req)
    assert all(len(reqs) == 4 == len(set(reqs)) for reqs in sent.values())
    assert len(sent) == n


def test_fails_without_the_program(tmp_path):
    proc = run("--workload", "chains", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=bench_copy(tmp_path, with_program=False))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_span_checks_catch_broken_nesting():
    from tracing import Tracer

    tracer = Tracer()
    # (id, parent, request, name, start, end): span 1 nests in the request,
    # span 2 ends after its parent and span 3 claims a parent of request 1.
    tracer.spans = [(1, 0, 0, "graphs.sccs", 1.0, 2.0), (2, 0, 0, "graphs.sccs", 2.5, 4.0),
                    (0, -1, 0, "request", 0.5, 3.0), (3, 0, 1, "graphs.sccs", 1.0, 1.5),
                    (4, -1, 1, "request", 1.0, 2.0)]
    problems = tracer.check_spans([2.5, 1.0])
    assert any("span 2 " in p and "not inside" in p for p in problems)
    assert any("span 3 " in p and "not inside" in p for p in problems)
    assert any("negative self time" in p for p in problems)
    assert not any("span 1 " in p for p in problems)
    assert not any("root span" in p for p in problems)
    assert any("root span" in p for p in tracer.check_spans([2.0, 1.0]))
