#!/usr/bin/env python3
"""Closed-loop benchmark of the qualtree decision procedures.

    python3 perfbench/run.py --workload emptiness|membership|chains \\
        --seed N --seconds S --trace 0|1 [--size full|tiny]

One process, one client, one thread: the next request is sent only after the
previous verdict returns.  The program sees only the requests' text.  A run
sends its workload's fixed corpus in whole passes, at least two, and another
while it is expected to end within ``S`` seconds; the seed picks where a pass
starts and tags every state and node name, so no two seeds or passes send
the same text.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).  Any wrong verdict, exception, failed witness re-check or
input-digest mismatch makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import collections
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import types

import workloads
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HASH_SEED = "0"
# setup_s is the median import time of fresh interpreters, this many started
# before the timed loop and as many after it, so that it samples the machine
# at two moments of the run.
SETUP_RUNS = 8
# A run makes at least this many whole passes over the corpus (one when
# traced, where every request is sent twice).
MIN_PASSES = 2
MODULES = ("errors", "automata", "fileformat", "emptiness", "acceptance", "markov", "reductions")
# latency_p90_ms.  Full corpora hold at least 60 requests and a run makes at
# least two passes, so at least twelve samples lie beyond it.
TAIL_DECILE = 9
EXPECTED = os.path.join(HERE, "expected.json")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SRC = os.path.join(ROOT, "src")


def load_program() -> types.SimpleNamespace:
    """The program's modules, imported from ``src/`` (in a fresh checkout
    this also compiles their bytecode)."""
    sys.path.insert(0, SRC)
    mods = {m: importlib.import_module(f"qualtree.{m}") for m in MODULES}
    if not os.path.abspath(mods["fileformat"].__file__).startswith(SRC + os.sep):
        raise ImportError(f"qualtree was imported from {mods['fileformat'].__file__}, not {SRC}")
    return types.SimpleNamespace(**mods)


def time_setup(runs: int) -> list[float]:
    """Import times of the program's modules, each in a fresh interpreter
    started with the benchmark's own environment; the interpreter's own
    start-up is not included."""
    code = ("import time; t = time.perf_counter(); import "
            + ", ".join(f"qualtree.{m}" for m in MODULES)
            + "; print(time.perf_counter() - t, qualtree.__file__)")
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=HASH_SEED)
    times = []
    for _ in range(runs):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        seconds, where = out.stdout.strip().split(" ", 1)
        if not os.path.abspath(where).startswith(SRC + os.sep):
            raise ImportError(f"qualtree was imported from {where}, not {SRC}")
        times.append(float(seconds))
    return times


def load_expected(workload: str) -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)[workload]


class Gate:
    """Collects failures: wrong verdicts, exceptions, failed witness
    re-checks and input-digest mismatches."""

    def __init__(self):
        self.failures: list[str] = []

    def fail(self, what: str):
        self.failures.append(what)
        print(f"FAIL {what}", file=sys.stderr)


def check_canary(qt, workload: str, expected: dict, gate: Gate) -> int:
    """Run the oracle-anchored canary slice and the gallery's known answers."""
    reqs = workloads.canary(workload)
    if workloads.digest(reqs) != expected["canary"]["digest"]:
        gate.fail("canary inputs differ from the stored record")
    cases = [(r, v, rt) for r, v, rt in zip(reqs, expected["canary"]["verdicts"],
                                           expected["canary"]["routes"])]
    cases += [(r, workloads.CODES[v], rt) for r, v, rt in workloads.GALLERY[workload]]
    for i, (req, code, route) in enumerate(cases):
        try:
            verdict, artifact = workloads.execute(qt, req)
        except Exception as exc:
            gate.fail(f"canary {i}: {type(exc).__name__}: {exc}")
            continue
        if workloads.CODES[verdict] != code:
            gate.fail(f"canary {i}: verdict {verdict}, {route} says {code}")
        check_result(qt, req, verdict, artifact, gate, f"canary {i}")
    return len(cases)


def check_result(qt, req, verdict, artifact, gate: Gate, where: str):
    """Checks that need no stored record: witnesses and chain references."""
    if verdict == "error":
        gate.fail(f"{where}: {artifact}")
    elif verdict == "nonempty":
        problem = workloads.recheck_witness(qt, req, artifact)
        if problem:
            gate.fail(f"{where}: {problem}")
    elif req.kind in ("lift1", "lift2", "value1"):
        ref = workloads.reference_verdict(req, artifact)
        if ref != verdict:
            gate.fail(f"{where}: verdict {verdict}, support-graph reference says {ref}")


def check_request(qt, req, verdict, artifact, stored: str, gate: Gate, where: str):
    """One request against the corpus's stored verdict (renaming does not
    change a verdict), then by witness re-check or chain reference."""
    if verdict != "error" and workloads.CODES[verdict] != stored:
        gate.fail(f"{where}: verdict {verdict}, stored record says {stored}")
    check_result(qt, req, verdict, artifact, gate, where)


def verdict_mix(results) -> dict:
    """Verdict counts over the corpus (first pass)."""
    return dict(sorted(collections.Counter(r[2] for r in results if r[0] == 0).items()))


def end_to_end(setup_times, results, attempted: int, failed: int) -> dict:
    """Timings pool every request of every pass."""
    lat = [r[3] for r in results]
    undecided = sum(1 for r in results if r[2] == "undecided")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_rps": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[TAIL_DECILE - 1]
                           * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "verdict_ok_ratio": (1 - failed / attempted, "ratio"),
        "decided_ratio": (1 - undecided / len(results), "ratio"),
    }


def timed(fn, *args) -> tuple:
    """(verdict, artifact, seconds) of one request; exceptions become "error"."""
    start = time.perf_counter()
    try:
        verdict, artifact = fn(*args)
    except Exception as exc:  # every exception is a failed request
        verdict, artifact = "error", f"{type(exc).__name__}: {exc}"
    return verdict, artifact, time.perf_counter() - start


def whole_passes(schedule, seconds: float, min_passes: int):
    """The schedule cut at a pass boundary: ``min_passes`` passes, then one
    more each time the mean pass so far says it will end within ``seconds``
    of the start.  Every pass sends the whole corpus, so the mix of cheap and
    costly requests is the same however many passes a machine makes."""
    start = time.perf_counter()
    current = 0
    for p, i, req in schedule:
        if p != current:
            elapsed = time.perf_counter() - start
            if p >= min_passes and elapsed * (p + 1) / p > seconds:
                return
            current = p
        yield p, i, req


def closed_loop(qt, schedule, seconds: float, stored: str, gate: Gate) -> list:
    """Send requests one after another, in whole passes over the corpus.

    Returns (pass, corpus index, verdict, latency) per request.  Preparing
    the next request's text and checking the verdict are the client's work
    and are not timed.  Checking each verdict at once, rather than keeping
    the program's outputs to the end, keeps the benchmark's own memory out
    of peak_rss_mb.
    """
    results = []
    for p, i, req in whole_passes(schedule, seconds, MIN_PASSES):
        verdict, artifact, latency = timed(workloads.execute, qt, req)
        check_request(qt, req, verdict, artifact, stored[i], gate, f"pass {p} request {i}")
        results.append((p, i, verdict, latency))
    return results


def traced_loop(qt, schedule, seconds: float, stored: str, gate: Gate, workload: str,
                seed: int):
    """Each request twice, untraced and traced, in alternating order so that
    neither side always runs first, over whole passes.  Returns the
    untraced results and the per-layer metrics.  A traced verdict that
    differs from the untraced one, or spans that do not nest, are failures."""
    tracer = Tracer()
    plain, traced = [], []
    for n, (p, i, req) in enumerate(whole_passes(schedule, seconds, 1)):
        for with_trace in ((False, True) if n % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                try:
                    traced.append(timed(tracer.request, n, workloads.execute, qt, req))
                finally:
                    tracer.uninstall()
            else:
                verdict, artifact, latency = timed(workloads.execute, qt, req)
                check_request(qt, req, verdict, artifact, stored[i], gate,
                              f"pass {p} request {i}")
                plain.append((p, i, verdict, latency))
        if traced[-1][0] != plain[-1][2]:
            gate.fail(f"pass {p} request {i}: traced and untraced verdicts differ")
    for problem in tracer.check_spans([t[2] for t in traced])[:5]:
        gate.fail(problem)
    metrics = {k: (v, "s/req" if k.endswith("_s") else "count/req")
               for k, v in tracer.layer_metrics(len(traced)).items()}
    untraced_s = sum(r[3] for r in plain)
    metrics["trace.overhead_ratio"] = (sum(r[2] for r in traced) / untraced_s - 1, "ratio")
    metrics["trace.spans_per_request"] = (len(tracer.spans) / len(traced), "count/req")
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{workload}-{seed}.tsv"))
    return plain, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.STREAMS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    qt = load_program()
    expected = load_expected(args.workload)
    record = expected["corpus"][args.size]
    gate = Gate()
    got = workloads.digest(workloads.corpus(args.workload, args.size))
    if got != record["digest"]:
        gate.fail(f"corpus inputs {got} differ from the stored {record['digest']}")
    attempted = check_canary(qt, args.workload, expected, gate)
    schedule = workloads.schedule(args.workload, args.seed, args.size)

    if args.trace:
        results, metrics = traced_loop(qt, schedule, args.seconds, record["verdicts"],
                                       gate, args.workload, args.seed)
        attempted += len(results)  # the traced copies; the untraced ones count below
    else:
        setup_times = time_setup(SETUP_RUNS)
        results = closed_loop(qt, schedule, args.seconds, record["verdicts"], gate)
        setup_times += time_setup(SETUP_RUNS)
    attempted += len(results)
    failed = len(gate.failures)
    if not args.trace:
        metrics = end_to_end(setup_times, results, attempted, failed)

    pass_s = collections.defaultdict(float)
    for r in results:
        pass_s[r[0]] += r[3]
    print(f"workload {args.workload} seed {args.seed} corpus {got} hash-seed {HASH_SEED}")
    print(f"requests {len(results)} corpus {len(record['verdicts'])} "
          f"verdicts {json.dumps(verdict_mix(results))} "
          f"request seconds per pass {' '.join(f'{t:.2f}' for t in pass_s.values())}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Fix the hash seed so set iteration inside the program, and with it
        # the work done per request, is the same on every run.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)
    sys.exit(main())
