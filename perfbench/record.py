#!/usr/bin/env python3
"""Regenerate ``expected.json``, the stored verdict record the runs check.

    python3 perfbench/record.py

For each workload it stores

* the canary slice: oracle-sized inputs with verdicts from the repository's
  oracles (``emptiness.solve_by_enumeration``,
  ``game_oracles.oracle_almost_sure_buchi``) or, for chains, from the
  benchmark's support-graph reference, each with the route that produced it;
* per corpus size: the digest of the corpus and the program's verdict on
  each of its requests, each re-verified (witness re-check, chain
  reference) before it is stored.  Renaming does not change a verdict, so
  the record holds for every seed and pass.

Run it only when the generators change, never to make a failing run pass.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def canary_record(qt, workload: str) -> dict:
    from qualtree.game_oracles import oracle_almost_sure_buchi

    reqs = workloads.canary(workload)
    verdicts, routes = [], []
    for req in reqs:
        loaded = qt.fileformat.parse_automaton(req.texts[0])
        if workload == "emptiness":
            game, target = qt.emptiness.build_emptiness_game(
                loaded.automaton, loaded.acceptance.target)
            won, _ = qt.emptiness.solve_by_enumeration(game, target)
            verdict, route = ("nonempty" if won else "empty"), \
                "oracle: emptiness.solve_by_enumeration"
        elif workload == "membership":
            game = qt.acceptance.build_acceptance_game(
                loaded.automaton, loaded.acceptance.target, qt.fileformat.parse_tree(req.texts[1]))
            won = game.arena.initial in oracle_almost_sure_buchi(game.arena, game.target)
            verdict, route = ("member" if won else "nonmember"), \
                "oracle: game_oracles.oracle_almost_sure_buchi"
        else:
            artifact = workloads.execute(qt, req)[1]
            verdict = workloads.reference_verdict(req, artifact)
            route = "reference: perfbench support-graph bottom SCCs"
        verdicts.append(workloads.CODES[verdict])
        routes.append(route)
    return {"digest": workloads.digest(reqs), "verdicts": "".join(verdicts), "routes": routes}


def corpus_record(qt, workload: str, size: str) -> dict:
    reqs = workloads.corpus(workload, size)
    gate = run.Gate()
    codes = []
    for i, req in enumerate(reqs):
        verdict, artifact = workloads.execute(qt, req)
        run.check_result(qt, req, verdict, artifact, gate, f"{workload} {size} request {i}")
        codes.append(workloads.CODES[verdict])
    if gate.failures:
        raise SystemExit(f"refusing to record: {gate.failures[0]}")
    return {"digest": workloads.digest(reqs), "verdicts": "".join(codes)}


def main() -> int:
    qt = run.load_program()
    path = run.EXPECTED
    data = {}
    for wl in sorted(workloads.STREAMS):
        data[wl] = {"canary": canary_record(qt, wl),
                    "corpus": {size: corpus_record(qt, wl, size) for size in ("full", "tiny")},
                    "route": "program verdicts, each re-verified by witness re-check or "
                             "chain reference where one applies, recorded by record.py"}
        print(f"{wl} recorded", file=sys.stderr, flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != run.HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=run.HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)
    sys.exit(main())
