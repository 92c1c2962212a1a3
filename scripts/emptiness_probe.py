#!/usr/bin/env python3
"""Compare the emptiness request on ids with the named route, byte for byte.

For each seeded `random_alternating_buchi` draw, and at each knowledge-set
cap of CAPS (the default and a small one), `check_emptiness` decides the
automaton on the game numbered straight from its rows.  The named route builds the named
arena (`build_emptiness_game`), solves it (`solve_imperfect_buchi`) and
unfolds the witness (`extract_witness`).  The two must give the same
verdict, the same witness text and the same strategy text; each difference
is printed on its own line, and any difference makes the exit code 4.

The summary counts what the request route did, over all draws and caps:
first descents won, fallbacks to the full exploration, refuter checks of
the search, and closed-core evaluations (the per-knowledge-set evaluations
that the memo did not answer).  The counts are deterministic for a seed.

Usage: python scripts/emptiness_probe.py [SEED] [COUNT] [MAX_STATES]
"""

import random
import sys
import time

import qualtree.emptiness as em
from qualtree.errors import DisagreementError, ResourceLimit
from qualtree.fileformat import serialize_strategy, serialize_tree
from qualtree.suite import random_alternating_buchi

CAPS = (2**18, 4)  # the default knowledge-set cap and a small one
COUNTS = {"descents won": 0, "fallbacks": 0, "refuter checks": 0,
          "closed-core evaluations": 0}


def _count_calls() -> dict:
    """Rebind the request route's helpers so that they count their calls;
    returns the original functions by name."""
    saved = {name: getattr(em, name) for name in ("_first_descent", "_table_refuter", "_keep")}

    def first_descent(n, cap):
        strat = saved["_first_descent"](n, cap)
        COUNTS["descents won" if strat is not None else "fallbacks"] += 1
        return strat

    def table_refuter(n, masks, post):
        refuted = saved["_table_refuter"](n, masks, post)

        def checked(table):
            COUNTS["refuter checks"] += 1
            return refuted(table)
        return checked

    def keep(n, a, z, u):
        COUNTS["closed-core evaluations"] += 1
        return saved["_keep"](n, a, z, u)

    em._first_descent, em._table_refuter, em._keep = first_descent, table_refuter, keep
    return saved


def _text(kind: str, tree, strat) -> str:
    if kind != "nonempty":
        return kind
    return f"{kind}\n{serialize_tree(tree)}{serialize_strategy(strat)}"


def _request(aut, final, cap: int) -> str:
    try:
        r = em.check_emptiness(aut, final, belief_cap=cap)
    except DisagreementError as e:
        return f"disagreement: {e}"
    return _text(r.kind, r.witness, r.strategy)


def _named(aut, final, cap: int) -> str:
    try:
        game, target = em.build_emptiness_game(aut, final)
        verdict, strat = em.solve_imperfect_buchi(game, target, belief_cap=cap)
    except ResourceLimit:
        return "resource-exceeded"
    if not verdict:
        return "empty"
    tree, _ = em.extract_witness(aut, final, strat)
    return _text("nonempty", tree, strat)


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    count = int(sys.argv[2]) if len(sys.argv) > 2 else 1000
    max_states = int(sys.argv[3]) if len(sys.argv) > 3 else 4

    rng = random.Random(seed)
    draws = [random_alternating_buchi(rng, max_states) for _ in range(count)]
    t0 = time.monotonic()
    saved = _count_calls()
    fast = [[_request(aut, final, cap) for cap in CAPS] for aut, final in draws]
    for name, fn in saved.items():
        setattr(em, name, fn)
    kinds: dict = {}
    differences = 0
    for i, (aut, final) in enumerate(draws):
        for cap, text in zip(CAPS, fast[i]):
            slow = _named(aut, final, cap)
            kind, named_kind = text.split("\n", 1)[0], slow.split("\n", 1)[0]
            kinds[kind] = kinds.get(kind, 0) + 1
            if text != slow:
                differences += 1
                print(f"draw {i:04d} cap {cap}: DIFFERENCE request={kind} "
                      f"named={named_kind} states={len(aut.states)}")
    elapsed = time.monotonic() - t0
    mix = ", ".join(f"{v} {k}" for k, v in sorted(kinds.items()))
    counts = ", ".join(f"{v} {k}" for k, v in COUNTS.items())
    print(f"{count} draws at caps {CAPS[0]} and {CAPS[1]} in {elapsed:.1f}s: {mix}; "
          f"{differences} differences")
    print(f"request route: {counts}")
    return 4 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
