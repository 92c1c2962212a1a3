#!/usr/bin/env python3
"""Tie membership on the node game to the pebble arena it replaced.

For each seeded draw and `random_regular_tree` of up to MAX_NODES nodes,
`buchi_node_region` must hold exactly the state vertices of the region that
`games._as_buchi_core` finds on the arena of `build_tree_game_arena`, the
named arena of `build_acceptance_game` numbered once.  Three draws in four
are `random_alternating_buchi` draws (1 to 3 symbols); every fourth is a
`label_checks` draw, whose co-Büchi verdict can depend on which child a row
sends each state to.  Co-Büchi membership, the fixed point of
`games.almost_sure_cobuchi` on the node game's rows, must give the verdict
of the same fixed point on the arena's moves, on every draw with at most
COBUCHI_STRATEGIES positional strategies (the others are counted, not
decided, to keep a run short).  It must also give the verdict of
`game_oracles.oracle_almost_sure_cobuchi` on the named arena, when that
arena's vertices times her strategies are at most ORACLE_WORK: the oracle
decomposes the MDP of every strategy into end components.  A
`random_alternating_buchi` draw's automaton is then checked for emptiness,
and a witness tree of a non-empty verdict is decided again through the
arena route, which must accept it.  (The emptiness search has no work
bound, and some `label_checks` draws run it for minutes.)  Each
disagreement is printed on its own line, and any makes the exit code 4.

Usage: python scripts/membership_probe.py [SEED] [COUNT] [MAX_STATES] [MAX_NODES]
"""

import dataclasses
import math
import random
import sys
import time

from qualtree.acceptance import (
    build_acceptance_game,
    build_tree_game_arena,
    buchi_node_region,
    qualitative_membership,
)
from qualtree.automata import cobuchi
from qualtree.emptiness import check_emptiness
from qualtree.errors import DisagreementError
from qualtree.game_oracles import oracle_almost_sure_cobuchi
from qualtree.games import _as_buchi_core, almost_sure_cobuchi, arena_moves
from qualtree.ordering import csorted
from qualtree.suite import random_alternating_buchi, random_regular_tree

COBUCHI_STRATEGIES = 2**8
ORACLE_WORK = 2**14


def label_checks(rng, max_states):
    """A `random_alternating_buchi` draw over {a, b} whose co-Büchi verdict
    can depend on which child a row sends each state to.  His states ka and
    kb go to the safe loop ok at a node labelled a and b respectively, and
    to the accepting loop bad at the other label; each of her states gets,
    per symbol, the row (ka, kb) or (kb, ka)."""
    aut, final = random_alternating_buchi(rng, max_states, max_symbols=2)
    while len(aut.alphabet.symbols) < 2:
        aut, final = random_alternating_buchi(rng, max_states, max_symbols=2)
    rows = {("ka", "a", "ok", "ok"), ("ka", "b", "bad", "bad"),
            ("kb", "b", "ok", "ok"), ("kb", "a", "bad", "bad")}
    rows |= {(q, s, q, q) for q in ("ok", "bad") for s in "ab"}
    rows |= {(q, s, *rng.choice([("ka", "kb"), ("kb", "ka")])) for q in aut.eloise for s in "ab"}
    checkers = frozenset({"ka", "kb", "ok", "bad"})
    return dataclasses.replace(
        aut, states=aut.states | checkers, transitions=aut.transitions | rows,
        abelard=aut.abelard | checkers), final | {"bad"}


def pebble_arena(aut, states, final, t) -> tuple:
    """The pebble arena and the ids of its state vertices whose state is in
    `final`: (q, n) is rank(q)·|N| + rank(n)."""
    arena = build_tree_game_arena(aut, t)
    width = len(t.nodes)
    return arena, frozenset(i * width + n for i, q in enumerate(states) if q in final
                            for n in range(width))


def arena_region(aut, states, final, t) -> frozenset:
    """State-vertex ids of the core's region on the pebble arena."""
    region, _ = _as_buchi_core(*pebble_arena(aut, states, final, t))
    return frozenset(v for v in region if v < len(states) * len(t.nodes))


def mask_region(aut, states, final, t) -> frozenset:
    """State-vertex ids of the node masks: bit r of node n is r·|N| + n."""
    width = len(t.nodes)
    return frozenset(r * width + n for n, m in enumerate(buchi_node_region(aut, states, final, t))
                     for r in range(len(states)) if m >> r & 1)


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    count = int(sys.argv[2]) if len(sys.argv) > 2 else 500
    max_states = int(sys.argv[3]) if len(sys.argv) > 3 else 5
    max_nodes = int(sys.argv[4]) if len(sys.argv) > 4 else 14

    rng = random.Random(seed)
    t0 = time.monotonic()
    partial = witnesses = bad = tied = oracle_tied = 0
    for i in range(count):
        labelled = i % 4 == 3
        if labelled:
            aut, final = label_checks(rng, max_states)
        else:
            aut, final = random_alternating_buchi(rng, max_states, max_symbols=3)
        t = random_regular_tree(rng, max_nodes, aut.alphabet)
        states = csorted(aut.states)
        want = arena_region(aut, states, final, t)
        if mask_region(aut, states, final, t) != want:
            print(f"draw {i}: node masks and the arena core give different regions")
            bad += 1
        partial += 0 < len(want) < len(states) * len(t.nodes)
        arena, goal = pebble_arena(aut, states, final, t)
        strategies = math.prod(len(arena.succ[v]) for v in arena.eloise)
        if strategies <= COBUCHI_STRATEGIES:
            tied += 1
            verdict = qualitative_membership(aut, cobuchi(final), t)
            if verdict != almost_sure_cobuchi(arena_moves(arena), arena.eloise, arena.initial, goal):
                print(f"draw {i}: the node game and the arena give different co-Büchi verdicts")
                bad += 1
            game = build_acceptance_game(aut, final, t)
            if len(game.arena.edges) * strategies <= ORACLE_WORK:
                oracle_tied += 1
                if verdict != (game.arena.initial in oracle_almost_sure_cobuchi(
                        game.arena, game.target)):
                    print(f"draw {i}: the node game and the enumeration oracle give different "
                          "co-Büchi verdicts")
                    bad += 1
        if labelled:
            continue
        try:
            result = check_emptiness(aut, final)
        except DisagreementError as e:
            print(f"draw {i}: {e}")
            bad += 1
            continue
        if result.kind == "nonempty":
            witnesses += 1
            w = result.witness
            if states.index(aut.initial) * len(w.nodes) + w.nodes.index(w.root) not in arena_region(
                    aut, states, final, w):
                print(f"draw {i}: the arena route rejects the witness tree")
                bad += 1
    elapsed = time.monotonic() - t0
    print(f"{count} draws in {elapsed:.1f}s: {partial} partial regions, "
          f"{tied} co-Büchi verdicts tied, {oracle_tied} of them to the oracle, "
          f"{witnesses} witness trees re-decided, {bad} disagreements")
    return 0 if not bad else 4


if __name__ == "__main__":
    sys.exit(main())
