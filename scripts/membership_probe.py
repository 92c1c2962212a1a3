#!/usr/bin/env python3
"""Tie membership on the node game to the pebble arena it replaced.

For each seeded `random_alternating_buchi` draw (1 to 3 symbols) and
`random_regular_tree` of up to MAX_NODES nodes, `buchi_node_region` must
hold exactly the state vertices of the region that `games._as_buchi_core`
finds on the arena of `build_tree_game_arena`.  Co-Büchi membership, which
enumerates her rows of the node game, must give the verdict of
`games.almost_sure_cobuchi` on the arena's moves, on every draw with at
most COBUCHI_STRATEGIES positional strategies (the others are counted, not
decided, to keep a run short).  The draw's automaton is then checked for
emptiness, and a witness tree of a non-empty verdict is decided again
through the arena route, which must accept it.  Each disagreement is
printed on its own line, and any makes the exit code 4.

Usage: python scripts/membership_probe.py [SEED] [COUNT] [MAX_STATES] [MAX_NODES]
"""

import math
import random
import sys
import time

from qualtree.acceptance import build_tree_game_arena, buchi_node_region, qualitative_membership
from qualtree.automata import cobuchi
from qualtree.emptiness import check_emptiness
from qualtree.errors import DisagreementError
from qualtree.games import _as_buchi_core, almost_sure_cobuchi, arena_moves
from qualtree.ordering import csorted
from qualtree.suite import random_alternating_buchi, random_regular_tree

COBUCHI_STRATEGIES = 2**8


def pebble_arena(aut, states, final, t) -> tuple:
    """The pebble arena and the ids of its state vertices whose state is in
    `final`: (q, n) is rank(q)·|N| + rank(n)."""
    arena = build_tree_game_arena(
        states=states, eloise=aut.eloise, split_transitions=aut.transitions,
        local_transitions=frozenset(), initial_state=aut.initial, tree=t)
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
    partial = witnesses = bad = tied = 0
    for i in range(count):
        aut, final = random_alternating_buchi(rng, max_states, max_symbols=3)
        t = random_regular_tree(rng, max_nodes, aut.alphabet)
        states = csorted(aut.states)
        want = arena_region(aut, states, final, t)
        if mask_region(aut, states, final, t) != want:
            print(f"draw {i}: node masks and the arena core give different regions")
            bad += 1
        partial += 0 < len(want) < len(states) * len(t.nodes)
        arena, goal = pebble_arena(aut, states, final, t)
        if math.prod(len(arena.succ[v]) for v in arena.eloise) <= COBUCHI_STRATEGIES:
            tied += 1
            if qualitative_membership(aut, cobuchi(final), t) != almost_sure_cobuchi(
                    arena_moves(arena), arena.eloise, arena.initial, goal):
                print(f"draw {i}: the node game and the arena give different co-Büchi verdicts")
                bad += 1
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
          f"{tied} co-Büchi verdicts tied, "
          f"{witnesses} witness trees re-decided, {bad} disagreements")
    return 0 if not bad else 4


if __name__ == "__main__":
    sys.exit(main())
