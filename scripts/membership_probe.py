#!/usr/bin/env python3
"""Tie Büchi membership on node masks to the pebble arena it replaced.

For each seeded `random_alternating_buchi` draw (1 to 3 symbols) and
`random_regular_tree` of up to MAX_NODES nodes, `buchi_node_region` must
hold exactly the state vertices of the region that `games._as_buchi_core`
finds on the arena of `build_tree_game_arena`.  The draw's automaton is
then checked for emptiness, and a witness tree of a non-empty verdict is
decided again through the arena route, which must accept it.  Each
disagreement is printed on its own line, and any makes the exit code 4.

Usage: python scripts/membership_probe.py [SEED] [COUNT] [MAX_STATES] [MAX_NODES]
"""

import random
import sys
import time

from qualtree.acceptance import build_tree_game_arena, buchi_node_region, state_ids
from qualtree.emptiness import check_emptiness
from qualtree.errors import DisagreementError
from qualtree.games import _as_buchi_core
from qualtree.ordering import csorted
from qualtree.suite import random_alternating_buchi, random_regular_tree


def arena_region(aut, states, final, t) -> frozenset:
    """State-vertex ids of the core's region on the pebble arena."""
    arena = build_tree_game_arena(
        states=states, eloise=aut.eloise, split_transitions=aut.transitions,
        local_transitions=frozenset(), initial_state=aut.initial, tree=t)
    region, _ = _as_buchi_core(arena, state_ids(states, final, t))
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
    partial = witnesses = bad = 0
    for i in range(count):
        aut, final = random_alternating_buchi(rng, max_states, max_symbols=3)
        t = random_regular_tree(rng, max_nodes, aut.alphabet)
        states = csorted(aut.states)
        want = arena_region(aut, states, final, t)
        if mask_region(aut, states, final, t) != want:
            print(f"draw {i}: node masks and the arena core give different regions")
            bad += 1
        partial += 0 < len(want) < len(states) * len(t.nodes)
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
          f"{witnesses} witness trees re-decided, {bad} disagreements")
    return 0 if not bad else 4


if __name__ == "__main__":
    sys.exit(main())
