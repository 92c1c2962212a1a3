#!/usr/bin/env python3
"""Walk through the emptiness pipeline on two contrasting instances.

The first automaton accepts the constant tree; the decision returns a
regular witness whose membership is reconfirmed by the pebble game, and a
strategy that passes the exact product check of the emptiness game.  The
second lets the opponent demand two incompatible uniform labelings; the
blind game is lost (the language is empty) although a state-observing
variant of the same arena would be won, which is exactly the leak the
observation classes exist to prevent.
"""

from qualtree.acceptance import qualitative_membership
from qualtree.automata import buchi
from qualtree.emptiness import (
    build_emptiness_game,
    check_emptiness,
    check_observation_strategy,
    fully_observable,
    solve_imperfect_buchi,
)
from qualtree.fileformat import serialize_strategy, serialize_tree
from qualtree.gallery import contradictory_uniformity_automaton, one_state_acceptor


def main() -> None:
    aut, final = one_state_acceptor()
    result = check_emptiness(aut, final)
    print(f"one-state acceptor: {result.kind}")
    print("witness tree:")
    print(serialize_tree(result.witness), end="")
    print("membership re-check:", qualitative_membership(aut, buchi(final), result.witness))
    print("strategy table:")
    print(serialize_strategy(result.strategy), end="")
    game, target = build_emptiness_game(aut, final)
    print("strategy check:", check_observation_strategy(game, target, result.strategy))

    aut2, core = contradictory_uniformity_automaton()
    result2 = check_emptiness(aut2, core)
    print(f"\ncontradictory uniformity automaton: {result2.kind}")
    game, target = build_emptiness_game(aut2, core)
    observable_verdict, _ = solve_imperfect_buchi(fully_observable(game), target)
    print(f"state-observing variant of the same arena won: {observable_verdict}")
    print("(the gap between the two verdicts is the point of the blind game)")


if __name__ == "__main__":
    main()
