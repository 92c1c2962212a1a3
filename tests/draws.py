"""Seeded random instances that only the tests draw.

The generators that the CLI's cross-check suite and the probe scripts
draw from are in ``qualtree.suite``.
"""

from __future__ import annotations

import random

from qualtree.automata import Alphabet, TreeAutomaton
from qualtree.emptiness import ImperfectInfoArena


def random_imperfect_arena(
    rng: random.Random, max_vertices: int = 5, max_actions: int = 3
):
    """Small partial-observation arena plus a target set, oracle-tractable."""
    n = rng.randint(1, max_vertices)
    vs = [f"v{i}" for i in range(n)]
    actions = tuple(f"a{i}" for i in range(rng.randint(1, max_actions)))
    n_classes = rng.randint(1, n)
    obs = {v: f"o{rng.randrange(n_classes)}" for v in vs}
    trans = {}
    for v in vs:
        for a in actions:
            k = rng.choice([1, 1, 2])
            supports: dict = {}  # vertex set -> the first support drawn with it
            for _ in range(k):
                support = tuple(rng.sample(vs, rng.randint(1, min(2, n))))
                supports.setdefault(frozenset(support), support)
            trans[(v, a)] = tuple(supports.values())
    arena = ImperfectInfoArena(
        vertices=tuple(vs), initial=vs[0], actions=actions, trans=trans, obs=obs
    )
    target = frozenset(rng.sample(vs, rng.randint(0, n)))
    return arena, target


def random_tree_automaton(rng: random.Random, max_states: int, alphabet: Alphabet):
    """Complete split-transition automaton with all states universal."""
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    transitions = set()
    for q in states:
        for s in alphabet:
            for _ in range(rng.choice([1, 1, 2, 3])):
                transitions.add((q, s, rng.choice(states), rng.choice(states)))
    final = frozenset(q for q in states if rng.random() < 0.5)
    aut = TreeAutomaton(
        alphabet=alphabet,
        states=frozenset(states),
        initial="q0",
        transitions=frozenset(transitions),
        complete=True,
    )
    return aut, final
