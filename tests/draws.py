"""Seeded random instances that only the tests draw.

The generators that the CLI's cross-check suite and the probe scripts
draw from are in ``qualtree.suite``.
"""

from __future__ import annotations

import dataclasses
import random

from qualtree.automata import Alphabet, AlternatingTreeAutomaton, TreeAutomaton
from qualtree.emptiness import ImperfectInfoArena
from qualtree.suite import random_regular_tree


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


def layered_buchi(rng: random.Random) -> tuple:
    """An alternating Büchi automaton over {a, b} whose almost-sure region
    loses one layer of states per round of the fixed point, and a random
    tree of up to 6 nodes; returns (automaton, accepting states, tree).

    Her states t and f are accepting: t loops, f moves to h1 or to the trap
    z, his non-accepting loop.  Layer i has her state h_i, with a coin row
    to t and h_{i-1} (h_0 is z), in either order, or a row to his state
    g_i, which moves back to h_i.  Round 1 removes z, and round i + 1 the
    layer h_i, g_i whose coin lost its other child in round i; f goes once
    its every row inside the region leads out of it.  Per symbol, a layer
    state may also get a row to (t, t), which wins at the nodes so
    labelled only, and any state a random row, so regions differ from node
    to node.  About half the draws, of one to four layers, take three to
    six rounds; the winning and random rows end the others sooner.
    """
    layers = rng.randint(1, 4)
    sigma = Alphabet(("a", "b"))
    h = ["z"] + [f"h{i}" for i in range(1, layers + 1)]
    g = [None] + [f"g{i}" for i in range(1, layers + 1)]
    states = ["t", "f", *h, *g[1:]]
    eloise = frozenset(["t", "f", *h[1:]])
    rows = set()
    for s in sigma:
        rows |= {("t", s, "t", "t"), ("z", s, "z", "z"), ("f", s, "h1", "h1"), ("f", s, "z", "z")}
        for i in range(1, layers + 1):
            coin = ("t", h[i - 1]) if rng.random() < 0.5 else (h[i - 1], "t")
            rows |= {(h[i], s, *coin), (h[i], s, g[i], g[i]), (g[i], s, h[i], h[i])}
            if rng.random() < 0.3:
                rows.add((h[i], s, "t", "t"))
        for q in states:
            if rng.random() < 0.1:
                rows.add((q, s, rng.choice(states), rng.choice(states)))
    aut = AlternatingTreeAutomaton(
        alphabet=sigma, states=frozenset(states), initial=rng.choice(states),
        transitions=frozenset(rows), complete=True, eloise=eloise,
        abelard=frozenset(states) - eloise)
    return aut, frozenset({"t", "f"}), random_regular_tree(rng, 6, sigma)


def mirrored(rng, aut):
    """The automaton with the row (q, a, y, x) added, at random, to her
    rows (q, a, x, y) with x ≠ y."""
    extra = {(q, s, y, x) for (q, s, x, y) in aut.transitions
             if q in aut.eloise and x != y and rng.random() < 0.5}
    return dataclasses.replace(aut, transitions=aut.transitions | extra)
