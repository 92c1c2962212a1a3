"""Seeded random instances that the tests and the probe scripts draw.

``qualtree.suite`` keeps only ``random_alternating_buchi``, the generator
of the CLI's cross-check suite.  The probe scripts put this directory on
``sys.path`` and import the others from here, so that a script and a test
drawing from the same seed get the same instances.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

from qualtree.automata import (
    Alphabet,
    AlternatingTreeAutomaton,
    ProbTreeAutomaton,
    ProbWordAutomaton,
    TreeAutomaton,
)
from qualtree.dist import Distribution
from qualtree.emptiness import ImperfectInfoArena
from qualtree.games import StochasticArena
from qualtree.ordering import csorted
from qualtree.trees import RegularTree, UltimatelyPeriodicWord, lasso


def random_regular_tree(
    rng: random.Random, max_nodes: int, alphabet: Alphabet
) -> RegularTree:
    """Random tree presentation with every node reachable by construction."""
    m = rng.randint(1, max_nodes)
    nodes = [f"n{i}" for i in range(m)]
    succ0: dict = {}
    succ1: dict = {}
    for i in range(1, m):
        parent = nodes[rng.randrange(i)]
        side = succ0 if rng.getrandbits(1) else succ1
        other = succ1 if side is succ0 else succ0
        if parent in side:
            side, other = other, side
        if parent in side:
            parent = nodes[i - 1]
            side = succ0 if parent not in succ0 else succ1
        side[parent] = nodes[i]
    for n in nodes:
        succ0.setdefault(n, rng.choice(nodes))
        succ1.setdefault(n, rng.choice(nodes))
    return RegularTree(
        nodes=tuple(nodes),
        root=nodes[0],
        label={n: rng.choice(list(alphabet)) for n in nodes},
        succ0=succ0,
        succ1=succ1,
    )


def random_simple_pwa(
    rng: random.Random, max_states: int, alphabet: Alphabet
) -> ProbWordAutomaton:
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    delta = {}
    for q in states:
        for s in alphabet:
            if rng.random() < 0.45:
                delta[(q, s)] = Distribution.point(rng.choice(states))
            else:
                delta[(q, s)] = Distribution.half_half(
                    rng.choice(states), rng.choice(states)
                )
    return ProbWordAutomaton(alphabet, frozenset(states), "q0", delta)


def random_lasso_word(
    rng: random.Random, alphabet: Alphabet, max_prefix: int = 2, max_period: int = 3
) -> UltimatelyPeriodicWord:
    symbols = list(alphabet)
    prefix = [rng.choice(symbols) for _ in range(rng.randint(0, max_prefix))]
    period = [rng.choice(symbols) for _ in range(rng.randint(1, max_period))]
    return lasso(prefix, period)


def random_split_automaton(rng: random.Random, n: int, alphabet: Alphabet) -> ProbTreeAutomaton:
    """A probabilistic tree automaton on n states whose splits may send
    different states to the two children, unlike the lifts of word automata."""
    states = [f"q{i}" for i in range(n)]
    pairs = [(q0, q1) for q0 in states for q1 in states]
    delta = {}
    for q in states:
        for x in alphabet.symbols:
            split = rng.sample(pairs, rng.randint(1, min(3, len(pairs))))
            weights = [rng.randint(1, 4) for _ in split]
            delta[(q, x)] = Distribution(
                {pair: Fraction(wt, sum(weights)) for pair, wt in zip(split, weights)}
            )
    return ProbTreeAutomaton(alphabet, frozenset(states), states[0], delta)


def with_unreachable_nodes(rng: random.Random, t: RegularTree, alphabet: Alphabet,
                           extra: int) -> RegularTree:
    """t with its nodes listed in random order and `extra` nodes spliced in
    among them that the root never reaches."""
    nodes = rng.sample(t.nodes, len(t.nodes))
    label, succ0, succ1 = dict(t.label), dict(t.succ0), dict(t.succ1)
    for i in range(extra):
        nodes.insert(rng.randint(0, len(nodes)), f"u{i}")
    for i in range(extra):
        label[f"u{i}"] = rng.choice(alphabet.symbols)
        succ0[f"u{i}"] = rng.choice(nodes)
        succ1[f"u{i}"] = rng.choice(nodes)
    return RegularTree(tuple(nodes), t.root, label, succ0, succ1)


def random_arena(rng: random.Random, max_vertices: int = 7) -> StochasticArena:
    n = rng.randint(2, max_vertices)
    vs = [f"v{i}" for i in range(n)]
    eloise, abelard, rand = set(), set(), set()
    edges: dict = {}
    dist: dict = {}
    for v in vs:
        succ = tuple(rng.sample(vs, rng.randint(1, min(3, n))))
        edges[v] = succ
        roll = rng.random()
        if roll < 0.34:
            eloise.add(v)
        elif roll < 0.67:
            abelard.add(v)
        else:
            rand.add(v)
            ws = [rng.randint(1, 4) for _ in succ]
            total = sum(ws)
            dist[v] = Distribution({s: Fraction(w, total) for s, w in zip(succ, ws)})
    return StochasticArena(
        frozenset(eloise), frozenset(abelard), frozenset(rand), edges, dist, vs[0]
    )


def random_target(rng: random.Random, g: StochasticArena) -> frozenset:
    vs = csorted(g.vertices)
    return frozenset(rng.sample(vs, rng.randint(0, len(vs))))


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


def fork(rng, depth, sigma):
    """The finite binary tree of the given depth, randomly labelled, whose
    leaves loop on themselves."""
    nodes, label, succ0, succ1 = [], {}, {}, {}

    def grow(d):
        v = f"n{len(nodes)}"
        nodes.append(v)
        label[v] = rng.choice(sigma.symbols)
        succ0[v], succ1[v] = (grow(d - 1), grow(d - 1)) if d else (v, v)
        return v

    grow(depth)
    return RegularTree(tuple(nodes), nodes[0], label, succ0, succ1)


def sticky_split_automaton(rng, n, sigma):
    """A split automaton with one pair per row, which keeps its state on
    both children half the time.  Runs that part at a node and then stay
    apart make verdicts depend on which child is which; the random split
    automata almost never do."""
    states = [f"q{i}" for i in range(n)]
    delta = {(q, x): Distribution.point((q, q) if rng.random() < 0.5
                                        else (rng.choice(states), rng.choice(states)))
             for q in states for x in sigma.symbols}
    return ProbTreeAutomaton(sigma, frozenset(states), states[0], delta)


def without_a_row(rng, a):
    """a with one transition row removed, picked at random."""
    delta = dict(a.delta)
    del delta[rng.choice(sorted(delta))]
    return type(a)(a.alphabet, a.states, a.initial, delta)
