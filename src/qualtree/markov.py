"""Exact qualitative analysis of finite Markov chains.

An almost-sure verdict for a repeated-visit condition depends only on the
chain's support graph: a finite chain enters some bottom strongly connected
component with probability 1 and then visits every state of it infinitely
often.  So the product chains of an automaton with a lasso word or a
regular tree carry no weights.  They are explored from their initial state,
which gets id 0; the other states are numbered in the order they are found,
and each keeps the ids of its row's support and a marked flag.  Exact
weights stay where a number is the answer: finite-word acceptance
probabilities are computed by exact forward propagation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from qualtree.automata import (
    BUCHI,
    COBUCHI,
    ProbTreeAutomaton,
    ProbWordAutomaton,
)
from qualtree.graphs import sccs
from qualtree.trees import RegularTree, UltimatelyPeriodicWord


@dataclass(frozen=True)
class Chain:
    """Support graph of a finite chain, numbered from its initial state.

    ``states[i]`` names state ``i``.  State 0 is the initial state and the
    others follow in the order exploration found them, so every state is
    reachable.  ``succ[i]`` lists the ids in the support of state ``i``'s
    row, and ``marked[i]`` tells whether state ``i`` is marked.
    """

    states: list
    succ: list
    marked: list


def explore(start, row, is_marked) -> Chain:
    """The chain of the states reachable from ``start``; ``row(s)`` lists
    the successors of ``s``."""
    states = [start]
    ids = {start: 0}
    succ = []
    for s in states:  # breadth-first: states grows while it is read
        out = []
        for x in row(s):
            j = ids.get(x)
            if j is None:
                j = ids[x] = len(states)
                states.append(x)
            out.append(j)
        succ.append(out)
    return Chain(states, succ, [is_marked(s) for s in states])


def bsccs(m: Chain) -> list[list[int]]:
    """Bottom SCCs of the chain, as lists of ids, in no particular order."""
    comps = sccs(m.succ)
    comp_of = [0] * len(m.states)
    for c, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = c
    succ = m.succ
    return [comp for c, comp in enumerate(comps)
            if all(comp_of[w] == c for v in comp for w in succ[v])]


def as_verdict(m: Chain, kind: str) -> bool:
    """Almost-sure verdict for the marked set under buchi or cobuchi reading."""
    bottoms = bsccs(m)
    marked = m.marked
    if kind == BUCHI:
        return all(any(marked[v] for v in c) for c in bottoms)
    if kind == COBUCHI:
        return not any(marked[v] for c in bottoms for v in c)
    raise ValueError(f"unknown condition kind {kind!r}")


def acceptance_probability(a: ProbWordAutomaton, final: frozenset, u: tuple) -> Fraction:
    """Exact probability that the run over finite word u ends in `final`."""
    vec = {a.initial: Fraction(1)}
    for symbol in u:
        nxt: dict = {}
        for q, p in vec.items():
            for q2, w in a.dist(q, symbol).items():
                nxt[q2] = nxt.get(q2, Fraction(0)) + p * w
        vec = nxt
    return sum((p for q, p in vec.items() if q in final), Fraction(0))


def word_chain(a: ProbWordAutomaton, final: frozenset, w: UltimatelyPeriodicWord) -> Chain:
    """The run chain over w; its states are (automaton state, lasso position)."""
    k, n = len(w.prefix), len(w)
    symbols = w.take(n)
    rows: dict = {}  # (state, symbol) -> support

    def row(s):
        q, i = s
        key = (q, symbols[i])
        targets = rows.get(key)
        if targets is None:
            targets = rows[key] = tuple(a.dist(*key))
        j = i + 1 if i + 1 < n else k
        return [(q2, j) for q2 in targets]

    return explore((a.initial, 0), row, lambda s: s[0] in final)


def lasso_membership_word(
    a: ProbWordAutomaton, final: frozenset, w: UltimatelyPeriodicWord, kind: str
) -> bool:
    return as_verdict(word_chain(a, final, w), kind)


def tree_chain(a: ProbTreeAutomaton, final: frozenset, t: RegularTree) -> Chain:
    """Run chain of a probabilistic tree automaton over a regular tree.

    States are (automaton state, tree node), explored from (initial, root).
    A split target (q0, q1) at node n leads to (q0, succ0[n]) and to
    (q1, succ1[n]).
    """
    splits: dict = {}  # (state, symbol) -> (left targets, right targets, both)

    def row(s):
        q, n = s
        key = (q, t.label[n])
        split = splits.get(key)
        if split is None:
            pairs = tuple(a.dist(*key))
            left = dict.fromkeys(q0 for q0, _ in pairs)
            right = dict.fromkeys(q1 for _, q1 in pairs)
            split = splits[key] = (tuple(left), tuple(right), tuple(left | right))
        c0, c1 = t.succ0[n], t.succ1[n]
        if c0 == c1:
            return [(x, c0) for x in split[2]]
        return [(x, c0) for x in split[0]] + [(x, c1) for x in split[1]]

    return explore((a.initial, t.root), row, lambda s: s[0] in final)


def prob_tree_membership(
    a: ProbTreeAutomaton, final: frozenset, t: RegularTree, kind: str = COBUCHI
) -> bool:
    return as_verdict(tree_chain(a, final, t), kind)
