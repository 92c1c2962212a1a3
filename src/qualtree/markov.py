"""Exact qualitative analysis of finite Markov chains.

Verdicts for the repeated-visit conditions reduce to bottom strongly
connected components: a finite chain enters some BSCC with probability 1
and then visits every state of it infinitely often.  The product chains of
an automaton with a lasso word or a regular tree are explored from their
initial state, so they hold only the states a run can reach.  Finite-word
acceptance probabilities are computed by exact forward propagation.
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
from qualtree.dist import Distribution
from qualtree.graphs import sccs
from qualtree.ordering import ckey
from qualtree.trees import RegularTree, UltimatelyPeriodicWord


@dataclass(frozen=True)
class MarkovChain:
    """A finite chain with exact weights and a marked set of states.

    Chains built by ``word_chain`` and ``tree_chain`` are explored from
    ``initial``: ``states`` holds only the reachable states, in canonical
    order, and ``trans`` and ``marked`` are restricted to them.
    """

    states: tuple
    initial: object
    trans: dict  # state -> Distribution, total on reachable states
    marked: frozenset

    def successors(self, s):
        return self.trans[s].support()


def bsccs(m: MarkovChain) -> list[frozenset]:
    """Bottom SCCs reachable from the initial state, canonically ordered."""
    order = [m.initial]  # states reachable from the initial one, by id
    ids = {m.initial: 0}
    adj = []
    for s in order:  # breadth-first: order grows while it is read
        row = []
        for x in m.successors(s):
            j = ids.get(x)
            if j is None:
                j = ids[x] = len(order)
                order.append(x)
            row.append(j)
        adj.append(row)
    comps = sccs(adj)
    comp_of = [0] * len(order)
    for c, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = c
    out = [
        frozenset(order[v] for v in comp)
        for c, comp in enumerate(comps)
        if all(comp_of[w] == c for v in comp for w in adj[v])
    ]
    # Components are disjoint, so their canonical (ckey) order is that of
    # their least states: no component's key needs to be sorted.
    return sorted(out, key=lambda c: min(map(ckey, c))) if len(out) > 1 else out


def as_verdict(m: MarkovChain, kind: str) -> bool:
    """Almost-sure verdict for the marked set under buchi or cobuchi reading."""
    bottoms = bsccs(m)
    if kind == BUCHI:
        return all(c & m.marked for c in bottoms)
    if kind == COBUCHI:
        return not any(c & m.marked for c in bottoms)
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


def _explore(start, row) -> dict:
    """Transition rows of the states reachable from ``start``; ``row(s)``
    returns the successor weights of ``s`` as a dict."""
    trans: dict = {}
    todo = [start]
    while todo:
        s = todo.pop()
        if s not in trans:
            weights = row(s)
            trans[s] = Distribution._trusted(weights)
            todo.extend(x for x in weights if x not in trans)
    return trans


def word_chain(a: ProbWordAutomaton, final: frozenset, w: UltimatelyPeriodicWord) -> MarkovChain:
    """The finite quotient of the run chain over w, indexed by lasso position."""
    k, n = len(w.prefix), len(w)
    rows: dict = {}  # (state, symbol) -> weighted successors

    def row(s):
        q, i = s
        key = (q, w.at(i))
        succ = rows.get(key)
        if succ is None:
            succ = rows[key] = a.dist(*key).items()
        j = i + 1 if i + 1 < n else k
        return {(q2, j): p for q2, p in succ}

    trans = _explore((a.initial, 0), row)
    states = tuple(sorted(trans))
    marked = frozenset(s for s in states if s[0] in final)
    return MarkovChain(states, (a.initial, 0), trans, marked)


def lasso_membership_word(
    a: ProbWordAutomaton, final: frozenset, w: UltimatelyPeriodicWord, kind: str
) -> bool:
    return as_verdict(word_chain(a, final, w), kind)


def tree_chain(a: ProbTreeAutomaton, final: frozenset, t: RegularTree) -> MarkovChain:
    """Run chain of a probabilistic tree automaton over a regular tree.

    States are (automaton state, tree node), explored from (initial, root);
    each split target contributes half its weight to each child, with like
    terms merged.
    """
    halves: dict = {}  # (state, symbol) -> split targets with half weights

    def row(s):
        q, n = s
        key = (q, t.label[n])
        split = halves.get(key)
        if split is None:
            split = halves[key] = [(pair, w / 2) for pair, w in a.dist(*key).items()]
        c0, c1 = t.succ0[n], t.succ1[n]
        acc: dict = {}
        for (q0, q1), half in split:
            for tgt in ((q0, c0), (q1, c1)):
                acc[tgt] = acc[tgt] + half if tgt in acc else half
        return acc

    trans = _explore((a.initial, t.root), row)
    qrank = {q: i for i, q in enumerate(sorted(a.states))}
    nrank = {n: i for i, n in enumerate(t.nodes)}
    states = tuple(sorted(trans, key=lambda s: (qrank[s[0]], nrank[s[1]])))
    marked = frozenset(s for s in states if s[0] in final)
    return MarkovChain(states, (a.initial, t.root), trans, marked)


def prob_tree_membership(
    a: ProbTreeAutomaton, final: frozenset, t: RegularTree, kind: str = COBUCHI
) -> bool:
    return as_verdict(tree_chain(a, final, t), kind)
