"""Exact qualitative analysis of finite Markov chains.

An almost-sure verdict for a repeated-visit condition depends only on the
chain's support graph: a finite chain enters some bottom strongly connected
component with probability 1 and then visits every state of it infinitely
often.  So the product chains of an automaton with a lasso word or a
regular tree carry no weights.

Both products are built by one explorer, ``_product_chain``, over a graph
of places: a tree's nodes, or a lasso's positions, where both children of
position i are the next position.  With the automaton states ranked and
the places numbered 0 .. |P| - 1, product state (q, p) is the integer
rank(q)·|P| + p.  States are explored breadth-first from the initial one,
which gets id 0; the others are numbered in the order they are found, and
each keeps the ids of its row's support and a marked flag.  Exact weights
stay where a number is the answer: finite-word acceptance probabilities
are computed by exact forward propagation.
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


def _product_chain(a, final, places, label, child0, child1, start, split) -> Chain:
    """The run chain of ``a`` over a graph of places (lasso positions or tree
    nodes), explored breadth-first from (``a.initial``, ``places[start]``).

    Place ``p`` reads the symbol ``label[p]`` and has the children
    ``child0[p]`` and ``child1[p]``, given as indices into ``places``.
    ``split(q, symbol)`` gives the states that ``q``'s row sends to the
    first child and those it sends to the second.  Automaton states are
    ranked as rows name them, the initial state first, and state (q, p) is
    keyed by rank(q)·|P| + p.  A row is made once per (rank, symbol): its
    left, right and union targets as ranks times |P|, so that an edge to
    child c is the key ``y + c``.  Names and marked flags are made once per
    found state, at the end.
    """
    n = len(places)
    ranks = {a.initial: 0}
    names = [a.initial]
    rows: list = [{}]  # by rank: symbol -> (left, right, union)

    def scaled(qs):
        out = []
        for q in qs:
            r = ranks.get(q)
            if r is None:
                r = ranks[q] = len(names)
                names.append(q)
                rows.append({})
            out.append(r * n)
        return out

    keys = [start]  # by id; the initial state has rank 0
    ids = {start: 0}
    get = ids.get
    succ = []
    for x in keys:  # breadth-first: keys grows while it is read
        r, p = divmod(x, n)
        row = rows[r].get(label[p])
        if row is None:
            left, right = split(names[r], label[p])
            left, right = scaled(left), scaled(right)
            row = rows[r][label[p]] = (left, right, list(dict.fromkeys(left + right)))
        c0, c1 = child0[p], child1[p]
        out = []
        for targets, c in ((row[2], c0),) if c0 == c1 else ((row[0], c0), (row[1], c1)):
            for y in targets:
                y += c
                j = get(y)
                if j is None:
                    j = ids[y] = len(keys)
                    keys.append(y)
                out.append(j)
        succ.append(out)
    del ids, get  # free the id table before the names are made
    is_final = [q in final for q in names]
    return Chain([(names[x // n], places[x % n]) for x in keys], succ,
                 [is_final[x // n] for x in keys])


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
    """The run chain over w; its states are (automaton state, lasso position).

    Both children of position i are the next position, i + 1 or, at the end
    of the lasso, the first position of its period.
    """
    k, n = len(w.prefix), len(w)
    nxt = [i + 1 for i in range(n - 1)] + [k]

    def split(q, symbol):
        targets = tuple(a.dist(q, symbol))
        return targets, targets

    return _product_chain(a, final, list(range(n)), w.take(n), nxt, nxt, 0, split)


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
    index = {v: i for i, v in enumerate(t.nodes)}

    def split(q, symbol):
        pairs = tuple(a.dist(q, symbol))
        return dict.fromkeys(q0 for q0, _ in pairs), dict.fromkeys(q1 for _, q1 in pairs)

    return _product_chain(
        a, final, t.nodes, [t.label[v] for v in t.nodes],
        [index[t.succ0[v]] for v in t.nodes], [index[t.succ1[v]] for v in t.nodes],
        index[t.root], split)


def prob_tree_membership(
    a: ProbTreeAutomaton, final: frozenset, t: RegularTree, kind: str = COBUCHI
) -> bool:
    return as_verdict(tree_chain(a, final, t), kind)
