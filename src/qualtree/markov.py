"""Exact qualitative analysis of finite Markov chains.

An almost-sure verdict for a repeated-visit condition depends only on the
chain's support graph: a finite chain enters some bottom strongly connected
component with probability 1 and then visits every state of it infinitely
often (Courcoubetis and Yannakakis, JACM 1995).  Let Bad be the states that
cannot reach a marked state.  Büchi holds almost surely iff no reachable
state is in Bad, and co-Büchi iff every reachable state can reach Bad.

The run chains of an automaton over a lasso word or a regular tree are
decided that way on a `nodegraph` of places, with one state mask per
place and no chain built.  A place is a tree node or a lasso position, and
both children of position i are the next position.  A word row q → x is
the row (q, x, x), and a tree row gives one row (q, q0, q1) per pair of its
support.  Reachability is one forward walk from (initial, root), and "can
reach" is `nodegraph.attractor` with every state existential.

The product chains themselves (`word_chain` and `tree_chain`, which
`explore` walks breadth-first on (state, place) tuples) and their bottom
SCCs (`bsccs`, `as_verdict`) are kept as the reference that the tests tie
the verdicts to, and for the benchmark's tracer; no verdict reads them.
Exact weights stay where a number is the answer: finite-word acceptance
probabilities are computed by exact forward propagation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from qualtree import nodegraph
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
    """The chain of the states reachable from ``start``, numbered
    breadth-first in the order they are found; ``row(s)`` lists the
    successors of ``s``."""
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


def _place_verdict(a, final, labels, left, right, root, pairs, kind: str) -> bool:
    """The almost-sure verdict of the run chain of ``a`` over a graph of
    places, from (``a.initial``, place ``root``), on state masks.

    Place ``p`` reads ``labels[p]`` and has the children ``left[p]`` and
    ``right[p]``; ``pairs(d)`` lists the (q0, q1) of a transition row ``d``.
    States get their bits in the order the rows name them, the initial
    state first.  A reached state with no row for its place's symbol raises
    the ``KeyError`` of ``a.dist``, as the chain builders do.
    """
    symbols = {s: k for k, s in enumerate(dict.fromkeys(labels))}
    bit = {a.initial: 1}

    def b(q):
        return bit.setdefault(q, 1 << len(bit))

    rows: list = [[] for _ in symbols]
    has = [0] * len(symbols)  # per symbol id, the states that have a row
    for (q, s), d in a.delta.items():
        k = symbols.get(s)
        if k is not None:
            bq = b(q)
            has[k] |= bq
            rows[k] += [(bq, b(q0), b(q1)) for q0, q1 in pairs(d)]
    sym = [symbols[s] for s in labels]
    game = (rows, sym, left, right, nodegraph.parents(left, right))
    start = [0] * len(sym)
    start[root] = 1
    reach = nodegraph.forward(game, start)
    names = list(bit)
    for n, m in enumerate(reach):
        missing = m & ~has[sym[n]]
        if missing:
            a.dist(names[(missing & -missing).bit_length() - 1], labels[n])  # no row: raises
    full = [(1 << len(bit)) - 1] * len(sym)
    goal = sum(bit[q] for q in final if q in bit)
    live = nodegraph.attractor(game, full, [goal] * len(sym), -1)
    bad = [m & ~x for m, x in zip(reach, live)]
    if kind == BUCHI:
        return not any(bad)
    if kind == COBUCHI:
        return not any(m & ~x for m, x in zip(reach, nodegraph.attractor(game, full, bad, -1)))
    raise ValueError(f"unknown condition kind {kind!r}")


def _lasso_places(w: UltimatelyPeriodicWord) -> tuple:
    """Labels, left and right children of the lasso positions, and the
    first position: both children of position i are the next position,
    i + 1 or, at the end of the lasso, the first position of its period."""
    k, n = len(w.prefix), len(w)
    nxt = [i + 1 for i in range(n - 1)] + [k]
    return w.prefix + w.period, nxt, nxt, 0


def word_chain(a: ProbWordAutomaton, final: frozenset, w: UltimatelyPeriodicWord) -> Chain:
    """The run chain over w; its states are (automaton state, lasso
    position), explored from (initial, 0)."""
    k, n = len(w.prefix), len(w)
    symbols = w.take(n)

    def row(s):
        q, i = s
        j = i + 1 if i + 1 < n else k
        return [(q2, j) for q2 in a.dist(q, symbols[i])]

    return explore((a.initial, 0), row, lambda s: s[0] in final)


def lasso_membership_word(
    a: ProbWordAutomaton, final: frozenset, w: UltimatelyPeriodicWord, kind: str
) -> bool:
    return _place_verdict(a, final, *_lasso_places(w), lambda d: ((x, x) for x in d), kind)


def tree_chain(a: ProbTreeAutomaton, final: frozenset, t: RegularTree) -> Chain:
    """Run chain of a probabilistic tree automaton over a regular tree.

    States are (automaton state, tree node), explored from (initial, root).
    A split target (q0, q1) at node n leads to (q0, succ0[n]) and to
    (q1, succ1[n]); each child lists its states once, in row order.
    """

    def row(s):
        q, n = s
        pairs = a.dist(q, t.label[n])
        left = dict.fromkeys(q0 for q0, _ in pairs)
        right = dict.fromkeys(q1 for _, q1 in pairs)
        c0, c1 = t.succ0[n], t.succ1[n]
        if c0 == c1:
            return [(x, c0) for x in left | right]
        return [(x, c0) for x in left] + [(x, c1) for x in right]

    return explore((a.initial, t.root), row, lambda s: s[0] in final)


def prob_tree_membership(
    a: ProbTreeAutomaton, final: frozenset, t: RegularTree, kind: str = COBUCHI
) -> bool:
    return _place_verdict(a, final, *nodegraph.tree_places(t), iter, kind)
