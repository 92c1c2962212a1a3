"""Weighted Markov chains for the tests.

``qualtree.markov`` decides chains from their support graphs alone, on
state masks, and keeps its support chains, explored on (state, place)
tuples, only as the reference that the tests tie those verdicts to.  The
tests keep the weighted chains that it no longer builds: the full products
are oracles for the explored support chains, their weights are checked to
stay exact, and simulations sample runs from them.  ``by_chain`` and
``decided`` tie the mask verdicts to the reference chains, for the tests
and ``scripts/chain_probe.py`` alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from qualtree.dist import Distribution
from qualtree.graphs import reachable
from qualtree.markov import Chain, as_verdict, bsccs, explore
from qualtree.ordering import csorted


def by_chain(build):
    """The verdict from the bottom SCCs of the chain that `build` makes."""
    return lambda a, final, x, kind: as_verdict(build(a, final, x), kind)


def decided(decide, *args):
    """The result of `decide`, or the message of the missing-row error that
    stopped it."""
    try:
        return decide(*args)
    except KeyError as e:
        return str(e)


@dataclass(frozen=True)
class MarkovChain:
    """A finite chain with exact weights and a marked set of states."""

    states: tuple
    initial: object
    trans: dict  # state -> Distribution
    marked: frozenset

    def successors(self, s):
        return self.trans[s].support()


def support_chain(m: MarkovChain) -> Chain:
    """The support graph of m, explored from its initial state."""
    return explore(m.initial, lambda s: m.trans[s], m.marked.__contains__)


def as_markov_chain(m, marked) -> MarkovChain:
    """A choice-free MDP (``qualtree.games.Mdp``) is a Markov chain."""
    g = m.arena
    if g.eloise:
        raise ValueError("the controller still has choices to make")
    return MarkovChain(tuple(csorted(g.vertices)), g.initial, dict(g.dist), frozenset(marked))


def full_word_chain(a, final, w) -> MarkovChain:
    """A row for every (state, lasso position) pair, reachable or not."""
    n, k = len(w), len(w.prefix)
    states = tuple((q, i) for q in sorted(a.states) for i in range(n))
    trans = {
        (q, i): Distribution(
            [((q2, i + 1 if i + 1 < n else k), p) for q2, p in a.dist(q, w.at(i)).items()]
        )
        for q, i in states
    }
    marked = frozenset((q, i) for q in final for i in range(n))
    return MarkovChain(states, (a.initial, 0), trans, marked)


def full_tree_chain(a, final, t) -> MarkovChain:
    """A row for every (state, tree node) pair, reachable or not; each split
    target gives half its weight to each child."""
    states = tuple((q, n) for q in sorted(a.states) for n in t.nodes)
    trans = {}
    for q, n in states:
        acc: dict = {}
        for (q0, q1), w in a.dist(q, t.label[n]).items():
            for tgt in ((q0, t.succ0[n]), (q1, t.succ1[n])):
                acc[tgt] = acc.get(tgt, Fraction(0)) + w / 2
        trans[(q, n)] = Distribution(acc)
    marked = frozenset((q, n) for q in final for n in t.nodes)
    return MarkovChain(states, (a.initial, t.root), trans, marked)


def reachable_part(m: MarkovChain) -> MarkovChain:
    reach = reachable([m.initial], m.successors)
    states = tuple(s for s in m.states if s in reach)
    return MarkovChain(states, m.initial, {s: m.trans[s] for s in states}, m.marked & reach)


def weighted_tree_chain(a, final, t) -> MarkovChain:
    """The weighted run chain over t, on its reachable states."""
    return reachable_part(full_tree_chain(a, final, t))


def named(m: Chain) -> tuple[frozenset, frozenset, frozenset]:
    """States, support edges and marked states of a support chain, by name."""
    edges = frozenset(
        (m.states[i], m.states[j]) for i, row in enumerate(m.succ) for j in row
    )
    marked = frozenset(s for s, flag in zip(m.states, m.marked) if flag)
    return frozenset(m.states), edges, marked


def weighted_named(m: MarkovChain) -> tuple[frozenset, frozenset, frozenset]:
    """The same triple for a weighted chain: the edges are the supports."""
    edges = frozenset((s, x) for s in m.states for x in m.successors(s))
    return frozenset(m.states), edges, m.marked


def named_bottoms(m: Chain) -> set:
    return {frozenset(m.states[v] for v in c) for c in bsccs(m)}


def oracle_bottoms(m: MarkovChain) -> set:
    """Bottom SCCs reachable from the initial state, by their definition: a
    state lies in one when it is reachable back from every state it reaches,
    and its component is then the set it reaches."""
    ahead = {s: reachable([s], m.successors) for s in reachable([m.initial], m.successors)}
    return {frozenset(ahead[s]) for s in ahead if all(s in ahead[x] for x in ahead[s])}


def marked_bottom_probability(m: MarkovChain) -> Fraction:
    """Exact probability, from the initial state, of entering a bottom SCC
    that holds a marked state.

    With x = 1 on such components and x = 0 on the other bottom ones, the
    other reachable states satisfy x_s = sum_t P(s, t) x_t.  From each of
    them some bottom component is reached almost surely, so I - P on them
    is invertible; the system is solved by Gauss-Jordan elimination over
    Fractions.
    """
    bottoms = oracle_bottoms(m)
    good = set().union(*(c for c in bottoms if c & m.marked))
    if m.initial in good or m.initial in set().union(*bottoms):
        return Fraction(int(m.initial in good))
    transient = [s for s in csorted(reachable([m.initial], m.successors))
                 if not any(s in c for c in bottoms)]
    idx = {s: i for i, s in enumerate(transient)}
    n = len(transient)
    rows = []  # [I - P restricted to transient states | P into good components]
    for s in transient:
        row = [Fraction(0)] * (n + 1)
        row[idx[s]] += 1
        for t, p in m.trans[s].items():
            if t in idx:
                row[idx[t]] -= p
            elif t in good:
                row[n] += p
        rows.append(row)
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(n):
            f = rows[r][col]
            if r != col and f != 0:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return rows[idx[m.initial]][n]
