"""Named-arena constructions that only the tests use.

``qualtree.emptiness`` builds its full-information relaxation directly as an
integer ``games.Arena``.  The named ``StochasticArena`` it replaced is kept
here as the oracle of that arena.  The Büchi-to-reachability gadget, which
no solver calls, is kept as a cross-check of the almost-sure solvers.
"""

from __future__ import annotations

from fractions import Fraction

from qualtree.dist import Distribution
from qualtree.games import StochasticArena


def named_full_information_arena(g, target: frozenset):
    """Perfect-information relaxation of an ``ImperfectInfoArena`` on named
    vertices: ("p", v) is the protagonist's vertex v, ("c", v, a) the
    opponent's choice among the (v, a) supports and ("z", v, a, i) the
    coin of the i-th one, which weights its support uniformly."""
    lift = {v: ("p", v) for v in g.vertices}
    ve, va, vr = set(lift.values()), set(), set()
    edges: dict = {}
    dist: dict = {}
    for v in g.vertices:
        edges[lift[v]] = tuple(("c", v, a) for a in g.actions)
        for a in g.actions:
            cv = ("c", v, a)
            va.add(cv)
            supports = g.trans[(v, a)]
            edges[cv] = tuple(("z", v, a, i) for i in range(len(supports)))
            for i, support in enumerate(supports):
                zv = ("z", v, a, i)
                vr.add(zv)
                edges[zv] = tuple(lift[v2] for v2 in support)
                dist[zv] = Distribution((w, Fraction(1, len(support))) for w in edges[zv])
    arena = StochasticArena._trusted(
        eloise=frozenset(ve),
        abelard=frozenset(va),
        random=frozenset(vr),
        edges=edges,
        dist=dist,
        initial=lift[g.initial],
    )
    return arena, frozenset(lift[v] for v in target)


def buchi_to_reachability(g: StochasticArena, target) -> tuple[StochasticArena, frozenset]:
    """Gadget turning repeated reach into plain reach, almost-surely.

    Every target vertex s gets a fresh random gate with an even split
    between s and a single absorbing goal vertex, and every edge into s is
    rerouted through the gate.  Visiting targets infinitely often then
    reaches the goal almost surely, and conversely.
    """
    target = frozenset(target) & g.vertices
    goal = ("goal",)
    gate = {s: ("gate", s) for s in target}
    if goal in g.vertices or any(x in g.vertices for x in gate.values()):
        raise ValueError("gadget vertex names collide with the arena")

    def reroute(w):
        return gate[w] if w in target else w

    edges = {}
    dist = {}
    for v in g.edges:
        edges[v] = tuple(reroute(w) for w in g.edges[v])
        if v in g.random:
            dist[v] = g.dist[v].map(reroute)
    for s in target:
        edges[gate[s]] = (goal, s)
        dist[gate[s]] = Distribution.half_half(goal, s)
    edges[goal] = (goal,)

    g2 = StochasticArena._trusted(
        eloise=g.eloise | {goal},
        abelard=g.abelard,
        random=g.random | frozenset(gate.values()),
        edges=edges,
        dist=dist,
        initial=g.initial,
    )
    return g2, frozenset({goal})
