"""Arena constructions and solvers that only the tests use.

``qualtree.emptiness`` builds its full-information relaxation directly as an
integer ``games.Arena``.  The named ``StochasticArena`` it replaced is kept
here as the oracle of that arena.  The Büchi-to-reachability gadget, which
no solver calls, is kept as a cross-check of the almost-sure solvers.  The
almost-sure Büchi core on sets and dicts, ``_as_buchi_core`` with its
``_attractor``, is kept as the oracle of the flat-buffer core in
``qualtree.games`` that replaced it: both must give the same region and the
same choices, in the same key order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from qualtree.dist import Distribution
from qualtree.games import OWN_ABELARD, OWN_ELOISE, Arena, StochasticArena


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


def _attractor(succ: list, pred: list, region: set, base: set, attracts: Sequence):
    """Nodes of `region` from which the player owning the nodes where
    `attracts[v]` is true forces a visit to `base`, in the order they join,
    and for each joining node of that player the successor it moves to.

    A worklist over predecessor counts, O(edges) for the region.  A node of
    the attracting player joins with its first successor to join, any other
    node once all its successors inside `region` have.  It goes round by
    round, as a sweep to the fixed point does: an attracting node joins in
    the round of its successor, any other node one round after its last one.
    The chosen successor is the first in `succ[v]` of the round the node
    joined in.
    """
    left = {}  # non-attracting node -> successors in region still outside
    for v in region:
        if not attracts[v] and v not in base:
            left[v] = len(region.intersection(succ[v]))
    frontier = sorted(base & region)
    later = sorted(v for v, n in left.items() if n == 0)
    waiting = bytearray(len(succ))  # 1 for a node of region yet to join
    for v in region.difference(frontier, later):
        waiting[v] = 1
    order: list = []
    witness: dict = {}
    while frontier or later:
        if not frontier:
            frontier, later = later, []
        order += frontier
        now = set(frontier)
        same = []
        for w in frontier:
            for v in pred[w]:
                if not waiting[v]:
                    continue
                if attracts[v]:
                    waiting[v] = 0
                    same.append(v)
                else:
                    n = left[v] - 1
                    left[v] = n
                    if not n:
                        waiting[v] = 0
                        later.append(v)
        for v in same:
            for w in succ[v]:
                if w in now:
                    witness[v] = w
                    break
        frontier = same
    return order, witness


def _as_buchi_core(a: Arena, goal: frozenset):
    """Greatest region that is escape-proof and everywhere positively attracted
    to the target; returns (region, eloise choice map), both on ids.

    Starting from all vertices, the loop computes the protagonist's
    attractor to the target inside the region, where her vertices and the
    coin's attract.  When it covers the region, the region is the answer.
    Otherwise the opponent's attractor to the vertices it misses, where his
    vertices and the coin's attract, is removed, which leaves the region
    escape-proof, and the loop goes round again.  Each round is O(edges) and
    removes at least one vertex.

    The protagonist moves to her witness in the last attractor, which joined
    it a round earlier, and from a target vertex to her first successor
    inside the region.  Neither depends on the numbering.
    """
    succ, owner = a.succ, a.owner
    pred: list = [[] for _ in succ]
    for v, ws in enumerate(succ):
        for w in ws:
            pred[w].append(v)
    hers = [o != OWN_ABELARD for o in owner]
    his = [o != OWN_ELOISE for o in owner]
    region = set(range(len(succ)))
    while True:
        attr, witness = _attractor(succ, pred, region, goal & region, hers)
        lost = region.difference(attr)
        if not lost:
            break
        trap, _ = _attractor(succ, pred, region, lost, his)
        region.difference_update(trap)
        if not region:
            return frozenset(), {}
    choice = {}
    for v in sorted(region):
        if owner[v] == OWN_ELOISE:
            choice[v] = witness[v] if v in witness else next(w for w in succ[v] if w in region)
    return frozenset(region), choice
