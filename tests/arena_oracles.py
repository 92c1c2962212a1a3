"""Arena constructions and solvers that only the tests use.

``qualtree.emptiness`` builds its full-information relaxation directly as an
integer ``games.Arena``.  The named ``StochasticArena`` it replaced is kept
here as the oracle of that arena.  The Büchi-to-reachability gadget, which
no solver calls, is kept as a cross-check of the almost-sure solvers.  The
almost-sure Büchi core on sets and dicts, ``_as_buchi_core`` with its
``_attractor``, is kept as the oracle of the flat-buffer core in
``qualtree.games`` that replaced it: both must give the same region and the
same choices, in the same key order.

The named MDP layer that the solvers on ids replaced is kept as the
weighted reference of the strategy checks: ``Mdp``, the weighted
``fix_strategy`` (either player's strategy, as point distributions),
``eloise_positional_strategies`` on names, ``view_of_mdp``, ``_ids``,
``controller_positive_buchi``, ``controller_positive_cobuchi`` and
``controller_positive_avoid``, the named ``_absorb`` and ``with_initial``,
and ``random_mdp_arena``, the random controller arenas of their tests.
``_enumerated_cobuchi`` is the co-Büchi enumeration on that layer, kept as
the oracle of ``games.almost_sure_cobuchi``, and ``state_ids`` numbers a
state set on the pebble arena of ``acceptance.build_tree_game_arena``, on
which co-Büchi membership was decided before it moved to the node game.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from qualtree.dist import Distribution
from qualtree.errors import ResourceLimit
from qualtree.games import (
    ELOISE,
    OWN_ABELARD,
    OWN_ELOISE,
    Arena,
    MdpView,
    PositionalStrategy,
    StochasticArena,
    _positive_avoid_view,
    _positive_buchi_view,
    _positive_cobuchi_view,
)
from qualtree.ordering import csorted
from qualtree.suite import random_arena


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


# The named MDP layer, as the strategy checks used it before they ran on ids.


@dataclass(frozen=True)
class Mdp:
    """Arena with a single controlling player, stored in the eloise slot."""

    arena: StochasticArena

    def __post_init__(self):
        if self.arena.abelard:
            raise ValueError("an Mdp has no second player")

    @property
    def controller(self) -> frozenset:
        return self.arena.eloise


def fix_strategy(g: StochasticArena, s: PositionalStrategy) -> Mdp:
    """Commit one player to a positional strategy; the other becomes controller.

    The owner's vertices turn into random vertices carrying a point
    distribution on the chosen successor.
    """
    owned = g.eloise if s.owner == ELOISE else g.abelard
    other = g.abelard if s.owner == ELOISE else g.eloise
    missing = [v for v in owned if v not in s.choice]
    if missing:
        raise ValueError(f"strategy does not cover vertex {csorted(missing)[0]!r}")
    edges = dict(g.edges)
    dist = dict(g.dist)
    for v in owned:
        c = s.choice[v]
        if c not in g.edges[v]:
            raise ValueError(f"choice {c!r} at {v!r} is not an edge")
        edges[v] = (c,)
        dist[v] = Distribution.point(c)
    return Mdp(
        StochasticArena._trusted(
            eloise=other,
            abelard=frozenset(),
            random=g.random | owned,
            edges=edges,
            dist=dist,
            initial=g.initial,
        )
    )


def eloise_positional_strategies(g: StochasticArena):
    """All positional strategies for the protagonist, in canonical order."""
    vs = csorted(g.eloise)
    if not vs:
        yield PositionalStrategy(ELOISE, {})
        return
    for combo in itertools.product(*(g.edges[v] for v in vs)):
        yield PositionalStrategy(ELOISE, dict(zip(vs, combo)))


def view_of_mdp(m: Mdp) -> MdpView:
    """The MDP numbered in `g.edges` order.  A random vertex has one move,
    its edges, which are its support."""
    g = m.arena
    verts = tuple(g.edges)
    vid = {v: i for i, v in enumerate(verts)}
    moves = []
    for v in verts:
        succ = [vid[w] for w in g.edges[v]]
        if v in g.random:
            moves.append((frozenset(succ),))
        else:
            moves.append(tuple(frozenset((w,)) for w in succ))
    return MdpView(verts, vid[g.initial], moves)


def _ids(view: MdpView, states) -> frozenset:
    return frozenset(i for i, s in enumerate(view.states) if s in states)


def controller_positive_buchi(m: Mdp, target: frozenset) -> bool:
    """True iff the controller can visit the target infinitely often with
    positive probability (some reachable MEC meets the target)."""
    view = view_of_mdp(m)
    return _positive_buchi_view(view, _ids(view, target))


def controller_positive_cobuchi(m: Mdp, target: frozenset) -> bool:
    """True iff the controller can, with positive probability, eventually
    avoid the target forever.

    This needs an end component inside the complement of the target; a MEC
    of the full MDP that merely meets the target is not enough evidence
    either way, hence the restricted decomposition.
    """
    view = view_of_mdp(m)
    return _positive_cobuchi_view(view, _ids(view, target))


def controller_positive_avoid(m: Mdp, target: frozenset) -> bool:
    """True iff the controller can avoid the target forever with positive
    probability (safety, not just co-Buchi)."""
    view = view_of_mdp(m)
    return _positive_avoid_view(view, _ids(view, target))


def _enumerated_cobuchi(g: StochasticArena, target, choice_bound: int = 2**20) -> bool:
    """The co-Buchi enumeration the solver replaced, kept as its oracle: each
    positional strategy fixed into a fresh arena, numbered again, and
    refuted by the opponent-as-controller analysis."""
    if math.prod(len(g.edges[v]) for v in g.eloise) > choice_bound:
        raise ResourceLimit("protagonist choice space", choice_bound)
    return any(not controller_positive_buchi(fix_strategy(g, s), frozenset(target))
               for s in eloise_positional_strategies(g))


def state_ids(states: Sequence[str], subset, tree) -> frozenset:
    """Ids of the pebble arena's state vertices whose state is in ``subset``:
    (q, n) is rank(q)·|N| + rank(n)."""
    width = len(tree.nodes)
    return frozenset(i * width + j for i, q in enumerate(states) if q in subset
                     for j in range(width))


def _absorb(g: StochasticArena, target: frozenset) -> StochasticArena:
    """Replace every target vertex by a random point self-loop."""
    edges = dict(g.edges)
    dist = dict(g.dist)
    for v in target & g.vertices:
        edges[v] = (v,)
        dist[v] = Distribution.point(v)
    return StochasticArena._trusted(
        eloise=g.eloise - target,
        abelard=g.abelard - target,
        random=g.random | (target & g.vertices),
        edges=edges,
        dist=dist,
        initial=g.initial,
    )


def with_initial(g: StochasticArena, v) -> StochasticArena:
    if v == g.initial:
        return g
    if v not in g.edges:
        raise ValueError(f"initial vertex {v!r} unknown")
    return StochasticArena._trusted(g.eloise, g.abelard, g.random, g.edges, g.dist, v)


def random_mdp_arena(rng: random.Random, max_vertices: int = 6) -> StochasticArena:
    g = random_arena(rng, max_vertices)
    # controller absorbs the second player's vertices
    return StochasticArena(
        eloise=g.eloise | g.abelard,
        abelard=frozenset(),
        random=g.random,
        edges=g.edges,
        dist=g.dist,
        initial=g.initial,
    )
