"""Finite turn-based stochastic games and their qualitative solvers.

The almost-sure repeated-reach set is the greatest region that is
escape-proof (the opponent and the coin cannot leave it, the protagonist
can stay) and from every vertex of which the protagonist forces the target
with positive probability inside the region.  Within a closed finite
region, uniformly positive single-shot progress bootstraps to probability
one, which is why this characterises the almost-sure set.

The solver numbers the arena's vertices once and computes that region with
two attractors on integer ids, one worklist attractor for both: the
protagonist's attractor to the target (her vertices and the coin's
attract), and, while it misses some vertex of the region, the opponent's
attractor to the missed vertices (his vertices and the coin's attract),
which is removed from the region.  Almost-sure reachability is the same
fixed point on the arena with the target made absorbing.

The normative definition of correctness is the positional-strategy
enumeration oracle in :mod:`qualtree.game_oracles`; the fixed point here
is the fast route and the random suite holds the two together.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from qualtree.dist import Distribution
from qualtree.errors import ResourceLimit
from qualtree.graphs import reachable, sccs
from qualtree.ordering import csorted

ELOISE = "eloise"
ABELARD = "abelard"


@dataclass(frozen=True)
class StochasticArena:
    """Turn-based arena; dead-ends are rejected at construction."""

    eloise: frozenset
    abelard: frozenset
    random: frozenset
    edges: dict  # vertex -> non-empty ordered tuple of successors
    dist: dict  # random vertex -> Distribution with support == its edges
    initial: object

    def __post_init__(self):
        v_all = self.eloise | self.abelard | self.random
        if (self.eloise & self.abelard) or (self.eloise & self.random) or (self.abelard & self.random):
            raise ValueError("vertex ownership sets overlap")
        if self.initial not in v_all:
            raise ValueError(f"initial vertex {self.initial!r} unknown")
        if set(self.edges) != v_all:
            raise ValueError("edges must be defined exactly on the vertex set")
        for v in v_all:
            succ = self.edges[v]
            if not succ:
                raise ValueError(f"dead-end vertex {v!r}")
            if len(set(succ)) != len(succ):
                raise ValueError(f"duplicate edges at {v!r}")
            for w in succ:
                if w not in v_all:
                    raise ValueError(f"edge {v!r} -> {w!r} leaves the vertex set")
        if set(self.dist) != set(self.random):
            raise ValueError("dist must be defined exactly on random vertices")
        for v in self.random:
            d = self.dist[v]
            d.require_probability(f"random vertex {v!r}")
            if d.support() != frozenset(self.edges[v]):
                raise ValueError(f"support of {v!r} does not match its edges")

    @classmethod
    def _trusted(cls, eloise, abelard, random, edges, dist, initial) -> "StochasticArena":
        """Build without the checks of the constructor.  Internal builders
        use it for arenas that are valid by construction; the public
        constructor still checks every arena that arrives from outside."""
        g = object.__new__(cls)
        g.__dict__.update(eloise=eloise, abelard=abelard, random=random,
                          edges=edges, dist=dist, initial=initial)
        return g

    @property
    def vertices(self) -> frozenset:
        return self.eloise | self.abelard | self.random

    def owner(self, v) -> str:
        if v in self.eloise:
            return ELOISE
        if v in self.abelard:
            return ABELARD
        return "random"


@dataclass(frozen=True)
class PositionalStrategy:
    owner: str  # ELOISE or ABELARD
    choice: dict  # owner's vertex -> chosen successor


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


# ---------------------------------------------------------------------------
# Generic MDP view: controller states numbered once, with a finite set of moves,
# each move the support of a distribution.  End components and the qualitative
# verdicts built on them depend only on supports.  Products built elsewhere
# (strategy checks, the emptiness search) reuse this layer.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MdpView:
    states: Sequence  # id -> state name
    initial: int
    moves: Sequence  # id -> tuple of support frozensets of ids (empty: no move)

    def succ(self, s: int) -> set:
        return set().union(*self.moves[s])


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


def mec_decomposition(view: MdpView, within: frozenset | None = None) -> list[frozenset]:
    """Maximal end components, as id sets: closed, strongly connected, one
    staying move per state.

    With ``within`` (ids) the decomposition is taken in the sub-MDP induced
    on that state set (moves whose whole support stays inside).
    """
    universe = range(len(view.states)) if within is None else within
    out: list[frozenset] = []
    work = [frozenset(universe)]
    while work:
        cand = work.pop()
        staying = {s: [d for d in view.moves[s] if d <= cand] for s in cand}
        dead = {s for s in cand if not staying[s]}
        if dead:
            rest = cand - dead
            if rest:
                work.append(rest)
            continue
        verts = sorted(cand)
        ids = {s: i for i, s in enumerate(verts)}
        adj = [sorted({ids[x] for d in staying[s] for x in d}) for s in verts]
        comps = sccs(adj)
        if len(comps) == 1:
            out.append(cand)
        else:
            work.extend(frozenset(verts[i] for i in c) for c in comps)
    return out


def _positive_buchi_view(view: MdpView, target: frozenset) -> bool:
    """Some reachable end component meets the target.  The reachable part
    is closed under every move, so its end components are those of the
    whole MDP that it meets."""
    reach = frozenset(reachable([view.initial], view.succ))
    return any(c & target for c in mec_decomposition(view, within=reach))


def _positive_cobuchi_view(view: MdpView, target: frozenset) -> bool:
    """Can the controller make "eventually avoid target forever" positive?

    Yes iff an end component inside the complement of the target is
    reachable; the path there may still cross the target, so plain graph
    reachability is the right notion.
    """
    safe = frozenset(range(len(view.states))) - target
    reach = reachable([view.initial], view.succ)
    return any(c & reach for c in mec_decomposition(view, within=safe))


def _positive_avoid_view(view: MdpView, target: frozenset) -> bool:
    """Positive probability of never visiting the target at all.

    Unlike the co-Buchi case the approach path must itself avoid the
    target, so reachability is restricted to target-free states.
    """
    if view.initial in target:
        return False
    safe = frozenset(range(len(view.states))) - target

    def succ_safe(s):
        return {w for w in view.succ(s) if w in safe}

    reach = reachable([view.initial], succ_safe)
    return any(c & reach for c in mec_decomposition(view, within=safe))


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


# ---------------------------------------------------------------------------
# Almost-sure solvers.
# ---------------------------------------------------------------------------


def _attractor(succ: list, pred: list, region: set, base: set, attracts):
    """Nodes of `region` from which the player owning the nodes where
    `attracts` holds forces a visit to `base`, in the order they join, and
    for each joining node of that player the successor it moves to.

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
        if v not in base and not attracts(v):
            left[v] = sum(w in region for w in succ[v])
    frontier = sorted(base & region)
    later = sorted(v for v, n in left.items() if n == 0)
    joined = set(frontier) | set(later)
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
                if v in joined or v not in region:
                    continue
                if attracts(v):
                    joined.add(v)
                    same.append(v)
                else:
                    left[v] -= 1
                    if not left[v]:
                        joined.add(v)
                        later.append(v)
        for v in same:
            witness[v] = next(w for w in succ[v] if w in now)
        frontier = same
    return order, witness


def _as_buchi_core(g: StochasticArena, target: frozenset):
    """Greatest region that is escape-proof and everywhere positively attracted
    to the target; returns (region, eloise choice map).

    Vertices are numbered once, in the order `g.edges` lists them.  Starting
    from all of them, the loop computes the protagonist's attractor to the
    target inside the region, where her vertices and the coin's attract.
    When it covers the region, the region is the answer.  Otherwise the
    opponent's attractor to the vertices it misses, where his vertices and
    the coin's attract, is removed, which leaves the region escape-proof,
    and the loop goes round again.  Each round is O(edges) and removes at
    least one vertex.

    The protagonist moves to her witness in the last attractor, which joined
    it a round earlier, and from a target vertex to her first successor
    inside the region.  Neither depends on the numbering.
    """
    verts = list(g.edges)
    vid = {v: i for i, v in enumerate(verts)}
    succ = [[vid[w] for w in g.edges[v]] for v in verts]
    pred: list = [[] for _ in verts]
    for v, ws in enumerate(succ):
        for w in ws:
            pred[w].append(v)
    protagonist = [v in g.eloise for v in verts]
    opponent = [v in g.abelard for v in verts]
    goal = {vid[v] for v in target if v in vid}
    region = set(range(len(verts)))
    while True:
        attr, witness = _attractor(succ, pred, region, goal & region,
                                   lambda v: not opponent[v])
        lost = region.difference(attr)
        if not lost:
            break
        trap, _ = _attractor(succ, pred, region, lost, lambda v: not protagonist[v])
        region.difference_update(trap)
        if not region:
            return frozenset(), {}
    choice = {}
    for v in sorted(region):
        if protagonist[v]:
            w = witness[v] if v in witness else next(w for w in succ[v] if w in region)
            choice[verts[v]] = verts[w]
    return frozenset(verts[v] for v in region), choice


def almost_sure_buchi(g: StochasticArena, target) -> tuple[frozenset, PositionalStrategy]:
    """Almost-sure repeated-reach winning set and a witnessing positional
    strategy (defined on the winning set's protagonist vertices)."""
    region, choice = _as_buchi_core(g, frozenset(target))
    return region, PositionalStrategy(ELOISE, choice)


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


def almost_sure_reach(g: StochasticArena, target) -> tuple[frozenset, PositionalStrategy]:
    """Almost-sure reachability; reach-equivalent to repeated reach once the
    target is made absorbing."""
    target = frozenset(target)
    region, choice = _as_buchi_core(_absorb(g, target), target)
    full_choice = dict(choice)
    for v in region & g.eloise & target:
        full_choice[v] = g.edges[v][0]  # already won; any move is fine
    return region, PositionalStrategy(ELOISE, full_choice)


def check_buchi_strategy(g: StochasticArena, target, s: PositionalStrategy) -> bool:
    """Exact check that s visits the target infinitely often almost surely
    against every opponent behaviour."""
    m = fix_strategy(g, s)
    return not controller_positive_cobuchi(m, frozenset(target))


def check_reach_strategy(g: StochasticArena, target, s: PositionalStrategy) -> bool:
    m = fix_strategy(g, s)
    return not controller_positive_avoid(m, frozenset(target))


def eloise_choice_space(g: StochasticArena) -> int:
    n = 1
    for v in g.eloise:
        n *= len(g.edges[v])
    return n


def eloise_positional_strategies(g: StochasticArena):
    """All positional strategies for the protagonist, in canonical order."""
    vs = csorted(g.eloise)
    if not vs:
        yield PositionalStrategy(ELOISE, {})
        return
    for combo in itertools.product(*(g.edges[v] for v in vs)):
        yield PositionalStrategy(ELOISE, dict(zip(vs, combo)))


def almost_sure_cobuchi(
    g: StochasticArena, target, choice_bound: int = 2**20
) -> bool:
    """Almost-sure finitely-many-visits verdict from the initial vertex.

    Solved by enumeration over the protagonist's positional strategies
    (positional strategies suffice on finite arenas); each candidate is
    refuted exactly by the opponent-as-controller analysis.
    """
    target = frozenset(target)
    if eloise_choice_space(g) > choice_bound:
        raise ResourceLimit("protagonist choice space", choice_bound)
    for s in eloise_positional_strategies(g):
        if not controller_positive_buchi(fix_strategy(g, s), target):
            return True
    return False


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


def with_initial(g: StochasticArena, v) -> StochasticArena:
    if v == g.initial:
        return g
    if v not in g.edges:
        raise ValueError(f"initial vertex {v!r} unknown")
    return StochasticArena._trusted(g.eloise, g.abelard, g.random, g.edges, g.dist, v)
