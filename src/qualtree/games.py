"""Finite turn-based stochastic games and their qualitative solvers.

The almost-sure repeated-reach set is the greatest region that is
escape-proof (the opponent and the coin cannot leave it, the protagonist
can stay) and from every vertex of which the protagonist forces the target
with positive probability inside the region.  Within a closed finite
region, uniformly positive single-shot progress bootstraps to probability
one, which is why this characterises the almost-sure set.

The fixed-point solvers, the strategy checks and the oracles take an
integer `Arena`: successor ids and an owner code per vertex, no weights.  A
named `StochasticArena` is the type of the file boundary only; its caller
numbers it once, in `g.edges` order, with `number`, and names the answer
back.  The region comes from two attractors on ids, one for both: the
protagonist's attractor to the target (her vertices and the coin's
attract), and, while it misses some vertex of the region, the opponent's
attractor to the missed vertices (his vertices and the coin's attract),
which is removed from the region.  The core holds its sets as flat
buffers: the region and the vertices still waiting to join are flags in
bytearrays, the counters are lists of ints, and an attractor records the
step at which each vertex joins, from which the protagonist's choice is
read.  Almost-sure reachability is the same fixed point on the arena with
the target made absorbing.

A positional strategy of the protagonist leaves an MDP to the opponent,
`fix_strategy`, as an `MdpView` on the same ids: the strategy checks refute
a strategy on it with end components.  Almost-sure co-Büchi is a nested
fixed point on moves per vertex, with no `Arena` (`arena_moves` gives an
arena's).

The normative definition of correctness is the positional-strategy
enumeration oracle in :mod:`qualtree.game_oracles`; the fixed point here
is the fast route and the random suite holds the two together.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from qualtree.errors import ResourceLimit
from qualtree.graphs import reachable, sccs

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


# Owner codes of an Arena's vertices.
OWN_ELOISE, OWN_ABELARD, OWN_RANDOM = 0, 1, 2


@dataclass(frozen=True)
class Arena:
    """Turn-based arena on the ids 0 .. n-1, without weights.

    Qualitative verdicts depend only on supports, so a vertex is its tuple
    of successor ids and its owner code.  Builders make it valid by
    construction: every id has successors, none repeated, all in range.
    """

    succ: Sequence  # id -> tuple of successor ids
    owner: bytes  # id -> OWN_ELOISE, OWN_ABELARD or OWN_RANDOM
    initial: int

    def _owned(self, code: int) -> list:
        return [v for v, o in enumerate(self.owner) if o == code]

    @property
    def eloise(self) -> list:
        return self._owned(OWN_ELOISE)

    @property
    def abelard(self) -> list:
        return self._owned(OWN_ABELARD)

    @property
    def random(self) -> list:
        return self._owned(OWN_RANDOM)


@dataclass(frozen=True)
class PositionalStrategy:
    owner: str  # ELOISE or ABELARD
    choice: dict  # owner's vertex -> chosen successor


# ---------------------------------------------------------------------------
# Generic MDP view: controller states numbered once, with a finite set of moves,
# each move the support of a distribution.  End components and the qualitative
# verdicts built on them depend only on supports.  The MDP a positional
# strategy leaves on an `Arena` (strategy checks) and the emptiness search's
# products use this layer.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MdpView:
    states: Sequence  # id -> state name
    initial: int
    moves: Sequence  # id -> tuple of support frozensets of ids (empty: no move)

    def succ(self, s: int) -> set:
        return set().union(*self.moves[s])


def arena_moves(a: Arena) -> list:
    """Moves as supports: a player's one per successor, the coin's one, its support."""
    return [(frozenset(ws),) if o == OWN_RANDOM else tuple(frozenset((w,)) for w in ws)
            for ws, o in zip(a.succ, a.owner)]


def fix_strategy(a: Arena, choice: dict) -> MdpView:
    """The MDP her positional choice (id -> successor id) leaves to the
    opponent, who controls it: her vertex v has one move, to choice[v]."""
    moves = arena_moves(a)
    for v in a.eloise:
        if v not in choice:
            raise ValueError(f"strategy does not cover vertex {v}")
        if choice[v] not in a.succ[v]:
            raise ValueError(f"choice {choice[v]} at {v} is not an edge")
        moves[v] = (frozenset((choice[v],)),)
    return MdpView(range(len(moves)), a.initial, moves)


def mec_decomposition(view: MdpView, within: frozenset | None = None) -> list[frozenset]:
    """Maximal end components, as id sets: closed, strongly connected, one
    staying move per state.

    With ``within`` (ids) the decomposition is taken in the sub-MDP induced
    on that state set (moves whose whole support stays inside).
    """
    universe = range(len(view.states)) if within is None else within
    out: list[frozenset] = []
    work = [frozenset(universe)] if universe else []
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


# ---------------------------------------------------------------------------
# Almost-sure solvers.
# ---------------------------------------------------------------------------


def _attractor(pred: list, waiting: bytearray, base: list, attracts, left: list) -> list:
    """Step at which each node joins the attractor of `base`, -1 for a node
    that does not join.

    The region is the nodes where `waiting` is set, and `base` is a sorted
    list of some of them.  The player owning the nodes where `attracts[v]`
    is set forces a visit to `base`.  A node of that player joins with its
    first successor to join, any other node once all its successors inside
    the region have: `left[v]` counts those, and is counted down.  `waiting`
    is cleared as nodes join, so afterwards it flags the nodes missed.

    A worklist over predecessor counts, O(edges) for the region.  It goes
    round by round, as a sweep to the fixed point does: the nodes of one
    step pull in the attracting nodes of the next, and a non-attracting
    node that is ready waits until none joins, then joins in the next step
    with every other one ready.  So an attracting node's witness, its first
    successor to join, is its first successor whose step is one lower.
    """
    step = [-1] * len(waiting)
    for v in base:
        waiting[v] = 0
    # non-attracting nodes with no successor in the region are ready at once
    later = [v for v in itertools.compress(range(len(waiting)), waiting)
             if not left[v] and not attracts[v]] if 0 in left else []
    for v in later:
        waiting[v] = 0
    frontier = base
    k = 0
    while frontier or later:
        if not frontier:
            frontier, later = later, []
        same = []
        for w in frontier:
            step[w] = k
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
        frontier = same
        k += 1
    return step


def number(g: StochasticArena, target) -> tuple[Arena, frozenset, tuple]:
    """A named arena numbered once, in `g.edges` order: the integer arena,
    the ids of the target's vertices and the names by id."""
    names = tuple(g.edges)
    vid = {v: i for i, v in enumerate(names)}
    succ = [tuple(vid[w] for w in g.edges[v]) for v in names]
    owner = bytes(OWN_ELOISE if v in g.eloise else OWN_ABELARD if v in g.abelard else OWN_RANDOM
                  for v in names)
    goal = frozenset(vid[v] for v in target if v in vid)
    return Arena(succ, owner, vid[g.initial]), goal, names


# Owner codes to flags: the protagonist's attractor (her nodes and the
# coin's), the opponent's (his and the coin's) and her own nodes.
_HERS = bytes.maketrans(bytes([OWN_ELOISE, OWN_ABELARD, OWN_RANDOM]), bytes([1, 0, 1]))
_HIS = bytes.maketrans(bytes([OWN_ELOISE, OWN_ABELARD, OWN_RANDOM]), bytes([0, 1, 1]))
_HERS_ONLY = bytes.maketrans(bytes([OWN_ELOISE, OWN_ABELARD, OWN_RANDOM]), bytes([1, 0, 0]))


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

    The region is a flag per vertex, and apart from the predecessor lists
    a call allocates only flat buffers.  Invariant: the opponent's and the
    coin's vertices in the region keep all their successors in it, because
    the removed attractor takes any that has a successor it takes.  So the
    protagonist's attractor counts an opponent vertex down from its degree,
    copied from a list made once.  The opponent's attractor counts her
    vertices down from the number of their successors inside the region,
    kept across rounds: each removal lowers it by the successors it takes.

    The protagonist moves to her witness in the last attractor, her first
    successor that joined it one step before her, and from a target vertex
    to her first successor inside the region.  Neither depends on the
    numbering.
    """
    succ, owner = a.succ, a.owner
    n = len(succ)
    pred: list = [[] for _ in succ]
    for v, ws in enumerate(succ):
        for w in ws:
            pred[w].append(v)
    hers, his = owner.translate(_HERS), owner.translate(_HIS)
    degree = list(map(len, succ))
    inner = degree.copy()  # her vertices' successors inside the region
    targets = sorted(goal)
    region = bytearray(b"\x01") * n
    while True:
        waiting = bytearray(region)
        step = _attractor(pred, waiting, [v for v in targets if region[v]], hers, degree.copy())
        if 1 not in waiting:
            break
        _attractor(pred, region, list(itertools.compress(range(n), waiting)), his, inner)
        if 1 not in region:
            return frozenset(), {}
    choice = {}
    for v in itertools.compress(range(n), owner.translate(_HERS_ONLY)):
        if region[v]:
            k = step[v] - 1  # -1 for a target vertex
            for w in succ[v]:
                if region[w] if k < 0 else step[w] == k:
                    choice[v] = w
                    break
    return frozenset(itertools.compress(range(n), region)), choice


def almost_sure_buchi(a: Arena, target) -> tuple[frozenset, PositionalStrategy]:
    """Almost-sure repeated-reach winning set and a witnessing positional
    strategy (defined on the winning set's protagonist vertices), on ids."""
    region, choice = _as_buchi_core(a, frozenset(target))
    return region, PositionalStrategy(ELOISE, choice)


def _absorb(a: Arena, goal: frozenset) -> Arena:
    """Every target vertex becomes a coin with a self-loop."""
    succ, owner = list(a.succ), bytearray(a.owner)
    for v in goal:
        succ[v], owner[v] = (v,), OWN_RANDOM
    return Arena(succ, bytes(owner), a.initial)


def almost_sure_reach(a: Arena, target) -> tuple[frozenset, PositionalStrategy]:
    """Almost-sure reachability; reach-equivalent to repeated reach once the
    target is made absorbing."""
    goal = frozenset(target)
    region, strategy = almost_sure_buchi(_absorb(a, goal), goal)
    choice = dict(strategy.choice)
    for v in sorted(goal):
        if a.owner[v] == OWN_ELOISE:
            choice[v] = a.succ[v][0]  # already won; any move is fine
    return region, PositionalStrategy(ELOISE, choice)


def check_buchi_strategy(a: Arena, target, s: PositionalStrategy) -> bool:
    """Exact check that her strategy s visits the target infinitely often
    almost surely against every opponent behaviour: in the MDP it leaves,
    the opponent cannot avoid the target from some point on with positive
    probability."""
    return not _positive_cobuchi_view(fix_strategy(a, s.choice), frozenset(target))


def check_reach_strategy(a: Arena, target, s: PositionalStrategy) -> bool:
    """The same for reaching the target: the opponent cannot avoid it
    forever with positive probability."""
    return not _positive_avoid_view(fix_strategy(a, s.choice), frozenset(target))


def eloise_positional_strategies(a: Arena):
    """All positional strategies for the protagonist, her vertices in id order."""
    mine = a.eloise
    for combo in itertools.product(*(a.succ[v] for v in mine)):
        yield PositionalStrategy(ELOISE, dict(zip(mine, combo)))


def almost_sure_cobuchi(moves, mine, initial: int, target, choice_bound: int = 2**20) -> bool:
    """Almost-sure finitely-many-visits verdict from `initial`, in the game
    of `moves` per vertex (as `arena_moves`): she picks a move at each vertex
    of `mine`, the opponent at the others, and a coin draws from its support.

    With C the vertices outside the target, her winning set is
    W = νU. μY. νZ. Pre(Z, U, Y): her vertices with a good move and his
    vertices all of whose moves are good, where a move of v is good if v is
    in C and its support lies in Z, or its support lies in U and meets Y.
    This is the turn-based case of de Alfaro and Henzinger, "Concurrent
    omega-regular games" (LICS 2000).  Goodness is per move: the union of
    the two predecessor sets misses his vertex in C with one move that stays
    in C and one whose support risks the target but may reach Y.  The
    one-level νX. ASReach_X(Safe_X(C)) misses his vertex in C that may loop,
    or step into the target and then to a safe sink.  A vertex of hers with
    no move is lost, and only there.

    The fixed point needs no bound.  The refusal above `choice_bound`
    positional strategies stays until a benchmark change records again the
    stored verdict of its one corpus request above 2**20.
    """
    if math.prod(len(moves[v]) for v in mine) > choice_bound:
        raise ResourceLimit("protagonist choice space", choice_bound)
    goal, hers = frozenset(target), frozenset(mine)
    u = set(range(len(moves)))
    while True:
        y: set = set()
        while True:
            z = u
            while True:
                kept = {v for v in z if (any if v in hers else all)(
                    v not in goal and d <= z or d <= u and not y.isdisjoint(d) for d in moves[v])}
                if kept == z:
                    break
                z = kept
            if z == y:
                break
            y = z
        if y == u:
            return initial in u
        u = y
