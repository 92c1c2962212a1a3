"""Emptiness of alternating repeated-reach tree automata.

The decision runs through a finite partial-observation game.  The
protagonist announces, step by step, a tree label together with a local
transition choice for each of her automaton states; the opponent resolves
his own states' transitions with full knowledge; a fair coin picks the
direction.  The protagonist observes only directions, never the current
automaton state, which prevents her from adapting the announced tree to
the opponent's choices.  She wins from the initial vertex iff the
automaton accepts some tree, and a winning finite-memory strategy unfolds
into a regular witness tree.

Strategy semantics here is the normative anchor: a pure strategy with
knowledge-set memory either passes or fails the exact product check
`check_observation_strategy`.  The solver searches that strategy space
directly, on ids.  A request numbers the game once, straight from the
automaton's sorted rows (`number_emptiness_game`); `number_game` numbers a
general named arena the same way, and `build_emptiness_game` is the naming
of the id game, for the oracle, the strategy check and the probes.  A
knowledge set is an int bitmask of vertex ids, and its post under an
action is the OR of its members' successor masks, split by observation
class, computed the first time it is looked up.  The routes run in this
order: a full-information upper bound, an integer `games.Arena` solved
before any knowledge set is explored; the first descent, which checks the
search's first leaf (action 0 at every knowledge set it reaches) once, on
only the knowledge sets it reaches, and is not a second search; when it
loses, the full exploration with a sure-winning lower bound on the
knowledge-set game; then the search, which keeps its breadth-first
frontier on its trail.  The descent and each step of the search ask one
question: does a target-free end component exist in the product of the
game with the table's knowledge sets?  `_closed_core` answers it without
building the product: per knowledge set a vertex mask, from which a vertex
drops when none of its moves stays inside its children's masks, run as a
worklist over knowledge sets.  The table without its deepest set was not
refuted, so the search takes the core only on the sets reached from that
set.  All of this runs on supports, as no verdict reads a weight.  Names
come back once, at the edge: a winning table becomes a strategy on
knowledge sets of vertex names in one walk over the sets it reaches.  The
solver does not re-check it; the tests, the crosscheck suite and the
probes run `check_observation_strategy` on the strategies it returns, and
`check_emptiness` decides the witness tree it ships by membership.  The
blunt enumeration in `solve_by_enumeration` walks knowledge sets of names,
shares only the backtracking order, and re-derives every verdict with that
exact check.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

from qualtree.acceptance import qualitative_membership
from qualtree.automata import (
    AlternatingTreeAutomaton,
    buchi,
)
from qualtree.errors import DisagreementError, FormatError, ResourceLimit
from qualtree.games import (
    OWN_ABELARD,
    OWN_ELOISE,
    OWN_RANDOM,
    Arena,
    MdpView,
    _as_buchi_core,
    _positive_cobuchi_view,
    almost_sure_buchi,
)
from qualtree.ordering import ckey, csorted
from qualtree.trees import RegularTree

EPS_OBS = "e"
DIRECTIONS = ("0", "1")


class LocalChoice(NamedTuple):
    """One split-transition target pair per protagonist state."""

    assign: tuple[tuple[str, tuple[str, str]], ...]  # sorted by state


class EmptinessAction(NamedTuple):
    """A tree symbol with a local choice."""

    symbol: str
    choice: LocalChoice


@dataclass(frozen=True)
class ImperfectInfoArena:
    """Finite arena where the protagonist sees only observation classes.

    For every vertex and action there is at least one move; the opponent
    picks among them with full information, then a fair coin picks a vertex
    of the move.  A move is its support, a tuple of distinct vertices: the
    almost-sure verdict never depends on the weights.
    """

    vertices: tuple
    initial: object
    actions: tuple
    trans: dict  # (vertex, action) -> tuple of supports
    obs: dict  # vertex -> observation id

    def __post_init__(self):
        vs = set(self.vertices)
        if self.initial not in vs:
            raise ValueError("initial vertex unknown")
        for v in self.vertices:
            if v not in self.obs:
                raise ValueError(f"observation undefined for {v!r}")
            for a in self.actions:
                supports = self.trans.get((v, a), ())
                if not supports:
                    raise ValueError(f"no transition for ({v!r}, {a!r})")
                for support in supports:
                    if not support:
                        raise ValueError(f"empty transition at ({v!r}, {a!r})")
                    if len(set(support)) != len(support):
                        raise ValueError(f"transition at ({v!r}, {a!r}) repeats a vertex")
                    if not vs.issuperset(support):
                        raise ValueError(f"transition at ({v!r}, {a!r}) leaves arena")

    @classmethod
    def _trusted(cls, vertices, initial, actions, trans, obs) -> "ImperfectInfoArena":
        """Build without the checks of the constructor, for arenas valid by
        construction; hand-built arenas still go through the constructor."""
        g = object.__new__(cls)
        g.__dict__.update(vertices=vertices, initial=initial, actions=actions,
                          trans=trans, obs=obs)
        return g


@dataclass(frozen=True)
class ObservationStrategy:
    """Finite-memory observation-based strategy.

    `act` maps (memory, current observation) to an action; after the next
    vertex is revealed, `update` maps (memory, new observation, action
    just played) to the next memory state.
    """

    memory: tuple
    init_memory: object
    act: dict
    update: dict


def build_emptiness_game(
    a: AlternatingTreeAutomaton, final: frozenset, action_cap: int = 2**18
) -> tuple[ImperfectInfoArena, frozenset]:
    """The observation game deciding emptiness; target is the final rows.

    Vertices are (state, last direction) plus a fresh root; all vertices
    with the same direction are indistinguishable.  Actions pair a tree
    symbol with a local choice for every protagonist state.  This is the
    naming of `number_emptiness_game`, for the callers that take a named
    arena: the enumeration oracle, the strategy check and the probes.
    """
    n = number_emptiness_game(a, final, action_cap)
    names, n_a = n.vertices, len(n.actions)
    trans: dict = {}
    for v, name in enumerate(names):
        for i, act in enumerate(n.actions):
            trans[(name, act)] = tuple(tuple(names[w] for w in support)
                                       for support in n.moves[v * n_a + i])
    # valid by construction: every row was checked non-empty
    arena = ImperfectInfoArena._trusted(
        vertices=names,
        initial=names[n.initial],
        actions=n.actions,
        trans=trans,
        obs={v: n.observations[o] for v, o in zip(names, n.obs)},
    )
    target = frozenset((q, d) for q in final for d in DIRECTIONS)
    return arena, target


def fully_observable(g: ImperfectInfoArena) -> ImperfectInfoArena:
    """Variant where every vertex is its own observation class.

    Deliberately *not* equivalent to the real game: it lets the
    protagonist adapt to the opponent's state, which the blind game
    exists to prevent.  Kept for regression tests of that separation.
    """
    return ImperfectInfoArena(
        vertices=g.vertices,
        initial=g.initial,
        actions=g.actions,
        trans=g.trans,
        obs={v: v for v in g.vertices},
    )


# ---------------------------------------------------------------------------
# Strategy checking (the semantic anchor).
# ---------------------------------------------------------------------------


def _product_view(g: ImperfectInfoArena, s: ObservationStrategy) -> MdpView:
    """Opponent-as-controller MDP over (vertex, memory) pairs, numbered
    breadth-first from the start pair."""
    start = (g.initial, s.init_memory)
    pairs = [start]
    index = {start: 0}
    moves = []
    for v, m in pairs:  # breadth-first: pairs grows while it is read
        o = g.obs[v]
        if (m, o) not in s.act:
            raise ValueError(f"strategy act undefined on memory {m!r}, observation {o!r}")
        act = s.act[(m, o)]
        mvs = []
        for support in g.trans[(v, act)]:
            step = set()
            for v2 in support:
                key = (m, g.obs[v2], act)
                if key not in s.update:
                    raise ValueError(
                        f"strategy update undefined on memory {m!r}, "
                        f"observation {key[1]!r}, action {act!r}"
                    )
                pair = (v2, s.update[key])
                j = index.get(pair)
                if j is None:
                    j = index[pair] = len(pairs)
                    pairs.append(pair)
                step.add(j)
            mvs.append(frozenset(step))
        moves.append(tuple(mvs))
    return MdpView(pairs, 0, moves)


def check_observation_strategy(
    g: ImperfectInfoArena, target: frozenset, s: ObservationStrategy
) -> bool:
    """Exact verdict: does s visit the target infinitely often almost surely
    against every opponent resolution?

    The opponent, controlling the product MDP, refutes s exactly when some
    end component avoiding the target is reachable.
    """
    view = _product_view(g, s)
    bad = frozenset(i for i, (v, _) in enumerate(view.states) if v in target)
    return not _positive_cobuchi_view(view, bad)


# ---------------------------------------------------------------------------
# The game numbered once.
# ---------------------------------------------------------------------------


class NumberedGame(namedtuple("NumberedGame",
                              "vertices actions initial obs observations classes moves post target")):
    """An imperfect-information game with its target, numbered once.

    Vertex ids index `vertices`, action ids `actions`, and observation
    codes follow the canonical order of the observations.  A set of vertices is an
    int bitmask, bit v for vertex id v.  Entry v * |actions| + a of `moves`
    and `post` belongs to vertex id v under action id a.

    - `vertices`, `actions`: the names of the ids;
    - `initial`: the initial vertex id;
    - `obs`: vertex id -> observation code;
    - `observations`: observation code -> observation;
    - `classes`: observation code -> mask of its vertices;
    - `moves`: (v, a) entry -> per opponent choice, the tuple of successor ids;
    - `post`: (v, a) entry -> mask of every successor;
    - `target`: mask of the target's vertices.
    """

    __slots__ = ()


def number_game(g: ImperfectInfoArena, target) -> NumberedGame:
    """`g` and `target` numbered once; target vertices outside `g` are ignored."""
    vid = {v: i for i, v in enumerate(g.vertices)}
    observations, obs, classes = _observations([g.obs[v] for v in g.vertices])
    moves = []
    for v in g.vertices:
        for a in g.actions:
            moves.append(tuple(tuple(vid[w] for w in support) for support in g.trans[(v, a)]))
    post = tuple(_mask(w for support in supports for w in support) for supports in moves)
    return NumberedGame(g.vertices, g.actions, vid[g.initial], obs, observations, classes,
                        tuple(moves), post, _mask(vid[v] for v in target if v in vid))


def number_emptiness_game(a: AlternatingTreeAutomaton, final: frozenset,
                          action_cap: int = 2**18) -> NumberedGame:
    """The emptiness game numbered straight from the automaton's rows.

    Vertex id 0 is the root (initial state, "e"); the state at index i of
    the canonical state order is (state, "0") with id 2i + 1 and (state,
    "1") with id 2i + 2.  Action ids list, symbol by symbol, the product of
    the protagonist states' sorted rows.  A vertex's moves depend only on
    its state, so each state's moves and post masks are made once and
    shared by its vertices.
    """
    rows: dict = {(q, s): [] for q in a.states for s in a.alphabet}
    for t in a.transitions:
        if (t[0], t[1]) in rows:
            rows[(t[0], t[1])].append(t)
    for (q, s), ts in rows.items():
        if not ts:
            raise FormatError(f"no transition for state {q} on symbol {s}")
        if len(ts) > 1:
            rows[(q, s)] = csorted(ts)  # as `a.rows(q, s)` lists them

    e_states = csorted(a.eloise)
    n_actions = 0
    for s in a.alphabet:
        count = 1
        for q in e_states:
            count *= len(rows[(q, s)])
        n_actions += count
    if n_actions > action_cap:
        raise ResourceLimit("action set size", action_cap)

    states = csorted(a.states)
    vid = {q: 2 * i + 1 for i, q in enumerate(states)}  # of (q, "0"); (q, "1") is next

    def coin(t) -> tuple:  # the left target goes to direction 0, the right one to 1
        return (vid[t[2]], vid[t[3]] + 1)

    actions: list = []
    moves: dict = {q: [] for q in states}  # state -> its moves under each action id
    for s in a.alphabet:
        first = len(actions)
        for combo in itertools.product(*(rows[(q, s)] for q in e_states)):
            actions.append(EmptinessAction(s, LocalChoice(
                tuple((q, (t[2], t[3])) for q, t in zip(e_states, combo)))))
            for q, t in zip(e_states, combo):
                moves[q].append((coin(t),))
        for q in states:  # an opponent state's row on a symbol is the same for every action
            if q not in a.eloise:
                moves[q] += [tuple(coin(t) for t in rows[(q, s)])] * (len(actions) - first)
    post: dict = {}  # state -> its post masks under each action id
    for q, row in moves.items():
        post[q] = []
        for supports in row:
            mask = 0
            for support in supports:
                for w in support:
                    mask |= 1 << w
            post[q].append(mask)

    vertices = tuple([(a.initial, EPS_OBS)] + [(q, d) for q in states for d in DIRECTIONS])
    all_moves, all_post = list(moves[a.initial]), list(post[a.initial])
    for q in states:
        all_moves += moves[q] * 2  # (q, "0") and (q, "1")
        all_post += post[q] * 2
    observations, obs, classes = _observations([v[1] for v in vertices])
    return NumberedGame(vertices, tuple(actions), 0, obs, observations, classes,
                        tuple(all_moves), tuple(all_post),
                        _mask(vid[q] + d for q in final if q in vid for d in (0, 1)))


def _observations(per_vertex: list) -> tuple:
    """From each vertex id's observation: the observations in canonical
    order, each vertex id's code and each code's mask of vertices."""
    observations = tuple(csorted(set(per_vertex)))
    code = {o: i for i, o in enumerate(observations)}
    obs = tuple([code[o] for o in per_vertex])
    classes = [0] * len(observations)
    for v, c in enumerate(obs):
        classes[c] |= 1 << v
    return observations, obs, tuple(classes)


def _mask(ids) -> int:
    """The bitmask of a set of ids; repeated ids count once."""
    return sum(1 << v for v in set(ids))


def _bits(mask: int) -> list:
    """The ids of a mask's set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# ---------------------------------------------------------------------------
# Knowledge sets.
# ---------------------------------------------------------------------------


def initial_belief(g: ImperfectInfoArena) -> frozenset:
    return frozenset({g.initial})


class _KnowledgeSets(dict):
    """The successor table {(knowledge-set id, action id): {observation code:
    knowledge-set id}}, each inner dict in canonical observation order, an
    entry computed on its first lookup as the OR of the members' successor
    masks, split by observation class.  `masks` lists the knowledge sets
    found so far, in discovery order; one more than `cap` raises
    `ResourceLimit`."""

    def __init__(self, n: NumberedGame, cap: int):
        super().__init__()
        self.n_a, self.step, self.classes, self.cap = len(n.actions), n.post, n.classes, cap
        self.masks = [1 << n.initial]
        self.ids = {self.masks[0]: 0}

    def __missing__(self, key) -> dict:
        b, a = key
        n_a, step, reach, rest = self.n_a, self.step, 0, self.masks[b]
        while rest:
            low = rest & -rest
            rest ^= low
            reach |= step[(low.bit_length() - 1) * n_a + a]
        branches = {}
        for o, cls in enumerate(self.classes):
            m2 = reach & cls
            if m2:
                b2 = self.ids.get(m2)
                if b2 is None:
                    if len(self.masks) >= self.cap:
                        raise ResourceLimit("reachable knowledge sets", self.cap)
                    b2 = self.ids[m2] = len(self.masks)
                    self.masks.append(m2)
                branches[o] = b2
        self[key] = branches
        return branches


def reachable_beliefs(n: NumberedGame, cap: int):
    """Breadth-first knowledge-set exploration on masks.

    Returns the knowledge sets as masks, in discovery order, and the
    successor table `_KnowledgeSets`, forced on every (knowledge set,
    action) pair in that order.
    """
    post = _KnowledgeSets(n, cap)
    for b, _ in enumerate(post.masks):  # breadth-first: masks grows while it is read
        for a in range(post.n_a):
            post[(b, a)]
    return post.masks, post


def _named_beliefs(g: ImperfectInfoArena, cap: int):
    """The same exploration on frozensets of vertices, for the oracle.

    Returns the discovery-ordered knowledge-set list and the successor table
    {(knowledge set, action): {observation: knowledge set}}, each inner dict
    in canonical observation order.
    """
    rank = {o: i for i, o in enumerate(csorted(set(g.obs.values())))}
    b0 = initial_belief(g)
    order = [b0]
    seen = {b0}
    post: dict = {}
    for b in order:  # breadth-first: order grows while it is read
        for act in g.actions:
            buckets: dict = {}
            for v in b:
                for support in g.trans[(v, act)]:
                    for v2 in support:
                        o = g.obs[v2]
                        if o in buckets:
                            buckets[o].add(v2)
                        else:
                            buckets[o] = {v2}
            branches: dict = {}
            for o in sorted(buckets, key=rank.__getitem__):
                b2 = branches[o] = frozenset(buckets[o])
                if b2 not in seen:
                    seen.add(b2)
                    order.append(b2)
                    if len(order) > cap:
                        raise ResourceLimit("reachable knowledge sets", cap)
            post[(b, act)] = branches
    return order, post


def _belief_obs(g: ImperfectInfoArena, b: frozenset):
    """The observation of a knowledge set: all its members share one."""
    return g.obs[next(iter(b))]


def _reached(root, assign: dict, post: dict) -> tuple[list, object]:
    """Knowledge sets reached from `root` under a per-belief action table,
    breadth-first with successors in observation order.

    Returns them with the first one the table leaves unassigned, where the
    walk stops, or with None when the table is closed.  `post` maps
    (belief, action) to {observation: belief}, on knowledge sets or on ids.
    """
    out = [root]
    seen = {root}
    for b in out:  # breadth-first: out grows while it is read
        if b not in assign:
            return out, b
        for b2 in post[(b, assign[b])].values():
            if b2 not in seen:
                seen.add(b2)
                out.append(b2)
    return out, None


def _materialize(g: ImperfectInfoArena, assign: dict, post: dict) -> ObservationStrategy:
    """Package a closed per-belief action table as an ObservationStrategy,
    restricted to the beliefs it actually reaches."""
    reached, _ = _reached(initial_belief(g), assign, post)
    act: dict = {}
    update: dict = {}
    for b in reached:
        a = assign[b]
        act[(b, _belief_obs(g, b))] = a
        for o, b2 in post[(b, a)].items():
            update[(b, o, a)] = b2
    return ObservationStrategy(
        memory=tuple(reached), init_memory=reached[0], act=act, update=update
    )


def _named_strategy(n: NumberedGame, masks: list, table: dict, post: dict) -> ObservationStrategy:
    """A closed table on ids as an ObservationStrategy on knowledge sets of
    vertex names, made in one breadth-first walk over the knowledge sets it
    reaches, as `_materialize` lists them: each gets its name once."""
    reached = [0]
    names = {0: frozenset(n.vertices[v] for v in _bits(masks[0]))}
    act: dict = {}
    update: dict = {}
    for b in reached:  # breadth-first: reached grows while it is read
        name, a = names[b], n.actions[table[b]]
        act[(name, n.observations[n.obs[(masks[b] & -masks[b]).bit_length() - 1]])] = a
        for o, b2 in post[(b, table[b])].items():
            name2 = names.get(b2)
            if name2 is None:
                name2 = names[b2] = frozenset(n.vertices[v] for v in _bits(masks[b2]))
                reached.append(b2)
            update[(name, n.observations[o], a)] = name2
    memory = tuple(names.values())
    return ObservationStrategy(memory=memory, init_memory=memory[0], act=act, update=update)


def _closed_tables(root, post: dict, actions, refuted=None):
    """Every closed per-belief action table, depth-first.

    The first open belief in breadth-first order takes each action in turn.
    The assigned beliefs are a prefix of that order, so the order is kept on
    the trail: each entry records the length of `order` before its belief's
    successors were appended, and its next action truncates back to it.
    A partial table that `refuted` rejects is cut with everything below it;
    `refuted` sees a table only when the table without its deepest belief,
    the dict's last key, was not refuted.
    The yielded dict is the live table: copy it to keep it past the next step.
    """
    assign: dict = {}
    trail: list = []  # (belief, index into actions, len(order) before its successors)
    order, seen = [root], {root}
    while True:
        if not (refuted and trail and refuted(assign)):
            if len(trail) == len(order):
                yield assign
            else:
                trail.append((order[len(trail)], -1, len(order)))  # action 0 comes next
        while trail:  # next action of the deepest belief that has one
            b, i, mark = trail[-1]
            seen.difference_update(order[mark:])
            del order[mark:]
            if i + 1 < len(actions):
                trail[-1] = (b, i + 1, mark)
                assign[b] = actions[i + 1]
                for b2 in post[(b, assign[b])].values():
                    if b2 not in seen:
                        seen.add(b2)
                        order.append(b2)
                break
            trail.pop()
            del assign[b]
        else:
            return


def _keep(n: NumberedGame, a: int, z: int, u: int) -> int:
    """The vertices of mask z with a move under action id a whose whole
    support lies in mask u."""
    n_a, post, moves = len(n.actions), n.post, n.moves
    rest = z
    while rest:
        low = rest & -rest
        rest ^= low
        e = (low.bit_length() - 1) * n_a + a
        if post[e] & ~u:  # not every move stays: look for one that does
            for support in moves[e]:
                for w in support:
                    if not u >> w & 1:
                        break
                else:
                    break
            else:
                z ^= low
    return z


def _closed_core(n: NumberedGame, masks: list, post: dict, table: dict, root: int,
                 memo: dict) -> bool:
    """Whether a target-free end component lies in the product of the game
    with the knowledge sets that `table` assigns and reaches from `root`.

    Per knowledge set b of that region, a vertex mask Z_b starts as b's
    vertices outside the target.  A vertex leaves Z_b when none of its moves
    under b's action has its whole support in the Z of b's children; a
    child outside the region has an empty Z.  The pairs (vertex v, set b)
    with v in Z_b that remain form the greatest closed set of target-free
    pairs.  It is non-empty exactly when an end component exists: a bottom
    strongly connected part of its staying moves is one, and every end
    component lies inside it.  The fixed point is a worklist over knowledge
    sets; each evaluation is memoised in `memo` on (action, Z_b, the union
    of the children's Z), which names its result.
    """
    region, index, kids = [root], {root: 0}, []
    for b in region:  # breadth-first: region grows while it is read
        out = []
        for c in post[(b, table[b])].values():
            if c in table:
                i = index.get(c)
                if i is None:
                    i = index[c] = len(region)
                    region.append(c)
                out.append(i)
        kids.append(out)
    parents: list = [[] for _ in region]
    for i, out in enumerate(kids):
        for c in out:
            parents[c].append(i)
    z = [masks[b] & ~n.target for b in region]
    work = list(range(len(region)))
    waiting = bytearray([1]) * len(region)
    while work:
        i = work.pop()
        waiting[i] = 0
        if not z[i]:
            continue
        u = 0
        for c in kids[i]:
            u |= z[c]
        key = (table[region[i]], z[i], u)
        kept = memo.get(key)
        if kept is None:
            kept = memo[key] = _keep(n, *key)
        if kept != z[i]:
            z[i] = kept
            for p in parents[i]:
                if not waiting[p]:
                    waiting[p] = 1
                    work.append(p)
    return any(z)


def _table_refuter(n: NumberedGame, masks: list, post: dict):
    """Refutation of partial tables on ids: `refuted(table)` is true when a
    target-free end component of pairs whose knowledge set the table assigns
    survives every completion.

    `_closed_tables` assigns only knowledge sets reached under the earlier
    assignments, so a table's product needs no walk from the root, and on a
    closed table the predicate is exactly "the table loses".  By its
    invariant, the table without its deepest set b, the dict's last key,
    was not refuted, so an end component, if any, holds a pair of b and lies
    in the sets the table reaches from b: the closed core is taken on those
    alone, with one memo per search.
    """
    memo: dict = {}

    def refuted(table: dict) -> bool:
        return _closed_core(n, masks, post, table, next(reversed(table)), memo)

    return refuted


def _search_belief_table(n: NumberedGame, masks: list, post: dict):
    """Backtracking search for a winning per-belief action table on ids.

    Partial tables refuted by a target-free end component are cut, so the
    first closed table the search reaches wins; None when there is none.
    """
    refuted = _table_refuter(n, masks, post)
    tables = _closed_tables(0, post, range(len(n.actions)), refuted)
    return next(tables, None)  # never resumed, so the live table stays as found


def _first_descent(n: NumberedGame, cap: int) -> ObservationStrategy | None:
    """The search's first leaf, checked once: the first closed table of
    `_closed_tables`, action id 0 at every knowledge set it reaches, built
    breadth-first against `cap` on only those sets.  Its closed core is the
    refuter's predicate on a closed table.  A winning table has no refuted
    prefix, so it is the one the search returns; it comes back as a named
    strategy, or None.
    """
    post = _KnowledgeSets(n, cap)
    for b, _ in enumerate(post.masks):  # breadth-first: the lookup grows masks
        post[(b, 0)]
    table = dict.fromkeys(range(len(post.masks)), 0)
    if _closed_core(n, post.masks, post, table, 0, {}):
        return None
    return _named_strategy(n, post.masks, table, post)


# ---------------------------------------------------------------------------
# Sound short-cuts.
# ---------------------------------------------------------------------------


def _full_information_arena(n: NumberedGame) -> Arena:
    """Perfect-information relaxation; winning here is necessary for the
    blind protagonist to win.

    Vertex id v is the protagonist's.  She picks an action a, node
    |V| + v * |A| + a of the opponent, who picks one of the (v, a) moves, a
    coin node whose successors are that move's support.
    """
    n_v, n_a = len(n.obs), len(n.actions)
    succ: list = [tuple(range(n_v + v * n_a, n_v + (v + 1) * n_a)) for v in range(n_v)]
    coins: list = []
    nxt = n_v + len(n.moves)
    for supports in n.moves:
        succ.append(tuple(range(nxt, nxt + len(supports))))
        nxt += len(supports)
        coins += supports
    owner = bytes([OWN_ELOISE] * n_v + [OWN_ABELARD] * len(n.moves) + [OWN_RANDOM] * len(coins))
    return Arena(succ + coins, owner, n.initial)


def _wins_full_information(n: NumberedGame) -> bool:
    region, _ = almost_sure_buchi(_full_information_arena(n), frozenset(_bits(n.target)))
    return n.initial in region


def _sure_belief_strategy(n: NumberedGame, masks: list, post: dict):
    """Sure-winning play on knowledge sets alone: if every knowledge set on
    every play can be driven through all-target sets infinitely often, the
    underlying blind strategy wins outright.  Sound, not complete.

    The knowledge-set game is an `Arena` with no coin: knowledge set b is
    the protagonist's node b, and the pair (b, action a) is the opponent's
    node B + b*A + a, who picks the next observation.  Its almost-sure
    Büchi region is then the sure one.  Each knowledge set lists its pairs
    in canonical action order, so the core's choice, the witness or the
    first staying pair, is the canonically least.  Returns a table
    {knowledge-set id: action id}, or None.
    """
    n_b, n_a = len(masks), len(n.actions)
    canonical = sorted(range(n_a), key=lambda a: ckey(n.actions[a]))
    succ = [tuple(n_b + b * n_a + a for a in canonical) for b in range(n_b)]
    succ += [tuple(post[(b, a)].values()) for b in range(n_b) for a in range(n_a)]
    owner = bytes([OWN_ELOISE] * n_b + [OWN_ABELARD] * (n_b * n_a))
    goal = frozenset(b for b, mask in enumerate(masks) if not mask & ~n.target)
    region, choice = _as_buchi_core(Arena(succ, owner, 0), goal)
    if 0 not in region:
        return None
    table = {b: w - n_b - b * n_a for b, w in choice.items()}
    if _reached(0, table, post)[1] is not None:
        return None
    return table


# ---------------------------------------------------------------------------
# Solver and oracle.
# ---------------------------------------------------------------------------


def _solve(n: NumberedGame, belief_cap: int) -> ObservationStrategy | None:
    """A winning knowledge-set strategy of the numbered game, or None.

    The routes run in turn: the full-information refutation, which needs
    no knowledge sets; the first descent, the search's first leaf checked
    once, not a second search; when it loses, the full exploration with the
    sure-winning short-cut; then the search.  A winning descent builds only
    the knowledge sets it reaches, so a non-empty game can be decided
    within a `belief_cap` its full exploration exceeds.
    """
    if not n.target or not _wins_full_information(n):
        return None
    strat = _first_descent(n, belief_cap)
    if strat is not None:
        return strat
    masks, post = reachable_beliefs(n, belief_cap)
    table = _sure_belief_strategy(n, masks, post)
    if table is None:
        table = _search_belief_table(n, masks, post)
    if table is None:
        return None
    return _named_strategy(n, masks, table, post)


def solve_imperfect_buchi(
    g: ImperfectInfoArena, target, *, belief_cap: int = 2**18
) -> tuple[bool, ObservationStrategy | None]:
    """Decide almost-sure repeated reach for the blind protagonist.

    Verdict true iff some pure knowledge-set strategy passes the exact
    product check `check_observation_strategy`, and the strategy returned
    is one, but the call does not check it: the tests, the crosscheck
    suite and the probes check the strategies it returns, and
    `check_emptiness` checks the witness tree it ships by membership.  The
    game is numbered once and solved by `_solve`.
    """
    strat = _solve(number_game(g, target), belief_cap)
    return strat is not None, strat


def solve_by_enumeration(
    g: ImperfectInfoArena, target, *, belief_cap: int = 2**18
) -> tuple[bool, ObservationStrategy | None]:
    """Blunt oracle: try every per-belief action table, judging each closed
    table with the public strategy check."""
    target = frozenset(target)
    if not target:
        return False, None
    _, post = _named_beliefs(g, belief_cap)
    for assign in _closed_tables(initial_belief(g), post, list(g.actions)):
        strat = _materialize(g, assign, post)
        if check_observation_strategy(g, target, strat):
            return True, strat
    return False, None


# ---------------------------------------------------------------------------
# Witness extraction and the end-to-end decision.
# ---------------------------------------------------------------------------


def extract_witness(
    a: AlternatingTreeAutomaton, final: frozenset, s: ObservationStrategy
) -> tuple[RegularTree, dict]:
    """Unfold a winning strategy into the regular tree it announces.

    Observations in the emptiness game are directions, so reachable
    (memory, observation) pairs form a finite binary node graph; each node
    is labelled with the announced symbol and carries the local choice for
    the protagonist's states.
    """
    start = (s.init_memory, EPS_OBS)
    keys = [start]
    index = {start: 0}
    i = 0
    while i < len(keys):
        m, o = keys[i]
        i += 1
        if (m, o) not in s.act:
            raise ValueError(f"strategy act undefined on reachable pair ({m!r}, {o!r})")
        action = s.act[(m, o)]
        for d in DIRECTIONS:
            if (m, d, action) not in s.update:
                raise ValueError(
                    f"strategy update undefined on reachable ({m!r}, {d!r}, {action!r})"
                )
            child = (s.update[(m, d, action)], d)
            if child not in index:
                index[child] = len(keys)
                keys.append(child)

    width = len(str(len(keys) - 1))
    ids = {k: f"t{index[k]:0{width}d}" for k in keys}
    label: dict = {}
    succ0: dict = {}
    succ1: dict = {}
    choices: dict = {}
    for k in keys:
        m, o = k
        action = s.act[(m, o)]
        label[ids[k]] = action.symbol
        choices[ids[k]] = action.choice
        succ0[ids[k]] = ids[(s.update[(m, "0", action)], "0")]
        succ1[ids[k]] = ids[(s.update[(m, "1", action)], "1")]
    tree = RegularTree(
        nodes=tuple(ids[k] for k in keys),
        root=ids[start],
        label=label,
        succ0=succ0,
        succ1=succ1,
    )
    return tree, choices


@dataclass(frozen=True)
class EmptinessResult:
    kind: str  # "empty" | "nonempty" | "resource-exceeded"
    witness: RegularTree | None = None
    strategy: ObservationStrategy | None = None


def check_emptiness(
    a: AlternatingTreeAutomaton,
    final,
    *,
    belief_cap: int = 2**18,
    action_cap: int = 2**18,
) -> EmptinessResult:
    """Full decision: empty, or non-empty with an independently verified
    regular witness tree; resource exhaustion is a distinct third outcome.

    A non-empty verdict gets one check inside the call: the witness tree is
    decided by `qualitative_membership`, which runs no code of the
    knowledge-set search, and a rejected tree raises `DisagreementError`.
    """
    final = frozenset(final)
    try:
        strat = _solve(number_emptiness_game(a, final, action_cap), belief_cap)
    except ResourceLimit:
        return EmptinessResult("resource-exceeded")
    if strat is None:
        return EmptinessResult("empty")
    tree, _ = extract_witness(a, final, strat)
    if not qualitative_membership(a, buchi(final), tree):
        raise DisagreementError("extracted witness failed the membership check")
    return EmptinessResult("nonempty", witness=tree, strategy=strat)
