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
directly, after two sound short-cuts (a full-information upper bound, run
before any knowledge set is explored, and a sure-winning knowledge-game
lower bound).  The sure-winning short-cut and the search run on integer
ids (vertices, knowledge sets and actions numbered once) and on supports,
since a refutation only asks whether a target-free end component exists;
every strategy they return still passes `check_observation_strategy`.
The search refutes each partial table on its product with the knowledge
sets, assembled from rows built once per (knowledge set, action) and not
walked breadth-first: the search assigns only knowledge sets its earlier
assignments reach, so every pair of an assigned knowledge set and one of
its members is reachable.
The blunt enumeration in `solve_by_enumeration` shares only the
backtracking order and re-derives every verdict with that exact check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from qualtree.acceptance import qualitative_membership
from qualtree.automata import (
    AlternatingTreeAutomaton,
    buchi,
)
from qualtree.dist import Distribution
from qualtree.errors import DisagreementError, FormatError, ResourceLimit
from qualtree.games import (
    MdpView,
    StochasticArena,
    _attractor,
    _positive_cobuchi_view,
    almost_sure_buchi,
    mec_decomposition,
)
from qualtree.ordering import ckey, csorted
from qualtree.trees import RegularTree

EPS_OBS = "e"
DIRECTIONS = ("0", "1")


@dataclass(frozen=True)
class LocalChoice:
    """One split-transition target pair per protagonist state."""

    assign: tuple[tuple[str, tuple[str, str]], ...]  # sorted by state

    @classmethod
    def of(cls, mapping: dict) -> "LocalChoice":
        return cls(tuple(sorted(mapping.items())))

    def get(self, q: str) -> tuple[str, str]:
        return dict(self.assign)[q]

    def as_dict(self) -> dict:
        return dict(self.assign)


@dataclass(frozen=True)
class EmptinessAction:
    """A tree symbol with a local choice.  Actions key every transition and
    knowledge-set successor lookup, so the hash the dataclass would give,
    `hash((symbol, choice))`, is computed once per action."""

    symbol: str
    choice: LocalChoice

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.symbol, self.choice)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes: unpickling recomputes it
        return EmptinessAction, (self.symbol, self.choice)


@dataclass(frozen=True)
class ImperfectInfoArena:
    """Finite arena where the protagonist sees only observation classes.

    For every vertex and action there is at least one transition
    distribution; the opponent picks among them with full information.
    """

    vertices: tuple
    initial: object
    actions: tuple
    trans: dict  # (vertex, action) -> tuple[Distribution, ...]
    obs: dict  # vertex -> observation id

    def __post_init__(self):
        vs = set(self.vertices)
        if self.initial not in vs:
            raise ValueError("initial vertex unknown")
        for v in self.vertices:
            if v not in self.obs:
                raise ValueError(f"observation undefined for {v!r}")
            for a in self.actions:
                ds = self.trans.get((v, a), ())
                if not ds:
                    raise ValueError(f"no transition for ({v!r}, {a!r})")
                for d in ds:
                    d.require_probability(f"transition at ({v!r}, {a!r})")
                    if not d.support() <= vs:
                        raise ValueError(f"transition at ({v!r}, {a!r}) leaves arena")

    def observation_classes(self) -> dict:
        classes: dict = {}
        for v in self.vertices:
            classes.setdefault(self.obs[v], set()).add(v)
        return classes


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
    symbol with a local choice for every protagonist state.
    """
    rows: dict = {}
    for q in a.states:
        for s in a.alphabet:
            rows[(q, s)] = a.rows(q, s)
            if not rows[(q, s)]:
                raise FormatError(f"no transition for state {q} on symbol {s}")

    e_states = csorted(a.eloise)
    n_actions = 0
    for s in a.alphabet:
        count = 1
        for q in e_states:
            count *= len(rows[(q, s)])
        n_actions += count
    if n_actions > action_cap:
        raise ResourceLimit("action set size", action_cap)

    actions = []
    for s in a.alphabet:
        for combo in itertools.product(*(rows[(q, s)] for q in e_states)):
            tau = LocalChoice.of({q: (t[2], t[3]) for q, t in zip(e_states, combo)})
            actions.append(EmptinessAction(s, tau))

    root = (a.initial, EPS_OBS)
    vertices = [root] + [(q, d) for q in csorted(a.states) for d in DIRECTIONS]
    obs = {v: v[1] for v in vertices}

    def flip(q0: str, q1: str) -> Distribution:
        return Distribution.half_half((q0, "0"), (q1, "1"))

    trans: dict = {}
    for v in vertices:
        q = v[0]
        for act in actions:
            if q in a.eloise:
                q0, q1 = act.choice.get(q)
                trans[(v, act)] = (flip(q0, q1),)
            else:
                trans[(v, act)] = tuple(
                    flip(q0, q1) for (_, _, q0, q1) in rows[(q, act.symbol)]
                )

    arena = ImperfectInfoArena(
        vertices=tuple(vertices),
        initial=root,
        actions=tuple(actions),
        trans=trans,
        obs=obs,
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
        for d in g.trans[(v, act)]:
            step = set()
            for v2 in d:
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
# Knowledge sets.
# ---------------------------------------------------------------------------


def initial_belief(g: ImperfectInfoArena) -> frozenset:
    return frozenset({g.initial})


def reachable_beliefs(g: ImperfectInfoArena, cap: int):
    """Breadth-first knowledge-set exploration.

    Returns the discovery-ordered belief list and the successor table
    {(belief, action): {observation: belief}}, each inner dict in canonical
    observation order.  One walk over a knowledge set's transitions per
    action buckets the successors by observation.
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
                for d in g.trans[(v, act)]:
                    for v2 in d:
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


def _closed_tables(root, post: dict, actions, refuted=None):
    """Every closed per-belief action table, depth-first.

    The first open belief in breadth-first order takes each action in turn.
    A partial table that `refuted` rejects is cut with everything below it.
    The yielded dict is the live table: copy it to keep it past the next step.
    """
    assign: dict = {}
    trail: list = []  # (belief, index into actions)
    while True:
        if not (refuted and trail and refuted(assign)):
            _, b = _reached(root, assign, post)
            if b is not None:
                trail.append((b, 0))
                assign[b] = actions[0]
                continue
            yield assign
        while trail:  # next sibling of the deepest belief that has one
            b, i = trail[-1]
            if i + 1 < len(actions):
                trail[-1] = (b, i + 1)
                assign[b] = actions[i + 1]
                break
            trail.pop()
            del assign[b]
        else:
            return


def _number_post(g: ImperfectInfoArena, beliefs: list, post: dict) -> dict:
    """The knowledge-set successor table on ids: knowledge sets by discovery
    order, actions by their order in `g.actions`."""
    bid = {b: i for i, b in enumerate(beliefs)}
    aid = {a: i for i, a in enumerate(g.actions)}
    return {
        (bid[b], aid[a]): {o: bid[b2] for o, b2 in branches.items()}
        for (b, a), branches in post.items()
    }


def _table_refuter(g: ImperfectInfoArena, target: frozenset, beliefs: list, post: dict):
    """Refutation of partial tables on ids: `refuted(table)` is true when a
    target-free end component of pairs whose knowledge set the table assigns
    survives every completion.

    Product pairs (vertex id, knowledge-set id) are numbered once per search.
    The row of knowledge set b under action a is built the first time a
    table assigns a to b, and kept: the pair ids of b's members, their moves
    as support sets of pair ids (only supports matter), and the ids of the
    pairs outside the target.  A table's product is then the rows of its
    assigned knowledge sets, with no walk from the start pair:
    `_closed_tables` assigns only a knowledge set reached under the earlier
    assignments, so every pair (v, b) with v in an assigned b is reachable,
    and on a closed table the predicate is exactly "the table loses".  End
    components are sought among the safe pairs of assigned knowledge sets
    only, so pairs of unassigned ones, whatever row they last had, lie in
    none.
    """
    n_act, n_v = len(g.actions), len(g.vertices)
    vid = {v: i for i, v in enumerate(g.vertices)}
    # (vertex id * n_act + action id) -> per opponent choice, (successor id, observation)
    moves = [
        tuple(tuple((vid[v2], g.obs[v2]) for v2 in d.support()) for d in g.trans[(v, a)])
        for v in g.vertices
        for a in g.actions
    ]
    in_target = [v in target for v in g.vertices]
    index: dict = {}  # knowledge-set id * n_v + vertex id -> pair id
    pairs: list = []  # pair id -> (vertex id, knowledge-set id)
    prod: list = []  # pair id -> moves in the row last placed for its knowledge set
    rows: dict = {}  # (knowledge-set id, action id) -> (pair ids, moves, safe pair ids)
    placed: dict = {}  # knowledge-set id -> action id whose row is in prod

    def pair(v: int, b: int) -> int:
        j = index.get(b * n_v + v)
        if j is None:
            j = index[b * n_v + v] = len(pairs)
            pairs.append((v, b))
            prod.append(())
        return j

    def row(b: int, a: int) -> tuple:
        branches = post[(b, a)]
        members = sorted(vid[v] for v in beliefs[b])
        ids = [pair(v, b) for v in members]
        mvs = [
            tuple(frozenset(pair(v2, branches[o]) for v2, o in support)
                  for support in moves[v * n_act + a])
            for v in members
        ]
        safe = frozenset(j for v, j in zip(members, ids) if not in_target[v])
        return ids, mvs, safe

    def refuted(table: dict) -> bool:
        safe: list = []
        for b, a in table.items():
            r = rows.get((b, a))
            if r is None:
                r = rows[(b, a)] = row(b, a)
            if placed.get(b) != a:
                placed[b] = a
                for j, mv in zip(r[0], r[1]):
                    prod[j] = mv
            safe.append(r[2])
        within = frozenset().union(*safe)
        # the root {initial} gets the first row, so pair 0 is the start pair
        return bool(mec_decomposition(MdpView(pairs, 0, prod), within=within))

    return refuted


def _search_belief_table(g: ImperfectInfoArena, target: frozenset, beliefs: list, post: dict):
    """Backtracking search for a winning per-belief action table on ids.

    Partial tables refuted by a target-free end component are cut, so the
    first closed table the search reaches wins; None when there is none.
    """
    refuted = _table_refuter(g, target, beliefs, post)
    tables = _closed_tables(0, post, range(len(g.actions)), refuted)
    return next(tables, None)  # never resumed, so the live table stays as found


# ---------------------------------------------------------------------------
# Sound short-cuts.
# ---------------------------------------------------------------------------


def _full_information_arena(g: ImperfectInfoArena, target: frozenset):
    """Perfect-information relaxation; winning here is necessary for the
    blind protagonist to win.  Built from supports, in the order of `g`,
    without the arena checks: `g` was checked when it was made."""
    lift = {v: ("p", v) for v in g.vertices}
    ve, va, vr = set(lift.values()), set(), set()
    edges: dict = {}
    dist: dict = {}
    for v in g.vertices:
        edges[lift[v]] = tuple(("c", v, a) for a in g.actions)
        for a in g.actions:
            cv = ("c", v, a)
            va.add(cv)
            ds = g.trans[(v, a)]
            edges[cv] = tuple(("z", v, a, i) for i in range(len(ds)))
            for i, d in enumerate(ds):
                zv = ("z", v, a, i)
                vr.add(zv)
                dist[zv] = d.relabel(lift.__getitem__)
                edges[zv] = tuple(lift[v2] for v2 in d)
    arena = StochasticArena._trusted(
        eloise=frozenset(ve),
        abelard=frozenset(va),
        random=frozenset(vr),
        edges=edges,
        dist=dist,
        initial=lift[g.initial],
    )
    return arena, frozenset(lift[v] for v in target)


def _wins_full_information(g, target) -> bool:
    arena, tgt = _full_information_arena(g, target)
    region, _ = almost_sure_buchi(arena, tgt)
    return arena.initial in region


def _sure_belief_strategy(g: ImperfectInfoArena, target: frozenset, beliefs: list, post: dict):
    """Sure-winning play on knowledge sets alone: if every knowledge set on
    every play can be driven through all-target sets infinitely often, the
    underlying blind strategy wins outright.  Sound, not complete.

    The knowledge-set game runs on ids: knowledge set b is node b, owned by
    the protagonist, and the pair (b, action a) is node B + b*A + a, owned by
    the opponent, who picks the next observation.  Returns a table
    {knowledge-set id: action id}, or None.
    """
    n_b, n_a = len(beliefs), len(g.actions)
    # (b, a) nodes in canonical action order: the attractor's witness is then
    # the canonically least action of the round the knowledge set joined in
    canonical = sorted(range(n_a), key=lambda a: ckey(g.actions[a]))
    succ = [[n_b + b * n_a + a for a in canonical] for b in range(n_b)]
    succ += [list(post[(b, a)].values()) for b in range(n_b) for a in range(n_a)]
    pred: list = [[] for _ in succ]
    for v, ws in enumerate(succ):
        for w in ws:
            pred[w].append(v)
    goal = {b for b in range(n_b) if beliefs[b] <= target}
    region = set(range(len(succ)))
    knowledge = [v < n_b for v in range(len(succ))]
    pairs = [not k for k in knowledge]
    while True:
        attr, witness = _attractor(succ, pred, region, goal & region, knowledge)
        lost = region.difference(attr)
        if not lost:
            break
        trap, _ = _attractor(succ, pred, region, lost, pairs)
        region.difference_update(trap)
        if 0 not in region:
            return None

    table: dict = {}
    for b in range(n_b):
        if b not in region:
            continue
        if b in witness:
            table[b] = witness[b] - n_b - b * n_a
        else:
            stay = [a for a in range(n_a) if n_b + b * n_a + a in region]
            if not stay:
                return None
            table[b] = stay[0]
    if _reached(0, table, post)[1] is not None:
        return None
    return table


# ---------------------------------------------------------------------------
# Solver and oracle.
# ---------------------------------------------------------------------------


def solve_imperfect_buchi(
    g: ImperfectInfoArena, target, *, belief_cap: int = 2**18
) -> tuple[bool, ObservationStrategy | None]:
    """Decide almost-sure repeated reach for the blind protagonist.

    Verdict true iff some pure knowledge-set strategy passes the exact
    product check; the returned witness always does.  The full-information
    refutation runs first, so it needs no knowledge sets; the sure-winning
    short-cut and the search then run on integer ids.
    """
    target = frozenset(target)
    if not target or not _wins_full_information(g, target):
        return False, None
    beliefs, post = reachable_beliefs(g, belief_cap)
    ids = _number_post(g, beliefs, post)
    table = _sure_belief_strategy(g, target, beliefs, ids)
    if table is None:
        table = _search_belief_table(g, target, beliefs, ids)
    if table is None:
        return False, None
    assign = {beliefs[b]: g.actions[a] for b, a in table.items()}
    strat = _materialize(g, assign, post)
    if not check_observation_strategy(g, target, strat):
        raise DisagreementError("synthesised strategy failed its own check")
    return True, strat


def solve_by_enumeration(
    g: ImperfectInfoArena, target, *, belief_cap: int = 2**18
) -> tuple[bool, ObservationStrategy | None]:
    """Blunt oracle: try every per-belief action table, judging each closed
    table with the public strategy check."""
    target = frozenset(target)
    if not target:
        return False, None
    _, post = reachable_beliefs(g, belief_cap)
    for assign in _closed_tables(initial_belief(g), post, list(g.actions)):
        strat = _materialize(g, assign, post)
        if check_observation_strategy(g, target, strat):
            return True, strat
    return False, None


def enumerate_bit_enriched(
    g: ImperfectInfoArena, target, *, belief_cap: int = 2**14
) -> tuple[bool, ObservationStrategy | None]:
    """Enumeration over (knowledge set, extra bit) memories.

    Investigation knob: on any instance where this wins but the plain
    knowledge-set enumeration loses, the flip must be surfaced, never
    silently absorbed.
    """
    target = frozenset(target)
    if not target:
        return False, None
    _, post = reachable_beliefs(g, belief_cap)
    actions = list(g.actions)
    m0 = (initial_belief(g), 0)

    def choices(m):
        b, _ = m
        out = []
        for a in actions:
            branches = list(post[(b, a)].items())
            for bits in itertools.product((0, 1), repeat=len(branches)):
                out.append((a, tuple((o, (b2, bit)) for (o, b2), bit in zip(branches, bits))))
        return out

    def closure(assign):
        reached = [m0]
        seen = {m0}
        i = 0
        while i < len(reached):
            m = reached[i]
            i += 1
            if m not in assign:
                return reached, m
            for _, m2 in assign[m][1]:
                if m2 not in seen:
                    seen.add(m2)
                    reached.append(m2)
        return reached, None

    assign: dict = {}
    trail: list = []

    def backtrack() -> bool:
        while trail:
            m, i, opts = trail[-1]
            if i + 1 < len(opts):
                trail[-1] = (m, i + 1, opts)
                assign[m] = opts[i + 1]
                return True
            trail.pop()
            del assign[m]
        return False

    while True:
        reached, open_m = closure(assign)
        if open_m is None:
            act = {(m, _belief_obs(g, m[0])): assign[m][0] for m in reached}
            update = {
                (m, o, assign[m][0]): m2 for m in reached for (o, m2) in assign[m][1]
            }
            strat = ObservationStrategy(tuple(reached), m0, act, update)
            if check_observation_strategy(g, target, strat):
                return True, strat
            if not backtrack():
                return False, None
            continue
        opts = choices(open_m)
        trail.append((open_m, 0, opts))
        assign[open_m] = opts[0]


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
    local_choices: dict | None = field(default=None, compare=False)

    @property
    def is_empty(self) -> bool:
        return self.kind == "empty"


def check_emptiness(
    a: AlternatingTreeAutomaton,
    final,
    *,
    belief_cap: int = 2**18,
    action_cap: int = 2**18,
) -> EmptinessResult:
    """Full decision: empty, or non-empty with an independently verified
    regular witness tree; resource exhaustion is a distinct third outcome."""
    final = frozenset(final)
    try:
        game, target = build_emptiness_game(a, final, action_cap=action_cap)
        verdict, strat = solve_imperfect_buchi(game, target, belief_cap=belief_cap)
    except ResourceLimit:
        return EmptinessResult("resource-exceeded")
    if not verdict:
        return EmptinessResult("empty")
    tree, choices = extract_witness(a, final, strat)
    if not qualitative_membership(a, buchi(final), tree):
        raise DisagreementError("extracted witness failed the membership check")
    return EmptinessResult("nonempty", witness=tree, strategy=strat, local_choices=choices)
