"""Replaced emptiness searches, kept only as oracles of the code that
replaced them.

`closed_tables_by_walk` and `whole_product_refuter` are the search as it
was before it kept its frontier on the trail, the oracle of
`qualtree.emptiness._closed_tables` and `qualtree.emptiness._table_refuter`.
`closed_tables_by_walk` finds each table's first open knowledge set by
re-walking the closure from the root, and `whole_product_refuter` seeks end
components among the safe pairs of every assigned knowledge set, so it
judges any partial table, in any order.

`enumerate_bit_enriched` is the one-bit memory enumeration with its own
closure and backtracking loop, the oracle of the enumeration on
`qualtree.suite.with_memory_bit` products.
"""

from __future__ import annotations

import itertools

from qualtree.emptiness import (
    ImperfectInfoArena,
    ObservationStrategy,
    _belief_obs,
    _bits,
    _named_beliefs,
    _reached,
    check_observation_strategy,
    initial_belief,
)
from qualtree.games import MdpView, mec_decomposition


def closed_tables_by_walk(root, post: dict, actions, refuted=None):
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


def whole_product_refuter(n, masks: list, post: dict):
    """`refuted(table)`: a target-free end component among the pairs of the
    knowledge sets `table` assigns, each with the row of its action.

    Pairs are numbered as first met; the root {initial} gets the first row,
    so pair 0 is the start pair.  Only a table whose assigned knowledge sets
    are all reached under it is judged as its product.
    """
    n_act, n_v, obs = len(n.g.actions), len(n.obs), n.obs
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
        members = _bits(masks[b])
        ids = [pair(v, b) for v in members]
        mvs = [
            tuple(frozenset(pair(v2, branches[obs[v2]]) for v2 in support)
                  for support in n.moves[v * n_act + a])
            for v in members
        ]
        safe = frozenset(j for v, j in zip(members, ids) if not n.target >> v & 1)
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
        return bool(mec_decomposition(MdpView(pairs, 0, prod), within=within))

    return refuted


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
    _, post = _named_beliefs(g, belief_cap)
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
