"""Membership of regular trees: the pebble game, decided on a finite quotient.

The defining game walks a pebble down the infinite tree; here it is built
over the finite node graph instead.  The quotient map respects ownership,
branching and target membership, so the qualitative verdict is unchanged;
the test suite additionally checks invariance under duplicated-node
presentations of the same tree.

Membership is decided on one encoding of that game, `_node_game`, with no
coin vertices: Büchi with one bitmask of states per node for the region
and each attractor (`buchi_node_region`), co-Büchi by enumerating her
choice of row at each of her state vertices (`_node_moves`).

The pebble arena of the file boundary and the reductions is an integer
`games.Arena` with no weights, since the qualitative verdict reads only
supports.  With the states in canonical order and the nodes in the tree's
order, state vertex (q, n) has id rank(q)·|N| + rank(n); one random vertex
per matching split row follows, in the order the state vertices list them.
Names (`state_vertex`, `random_vertex`) and the even split of each random
vertex are given only at the file boundary, by `name_arena`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from qualtree.automata import (
    BUCHI,
    AcceptanceCondition,
    AlternatingTreeAutomaton,
)
from qualtree.dist import Distribution
from qualtree.errors import FormatError
from qualtree.games import (
    OWN_ABELARD,
    OWN_ELOISE,
    OWN_RANDOM,
    Arena,
    StochasticArena,
    almost_sure_cobuchi,
)
from qualtree.ordering import csorted
from qualtree.trees import RegularTree


def state_vertex(q: str, n: str) -> tuple:
    return ("s", q, n)


def random_vertex(q: str, n: str, q0: str, q1: str) -> tuple:
    return ("r", q, n, q0, q1)


def _tree_index(states, initial_state, split_transitions, local_transitions, tree: RegularTree):
    """Check that every state the rows name and the initial state are
    declared, and that the root and every successor are nodes; return the
    labels, the left and the right child ids, by node id in `tree.nodes`
    order, and the root's id."""
    unknown = ({initial_state} | {t[2] for t in local_transitions}
               | {q for t in split_transitions for q in t[2:]}) - set(states)
    if unknown:
        raise ValueError(f"undeclared states: {' '.join(csorted(unknown))}")
    nodes = tree.nodes
    node_id = {n: i for i, n in enumerate(nodes)}
    if tree.root not in node_id or not {*tree.succ0.values(), *tree.succ1.values()} <= node_id.keys():
        raise ValueError("the tree's root or a successor is not one of its nodes")
    return ([tree.label[n] for n in nodes], [node_id[tree.succ0[n]] for n in nodes],
            [node_id[tree.succ1[n]] for n in nodes], node_id[tree.root])


def build_tree_game_arena(
    *,
    states: Sequence[str],
    eloise: frozenset[str],
    split_transitions: frozenset,
    local_transitions: frozenset,
    initial_state: str,
    tree: RegularTree,
) -> Arena:
    """Shared arena construction for split (and optionally local) transitions.

    ``states`` come in rank order (callers pass them canonically sorted).
    State vertices (q, n) belong to their state's owner; every split
    transition contributes a random vertex over the two children, with one
    successor when they coincide; local transitions move the state without
    leaving the node.  A state vertex lists its local targets, then its
    random vertices, each group in the order of the state names.
    """
    # The arena is built without the arena checks; its edges stay inside it
    # when every state and node they name is declared.
    labels, left, right, root = _tree_index(
        states, initial_state, split_transitions, local_transitions, tree)
    width = len(labels)
    base = {q: i * width for i, q in enumerate(states)}
    split_by: dict = {}
    for (q, a, q0, q1) in sorted(split_transitions):
        split_by.setdefault((q, a), []).append((base[q0], base[q1]))
    local_by: dict = {}
    for (q, a, q2) in sorted(local_transitions):
        local_by.setdefault((q, a), []).append(base[q2])

    succ: list = []
    coins: list = []  # successors of the random vertices, in id order
    first_coin = len(states) * width
    owner = bytearray()
    for q in states:
        for i, a in enumerate(labels):
            out = [b + i for b in local_by.get((q, a), ())]
            for (b0, b1) in split_by.get((q, a), ()):
                out.append(first_coin + len(coins))
                c0, c1 = b0 + left[i], b1 + right[i]
                coins.append((c0,) if c0 == c1 else (c0, c1))
            if not out:
                raise FormatError(f"no transition for state {q} on symbol {a}")
            succ.append(tuple(out))
        owner += bytes((OWN_ELOISE if q in eloise else OWN_ABELARD,)) * width
    owner += bytes((OWN_RANDOM,)) * len(coins)
    return Arena(succ + coins, bytes(owner), base[initial_state] + root)


def name_arena(arena: Arena, states: Sequence[str], tree: RegularTree) -> StochasticArena:
    """The named, weighted arena of the file boundary: id (q, n) is
    `state_vertex(q, n)`, and a random id, whose only predecessor is the
    state vertex (q, n), is `random_vertex(q, n, q0, q1)` with q0 and q1
    the states of its children, an even split over them."""
    width = len(tree.nodes)
    first_coin = len(states) * width
    names: list = [state_vertex(states[v // width], tree.nodes[v % width])
                   for v in range(first_coin)]
    names += [None] * (len(arena.succ) - first_coin)
    for v in range(first_coin):
        q, n = states[v // width], tree.nodes[v % width]
        for r in arena.succ[v]:
            if r >= first_coin:
                c = arena.succ[r]
                names[r] = random_vertex(q, n, states[c[0] // width], states[c[-1] // width])
    edges = {names[v]: tuple(names[w] for w in ws) for v, ws in enumerate(arena.succ)}
    dist = {names[r]: Distribution.half_half(names[c[0]], names[c[-1]])
            for r, c in enumerate(arena.succ) if r >= first_coin}
    owned = {code: frozenset(names[v] for v, o in enumerate(arena.owner) if o == code)
             for code in (OWN_ELOISE, OWN_ABELARD, OWN_RANDOM)}
    return StochasticArena._trusted(
        eloise=owned[OWN_ELOISE],
        abelard=owned[OWN_ABELARD],
        random=owned[OWN_RANDOM],
        edges=edges,
        dist=dist,
        initial=names[arena.initial],
    )


@dataclass(frozen=True)
class AcceptanceGame:
    arena: StochasticArena
    target: frozenset  # state vertices whose state is accepting


def build_acceptance_game(
    a: AlternatingTreeAutomaton, final: frozenset, t: RegularTree
) -> AcceptanceGame:
    """The membership game with named vertices, for the file boundary and
    the oracles."""
    states = csorted(a.states)
    arena = name_arena(build_tree_game_arena(
        states=states, eloise=a.eloise, split_transitions=a.transitions,
        local_transitions=frozenset(), initial_state=a.initial, tree=t), states, t)
    target = frozenset(state_vertex(q, n) for q in final for n in t.nodes)
    return AcceptanceGame(arena, target)


def _node_game(a: AlternatingTreeAutomaton, states: Sequence[str], t: RegularTree) -> tuple:
    """The pebble game on the tree's nodes, checked as `build_tree_game_arena`
    checks it: per symbol id, the rows as triples of state bits (q, q0, q1),
    bit rank(q) for q; and per node id, its symbol id, its left and right
    child ids and its parents, the distinct nodes that have it as a child.
    """
    labels, left, right, _ = _tree_index(states, a.initial, a.transitions, (), t)
    bit = {q: 1 << i for i, q in enumerate(states)}
    symbols = {s: k for k, s in enumerate(dict.fromkeys(labels))}  # tree order
    has = {row[:2] for row in a.transitions}
    for q in states:
        for s in symbols:
            if (q, s) not in has:
                raise FormatError(f"no transition for state {q} on symbol {s}")
    rows: list = [[] for _ in symbols]
    for (q, s, q0, q1) in a.transitions:
        if q in bit and s in symbols:
            rows[symbols[s]].append((bit[q], bit[q0], bit[q1]))
    parents: list = [[] for _ in labels]
    for p, children in enumerate(zip(left, right)):
        for c in set(children):
            parents[c].append(p)
    return rows, [symbols[s] for s in labels], left, right, parents


def _node_attractor(game: tuple, region: list, base: list, mine: int) -> list:
    """The attractor of `base` inside `region`, a state mask per node of the
    `_node_game`, for the player whose states are the bits of `mine`.

    A state of that player joins with some row that lies in the region and
    hits the attractor, any other state once every row that lies in the
    region does.  A worklist over nodes: each is evaluated at the start and
    again when a child's mask grows.  An evaluation reads only the symbol
    and the children's masks, so each distinct one is made once per call.
    """
    rows, sym, left, right, parents = game
    joined = list(base)
    work = list(range(len(joined)))
    queued = bytearray(b"\x01") * len(joined)
    ready_for: dict = {}
    while work:
        n = work.pop()
        queued[n] = 0
        todo = region[n] & ~joined[n]
        if not todo:
            continue
        l, r = left[n], right[n]
        key = (sym[n], region[l], region[r], joined[l], joined[r])
        ready = ready_for.get(key)
        if ready is None:
            _, rl, rr, xl, xr = key
            hit = miss = 0  # states with a row in the region that hits, that misses
            for q, b0, b1 in rows[sym[n]]:
                if b0 & rl and b1 & rr:
                    if b0 & xl or b1 & xr:
                        hit |= q
                    else:
                        miss |= q
            ready = ready_for[key] = hit & mine | ~miss & ~mine
        add = todo & ready
        if add:
            joined[n] |= add
            for p in parents[n]:
                if not queued[p]:
                    queued[p] = 1
                    work.append(p)
    return joined


def buchi_node_region(
    a: AlternatingTreeAutomaton, states: Sequence[str], final, t: RegularTree
) -> list:
    """The almost-sure Büchi region of the pebble game as a state mask per
    node id: bit rank(q) of entry rank(n), with ``states`` in rank order,
    is set iff the state vertex (q, n) is in the region of
    `games._as_buchi_core` on the arena of `build_tree_game_arena`, whose
    checks and messages it keeps.

    Why it is the same fixed point.  The coin vertex of row (q0, q1) at
    (q, n) has one predecessor, (q, n), and the children (q0, left n) and
    (q1, right n).  Coins attract in both attractors, so a coin joins
    either as soon as one of its children has; and the opponent's
    attractor, which the region loses, takes a coin once it takes a child,
    so a coin is in the region iff both its children are.  So every set
    the core holds is fixed by its state vertices.  For a player P and a
    set X in the region R, a state q of R at node n joins X
    - if q is P's: iff some row of (q, label n) lies in R (q0 in R[left n]
      and q1 in R[right n]) and hits X (q0 in X[left n] or q1 in
      X[right n]);
    - otherwise: iff every row that lies in R hits X, vacuously if none
      does, as the core's `later` list has it.  (The core counts his states
      down from their degree in her attractor: all their rows lie in R,
      since his attractor takes any state of his with a row that leaves R.)
    Her attractor (P = Eloise) starts from the target in R, his (P =
    Abelard) from R minus hers; R loses his, until hers covers R.
    """
    game = _node_game(a, states, t)
    hers = sum(1 << i for i, q in enumerate(states) if q in a.eloise)
    goal = sum(1 << i for i, q in enumerate(states) if q in final)
    region = [(1 << len(states)) - 1] * len(t.nodes)
    while True:
        won = _node_attractor(game, region, [goal & m for m in region], hers)
        missed = [m & ~w for m, w in zip(region, won)]
        if not any(missed):
            return region
        lost = _node_attractor(game, region, missed, ~hers)
        region = [m & ~x for m, x in zip(region, lost)]


def _node_moves(game: tuple, k: int) -> list:
    """The moves at the state vertices of the `_node_game` of k states: id
    rank(q)·|N| + n has one support {(q0, left n), (q1, right n)} per row of
    (q, label n), equal ones kept, in the sorted order of the rows' names
    and the arena's coins.  A coin has one predecessor, so an end component
    holds it only with its state vertex: leaving coins out keeps verdicts."""
    rows, sym, left, right, _ = game
    ordered = [sorted(rs) for rs in rows]  # as the names, since bits follow the rank
    base = {1 << i: i * len(sym) for i in range(k)}  # state bit -> id at node 0
    return [tuple(frozenset((base[b0] + left[n], base[b1] + right[n]))
                  for p, b0, b1 in ordered[s] if p == 1 << q)
            for q in range(k) for n, s in enumerate(sym)]


def qualitative_membership(
    a: AlternatingTreeAutomaton, cond: AcceptanceCondition, t: RegularTree
) -> bool:
    """Does the protagonist win the pebble game almost surely on this tree?
    Both conditions are decided on the `_node_game`."""
    states = csorted(a.states)
    if cond.kind == BUCHI:
        region = buchi_node_region(a, states, cond.target, t)
        return bool(region[t.nodes.index(t.root)] >> states.index(a.initial) & 1)
    moves = _node_moves(_node_game(a, states, t), len(states))
    w = len(t.nodes)
    mine, goal = ([v for i, q in enumerate(states) if q in qs for v in range(i * w, i * w + w)]
                  for qs in (a.eloise, cond.target))
    root = states.index(a.initial) * w + t.nodes.index(t.root)
    return almost_sure_cobuchi(moves, mine, root, goal)
