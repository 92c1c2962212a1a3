"""Membership of regular trees: the pebble game, decided on a finite quotient.

The defining game walks a pebble down the infinite tree; here it is built
over the finite node graph instead.  The quotient map respects ownership,
branching and target membership, so the qualitative verdict is unchanged;
the test suite additionally checks invariance under duplicated-node
presentations of the same tree.

Membership is decided on one encoding of that game, `_node_game`, with no
coin vertices: Büchi with one bitmask of states per node for the region
and each attractor (`buchi_node_region`, on `nodegraph.attractor`),
co-Büchi by the nested fixed point of `games.almost_sure_cobuchi` on the
rows of each state vertex (`_node_moves`).

The pebble arena itself is kept as the reference that the tests and the
probes tie the node game to; no verdict reads it.  It is built once, on
names: `build_acceptance_game` lists the state vertices (`state_vertex`)
first, states in canonical order and nodes in the tree's order, and then
one random vertex (`random_vertex`, an even split) per matching row, in
the order the state vertices list them.  `build_tree_game_arena` numbers
it in that order with `games.number`, so state vertex (q, n) has id
rank(q)·|N| + rank(n) and the random vertices follow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from qualtree import nodegraph
from qualtree.automata import (
    BUCHI,
    AcceptanceCondition,
    AlternatingTreeAutomaton,
)
from qualtree.dist import Distribution
from qualtree.errors import FormatError
from qualtree.games import Arena, StochasticArena, almost_sure_cobuchi, number
from qualtree.ordering import csorted
from qualtree.trees import RegularTree


def state_vertex(q: str, n: str) -> tuple:
    return ("s", q, n)


def random_vertex(q: str, n: str, q0: str, q1: str) -> tuple:
    return ("r", q, n, q0, q1)


def _tree_index(states, initial_state, split_transitions, tree: RegularTree):
    """Check that every state the rows name and the initial state are
    declared, and that the root and every successor are nodes; return the
    labels, the left and the right child ids, by node id in `tree.nodes`
    order, and the root's id."""
    unknown = ({initial_state} | {q for t in split_transitions for q in t[2:]}) - set(states)
    if unknown:
        raise ValueError(f"undeclared states: {' '.join(csorted(unknown))}")
    nodes = set(tree.nodes)
    if tree.root not in nodes or not {*tree.succ0.values(), *tree.succ1.values()} <= nodes:
        raise ValueError("the tree's root or a successor is not one of its nodes")
    return nodegraph.tree_places(tree)


@dataclass(frozen=True)
class AcceptanceGame:
    arena: StochasticArena
    target: frozenset  # state vertices whose state is accepting


def build_acceptance_game(
    a: AlternatingTreeAutomaton, final: frozenset, t: RegularTree
) -> AcceptanceGame:
    """The membership game with named vertices, for the file boundary and
    the oracles.

    State vertex (q, n) belongs to q's owner.  Each row (q, label n, q0, q1)
    gives it a random vertex with an even split over (q0, left n) and
    (q1, right n), one successor when they coincide.  The state vertices
    come first, states in canonical order and nodes in tree order, each
    listing its random vertices in the sorted order of the rows; the random
    vertices follow in that order.
    """
    states = csorted(a.states)
    _tree_index(states, a.initial, a.transitions, t)
    rows: dict = {}
    for (q, s, q0, q1) in sorted(a.transitions):
        rows.setdefault((q, s), []).append((q0, q1))
    edges: dict = {}
    coins: dict = {}
    dist: dict = {}
    for q in states:
        for n in t.nodes:
            out = []
            for (q0, q1) in rows.get((q, t.label[n]), ()):
                r = random_vertex(q, n, q0, q1)
                c0, c1 = state_vertex(q0, t.succ0[n]), state_vertex(q1, t.succ1[n])
                coins[r] = (c0,) if c0 == c1 else (c0, c1)
                dist[r] = Distribution.half_half(c0, c1)
                out.append(r)
            if not out:
                raise FormatError(f"no transition for state {q} on symbol {t.label[n]}")
            edges[state_vertex(q, n)] = tuple(out)
    hers = frozenset(state_vertex(q, n) for q in states if q in a.eloise for n in t.nodes)
    arena = StochasticArena._trusted(
        eloise=hers, abelard=frozenset(edges) - hers, random=frozenset(coins),
        edges=edges | coins, dist=dist, initial=state_vertex(a.initial, t.root))
    target = frozenset(state_vertex(q, n) for q in final for n in t.nodes)
    return AcceptanceGame(arena, target)


def build_tree_game_arena(a: AlternatingTreeAutomaton, t: RegularTree) -> Arena:
    """The pebble arena on ids, `games.number` of the named one: state
    vertex (q, n) is rank(q)·|N| + rank(n), and the random vertices follow."""
    return number(build_acceptance_game(a, frozenset(), t).arena, ())[0]


def _node_game(a: AlternatingTreeAutomaton, states: Sequence[str], t: RegularTree) -> tuple:
    """The pebble game on the tree's nodes as a `nodegraph` node game,
    checked as `build_acceptance_game` checks it: per symbol id, the rows
    as triples of state bits (q, q0, q1), bit rank(q) for q; and per node
    id, its symbol id, its left and right child ids and its parents, the
    distinct nodes that have it as a child.
    """
    labels, left, right, _ = _tree_index(states, a.initial, a.transitions, t)
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
    return rows, [symbols[s] for s in labels], left, right, nodegraph.parents(left, right)


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
        won = nodegraph.attractor(game, region, [goal & m for m in region], hers)
        missed = [m & ~w for m, w in zip(region, won)]
        if not any(missed):
            return region
        lost = nodegraph.attractor(game, region, missed, ~hers)
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
