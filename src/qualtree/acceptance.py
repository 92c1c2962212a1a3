"""Membership of regular trees: the pebble game, decided on a finite quotient.

The defining game walks a pebble down the infinite tree; here it is built
over the finite node graph instead.  The quotient map respects ownership,
branching and target membership, so the qualitative verdict is unchanged;
the test suite additionally checks invariance under duplicated-node
presentations of the same tree.

The quotient is an integer `games.Arena` with no weights, since the
qualitative verdict reads only supports.  With the states in canonical
order and the nodes in the tree's order, state vertex (q, n) has id
rank(q)·|N| + rank(n); one random vertex per matching split row follows,
in the order the state vertices list them.  Names (`state_vertex`,
`random_vertex`) and the even split of each random vertex are given only
at the file boundary, by `name_arena`.
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
    almost_sure_buchi,
    almost_sure_cobuchi,
)
from qualtree.ordering import csorted
from qualtree.trees import RegularTree


def state_vertex(q: str, n: str) -> tuple:
    return ("s", q, n)


def random_vertex(q: str, n: str, q0: str, q1: str) -> tuple:
    return ("r", q, n, q0, q1)


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
    unknown = ({initial_state} | {t[2] for t in local_transitions}
               | {q for t in split_transitions for q in t[2:]}) - set(states)
    if unknown:
        raise ValueError(f"undeclared states: {' '.join(csorted(unknown))}")
    nodes = tree.nodes
    node_id = {n: i for i, n in enumerate(nodes)}
    if tree.root not in node_id or not {*tree.succ0.values(), *tree.succ1.values()} <= node_id.keys():
        raise ValueError("the tree's root or a successor is not one of its nodes")

    width = len(nodes)
    base = {q: i * width for i, q in enumerate(states)}
    split_by: dict = {}
    for (q, a, q0, q1) in sorted(split_transitions):
        split_by.setdefault((q, a), []).append((base[q0], base[q1]))
    local_by: dict = {}
    for (q, a, q2) in sorted(local_transitions):
        local_by.setdefault((q, a), []).append(base[q2])
    labels = [tree.label[n] for n in nodes]
    left = [node_id[tree.succ0[n]] for n in nodes]
    right = [node_id[tree.succ1[n]] for n in nodes]

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
    return Arena(succ + coins, bytes(owner), base[initial_state] + node_id[tree.root])


def state_ids(states: Sequence[str], subset, tree: RegularTree) -> frozenset:
    """Ids of the state vertices whose state is in ``subset``."""
    width = len(tree.nodes)
    return frozenset(i * width + j for i, q in enumerate(states) if q in subset
                     for j in range(width))


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


def _membership_arena(a: AlternatingTreeAutomaton, states: Sequence[str], t: RegularTree) -> Arena:
    return build_tree_game_arena(
        states=states,
        eloise=a.eloise,
        split_transitions=a.transitions,
        local_transitions=frozenset(),
        initial_state=a.initial,
        tree=t,
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
    arena = name_arena(_membership_arena(a, states, t), states, t)
    target = frozenset(state_vertex(q, n) for q in final for n in t.nodes)
    return AcceptanceGame(arena, target)


def qualitative_membership(
    a: AlternatingTreeAutomaton, cond: AcceptanceCondition, t: RegularTree
) -> bool:
    """Does the protagonist win the pebble game almost surely on this tree?"""
    states = csorted(a.states)
    arena = _membership_arena(a, states, t)
    target = state_ids(states, cond.target, t)
    if cond.kind == BUCHI:
        region, _ = almost_sure_buchi(arena, target)
        return arena.initial in region
    return almost_sure_cobuchi(arena, target)
