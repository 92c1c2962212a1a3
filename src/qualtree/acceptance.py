"""Membership of regular trees: the pebble game, decided on a finite quotient.

The defining game walks a pebble down the infinite tree; here it is built
over the finite node graph instead.  The quotient map respects ownership,
branching probabilities and target membership, so the qualitative verdict
is unchanged; the test suite additionally checks invariance under
duplicated-node presentations of the same tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from qualtree.automata import (
    BUCHI,
    AcceptanceCondition,
    AlternatingTreeAutomaton,
)
from qualtree.dist import Distribution
from qualtree.errors import FormatError
from qualtree.games import (
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
    states: frozenset[str],
    eloise: frozenset[str],
    split_transitions: frozenset,
    local_transitions: frozenset,
    initial_state: str,
    tree: RegularTree,
) -> StochasticArena:
    """Shared arena construction for split (and optionally local) transitions.

    State vertices (q, n) belong to their state's owner; every split
    transition contributes a random vertex with an even split over the two
    children, merged to a point mass when they coincide; local transitions
    move the state without leaving the node.
    """
    # The arena is built without the arena checks; its edges stay inside it
    # when every state and node they name is declared.
    unknown = ({initial_state} | {t[2] for t in local_transitions}
               | {q for t in split_transitions for q in t[2:]}) - states
    if unknown:
        raise ValueError(f"undeclared states: {' '.join(csorted(unknown))}")
    nodes = frozenset(tree.nodes)
    if tree.root not in nodes or not {*tree.succ0.values(), *tree.succ1.values()} <= nodes:
        raise ValueError("the tree's root or a successor is not one of its nodes")

    split_by: dict = {}
    for (q, a, q0, q1) in split_transitions:
        split_by.setdefault((q, a), []).append((q0, q1))
    local_by: dict = {}
    for (q, a, q2) in local_transitions:
        local_by.setdefault((q, a), []).append(q2)
    for rows in (split_by, local_by):
        for row in rows.values():
            row.sort()

    ve, va, vr = set(), set(), set()
    edges: dict = {}
    dist: dict = {}
    for q in csorted(states):
        owned = ve if q in eloise else va
        for n in tree.nodes:
            v = state_vertex(q, n)
            owned.add(v)
            a = tree.label[n]
            out = [state_vertex(q2, n) for q2 in local_by.get((q, a), ())]
            for (q0, q1) in split_by.get((q, a), ()):
                r = random_vertex(q, n, q0, q1)
                vr.add(r)
                out.append(r)
                c0 = state_vertex(q0, tree.succ0[n])
                c1 = state_vertex(q1, tree.succ1[n])
                dist[r] = Distribution.half_half(c0, c1)
                edges[r] = (c0,) if c0 == c1 else (c0, c1)
            if not out:
                raise FormatError(f"no transition for state {q} on symbol {a}")
            edges[v] = tuple(out)
    return StochasticArena._trusted(
        eloise=frozenset(ve),
        abelard=frozenset(va),
        random=frozenset(vr),
        edges=edges,
        dist=dist,
        initial=state_vertex(initial_state, tree.root),
    )


@dataclass(frozen=True)
class AcceptanceGame:
    arena: StochasticArena
    target: frozenset  # state vertices whose state is accepting


def build_acceptance_game(
    a: AlternatingTreeAutomaton, final: frozenset, t: RegularTree
) -> AcceptanceGame:
    arena = build_tree_game_arena(
        states=a.states,
        eloise=a.eloise,
        split_transitions=a.transitions,
        local_transitions=frozenset(),
        initial_state=a.initial,
        tree=t,
    )
    target = frozenset(state_vertex(q, n) for q in final for n in t.nodes)
    return AcceptanceGame(arena, target)


def qualitative_membership(
    a: AlternatingTreeAutomaton, cond: AcceptanceCondition, t: RegularTree
) -> bool:
    """Does the protagonist win the pebble game almost surely on this tree?"""
    game = build_acceptance_game(a, cond.target, t)
    if cond.kind == BUCHI:
        region, _ = almost_sure_buchi(game.arena, game.target)
        return game.arena.initial in region
    return almost_sure_cobuchi(game.arena, game.target)
