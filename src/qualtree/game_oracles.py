"""Exhaustive positional-strategy oracles for the game solvers.

These are the normative reference implementations, written as the
definition of the almost-sure winning set: a vertex is won when some
positional strategy of the protagonist (positional strategies suffice on
finite arenas) passes the exact strategy check played from that vertex.
The check refutes a strategy by an end component of the MDP it leaves
that the opponent can reach and then stay in, so one decomposition per
strategy decides every start vertex at once.  A named arena is numbered
once, and the won vertices are named back.  Slow on purpose; the solvers
must agree with them on the randomized suites, and `cli solve-game
--oracle` compares them on its input.
"""

from __future__ import annotations

from qualtree.games import (
    StochasticArena,
    eloise_positional_strategies,
    fix_strategy,
    mec_decomposition,
    number,
)
from qualtree.graphs import reachable


def _won(g: StochasticArena, target, refuting, safe_path: bool = False) -> frozenset:
    """The vertices that some strategy wins from.  Under a strategy, a
    start vertex loses exactly when it reaches one of the components that
    ``refuting(view, goal, safe)`` gives, through vertices outside the
    target only if ``safe_path``."""
    a, goal, names = number(g, target)
    every = frozenset(range(len(names)))
    safe = every - goal
    won: set = set()
    for s in eloise_positional_strategies(a):
        view = fix_strategy(a, s.choice)
        pred: list = [[] for _ in names]
        for v in (safe if safe_path else every):
            for w in view.succ(v):
                pred[w].append(v)
        lost = reachable(set().union(*refuting(view, goal, safe)), pred.__getitem__)
        won |= every - lost
    return frozenset(names[v] for v in won)


def _safe_components(view, goal, safe) -> list:
    return mec_decomposition(view, within=safe)


def oracle_almost_sure_buchi(g: StochasticArena, target) -> frozenset:
    """The opponent refutes her strategy by an end component outside the
    target, reached by any path."""
    return _won(g, target, _safe_components)


def oracle_almost_sure_reach(g: StochasticArena, target) -> frozenset:
    """The same, reached by a path that avoids the target."""
    return _won(g, target, _safe_components, safe_path=True)


def oracle_almost_sure_cobuchi(g: StochasticArena, target) -> frozenset:
    """Her strategy wins when, in the MDP it leaves, the opponent cannot
    visit the target infinitely often with positive probability: he
    refutes it by an end component that meets the target."""
    return _won(g, target, lambda view, goal, safe: [
        c for c in mec_decomposition(view) if c & goal])
