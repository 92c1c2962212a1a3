"""Exhaustive positional-strategy oracles for the game solvers.

These are the normative reference implementations, written as the
definition of the almost-sure winning set: a vertex is won when some
positional strategy of the protagonist (positional strategies suffice on
finite arenas) passes the exact strategy check played from that vertex.
A named arena is numbered once, and the won vertices are named back.
Slow on purpose; the solvers must agree with them on the randomized
suites, and `cli solve-game --oracle` compares them on its input.
"""

from __future__ import annotations

from dataclasses import replace

from qualtree.games import (
    StochasticArena,
    _positive_buchi_view,
    check_buchi_strategy,
    check_reach_strategy,
    eloise_positional_strategies,
    fix_strategy,
    number,
)


def _won(g: StochasticArena, target, check) -> frozenset:
    a, goal, names = number(g, target)
    strategies = list(eloise_positional_strategies(a))
    return frozenset(
        names[v] for v in range(len(names))
        if any(check(replace(a, initial=v), goal, s) for s in strategies)
    )


def oracle_almost_sure_buchi(g: StochasticArena, target) -> frozenset:
    return _won(g, target, check_buchi_strategy)


def oracle_almost_sure_reach(g: StochasticArena, target) -> frozenset:
    return _won(g, target, check_reach_strategy)


def oracle_almost_sure_cobuchi(g: StochasticArena, target) -> frozenset:
    """Her strategy wins when, in the MDP it leaves, the opponent cannot
    visit the target infinitely often with positive probability."""
    return _won(g, target, lambda a, goal, s: not _positive_buchi_view(
        fix_strategy(a, s.choice), goal))
