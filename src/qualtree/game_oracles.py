"""Exhaustive positional-strategy oracles for the game solvers.

These are the normative reference implementations, written as the
definition of the almost-sure winning set: a vertex is won when some
positional strategy of the protagonist (positional strategies suffice on
finite arenas) passes the exact strategy check played from that vertex.
Slow on purpose; the fixed-point solvers must agree with them on the
randomized suites.
"""

from __future__ import annotations

from qualtree.games import (
    StochasticArena,
    check_buchi_strategy,
    check_reach_strategy,
    eloise_positional_strategies,
    with_initial,
)


def _won(g: StochasticArena, target: frozenset, check) -> frozenset:
    strategies = list(eloise_positional_strategies(g))
    return frozenset(
        v for v in g.vertices
        if any(check(with_initial(g, v), target, s) for s in strategies)
    )


def oracle_almost_sure_buchi(g: StochasticArena, target) -> frozenset:
    return _won(g, frozenset(target), check_buchi_strategy)


def oracle_almost_sure_reach(g: StochasticArena, target) -> frozenset:
    return _won(g, frozenset(target), check_reach_strategy)
