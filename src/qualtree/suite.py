"""The solver-versus-oracle cross-check suite that `qualtree suite` runs,
and its generator of seeded alternating Büchi automata.

The generator is tuned so the blunt enumeration oracle stays tractable:
the protagonist's local-choice space is kept small while opponent
branching stays free.  Every run is a pure function of the seed.  The
other seeded generators, which only the tests and the probe scripts draw,
are in the tests' `draws` module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from qualtree.automata import Alphabet, AlternatingTreeAutomaton
from qualtree.emptiness import (
    build_emptiness_game,
    check_emptiness,
    check_observation_strategy,
    solve_by_enumeration,
)


def random_alternating_buchi(
    rng: random.Random, max_states: int = 4, max_symbols: int = 2
) -> tuple[AlternatingTreeAutomaton, frozenset]:
    """Complete alternating automaton with a small protagonist choice space."""
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    sigma = Alphabet(tuple("abc"[: rng.randint(1, max_symbols)]))
    n_eloise = min(rng.choice([0, 1, 1, 1, 2]), n)
    eloise = frozenset(rng.sample(states, n_eloise))
    transitions = set()
    for q in states:
        for s in sigma:
            if q in eloise:
                k = rng.choice([1, 1, 2]) if n_eloise <= 1 else rng.choice([1, 1, 1, 2])
            else:
                k = rng.choice([1, 1, 2, 2, 3])
            while True:
                rows = {
                    (q, s, rng.choice(states), rng.choice(states)) for _ in range(k)
                }
                if rows:
                    break
            transitions |= rows
    final = frozenset(q for q in states if rng.random() < 0.55)
    aut = AlternatingTreeAutomaton(
        alphabet=sigma,
        states=frozenset(states),
        initial="q0",
        transitions=frozenset(transitions),
        complete=True,
        eloise=eloise,
        abelard=frozenset(states) - eloise,
    )
    return aut, final


@dataclass(frozen=True)
class SuiteRecord:
    index: int
    verdict: str
    agree: bool  # solver verdict == oracle verdict
    witness_ok: bool | None  # None when there is no witness to verify
    detail: str

    @property
    def ok(self) -> bool:
        return self.agree and self.witness_ok is not False

    def line(self) -> str:
        witness = "n/a" if self.witness_ok is None else ("yes" if self.witness_ok else "NO")
        agree = "yes" if self.agree else "NO"
        return (
            f"instance {self.index:04d}: verdict={self.verdict} "
            f"agree={agree} witness-ok={witness} {self.detail}"
        )


def emptiness_crosscheck(seed: int, count: int, max_states: int) -> list[SuiteRecord]:
    """Criterion suite: efficient emptiness decision versus the knowledge-set
    strategy enumeration.  A non-empty verdict's strategy must also pass the
    exact product check; `check_emptiness` has already checked its witness
    tree by membership."""
    rng = random.Random(seed)
    records = []
    for i in range(count):
        aut, final = random_alternating_buchi(rng, max_states=max_states)
        result = check_emptiness(aut, final)
        game, target = build_emptiness_game(aut, final)
        oracle_verdict, _ = solve_by_enumeration(game, target)
        agree = (result.kind == "nonempty") == oracle_verdict
        witness_ok = None
        detail = f"states={len(aut.states)} actions={len(game.actions)}"
        if result.kind == "nonempty":
            witness_ok = check_observation_strategy(game, target, result.strategy)
            detail += f" witness-nodes={len(result.witness.nodes)}"
        records.append(SuiteRecord(i, result.kind, agree, witness_ok, detail))
    return records
