"""Automaton types over a fixed finite alphabet, plus structural validation.

All values are immutable after construction.  ``validate`` returns a list
of violated invariants (violations are data, not exceptions); operations
that state "pre: valid" assume a clean report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from qualtree.dist import Distribution
from qualtree.ordering import csorted

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Alphabet:
    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must be non-empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")

    def __contains__(self, s: str) -> bool:
        return s in self.symbols

    def __iter__(self):
        return iter(self.symbols)

    def extend(self, symbol: str) -> "Alphabet":
        if symbol in self.symbols:
            raise ValueError(f"symbol {symbol!r} already in alphabet")
        return Alphabet(tuple(csorted(self.symbols + (symbol,))))


BUCHI = "buchi"
COBUCHI = "cobuchi"


@dataclass(frozen=True)
class AcceptanceCondition:
    kind: str  # BUCHI or COBUCHI
    target: frozenset[str]

    def __post_init__(self):
        if self.kind not in (BUCHI, COBUCHI):
            raise ValueError(f"unknown acceptance kind {self.kind!r}")


def buchi(target) -> AcceptanceCondition:
    return AcceptanceCondition(BUCHI, frozenset(target))


def cobuchi(target) -> AcceptanceCondition:
    return AcceptanceCondition(COBUCHI, frozenset(target))


@dataclass(frozen=True)
class TreeAutomaton:
    """Binary tree automaton with split transitions (q, a, q0, q1).

    ``complete`` is a declared flag, not an invariant: validation checks
    it only when declared, while run-based procedures check the actual
    rows they need and fail loudly on a missing one.
    """

    alphabet: Alphabet
    states: frozenset[str]
    initial: str
    transitions: frozenset[tuple[str, str, str, str]]
    complete: bool = False

    def rows(self, q: str, a: str) -> list[tuple[str, str, str, str]]:
        return csorted(t for t in self.transitions if t[0] == q and t[1] == a)

    def is_actually_complete(self) -> bool:
        return not missing_rows(self.states, self.alphabet, self.transitions)


def missing_rows(states, alphabet, transitions) -> list[tuple[str, str]]:
    """The (state, symbol) pairs that start no transition row, in the order
    of `states` and `alphabet`."""
    pairs = {(t[0], t[1]) for t in transitions}
    return [(q, a) for q in states for a in alphabet if (q, a) not in pairs]


@dataclass(frozen=True)
class AlternatingTreeAutomaton(TreeAutomaton):
    eloise: frozenset[str] = field(default_factory=frozenset)
    abelard: frozenset[str] = field(default_factory=frozenset)


@dataclass(frozen=True)
class _ProbAutomaton:
    """The fields and row lookup of the two probabilistic automata; each
    stays its own type, so equality and ``isinstance`` tell them apart."""

    alphabet: Alphabet
    states: frozenset[str]
    initial: str
    delta: dict  # (state, symbol) -> Distribution

    def dist(self, q: str, a: str) -> Distribution:
        try:
            return self.delta[(q, a)]
        except KeyError:
            raise KeyError(f"no transition row for ({q!r}, {a!r})") from None


@dataclass(frozen=True)
class ProbWordAutomaton(_ProbAutomaton):
    """``delta`` maps (state, symbol) to a Distribution over states."""


@dataclass(frozen=True)
class ProbTreeAutomaton(_ProbAutomaton):
    """``delta`` maps (state, symbol) to a Distribution over state pairs."""


@dataclass(frozen=True)
class NonZeroAutomaton:
    """Automaton whose acceptance mixes sure, almost-sure and positive clauses.

    Only represented structurally here: the toolkit builds its acceptance
    arena but does not solve the three-clause winning condition.
    """

    alphabet: Alphabet
    states: frozenset[str]
    order: tuple[str, ...]  # ascending total order on states
    initial: str
    eloise: frozenset[str]
    abelard: frozenset[str]
    local_transitions: frozenset[tuple[str, str, str]]
    split_transitions: frozenset[tuple[str, str, str, str]]
    f_forall: frozenset[str]
    f_one: frozenset[str]
    f_pos: frozenset[str]


def _check_distribution(report, owner, d):
    if not isinstance(d, Distribution):
        report.append(f"{owner} is not a Distribution")
        return
    if d.mass() != 1:
        report.append(f"distribution {owner} sums to {d.mass()}")


def _check_partition(report, states, eloise, abelard):
    for q in csorted(eloise & abelard):
        report.append(f"state {q} is in both the eloise and abelard sets")
    for q in csorted(states - (eloise | abelard)):
        report.append(f"state {q} belongs to neither player")
    for q in csorted((eloise | abelard) - states):
        report.append(f"player set mentions unknown state {q}")


def validate(obj) -> list[str]:
    """Structural validation report; empty iff every type invariant holds."""
    report: list[str] = []
    if isinstance(obj, (ProbWordAutomaton, ProbTreeAutomaton)):
        if obj.initial not in obj.states:
            report.append(f"initial state {obj.initial} not in state set")
        for q in csorted(obj.states):
            for a in obj.alphabet:
                if (q, a) not in obj.delta:
                    report.append(f"delta undefined for {q},{a}")
        pairs = isinstance(obj, ProbTreeAutomaton)
        for (q, a) in sorted(obj.delta):
            if q not in obj.states:
                report.append(f"delta row for unknown state {q}")
            if a not in obj.alphabet:
                report.append(f"delta row for unknown symbol {a}")
            d = obj.delta[(q, a)]
            _check_distribution(report, f"{q},{a}", d)
            if isinstance(d, Distribution):
                for x in csorted(d.support()):
                    ok = (
                        isinstance(x, tuple) and len(x) == 2 and all(y in obj.states for y in x)
                        if pairs
                        else x in obj.states
                    )
                    if not ok:
                        report.append(f"delta {q},{a} targets unknown {x!r}")
        return report
    if isinstance(obj, NonZeroAutomaton):
        if obj.initial not in obj.states:
            report.append(f"initial state {obj.initial} not in state set")
        _check_partition(report, obj.states, obj.eloise, obj.abelard)
        if len(obj.order) != len(obj.states) or set(obj.order) != obj.states:
            report.append("order is not a permutation of the state set")
        for name, sub in (("forall", obj.f_forall), ("one", obj.f_one), ("pos", obj.f_pos)):
            for q in csorted(sub - obj.states):
                report.append(f"marking set {name} mentions unknown state {q}")
        for t in csorted(obj.local_transitions):
            q, a, q2 = t
            if q not in obj.states or q2 not in obj.states or a not in obj.alphabet:
                report.append(f"ill-typed local transition {t}")
        for t in csorted(obj.split_transitions):
            q, a, q0, q1 = t
            if not (q in obj.states and q0 in obj.states and q1 in obj.states and a in obj.alphabet):
                report.append(f"ill-typed split transition {t}")
        return report
    if isinstance(obj, TreeAutomaton):
        if obj.initial not in obj.states:
            report.append(f"initial state {obj.initial} not in state set")
        if isinstance(obj, AlternatingTreeAutomaton):
            _check_partition(report, obj.states, obj.eloise, obj.abelard)
        for t in csorted(obj.transitions):
            q, a, q0, q1 = t
            if not (q in obj.states and q0 in obj.states and q1 in obj.states and a in obj.alphabet):
                report.append(f"ill-typed transition {t}")
        if obj.complete:
            for q, a in missing_rows(csorted(obj.states), obj.alphabet, obj.transitions):
                report.append(f"declared complete but no transition for {q},{a}")
        return report
    raise TypeError(f"cannot validate {type(obj).__name__}")


def split_form(d: Distribution) -> tuple[str, str] | None:
    """Decompose d as the even split (1/2)q1 + (1/2)q2, or None.

    Point masses count as the q1 == q2 case; the pair is returned in
    canonical order.
    """
    if len(d) == 1:
        (x,) = d
        return (x, x) if d[x] == 1 else None
    if len(d) == 2:
        x, y = csorted(d)
        if d[x] == HALF and d[y] == HALF:
            return (x, y)
    return None


def is_simple(a: ProbWordAutomaton) -> bool:
    """True iff every transition distribution is a point mass or an even split."""
    return all(split_form(a.dist(q, s)) is not None for q in a.states for s in a.alphabet)


def universal_to_alternating(a: TreeAutomaton) -> AlternatingTreeAutomaton:
    """Interpret every state as the opponent's: all-runs acceptance becomes a game."""
    return AlternatingTreeAutomaton(
        alphabet=a.alphabet,
        states=a.states,
        initial=a.initial,
        transitions=a.transitions,
        complete=a.complete,
        eloise=frozenset(),
        abelard=a.states,
    )
