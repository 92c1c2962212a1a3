"""Automata transformations connecting word, tree and game views.

The separator gadget turns finite-word acceptance values into an
infinite-word almost-sure question; the two probabilistic lifts and the
two-sided split relation carry a word automaton onto trees; the ordered
embedding re-expresses almost-sure co-Buchi acceptance inside the
mixed-clause acceptance model.  All constructions preserve simplicity
where the sources are simple, and all are deterministic in their inputs.
A source outside a construction's domain (a distribution that is neither a
point mass nor an even split, or a separator already in the alphabet) is
malformed input and raises ``FormatError``.
"""

from __future__ import annotations

from qualtree.automata import (
    Alphabet,
    NonZeroAutomaton,
    ProbTreeAutomaton,
    ProbWordAutomaton,
    TreeAutomaton,
    is_simple,
    split_form,
)
from qualtree.dist import Distribution
from qualtree.errors import FormatError
from qualtree.ordering import csorted


def _fresh(base: str, taken) -> str:
    name = base
    while name in taken:
        name += "'"
    return name


def _require_simple(a: ProbWordAutomaton, what: str):
    if not is_simple(a):
        raise FormatError(f"{what} requires a simple automaton "
                          "(point masses and even splits only)")


def sharps_automaton(sigma: Alphabet, sharp: str) -> tuple[ProbWordAutomaton, frozenset]:
    """Two-state separator detector: divergence means finitely many separators.

    Reading the separator in p1 flips a fair coin between staying and
    moving to the absorbing p2; with infinitely many separators the p1
    loop is left almost surely, so the co-Buchi({p1}) language is exactly
    the words with infinitely many separators.
    """
    if sharp in sigma:
        raise FormatError(f"separator {sharp!r} collides with the alphabet")
    full = sigma.extend(sharp)
    delta = {}
    for s in full:
        delta[("p1", s)] = (
            Distribution.half_half("p1", "p2") if s == sharp else Distribution.point("p1")
        )
        delta[("p2", s)] = Distribution.point("p2")
    aut = ProbWordAutomaton(
        alphabet=full, states=frozenset({"p1", "p2"}), initial="p1", delta=delta
    )
    return aut, frozenset({"p1"})


def sharp_gadget(
    a: ProbWordAutomaton, final: frozenset, sharp: str
) -> tuple[ProbWordAutomaton, frozenset]:
    """Block-resetting gadget over the extended alphabet.

    On the separator, accepting states reset to the initial state and the
    rest fall into a fresh retry state that replays the initial behaviour;
    a retry visit marks the block as failed.  The co-Buchi set is the
    retry state alone, so almost-sure acceptance asks that failed blocks
    die out, which is the summable-failure regime of the block acceptance
    probabilities.
    """
    _require_simple(a, "the separator gadget")
    if sharp in a.alphabet:
        raise FormatError(f"separator {sharp!r} collides with the alphabet")
    retry = _fresh(a.initial + "'", a.states)
    full = a.alphabet.extend(sharp)
    delta = {}
    for q in a.states:
        for s in a.alphabet:
            delta[(q, s)] = a.dist(q, s)
        delta[(q, sharp)] = Distribution.point(a.initial if q in final else retry)
    for s in a.alphabet:
        delta[(retry, s)] = a.dist(a.initial, s)
    delta[(retry, sharp)] = Distribution.point(retry)
    aut = ProbWordAutomaton(
        alphabet=full,
        states=a.states | {retry},
        initial=a.initial,
        delta=delta,
    )
    return aut, frozenset({retry})


def value1_to_cobuchi(
    a: ProbWordAutomaton, final: frozenset, sharp: str
) -> tuple[ProbWordAutomaton, frozenset]:
    """Composite automaton whose almost-sure language is empty iff no word
    family pushes the base acceptance probability to 1.

    A fresh boot state requires a leading separator and then splits evenly
    between the block gadget and the separator detector; words not
    starting with the separator drain into a rejecting sink.  The sink is
    part of the co-Buchi set so totalisation does not enlarge the
    language.
    """
    gadget, gadget_bad = sharp_gadget(a, final, sharp)
    detector, detector_bad = sharps_automaton(a.alphabet, sharp)

    taken = set(gadget.states)
    rename = {}
    for q in csorted(detector.states):
        rename[q] = _fresh(q, taken)
        taken.add(rename[q])
    boot = _fresh(a.initial + "''", taken)
    taken.add(boot)
    sink = _fresh("reject", taken)
    taken.add(sink)

    full = gadget.alphabet
    delta = dict(gadget.delta)
    for (q, s), d in detector.delta.items():
        delta[(rename[q], s)] = d.map(lambda x: rename[x])
    for s in full:
        if s == sharp:
            delta[(boot, s)] = Distribution.half_half(gadget.initial, rename["p1"])
        else:
            delta[(boot, s)] = Distribution.point(sink)
        delta[(sink, s)] = Distribution.point(sink)

    aut = ProbWordAutomaton(
        alphabet=full,
        states=gadget.states | frozenset(rename.values()) | {boot, sink},
        initial=boot,
        delta=delta,
    )
    bad = gadget_bad | frozenset(rename[q] for q in detector_bad) | {sink}
    return aut, bad


def _split_pairs(a: ProbWordAutomaton, what: str) -> dict:
    pairs = {}
    for q in a.states:
        for s in a.alphabet:
            pair = split_form(a.dist(q, s))
            if pair is None:
                raise FormatError(f"{what} requires a simple automaton; "
                                  f"distribution at ({q}, {s}) is neither a point "
                                  "mass nor an even split")
            pairs[(q, s)] = pair
    return pairs


def lift_diagonal(a: ProbWordAutomaton) -> ProbTreeAutomaton:
    """Tree lift sending each even split to the two diagonal pairs."""
    pairs = _split_pairs(a, "the diagonal lift")
    delta = {}
    for (q, s), (q1, q2) in pairs.items():
        delta[(q, s)] = Distribution.half_half((q1, q1), (q2, q2))
    return ProbTreeAutomaton(a.alphabet, a.states, a.initial, delta)


def lift_swap(a: ProbWordAutomaton) -> ProbTreeAutomaton:
    """Tree lift sending each even split to the two crossed pairs."""
    pairs = _split_pairs(a, "the crossed lift")
    delta = {}
    for (q, s), (q1, q2) in pairs.items():
        delta[(q, s)] = Distribution.half_half((q1, q2), (q2, q1))
    return ProbTreeAutomaton(a.alphabet, a.states, a.initial, delta)


def universalize(a: ProbWordAutomaton) -> TreeAutomaton:
    """Two-sided split relation: both orientations of every even split.

    The output is complete by construction and has at most two transitions
    per state and symbol.
    """
    pairs = _split_pairs(a, "universalisation")
    transitions = set()
    for (q, s), (q1, q2) in pairs.items():
        transitions.add((q, s, q1, q2))
        transitions.add((q, s, q2, q1))
    return TreeAutomaton(
        alphabet=a.alphabet,
        states=a.states,
        initial=a.initial,
        transitions=frozenset(transitions),
        complete=True,
    )


def to_nonzero(a: TreeAutomaton, final: frozenset) -> NonZeroAutomaton:
    """Ordered embedding: accepting states rank highest and the almost-sure
    clause asks the largest recurring state to avoid them."""
    order = tuple(csorted(a.states - final)) + tuple(csorted(final & a.states))
    return NonZeroAutomaton(
        alphabet=a.alphabet,
        states=a.states,
        order=order,
        initial=a.initial,
        eloise=frozenset(),
        abelard=a.states,
        local_transitions=frozenset(),
        split_transitions=a.transitions,
        f_forall=a.states,
        f_one=a.states - final,
        f_pos=a.states,
    )
