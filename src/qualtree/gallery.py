"""Small named instances used by tests, the CLI docs and the demo scripts."""

from __future__ import annotations

from qualtree.automata import Alphabet, AlternatingTreeAutomaton
from qualtree.trees import RegularTree, lasso, tree_from_word


def constant_tree(symbol: str) -> RegularTree:
    return tree_from_word(lasso((), (symbol,)))


def contradictory_uniformity_automaton() -> tuple[AlternatingTreeAutomaton, frozenset]:
    """Opponent-driven automaton with an empty language and a trap for leaky
    game constructions.

    From the initial state the opponent either demands that every node be
    labelled ``a`` or that every node be labelled ``b``; a wrong label
    falls into a non-accepting sink.  No tree satisfies both demands, so
    the language is empty; a builder that leaks the current state to the
    protagonist would let her adapt the labels to the demand and wrongly
    report a witness.
    """
    sigma = Alphabet(("a", "b"))
    states = frozenset({"q", "ca", "cb", "dead"})
    transitions = set()
    for s in sigma:
        transitions.add(("q", s, "ca", "ca"))
        transitions.add(("q", s, "cb", "cb"))
        transitions.add(("dead", s, "dead", "dead"))
    transitions |= {
        ("ca", "a", "ca", "ca"),
        ("ca", "b", "dead", "dead"),
        ("cb", "b", "cb", "cb"),
        ("cb", "a", "dead", "dead"),
    }
    aut = AlternatingTreeAutomaton(
        alphabet=sigma,
        states=states,
        initial="q",
        transitions=frozenset(transitions),
        complete=True,
        eloise=frozenset(),
        abelard=states,
    )
    return aut, frozenset({"q", "ca", "cb"})


def one_state_acceptor(symbol: str = "a") -> tuple[AlternatingTreeAutomaton, frozenset]:
    """Single protagonist state over a one-letter alphabet; accepts the
    constant tree and nothing else exists to accept."""
    aut = AlternatingTreeAutomaton(
        alphabet=Alphabet((symbol,)),
        states=frozenset({"q"}),
        initial="q",
        transitions=frozenset({("q", symbol, "q", "q")}),
        complete=True,
        eloise=frozenset({"q"}),
        abelard=frozenset(),
    )
    return aut, frozenset({"q"})
