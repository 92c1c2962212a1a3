import dataclasses
import random

import pytest

from qualtree.acceptance import build_acceptance_game, qualitative_membership
from qualtree.automata import (
    Alphabet,
    AlternatingTreeAutomaton,
    buchi,
    cobuchi,
    universal_to_alternating,
)
from qualtree.errors import FormatError
from qualtree.gallery import constant_tree, contradictory_uniformity_automaton
from qualtree.markov import prob_tree_membership
from qualtree.reductions import lift_swap, universalize
from qualtree.suite import random_alternating_buchi, random_regular_tree, random_simple_pwa
from qualtree.trees import RegularTree, lasso, tree_from_word

A_ONLY = Alphabet(("a",))


def one_state_automaton():
    return AlternatingTreeAutomaton(
        alphabet=A_ONLY,
        states=frozenset({"q"}),
        initial="q",
        transitions=frozenset({("q", "a", "q", "q")}),
        complete=True,
        eloise=frozenset(),
        abelard=frozenset({"q"}),
    )


def test_build_single_state_game():
    game = build_acceptance_game(one_state_automaton(), frozenset({"q"}), constant_tree("a"))
    arena = game.arena
    assert len(arena.vertices) == 2  # one state vertex, one transition vertex
    (rv,) = arena.random
    assert len(arena.edges[rv]) == 1  # both children coincide: point mass
    assert arena.initial in game.target


def test_vertex_count_arithmetic():
    rng = random.Random(19)
    for _ in range(20):
        aut, final = random_alternating_buchi(rng, max_states=3)
        t = random_regular_tree(rng, 3, aut.alphabet)
        game = build_acceptance_game(aut, final, t)
        matches = sum(
            1
            for q in aut.states
            for n in t.nodes
            for tr in aut.transitions
            if tr[0] == q and tr[1] == t.label[n]
        )
        assert len(game.arena.vertices) == len(aut.states) * len(t.nodes) + matches


def test_incomplete_automaton_is_named_in_error():
    aut = AlternatingTreeAutomaton(
        alphabet=Alphabet(("a", "b")),
        states=frozenset({"q"}),
        initial="q",
        transitions=frozenset({("q", "a", "q", "q")}),
        eloise=frozenset(),
        abelard=frozenset({"q"}),
    )
    t = constant_tree("b")
    with pytest.raises(FormatError, match="state q on symbol b"):
        build_acceptance_game(aut, frozenset({"q"}), t)


def test_undeclared_states_and_nodes_are_rejected():
    good = one_state_automaton()
    t = constant_tree("a")
    for aut in (
        dataclasses.replace(good, initial="zz"),
        dataclasses.replace(good, transitions=frozenset({("q", "a", "q", "zz")})),
    ):
        with pytest.raises(ValueError, match="undeclared states: zz"):
            build_acceptance_game(aut, frozenset({"q"}), t)
    for bad in (dataclasses.replace(t, root="zz"), dataclasses.replace(t, succ1={t.root: "zz"})):
        with pytest.raises(ValueError, match="not one of its nodes"):
            build_acceptance_game(good, frozenset({"q"}), bad)


def test_opposing_checks_offer_two_transitions_at_the_root():
    aut, _ = contradictory_uniformity_automaton()
    game = build_acceptance_game(aut, frozenset({"q"}), constant_tree("a"))
    root = game.arena.initial
    assert len(game.arena.edges[root]) == 2  # the all-a check and the all-b check


def test_all_accepting_automaton_accepts_everything():
    rng = random.Random(23)
    for _ in range(10):
        aut, _ = random_alternating_buchi(rng, max_states=3)
        t = random_regular_tree(rng, 3, aut.alphabet)
        assert qualitative_membership(aut, buchi(aut.states), t)


def test_opposing_checks_membership_verdicts():
    aut, core = contradictory_uniformity_automaton()
    t = constant_tree("a")
    # with every state accepting (sink included) the verdict is trivially true
    assert qualitative_membership(aut, buchi(aut.states), t)
    # with the genuine target set the opponent picks the all-b check and wins
    assert not qualitative_membership(aut, buchi(core), t)


def test_membership_monotone_in_target():
    rng = random.Random(29)
    for _ in range(25):
        aut, final = random_alternating_buchi(rng, max_states=3)
        t = random_regular_tree(rng, 3, aut.alphabet)
        smaller = qualitative_membership(aut, buchi(final), t)
        bigger_set = final | frozenset(
            q for q in sorted(aut.states) if rng.random() < 0.5
        )
        if smaller:
            assert qualitative_membership(aut, buchi(bigger_set), t)


def test_quotient_sanity_duplicate_nodes():
    w = lasso((), ("a", "b"))
    t = tree_from_word(w)
    doubled = RegularTree(
        nodes=("u0", "u1", "u2", "u3"),
        root="u0",
        label={"u0": "a", "u1": "b", "u2": "a", "u3": "b"},
        succ0={"u0": "u1", "u1": "u2", "u2": "u3", "u3": "u0"},
        succ1={"u0": "u3", "u1": "u2", "u2": "u1", "u3": "u0"},
    )
    rng = random.Random(33)
    for _ in range(15):
        aut, final = random_alternating_buchi(rng, max_states=3, max_symbols=2)
        while len(aut.alphabet.symbols) < 2:  # both labels must have rows
            aut, final = random_alternating_buchi(rng, max_states=3, max_symbols=2)
        for cond in (buchi(final), cobuchi(final)):
            assert qualitative_membership(aut, cond, t) == qualitative_membership(
                aut, cond, doubled
            )


def test_two_sided_split_membership_implies_probabilistic_membership():
    """All-runs acceptance of the split relation forces almost-sure acceptance
    of the crossed lift over the same tree."""
    rng = random.Random(37)
    sigma = Alphabet(("a", "b"))
    implications = 0
    for _ in range(60):
        a = random_simple_pwa(rng, 3, sigma)
        final = frozenset(q for q in sorted(a.states) if rng.random() < 0.5)
        t = random_regular_tree(rng, 3, sigma)
        au = universalize(a)
        universal_verdict = qualitative_membership(
            universal_to_alternating(au), cobuchi(final), t
        )
        if universal_verdict:
            implications += 1
            assert prob_tree_membership(lift_swap(a), final, t)
    assert implications >= 5  # the implication premise actually fires
