import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qualtree.acceptance import build_acceptance_game, qualitative_membership
from qualtree.automata import (
    Alphabet,
    AlternatingTreeAutomaton,
    ProbWordAutomaton,
    TreeAutomaton,
    cobuchi,
    is_simple,
    universal_to_alternating,
    validate,
)
from qualtree.dist import Distribution
from qualtree.games import number
from qualtree.markov import as_verdict
from qualtree.reductions import sharp_gadget, sharps_automaton
from qualtree.suite import random_regular_tree, random_simple_pwa, random_alternating_buchi
from weighted_chains import explore

AB = Alphabet(("a", "b"))


def test_distribution_rejects_floats():
    with pytest.raises(TypeError):
        Distribution({"x": 0.5, "y": 0.5})


def test_distribution_merges_and_drops_zero():
    d = Distribution([("x", Fraction(1, 4)), ("x", Fraction(1, 4)), ("y", Fraction(1, 2)), ("z", 0)])
    assert d["x"] == Fraction(1, 2)
    assert d.support() == frozenset({"x", "y"})
    assert d == Distribution.half_half("x", "y")


@pytest.mark.parametrize("x, y", [("x", "y"), ("y", "x"), ("x", "x"), (("s", "q", "n"), ("s", "q", "n"))])
def test_trusted_builders_equal_the_validated_construction(x, y):
    half = Distribution([(x, Fraction(1, 2)), (y, Fraction(1, 2))])
    d = Distribution.half_half(x, y)
    assert d == half and hash(d) == hash(half)
    assert d.require_probability() is d and list(d) == list(dict.fromkeys([x, y]))
    assert Distribution.point(x) == Distribution({x: 1})


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6))
def test_distribution_normalised_weights_sum_to_one(weights):
    total = sum(weights)
    d = Distribution({f"s{i}": Fraction(w, total) for i, w in enumerate(weights)})
    assert d.mass() == 1
    assert all(isinstance(p, Fraction) for _, p in d.items())


def test_validate_reports_bad_mass():
    delta = {
        ("q", "a"): Distribution([("q", Fraction(1, 2)), ("r", Fraction(1, 4))]),
        ("r", "a"): Distribution.point("r"),
    }
    aut = ProbWordAutomaton(Alphabet(("a",)), frozenset({"q", "r"}), "q", delta)
    report = validate(aut)
    assert any("sums to 3/4" in line for line in report)


def test_validate_reports_missing_row_and_unknown_target():
    delta = {("q", "a"): Distribution.point("ghost")}
    aut = ProbWordAutomaton(Alphabet(("a", "b")), frozenset({"q"}), "q", delta)
    report = validate(aut)
    assert any("undefined for q,b" in line for line in report)
    assert any("unknown 'ghost'" in line for line in report)


def test_validate_separator_detector_is_clean():
    aut, _ = sharps_automaton(AB, "s")
    assert validate(aut) == []
    assert is_simple(aut)


def test_validate_broken_partition_names_state():
    aut = AlternatingTreeAutomaton(
        alphabet=Alphabet(("a",)),
        states=frozenset({"q"}),
        initial="q",
        transitions=frozenset({("q", "a", "q", "q")}),
        eloise=frozenset({"q"}),
        abelard=frozenset({"q"}),
    )
    report = validate(aut)
    assert any("q is in both" in line for line in report)


def test_validate_completeness_only_when_declared():
    base = dict(
        alphabet=Alphabet(("a", "b")),
        states=frozenset({"q"}),
        initial="q",
        transitions=frozenset({("q", "a", "q", "q")}),
    )
    assert validate(TreeAutomaton(**base, complete=False)) == []
    report = validate(TreeAutomaton(**base, complete=True))
    assert any("no transition for q,b" in line for line in report)


def test_is_simple_rejects_uneven_split():
    delta = {("q", "a"): Distribution([("q", Fraction(1, 3)), ("r", Fraction(2, 3))]),
             ("r", "a"): Distribution.point("r")}
    aut = ProbWordAutomaton(Alphabet(("a",)), frozenset({"q", "r"}), "q", delta)
    assert not is_simple(aut)


def test_is_simple_accepts_all_point_masses():
    delta = {("q", "a"): Distribution.point("q")}
    aut = ProbWordAutomaton(Alphabet(("a",)), frozenset({"q"}), "q", delta)
    assert is_simple(aut)


def test_universal_to_alternating_structure():
    aut = TreeAutomaton(Alphabet(("a",)), frozenset({"q"}), "q",
                        frozenset({("q", "a", "q", "q")}), complete=True)
    alt = universal_to_alternating(aut)
    assert alt.eloise == frozenset()
    assert alt.abelard == {"q"}
    assert alt.transitions == aut.transitions
    assert alt.states == aut.states and alt.initial == aut.initial


def test_universal_to_alternating_preserves_empty_transitions():
    aut = TreeAutomaton(Alphabet(("a",)), frozenset({"q"}), "q", frozenset())
    assert universal_to_alternating(aut).transitions == frozenset()


def _universal_membership_by_run_enumeration(alt, final, tree) -> bool:
    """All-runs semantics spelled out: every opponent positional strategy in
    the pebble game, numbered once, must induce an almost-surely co-Buchi
    chain."""
    game = build_acceptance_game(alt, final, tree)
    a, goal, _ = number(game.arena, game.target)
    his = a.abelard
    for combo in itertools.product(*(a.succ[v] for v in his)):
        choice = dict(zip(his, combo))
        chain = explore(a.initial, lambda v: (choice[v],) if v in choice else a.succ[v],
                        goal.__contains__)
        if not as_verdict(chain, "cobuchi"):
            return False
    return True


def test_universal_membership_matches_run_enumeration_on_random_instances():
    rng = random.Random(11)
    checked = 0
    for _ in range(50):
        aut, _ = random_alternating_buchi(rng, max_states=3)
        universal = TreeAutomaton(aut.alphabet, aut.states, aut.initial,
                                  aut.transitions, complete=True)
        final = frozenset(q for q in sorted(universal.states) if rng.random() < 0.5)
        tree = random_regular_tree(rng, 3, universal.alphabet)
        alt = universal_to_alternating(universal)
        via_game = qualitative_membership(alt, cobuchi(final), tree)
        via_runs = _universal_membership_by_run_enumeration(alt, final, tree)
        assert via_game == via_runs
        checked += 1
    assert checked == 50


def test_sharp_gadget_preserves_simplicity_flag():
    rng = random.Random(3)
    for _ in range(25):
        aut = random_simple_pwa(rng, 3, AB)
        final = frozenset(q for q in sorted(aut.states) if rng.random() < 0.5)
        gadget, _ = sharp_gadget(aut, final, "s")
        assert is_simple(gadget) == is_simple(aut) == True  # noqa: E712
