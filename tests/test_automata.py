import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from qualtree.acceptance import build_acceptance_game, qualitative_membership
from qualtree.automata import (
    HALF,
    Alphabet,
    AlternatingTreeAutomaton,
    ProbWordAutomaton,
    TreeAutomaton,
    cobuchi,
    is_simple,
    split_form,
    universal_to_alternating,
    validate,
)
from qualtree.dist import Distribution, exact
from qualtree.games import number
from qualtree.markov import as_verdict
from qualtree.ordering import csorted
from qualtree.reductions import sharp_gadget, sharps_automaton
from qualtree.suite import random_alternating_buchi
from draws import random_regular_tree, random_simple_pwa
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


def reference_weights(items) -> dict:
    """The weight map as the construction loop built it when every weight
    went through `exact` and every sum started from ``Fraction(0)``."""
    acc: dict = {}
    for x, w in items:
        w = exact(w)
        if w < 0:
            raise ValueError(f"negative weight {w} for {x!r}")
        if w == 0:
            continue
        acc[x] = acc.get(x, Fraction(0)) + w
    return acc


def built(make, items):
    """The (outcome, weight, weight type) list of the map that
    ``make(items)`` gives, in key order, or the type and message of what
    it raised."""
    try:
        d = make(items)
    except (TypeError, ValueError) as e:
        return type(e), str(e)
    return [(x, d[x], type(d[x])) for x in d]


OUTCOMES = st.one_of(st.sampled_from(["q0", "q1", "q2"]),
                     st.tuples(st.sampled_from(["q0", "q1"]), st.sampled_from(["q0", "q1"])))
EXACT_WEIGHTS = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.fractions(min_value=0, max_value=2, max_denominator=6),
    st.builds("{}/{}".format, st.integers(min_value=0, max_value=5),
              st.integers(min_value=1, max_value=6)),
)
BAD_WEIGHTS = st.one_of(
    st.integers(min_value=-3, max_value=-1),
    st.fractions(max_value=Fraction(-1, 6), max_denominator=6),
    st.builds("-{}/{}".format, st.integers(min_value=1, max_value=5),
              st.integers(min_value=1, max_value=6)),
    st.floats(min_value=0, max_value=1),
)


@given(st.lists(st.tuples(OUTCOMES, EXACT_WEIGHTS), max_size=8))
@example([("q1", 0), ("q0", Fraction(1, 2)), ("q1", "1/4"), ("q0", 0), ("q1", 1)])
def test_distribution_construction_equals_the_reference_loop(items):
    """Zeros dropped, repeats summed, each key placed where its first
    non-zero weight stands, every weight a `Fraction`; from a list and
    from a mapping."""
    assert built(Distribution, items) == built(reference_weights, items)
    as_map = dict(items)
    assert built(Distribution, as_map) == built(reference_weights, as_map.items())


@given(st.lists(st.tuples(OUTCOMES, EXACT_WEIGHTS), max_size=6), st.data())
def test_distribution_refuses_the_weights_the_reference_loop_refuses(items, data):
    """A negative weight raises `ValueError` with the reference's message
    and a float raises `TypeError`, wherever it stands in the list."""
    bad = (data.draw(OUTCOMES), data.draw(BAD_WEIGHTS))
    at = data.draw(st.integers(min_value=0, max_value=len(items)))
    items = items[:at] + [bad] + items[at:]
    got = built(Distribution, items)
    assert got == built(reference_weights, items)
    assert got[0] is (TypeError if isinstance(bad[1], float) else ValueError)


def reference_split_form(d: Distribution):
    """`split_form` as it read the support: sorted, then indexed."""
    sup = csorted(d.support())
    if len(sup) == 1 and d[sup[0]] == 1:
        return (sup[0], sup[0])
    if len(sup) == 2 and d[sup[0]] == HALF and d[sup[1]] == HALF:
        return (sup[0], sup[1])
    return None


ROW_WEIGHTS = st.sampled_from([Fraction(1), HALF, Fraction(1, 3), Fraction(2, 3), Fraction(3, 2)])


@given(st.lists(st.tuples(OUTCOMES, ROW_WEIGHTS), min_size=1, max_size=3,
                unique_by=lambda xw: xw[0]))
@example([("q1", 1)])
@example([(("q1", "q0"), 1)])
@example([("q1", HALF)])
@example([("q1", Fraction(2))])
@example([("q1", HALF), ("q0", HALF)])
@example([(("q1", "q0"), HALF), (("q0", "q1"), HALF)])
@example([("q1", Fraction(1, 3)), ("q0", Fraction(2, 3))])
@example([("q2", Fraction(1, 3)), ("q1", Fraction(1, 3)), ("q0", Fraction(1, 3))])
@example([(("q1", "q1"), HALF), ("q0", HALF)])
def test_split_form_equals_the_reference_formula(row):
    """Point masses of weight 1 and of other weights, even, uneven and
    three-outcome rows, over state names and over state pairs."""
    d = Distribution(row)
    assert split_form(d) == reference_split_form(d)


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
