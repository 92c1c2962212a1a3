import random
from fractions import Fraction

import pytest

from qualtree.acceptance import build_acceptance_game, state_vertex
from qualtree.automata import (
    Alphabet,
    ProbWordAutomaton,
    is_simple,
    universal_to_alternating,
    validate,
)
from qualtree.dist import Distribution
from qualtree.markov import lasso_membership_word
from qualtree.reductions import (
    lift_diagonal,
    lift_swap,
    sharp_gadget,
    sharps_automaton,
    to_nonzero,
    universalize,
    value1_to_cobuchi,
)
from qualtree.suite import random_regular_tree, random_simple_pwa
from qualtree.trees import lasso
from arena_oracles import build_nonzero_arena

AB = Alphabet(("a", "b"))
SEP = "s"


def det_all_accepting():
    """Deterministic automaton accepting every finite word (target = states)."""
    delta = {("q", x): Distribution.point("q") for x in AB}
    aut = ProbWordAutomaton(AB, frozenset({"q"}), "q", delta)
    return aut, frozenset({"q"})


def coin_automaton():
    """Acceptance probability exactly one half for every non-empty word."""
    states = frozenset({"c", "yes", "no"})
    delta = {}
    for x in AB:
        delta[("c", x)] = Distribution.half_half("yes", "no")
        delta[("yes", x)] = Distribution.point("yes")
        delta[("no", x)] = Distribution.point("no")
    return ProbWordAutomaton(AB, states, "c", delta), frozenset({"yes"})


def test_detector_structure():
    det, bad = sharps_automaton(AB, SEP)
    assert validate(det) == [] and is_simple(det)
    assert bad == {"p1"}
    for x in det.alphabet:
        assert det.dist("p2", x) == Distribution.point("p2")
    assert det.dist("p1", SEP) == Distribution.half_half("p1", "p2")
    assert det.dist("p1", "a") == Distribution.point("p1")


def test_detector_membership():
    det, bad = sharps_automaton(AB, SEP)
    assert lasso_membership_word(det, bad, lasso((), ("a", SEP)), "cobuchi")
    assert not lasso_membership_word(det, bad, lasso((SEP,), ("a",)), "cobuchi")


def test_detector_rejects_colliding_separator():
    with pytest.raises(ValueError):
        sharps_automaton(AB, "a")


def test_sharp_gadget_structure():
    aut, final = det_all_accepting()
    gadget, bad = sharp_gadget(aut, final, SEP)
    assert len(gadget.states) == len(aut.states) + 1
    assert gadget.initial == aut.initial
    assert is_simple(gadget)
    (retry,) = bad
    assert retry not in aut.states
    # accepting states reset, the retry state replays the initial rows
    assert gadget.dist("q", SEP) == Distribution.point("q")
    assert gadget.dist(retry, "a") == aut.dist("q", "a")
    assert gadget.dist(retry, SEP) == Distribution.point(retry)


def test_sharp_gadget_accepts_blocks_of_an_all_accepting_base():
    aut, final = det_all_accepting()
    gadget, bad = sharp_gadget(aut, final, SEP)
    for period in (("a", SEP), ("b", "a", SEP), (SEP,)):
        w = lasso((SEP,), period)
        assert lasso_membership_word(gadget, bad, w, "cobuchi")


def test_sharp_gadget_rejects_non_simple_input():
    delta = {("q", x): Distribution([("q", Fraction(1, 3)), ("r", Fraction(2, 3))]) for x in AB}
    delta.update({("r", x): Distribution.point("r") for x in AB})
    aut = ProbWordAutomaton(AB, frozenset({"q", "r"}), "q", delta)
    with pytest.raises(ValueError, match="simple"):
        sharp_gadget(aut, frozenset({"q"}), SEP)


def test_value1_composite_structure():
    aut, final = det_all_accepting()
    composite, bad = value1_to_cobuchi(aut, final, SEP)
    assert validate(composite) == [] and is_simple(composite)
    # base copy + retry + two detector states + boot + sink
    assert len(composite.states) == len(aut.states) + 1 + 2 + 1 + 1
    boot = composite.initial
    assert composite.dist(boot, SEP).support() == {"q", "p1"}
    sink = next(s for s in composite.states if "reject" in s)
    assert composite.dist(boot, "a") == Distribution.point(sink)
    assert sink in bad


def test_value1_composite_verdicts():
    aut, final = det_all_accepting()
    composite, bad = value1_to_cobuchi(aut, final, SEP)
    assert lasso_membership_word(composite, bad, lasso((SEP,), ("a", SEP)), "cobuchi")
    assert not lasso_membership_word(composite, bad, lasso((), ("a",)), "cobuchi")


def test_value1_composite_rejects_constant_failure_blocks():
    coin, final = coin_automaton()
    composite, bad = value1_to_cobuchi(coin, final, SEP)
    for period in (("a", SEP), ("a", "a", SEP), (SEP,)):
        w = lasso((SEP,), period)
        assert not lasso_membership_word(composite, bad, w, "cobuchi")


def test_lift_clauses():
    det, _ = sharps_automaton(AB, SEP)
    d1 = lift_diagonal(det)
    d2 = lift_swap(det)
    assert d1.dist("p1", "a") == Distribution.point(("p1", "p1"))
    assert d2.dist("p1", "a") == Distribution.point(("p1", "p1"))
    assert d1.dist("p1", SEP) == Distribution.half_half(("p1", "p1"), ("p2", "p2"))
    assert d2.dist("p1", SEP) == Distribution.half_half(("p1", "p2"), ("p2", "p1"))
    assert validate(d1) == [] and validate(d2) == []


def test_lift_rejects_non_simple():
    delta = {("q", x): Distribution([("q", Fraction(1, 4)), ("r", Fraction(3, 4))]) for x in AB}
    delta.update({("r", x): Distribution.point("r") for x in AB})
    aut = ProbWordAutomaton(AB, frozenset({"q", "r"}), "q", delta)
    with pytest.raises(ValueError, match="simple"):
        lift_diagonal(aut)
    with pytest.raises(ValueError, match="simple"):
        lift_swap(aut)


def test_universalize_counts():
    det, _ = sharps_automaton(AB, SEP)
    au = universalize(det)
    assert au.complete and au.is_actually_complete()
    # even split becomes two quadruples, point masses one
    on_sep = {t for t in au.transitions if t[0] == "p1" and t[1] == SEP}
    assert on_sep == {("p1", SEP, "p1", "p2"), ("p1", SEP, "p2", "p1")}
    on_a = {t for t in au.transitions if t[0] == "p1" and t[1] == "a"}
    assert on_a == {("p1", "a", "p1", "p1")}
    assert len(au.transitions) <= 2 * len(au.states) * len(au.alphabet.symbols)


def test_to_nonzero_structure():
    det, _ = sharps_automaton(AB, SEP)
    au = universalize(det)
    nz = to_nonzero(au, frozenset({"p1"}))
    assert validate(nz) == []
    assert nz.order.index("p2") < nz.order.index("p1")  # accepting ranked highest
    assert nz.f_one == au.states - {"p1"}
    assert nz.f_forall == au.states and nz.f_pos == au.states
    assert nz.local_transitions == frozenset()
    assert nz.split_transitions == au.transitions
    assert to_nonzero(au, frozenset()).f_one == au.states
    assert to_nonzero(au, au.states).f_one == frozenset()


def test_nonzero_arena_equals_membership_arena():
    rng = random.Random(61)
    for _ in range(25):
        a = random_simple_pwa(rng, 3, AB)
        final = frozenset(q for q in sorted(a.states) if rng.random() < 0.5)
        au = universalize(a)
        t = random_regular_tree(rng, 3, AB)
        arena_nz, marks = build_nonzero_arena(to_nonzero(au, final), t)
        game = build_acceptance_game(universal_to_alternating(au), final, t)
        assert arena_nz == game.arena
        # clause (ii) marking complements the membership target set pointwise
        all_state_vertices = {v for v in arena_nz.vertices if v[0] == "s"}
        assert marks["one"] == all_state_vertices - game.target
        assert marks["forall"] == all_state_vertices == marks["pos"]


def test_nonzero_local_transition_adds_plain_edge():
    det, _ = sharps_automaton(AB, SEP)
    au = universalize(det)
    nz = to_nonzero(au, frozenset({"p1"}))
    with_local = type(nz)(
        alphabet=nz.alphabet,
        states=nz.states,
        order=nz.order,
        initial=nz.initial,
        eloise=nz.eloise,
        abelard=nz.abelard,
        local_transitions=frozenset({("p1", "a", "p2")}),
        split_transitions=nz.split_transitions,
        f_forall=nz.f_forall,
        f_one=nz.f_one,
        f_pos=nz.f_pos,
    )
    t = random_regular_tree(random.Random(0), 1, AB)
    base_arena, _ = build_nonzero_arena(nz, t)
    local_arena, _ = build_nonzero_arena(with_local, t)
    assert local_arena.random == base_arena.random
    n = t.root
    if t.label[n] == "a":
        extra = set(local_arena.edges[state_vertex("p1", n)]) - set(
            base_arena.edges[state_vertex("p1", n)]
        )
        assert extra == {state_vertex("p2", n)}


def test_simplicity_preserved_across_gadgets():
    rng = random.Random(67)
    for _ in range(25):
        a = random_simple_pwa(rng, 3, AB)
        final = frozenset(q for q in sorted(a.states) if rng.random() < 0.5)
        g1, _ = sharp_gadget(a, final, SEP)
        g2, _ = value1_to_cobuchi(a, final, SEP)
        assert is_simple(g1) and is_simple(g2)
