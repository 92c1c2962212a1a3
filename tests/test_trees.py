import random

import pytest
from hypothesis import given, settings, strategies as st

from qualtree.trees import (
    RegularTree,
    canonical_lasso,
    lasso,
    sample_branch,
    tree_from_word,
    validate_tree,
)
from branches import branch_word, is_direction_oblivious, sampled_branch_lasso

symbols = st.sampled_from(["a", "b", "s"])
words = st.tuples(
    st.lists(symbols, max_size=4), st.lists(symbols, min_size=1, max_size=4)
).map(lambda pv: lasso(pv[0], pv[1]))
bits = st.tuples(
    st.lists(st.sampled_from(["0", "1"]), max_size=3),
    st.lists(st.sampled_from(["0", "1"]), min_size=1, max_size=3),
).map(lambda pv: lasso(pv[0], pv[1]))


def test_canonical_form_is_primitive_and_prefix_minimal():
    w = lasso(("s",), ("a", "s"))  # equals (s a)^w
    assert w.prefix == ()
    assert w.period == ("s", "a")
    assert lasso((), ("a", "b", "a", "b")).period == ("a", "b")


@given(words)
def test_canonicalisation_is_idempotent(w):
    assert canonical_lasso(w.prefix, w.period) == (w.prefix, w.period)


@given(words, st.integers(min_value=0, max_value=20))
def test_canonicalisation_preserves_the_word(w, i):
    # recanonicalise a deliberately padded presentation
    padded_prefix = w.prefix + w.period
    padded_period = w.period * 2
    assert lasso(padded_prefix, padded_period) == w
    assert w.at(i) == (w.prefix + w.period * 20)[i] if i < len(w.prefix) + 20 else True


def test_empty_period_rejected():
    with pytest.raises(ValueError):
        lasso(("a",), ())


def test_tree_from_constant_word():
    t = tree_from_word(lasso((), ("a",)))
    assert len(t.nodes) == 1
    n = t.root
    assert t.label[n] == "a" and t.succ0[n] == n and t.succ1[n] == n


def test_tree_from_two_letter_period():
    t = tree_from_word(lasso((), ("a", "b")))
    assert len(t.nodes) == 2
    assert t.label[t.root] == "a"
    assert t.succ0 == t.succ1
    assert t.label[t.succ0[t.root]] == "b"
    assert t.succ0[t.succ0[t.root]] == t.root


def test_tree_node_count_is_lasso_length():
    w = lasso(("a", "b"), ("b", "a", "s"))
    assert len(tree_from_word(w).nodes) == len(w.prefix) + len(w.period)


@settings(max_examples=60)
@given(words, bits)
def test_branch_roundtrip(w, b):
    assert branch_word(tree_from_word(w), b) == w


@given(words)
def test_word_trees_are_direction_oblivious(w):
    assert is_direction_oblivious(tree_from_word(w))


def test_branch_word_constant_tree():
    t = tree_from_word(lasso((), ("a",)))
    assert branch_word(t, lasso(("1",), ("0",))) == lasso((), ("a",))


def test_branch_word_hand_unfolded():
    # root labelled c; left child loops on a, right child loops on b
    t = RegularTree(
        nodes=("r", "x", "y"),
        root="r",
        label={"r": "c", "x": "a", "y": "b"},
        succ0={"r": "x", "x": "x", "y": "y"},
        succ1={"r": "y", "x": "x", "y": "y"},
    )
    assert validate_tree(t) == []
    # branch 1 0^w reads c then b forever: c b b b ...
    assert branch_word(t, lasso(("1",), ("0",))) == lasso(("c",), ("b",))
    assert branch_word(t, lasso((), ("0",))) == lasso(("c",), ("a",))


def test_validate_tree_rejects_unreachable_and_partial():
    t = RegularTree(
        nodes=("r", "z"),
        root="r",
        label={"r": "a", "z": "a"},
        succ0={"r": "r", "z": "z"},
        succ1={"r": "r", "z": "z"},
    )
    assert any("unreachable" in line for line in validate_tree(t))
    t2 = RegularTree(nodes=("r",), root="r", label={"r": "a"}, succ0={}, succ1={"r": "r"})
    assert any("succ0 undefined" in line for line in validate_tree(t2))


def test_sample_branch_constant_tree():
    t = tree_from_word(lasso((), ("a",)))
    assert sample_branch(t, seed=123, horizon=5) == ("a",) * 6


def test_sample_branch_deterministic_in_seed():
    t = tree_from_word(lasso(("a",), ("b", "s")))
    assert sample_branch(t, 42, 50) == sample_branch(t, 42, 50)
    assert sample_branch(t, 42, 50)[0] == "a"


def test_sample_branch_first_step_frequency():
    # distinct child labels expose the first coin flip
    t = RegularTree(
        nodes=("r", "x", "y"),
        root="r",
        label={"r": "c", "x": "a", "y": "b"},
        succ0={"r": "x", "x": "x", "y": "y"},
        succ1={"r": "y", "x": "x", "y": "y"},
    )
    n = 100_000
    zeros = sum(1 for seed in range(n) if sample_branch(t, seed, 1)[1] == "a")
    assert abs(zeros / n - 0.5) < 0.015  # binomial concentration


def test_sampled_branch_lasso_closes_word_trees():
    w = lasso(("s",), ("a", "b"))
    t = tree_from_word(w)
    for seed in range(10):
        assert sampled_branch_lasso(t, seed) == w


def test_sampled_branch_lasso_refuses_branching_trees():
    t = RegularTree(
        nodes=("r", "x"),
        root="r",
        label={"r": "a", "x": "b"},
        succ0={"r": "x", "x": "x"},
        succ1={"r": "r", "x": "x"},
    )
    with pytest.raises(ValueError):
        sampled_branch_lasso(t, 0)


def test_branch_word_invariant_under_duplicated_presentation():
    w = lasso((), ("a", "b"))
    t = tree_from_word(w)
    # same unfolding, doubled node set
    t2 = RegularTree(
        nodes=("u0", "u1", "u2", "u3"),
        root="u0",
        label={"u0": "a", "u1": "b", "u2": "a", "u3": "b"},
        succ0={"u0": "u1", "u1": "u2", "u2": "u3", "u3": "u0"},
        succ1={"u0": "u3", "u1": "u2", "u2": "u1", "u3": "u0"},
    )
    assert validate_tree(t2) == []
    for b in (lasso((), ("0",)), lasso((), ("1", "0")), lasso(("0", "1"), ("1",))):
        assert branch_word(t2, b) == branch_word(t, b) == w


def test_random_walk_frequency_matches_sampled_lassos():
    rng = random.Random(0)
    w = lasso((), ("a", "s", "b"))
    t = tree_from_word(w)
    seeds = [rng.randrange(10**9) for _ in range(50)]
    assert all(sampled_branch_lasso(t, s) == w for s in seeds)
