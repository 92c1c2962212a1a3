import collections
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from qualtree.automata import BUCHI, COBUCHI, Alphabet, ProbTreeAutomaton
from qualtree.dist import Distribution
from qualtree.markov import (
    acceptance_probability,
    as_verdict,
    bsccs,
    lasso_membership_word,
    prob_tree_membership,
    tree_chain,
    word_chain,
)
from qualtree.reductions import lift_diagonal, lift_swap, sharps_automaton
from qualtree.suite import (
    random_lasso_word,
    random_regular_tree,
    random_simple_pwa,
    random_split_automaton,
    with_unreachable_nodes,
)
from qualtree.trees import RegularTree, lasso, tree_from_word
from weighted_chains import (
    MarkovChain,
    full_tree_chain,
    full_word_chain,
    marked_bottom_probability,
    named,
    named_bottoms,
    oracle_bottoms,
    reachable_part,
    support_chain,
    weighted_named,
    weighted_tree_chain,
)

AB = Alphabet(("a",))


def chain(trans, initial, marked=()):
    """The support chain of the weighted rows ``trans``."""
    return support_chain(MarkovChain(tuple(sorted(trans)), initial, trans, frozenset(marked)))


def test_bscc_single_absorbing():
    m = chain({"x": Distribution.point("x")}, "x")
    assert named_bottoms(m) == {frozenset({"x"})}


def test_bscc_two_absorbing_halves():
    m = chain(
        {
            "s": Distribution.half_half("x", "y"),
            "x": Distribution.point("x"),
            "y": Distribution.point("y"),
        },
        "s",
    )
    assert len(bsccs(m)) == 2
    assert named_bottoms(m) == {frozenset({"x"}), frozenset({"y"})}


def test_bscc_ignores_unreachable_component():
    m = chain(
        {"s": Distribution.point("s"), "z": Distribution.point("z")},
        "s",
    )
    assert m.states == ["s"]
    assert named_bottoms(m) == {frozenset({"s"})}


def test_bscc_of_detector_product_is_absorbing_cycle():
    # detector run over (a s)^w: the only bottom component is the p2 cycle
    det, _ = sharps_automaton(AB, "s")
    w = lasso((), ("a", "s"))
    m = word_chain(det, frozenset({"p1"}), w)
    assert named_bottoms(m) == {frozenset({("p2", 0), ("p2", 1)})}


def test_verdict_on_absorbing_states():
    unmarked = chain({"x": Distribution.point("x")}, "x")
    assert as_verdict(unmarked, "cobuchi") and not as_verdict(unmarked, "buchi")
    marked = chain({"x": Distribution.point("x")}, "x", marked={"x"})
    assert as_verdict(marked, "buchi") and not as_verdict(marked, "cobuchi")


def _random_chain(rng, n):
    states = [f"s{i}" for i in range(n)]
    trans = {}
    for s in states:
        support = rng.sample(states, rng.randint(1, min(3, n)))
        weights = [rng.randint(1, 5) for _ in support]
        total = sum(weights)
        trans[s] = Distribution({x: Fraction(w, total) for x, w in zip(support, weights)})
    marked = frozenset(s for s in states if rng.random() < 0.4)
    return MarkovChain(tuple(states), "s0", trans, marked)


def _chain_with_bottoms(rng):
    """A transient start over several disjoint cycles with chords, each a
    bottom component; state names are (state, position) pairs."""
    names = rng.sample([(f"q{i}", j) for i in range(5) for j in range(12)], 16)
    groups, rest = [], names[3:]
    while rest:
        size = rng.randint(1, 4)
        groups.append(rest[:size])
        rest = rest[size:]
    trans = {}
    for group in groups:
        for i, s in enumerate(group):
            support = {group[(i + 1) % len(group)], rng.choice(group)}
            trans[s] = Distribution({x: Fraction(1, len(support)) for x in support})
    transient = names[:3]
    for s in transient:
        support = set(rng.sample(transient, 2)) | {rng.choice(g) for g in groups}
        trans[s] = Distribution({x: Fraction(1, len(support)) for x in support})
    m = chain(trans, transient[0])
    return m, {frozenset(g) for g in groups}


def test_bsccs_are_the_planted_bottom_components():
    rng = random.Random(61)
    for _ in range(200):
        m, groups = _chain_with_bottoms(rng)
        bottoms = bsccs(m)
        assert len(bottoms) == len(groups) >= 2
        assert named_bottoms(m) == groups


def test_verdicts_agree_with_monte_carlo():
    """Sampling oracle: the verdicts are the exact marked-bottom probability
    being 0 or 1, and that probability is the marked-visit frequency after
    burn-in, within 0.01 of 0 or 1 and within 0.05 (over 3 standard errors
    at 1,000 runs) in between."""
    rng = random.Random(2024)
    np_rng = np.random.default_rng(2024)
    runs, horizon, burn_in = 1_000, 1_000, 500
    between = 0
    for _ in range(30):
        m = _random_chain(rng, 6)
        p = _assert_verdicts_match_exact_probability(m, support_chain(m))
        idx = {s: i for i, s in enumerate(m.states)}
        cum = np.zeros((len(m.states), len(m.states)))
        for s in m.states:
            row = np.zeros(len(m.states))
            for x, q in m.trans[s].items():
                row[idx[x]] = float(q)
            cum[idx[s]] = np.cumsum(row)
        marked = np.zeros(len(m.states), dtype=bool)
        for s in m.marked:
            marked[idx[s]] = True

        cur = np.full(runs, idx[m.initial])
        seen_after_burn_in = np.zeros(runs, dtype=bool)
        for step in range(horizon):
            r = np_rng.random(runs)
            cur = (r[:, None] > cum[cur]).sum(axis=1)
            if step >= burn_in:
                seen_after_burn_in |= marked[cur]
        freq = seen_after_burn_in.mean()
        if p == 0:
            assert freq < 0.01
        elif p == 1:
            assert freq > 0.99
        else:
            assert abs(freq - float(p)) < 0.05
            between += 1
    assert between >= 1


def test_acceptance_probability_paper_values():
    det, _ = sharps_automaton(AB, "s")
    f = frozenset({"p2"})
    assert acceptance_probability(det, f, ("s",)) == Fraction(1, 2)
    assert acceptance_probability(det, f, ("s", "s")) == Fraction(3, 4)


def test_acceptance_probability_empty_word():
    det, _ = sharps_automaton(AB, "s")
    assert acceptance_probability(det, frozenset({"p1"}), ()) == 1
    assert acceptance_probability(det, frozenset({"p2"}), ()) == 0


def _brute_force_acceptance(a, final, u):
    total = Fraction(0)
    for path in itertools.product(sorted(a.states), repeat=len(u)):
        p = Fraction(1)
        cur = a.initial
        for symbol, nxt in zip(u, path):
            p *= a.dist(cur, symbol)[nxt]
            if p == 0:
                break
            cur = nxt
        if p > 0 and cur in final:
            total += p
    return total


def test_acceptance_probability_matches_brute_force():
    rng = random.Random(5)
    sigma = Alphabet(("a", "b"))
    for _ in range(40):
        a = random_simple_pwa(rng, 4, sigma)
        final = frozenset(q for q in sorted(a.states) if rng.random() < 0.5)
        u = tuple(rng.choice(("a", "b")) for _ in range(rng.randint(0, 6)))
        assert acceptance_probability(a, final, u) == _brute_force_acceptance(a, final, u)


def test_lasso_membership_detector_examples():
    det, f1 = sharps_automaton(AB, "s")
    assert lasso_membership_word(det, f1, lasso((), ("a", "s")), "cobuchi")
    assert not lasso_membership_word(det, f1, lasso((), ("a",)), "cobuchi")
    # a single leading separator succeeds only with probability one half
    assert not lasso_membership_word(det, f1, lasso(("s",), ("a",)), "cobuchi")


def test_prob_tree_membership_on_word_tree():
    det, f1 = sharps_automaton(AB, "s")
    lifted = lift_diagonal(det)
    assert prob_tree_membership(lifted, f1, tree_from_word(lasso((), ("a", "s"))))
    assert not prob_tree_membership(lifted, f1, tree_from_word(lasso((), ("a",))))


def test_word_tree_membership_equals_lasso_membership():
    rng = random.Random(9)
    sigma = Alphabet(("a", "b"))
    for _ in range(50):
        a = random_simple_pwa(rng, 4, sigma)
        final = frozenset(q for q in sorted(a.states) if rng.random() < 0.5)
        w = random_lasso_word(rng, sigma)
        tree_verdict = prob_tree_membership(lift_diagonal(a), final, tree_from_word(w))
        assert tree_verdict == lasso_membership_word(a, final, w, "cobuchi")


def _assert_verdicts_match_exact_probability(m: MarkovChain, chain) -> Fraction:
    """"buchi" iff the marked bottom components are entered with
    probability 1, "cobuchi" iff with probability 0."""
    p = marked_bottom_probability(m)
    assert 0 <= p <= 1
    assert as_verdict(chain, "buchi") == (p == 1)
    assert as_verdict(chain, "cobuchi") == (p == 0)
    return p


def test_verdicts_match_exact_marked_bottom_probability():
    rng = random.Random(2025)
    seen = set()
    for i in range(240):
        m = _random_chain(rng, 1 + i % 8)
        p = _assert_verdicts_match_exact_probability(m, support_chain(m))
        seen.add(p if p in (0, 1) else "between")
    assert seen == {0, 1, "between"}


def test_product_verdicts_match_exact_marked_bottom_probability():
    """The lasso and lifted products, and trees under split automata."""
    rng = random.Random(2026)
    split_rng = random.Random(2027)
    sigma = Alphabet(("a", "b"))
    seen = set()
    for _ in range(40):
        a = random_simple_pwa(rng, 4, sigma)
        final = frozenset(q for q in sorted(a.states) if rng.random() < 0.5)
        w = random_lasso_word(rng, sigma, 3, 4)
        t = random_regular_tree(rng, 6, sigma)
        cases = [(reachable_part(full_word_chain(a, final, w)), word_chain(a, final, w))]
        for x in (t, tree_from_word(w)):
            for lift in (lift_diagonal, lift_swap):
                c = lift(a)
                cases.append((weighted_tree_chain(c, final, x), tree_chain(c, final, x)))
        b = random_split_automaton(split_rng, 3, sigma)
        b_final = frozenset(q for q in sorted(b.states) if split_rng.random() < 0.5)
        cases.append((weighted_tree_chain(b, b_final, t), tree_chain(b, b_final, t)))
        for m, chain in cases:
            seen.add(_assert_verdicts_match_exact_probability(m, chain))
    assert {0, 1} <= seen


def test_lift_product_chains_are_equal_graphs():
    rng = random.Random(13)
    sigma = Alphabet(("a", "b"))
    for _ in range(30):
        a = random_simple_pwa(rng, 4, sigma)
        final = frozenset(q for q in sorted(a.states) if rng.random() < 0.5)
        w = random_lasso_word(rng, sigma)
        t = tree_from_word(w)
        diagonal, swap = lift_diagonal(a), lift_swap(a)
        assert weighted_tree_chain(diagonal, final, t) == weighted_tree_chain(swap, final, t)
        assert named(tree_chain(diagonal, final, t)) == named(tree_chain(swap, final, t))


def test_chain_builders_match_full_product_oracle():
    rng = random.Random(31)
    split_rng = random.Random(37)
    sigma = Alphabet(("a", "b"))
    for _ in range(60):
        a = random_simple_pwa(rng, 5, sigma)
        final = frozenset(q for q in sorted(a.states) if rng.random() < 0.5)
        w = random_lasso_word(rng, sigma, 4, 5)
        t = with_unreachable_nodes(rng, random_regular_tree(rng, 8, sigma), sigma, 3)
        pairs = [(word_chain(a, final, w), full_word_chain(a, final, w))]
        for lift in (lift_diagonal, lift_swap):
            pairs.append((tree_chain(lift(a), final, t), full_tree_chain(lift(a), final, t)))
        b = random_split_automaton(split_rng, 4, sigma)
        b_final = frozenset(q for q in sorted(b.states) if split_rng.random() < 0.5)
        pairs.append((tree_chain(b, b_final, t), full_tree_chain(b, b_final, t)))
        for fast, full in pairs:
            assert fast.states[0] == full.initial
            assert len(set(fast.states)) == len(fast.states)
            assert named(fast) == weighted_named(reachable_part(full))
            assert not {u for _, u in fast.states} & {"u0", "u1", "u2"}
            bottoms = oracle_bottoms(full)
            assert named_bottoms(fast) == bottoms
            assert as_verdict(fast, "buchi") == all(c & full.marked for c in bottoms)
            assert as_verdict(fast, "cobuchi") == (not any(c & full.marked for c in bottoms))


def _built(build, *args):
    """The chain or verdict, or the message of the missing-row error that
    stopped it."""
    try:
        return build(*args)
    except KeyError as e:
        return str(e)


def _without_a_row(rng, a):
    """a with one transition row removed, picked at random."""
    delta = dict(a.delta)
    del delta[rng.choice(sorted(delta))]
    return type(a)(a.alphabet, a.states, a.initial, delta)


def _reference(build):
    """The verdict from the bottom SCCs of the chain that `build` makes."""
    return lambda a, final, x, kind: as_verdict(build(a, final, x), kind)


def _fork(rng, depth, sigma):
    """The finite binary tree of the given depth, randomly labelled, whose
    leaves loop on themselves."""
    nodes, label, succ0, succ1 = [], {}, {}, {}

    def grow(d):
        v = f"n{len(nodes)}"
        nodes.append(v)
        label[v] = rng.choice(sigma.symbols)
        succ0[v], succ1[v] = (grow(d - 1), grow(d - 1)) if d else (v, v)
        return v

    grow(depth)
    return RegularTree(tuple(nodes), nodes[0], label, succ0, succ1)


def _sticky_split_automaton(rng, n, sigma):
    """A split automaton with one pair per row, which keeps its state on
    both children half the time.  Runs that part at a node and then stay
    apart make verdicts depend on which child is which; the random split
    automata almost never do."""
    states = [f"q{i}" for i in range(n)]
    delta = {(q, x): Distribution.point((q, q) if rng.random() < 0.5
                                        else (rng.choice(states), rng.choice(states)))
             for q in states for x in sigma.symbols}
    return ProbTreeAutomaton(sigma, frozenset(states), states[0], delta)


def test_mask_verdicts_equal_reference_chain_verdicts():
    """`lasso_membership_word` and `prob_tree_membership` decide on state
    masks, with no chain built.  Their verdicts must be those of the
    reference chains' bottom SCCs, under both conditions: on lasso words, on
    both lifts, and on split automata, over trees with unreachable nodes
    and over word trees.  With one transition row removed, both must stop
    with the same missing-row error, or neither.  Sticky split automata on
    forks, and on the forks' mirror images, check that the two children are
    not confused: at least 10 of those draws have a verdict that mirroring
    the fork changes."""
    rng = random.Random(47)
    split_rng = random.Random(53)
    sigma = Alphabet(("a", "b"))
    seen, stopped = collections.Counter(), collections.Counter()
    cases = []
    for _ in range(150):
        a = random_simple_pwa(rng, 5, sigma)
        final = frozenset(q for q in sorted(a.states) if rng.random() < 0.5)
        w = random_lasso_word(rng, sigma, 4, 5)
        t = with_unreachable_nodes(rng, random_regular_tree(rng, 8, sigma), sigma, 3)
        b = random_split_automaton(split_rng, 4, sigma)
        b_final = frozenset(q for q in sorted(b.states) if split_rng.random() < 0.5)
        cases.append((lasso_membership_word, word_chain, a, final, w))
        for x in (t, tree_from_word(w)):
            for lift in (lift_diagonal, lift_swap):
                cases.append((prob_tree_membership, tree_chain, lift(a), final, x))
            cases.append((prob_tree_membership, tree_chain, b, b_final, x))
    mirrored = 0
    for _ in range(400):
        c = _sticky_split_automaton(rng, 4, sigma)
        c_final = frozenset(q for q in sorted(c.states) if rng.random() < 0.5)
        t = with_unreachable_nodes(rng, _fork(rng, rng.randint(1, 2), sigma), sigma, 2)
        mirror = RegularTree(t.nodes, t.root, t.label, t.succ1, t.succ0)
        for x in (t, mirror):
            cases.append((prob_tree_membership, tree_chain, c, c_final, x))
        mirrored += any(as_verdict(tree_chain(c, c_final, t), kind)
                        != as_verdict(tree_chain(c, c_final, mirror), kind)
                        for kind in (BUCHI, COBUCHI))
    for decide, build, aut, marked, x in cases:
        broken = _without_a_row(rng, aut)
        for kind in (BUCHI, COBUCHI):
            verdict = decide(aut, marked, x, kind)
            assert verdict == as_verdict(build(aut, marked, x), kind)
            got = _built(decide, broken, marked, x, kind)
            assert got == _built(_reference(build), broken, marked, x, kind)
            seen[kind, verdict] += 1
            stopped[isinstance(got, str)] += 1
    assert mirrored >= 10
    assert len(seen) == 4 and min(seen.values()) >= 200
    assert min(stopped.values()) >= 200


def test_qualitative_verdicts_depend_only_on_support():
    rng = random.Random(77)
    for _ in range(30):
        m = _random_chain(rng, 5)
        reweighted = {}
        for s, d in m.trans.items():
            support = sorted(d.support())
            weights = [rng.randint(1, 7) for _ in support]
            total = sum(weights)
            reweighted[s] = Distribution(
                {x: Fraction(wt, total) for x, wt in zip(support, weights)}
            )
        m2 = MarkovChain(m.states, m.initial, reweighted, m.marked)
        for kind in ("buchi", "cobuchi"):
            assert as_verdict(support_chain(m), kind) == as_verdict(support_chain(m2), kind)


def test_verdict_rejects_unknown_kind():
    m = chain({"x": Distribution.point("x")}, "x")
    with pytest.raises(ValueError):
        as_verdict(m, "parity")
