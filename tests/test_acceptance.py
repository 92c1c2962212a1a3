"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Everything is seeded; reruns are byte-identical apart from
wall-clock fields.
"""

import random
import time
from fractions import Fraction

import pytest

from qualtree.acceptance import build_acceptance_game, qualitative_membership
from qualtree.automata import (
    Alphabet,
    ProbWordAutomaton,
    cobuchi,
    universal_to_alternating,
)
from qualtree.dist import Distribution
from qualtree.emptiness import build_emptiness_game, fully_observable, solve_imperfect_buchi
from qualtree.gallery import contradictory_uniformity_automaton
from qualtree.games import almost_sure_buchi, almost_sure_reach, number
from qualtree.game_oracles import oracle_almost_sure_buchi, oracle_almost_sure_reach
from qualtree.markov import acceptance_probability, lasso_membership_word
from qualtree.reductions import (
    lift_diagonal,
    lift_swap,
    to_nonzero,
    universalize,
    value1_to_cobuchi,
)
from qualtree.suite import emptiness_crosscheck
from qualtree.trees import lasso, tree_from_word
from arena_oracles import buchi_to_reachability, build_nonzero_arena
from branches import sampled_branch_lasso
from draws import (
    random_arena,
    random_lasso_word,
    random_regular_tree,
    random_simple_pwa,
    random_target,
    random_tree_automaton,
)
from weighted_chains import weighted_tree_chain

AB = Alphabet(("a", "b"))
SEP = "s"


def criterion(n: int, description: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"\ncriterion {n:2d} [{description}]: {status}{tail}")
    assert ok, f"criterion {n} failed: {description} {tail}"


@pytest.fixture(scope="module")
def crosscheck():
    t0 = time.monotonic()
    records = emptiness_crosscheck(seed=1, count=120, max_states=4)
    elapsed = time.monotonic() - t0
    return records, elapsed


@pytest.fixture(scope="module")
def accepted_pairs():
    """Seeded (simple automaton, accepting set, accepted lasso word) triples."""
    rng = random.Random(101)
    out = []
    attempts = 0
    while len(out) < 100 and attempts < 5000:
        attempts += 1
        a = random_simple_pwa(rng, 4, AB)
        final = frozenset(q for q in sorted(a.states) if rng.random() < 0.4)
        if not final:
            continue
        w = random_lasso_word(rng, AB)
        if lasso_membership_word(a, final, w, "cobuchi"):
            out.append((a, final, w))
    assert len(out) == 100
    return out


def test_criterion_1_emptiness_solver_vs_oracle(crosscheck):
    records, elapsed = crosscheck
    disagreements = [r for r in records if not r.agree]
    criterion(
        1,
        "emptiness solver agrees with knowledge-set strategy enumeration",
        len(records) >= 100 and not disagreements and elapsed <= 600,
        f"{len(records)} instances, {elapsed:.1f}s",
    )


def test_criterion_2_witness_roundtrip(crosscheck):
    records, _ = crosscheck
    nonempty = [r for r in records if r.verdict == "nonempty"]
    bad = [r for r in nonempty if r.witness_ok is not True]
    criterion(
        2,
        "every nonempty verdict ships an independently verified witness",
        len(nonempty) > 0 and not bad,
        f"{len(nonempty)} witnesses",
    )


def test_criterion_3_blindness_regression():
    aut, core = contradictory_uniformity_automaton()
    game, target = build_emptiness_game(aut, core)
    blind, _ = solve_imperfect_buchi(game, target)
    observable, _ = solve_imperfect_buchi(fully_observable(game), target)
    criterion(
        3,
        "named automaton is empty while its observable game variant is won",
        blind is False and observable is True,
    )


def test_criterion_4_game_solver_crosschecks():
    rng = random.Random(4)
    ok = True
    detail = ""
    for i in range(200):
        g = random_arena(rng, 7)
        target = random_target(rng, g)
        a, goal, names = number(g, target)
        region_b = {names[v] for v in almost_sure_buchi(a, goal)[0]}
        region_r = {names[v] for v in almost_sure_reach(a, goal)[0]}
        if region_b != oracle_almost_sure_buchi(g, target):
            ok, detail = False, f"buchi mismatch at {i}"
            break
        if region_r != oracle_almost_sure_reach(g, target):
            ok, detail = False, f"reach mismatch at {i}"
            break
        gadget, goal = buchi_to_reachability(g, target)
        a, goal, names = number(gadget, goal)
        gadget_region = {names[v] for v in almost_sure_reach(a, goal)[0]}
        if region_b != gadget_region & g.vertices:
            ok, detail = False, f"gadget mismatch at {i}"
            break
    criterion(4, "solvers match positional enumeration and the reach gadget", ok, detail or "200 arenas")


def test_criterion_5_lift_chains_equal():
    rng = random.Random(5)
    ok = True
    for i in range(100):
        a = random_simple_pwa(rng, 4, AB)
        final = frozenset(q for q in sorted(a.states) if rng.random() < 0.5)
        t = random_regular_tree(rng, 4, AB)
        if weighted_tree_chain(lift_diagonal(a), final, t) != weighted_tree_chain(lift_swap(a), final, t):
            ok = False
            break
    criterion(5, "diagonal and crossed lifts induce equal product chains", ok, "100 pairs, exact")


def test_criterion_6_word_acceptance_transfers_to_word_tree(accepted_pairs):
    ok = True
    for a, final, w in accepted_pairs:
        alt = universal_to_alternating(universalize(a))
        if not qualitative_membership(alt, cobuchi(final), tree_from_word(w)):
            ok = False
            break
    criterion(
        6,
        "accepted lasso words yield accepted single-word trees",
        ok,
        f"{len(accepted_pairs)} accepted pairs, exact",
    )


def test_criterion_7_separator_composite_behaviour():
    # (a) deterministic all-accepting base: the composite accepts s(a s)^w
    delta = {("q", x): Distribution.point("q") for x in AB}
    base = ProbWordAutomaton(AB, frozenset({"q"}), "q", delta)
    composite, bad = value1_to_cobuchi(base, frozenset({"q"}), SEP)
    first = lasso_membership_word(composite, bad, lasso((SEP,), ("a", SEP)), "cobuchi")

    # (b) constant one-half acceptance per block: divergence forces rejection
    states = frozenset({"c", "yes", "no"})
    delta2 = {}
    for x in AB:
        delta2[("c", x)] = Distribution.half_half("yes", "no")
        delta2[("yes", x)] = Distribution.point("yes")
        delta2[("no", x)] = Distribution.point("no")
    coin = ProbWordAutomaton(AB, states, "c", delta2)
    final = frozenset({"yes"})
    assert acceptance_probability(coin, final, ("a",)) == Fraction(1, 2)
    composite2, bad2 = value1_to_cobuchi(coin, final, SEP)
    periods = [("a", SEP), ("b", SEP), ("a", "a", SEP), ("a", "b", SEP), (SEP,)]
    second = all(
        not lasso_membership_word(composite2, bad2, lasso((SEP,), per), "cobuchi")
        for per in periods
    )
    criterion(7, "composite gadget: all-accepting base accepted, half-coin base rejected",
              first and second)


def test_criterion_8_sampled_branches_accepted(accepted_pairs):
    picked = accepted_pairs[:20]
    total = hits = 0
    for a, final, w in picked:
        t = tree_from_word(w)
        for seed in range(500):
            total += 1
            branch = sampled_branch_lasso(t, seed)
            if lasso_membership_word(a, final, branch, "cobuchi"):
                hits += 1
    freq = hits / total
    criterion(8, "sampled branches of accepted word trees are accepted words",
              freq >= 0.99, f"frequency {freq:.4f} over {total} samples")


def test_criterion_9_embedding_arena_identity():
    rng = random.Random(9)
    ok = True
    for i in range(50):
        a, final = random_tree_automaton(rng, 4, AB)
        t = random_regular_tree(rng, 4, AB)
        nz = to_nonzero(a, final)
        arena_nz, _ = build_nonzero_arena(nz, t)
        game = build_acceptance_game(universal_to_alternating(a), final, t)
        if arena_nz != game.arena or nz.f_one != a.states - final:
            ok = False
            break
    criterion(9, "ordered embedding arena is graph-identical to the membership arena",
              ok, "50 pairs, exact")


def test_criterion_10_reproducibility_and_exactness():
    import io
    from contextlib import redirect_stdout

    from qualtree.cli import main

    def run():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["suite", "--seed", "7", "--count", "15", "--max-states", "3"])
        return code, "\n".join(
            ln for ln in buf.getvalue().splitlines() if not ln.startswith("wall-time-ms:")
        )

    code1, out1 = run()
    code2, out2 = run()
    deterministic = code1 == code2 == 0 and out1 == out2

    # exactness: floats are rejected outright; the weights that remain (the
    # lift's rows and the weighted product chain over a tree) are rational
    try:
        Distribution({"x": 0.5, "y": 0.5})
        rejects_floats = False
    except TypeError:
        rejects_floats = True
    a = random_simple_pwa(random.Random(0), 3, AB)
    t = random_regular_tree(random.Random(1), 3, AB)
    lifted = lift_swap(a)
    chain = weighted_tree_chain(lifted, frozenset({"q0"}), t)
    rational = all(
        isinstance(p, Fraction)
        for rows in (lifted.delta.values(), chain.trans.values())
        for d in rows
        for _, p in d.items()
    )
    criterion(10, "seeded reruns are byte-identical and verdict paths are exact",
              deterministic and rejects_floats and rational)
