import dataclasses
import math
import random

import pytest

from qualtree import acceptance, games, nodegraph
from qualtree.acceptance import (
    _node_game,
    build_acceptance_game,
    build_tree_game_arena,
    buchi_node_region,
    qualitative_membership,
    state_vertex,
)
from qualtree.automata import (
    Alphabet,
    AlternatingTreeAutomaton,
    NonZeroAutomaton,
    buchi,
    cobuchi,
    universal_to_alternating,
)
from qualtree.errors import FormatError, ResourceLimit
from qualtree.gallery import constant_tree, contradictory_uniformity_automaton
from qualtree.game_oracles import oracle_almost_sure_buchi
from qualtree.games import (
    OWN_ABELARD,
    OWN_ELOISE,
    OWN_RANDOM,
    PositionalStrategy,
    _attractor,
    almost_sure_buchi,
    arena_moves,
    number,
)
from qualtree.markov import prob_tree_membership
from qualtree.ordering import csorted
from qualtree.reductions import lift_swap, universalize
from qualtree.suite import random_alternating_buchi
from qualtree.trees import RegularTree, lasso, tree_from_word
from arena_oracles import (
    _enumerated_cobuchi,
    arena_region,
    build_nonzero_arena,
    check_buchi_strategy,
    mask_ids,
    named_tree_game_arena,
    state_ids,
)
from draws import layered_buchi, mirrored, random_regular_tree, random_simple_pwa

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


def _with_local_rows(rng, aut) -> NonZeroAutomaton:
    qs = sorted(aut.states)
    local = frozenset((q, a, rng.choice(qs)) for q in qs for a in aut.alphabet
                      if rng.random() < 0.3)
    return NonZeroAutomaton(
        alphabet=aut.alphabet, states=aut.states, order=tuple(qs), initial=aut.initial,
        eloise=aut.eloise, abelard=aut.abelard, local_transitions=local,
        split_transitions=aut.transitions,
        f_forall=aut.states, f_one=frozenset(qs[:1]), f_pos=frozenset(qs[1:]),
    )


def test_integer_arena_names_match_the_named_oracle():
    rng = random.Random(71)
    won = lost = 0
    for _ in range(60):
        aut, final = random_alternating_buchi(rng, max_states=4)
        t = random_regular_tree(rng, 5, aut.alphabet)
        game = build_acceptance_game(aut, final, t)
        oracle = named_tree_game_arena(
            states=aut.states, eloise=aut.eloise, split_transitions=aut.transitions,
            local_transitions=frozenset(), initial_state=aut.initial, tree=t)
        assert game.arena == oracle
        assert game.target == frozenset(state_vertex(q, n) for q in final for n in t.nodes)

        # The integer arena is the named one numbered in its edge order.
        states = csorted(aut.states)
        arena = build_tree_game_arena(aut, t)
        again, goal, names = number(game.arena, game.target)
        assert again == arena and goal == state_ids(states, final, t)
        assert names[:len(states) * len(t.nodes)] == tuple(
            state_vertex(q, n) for q in states for n in t.nodes)

        region, strategy = almost_sure_buchi(arena, goal)
        verdict = qualitative_membership(aut, buchi(final), t)
        assert verdict == (arena.initial in region)
        if verdict:
            total = {v: strategy.choice.get(v, arena.succ[v][0]) for v in arena.eloise}
            assert check_buchi_strategy(arena, goal, PositionalStrategy(strategy.owner, total))
        won += verdict
        lost += not verdict

        # Local rows come before the membership game's random vertices.
        nz = _with_local_rows(rng, aut)
        named, marks = build_nonzero_arena(nz, t)
        for v, out in game.arena.edges.items():
            local = () if v in game.arena.random else tuple(
                state_vertex(q2, v[2]) for (q, s, q2) in sorted(nz.local_transitions)
                if q == v[1] and s == t.label[v[2]])
            assert named.edges[v] == local + out
        assert marks["one"] == frozenset(state_vertex(q, n) for q in nz.f_one for n in t.nodes)
    assert won > 10 and lost > 10


def test_build_single_state_game():
    game = build_acceptance_game(one_state_automaton(), frozenset({"q"}), constant_tree("a"))
    arena = game.arena
    assert len(arena.vertices) == 2  # one state vertex, one transition vertex
    (rv,) = arena.random
    assert len(arena.edges[rv]) == 1  # both children coincide: point mass
    assert arena.initial in game.target


def test_vertex_count_arithmetic():
    rng = random.Random(19)
    coincide = 0
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

        # Ids: (q, n) is rank(q)·|N| + rank(n), then one random id per row.
        states, nodes = csorted(aut.states), t.nodes
        width = len(nodes)
        arena = build_tree_game_arena(aut, t)
        first_coin = len(states) * width
        assert sorted(arena.eloise + arena.abelard) == list(range(first_coin))
        assert arena.random == list(range(first_coin, first_coin + matches))
        assert arena.initial == states.index(aut.initial) * width + nodes.index(t.root)
        for r, q in enumerate(states):
            for i, n in enumerate(nodes):
                v = r * width + i
                assert arena.owner[v] == (OWN_ELOISE if q in aut.eloise else OWN_ABELARD)
                rows = sorted((q0, q1) for (p, a, q0, q1) in aut.transitions
                              if p == q and a == t.label[n])
                assert len(arena.succ[v]) == len(rows)
                for (q0, q1), c in zip(rows, arena.succ[v]):
                    c0 = states.index(q0) * width + nodes.index(t.succ0[n])
                    c1 = states.index(q1) * width + nodes.index(t.succ1[n])
                    assert arena.succ[c] == ((c0,) if c0 == c1 else (c0, c1))
                    coincide += c0 == c1
    assert coincide > 0


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


# ---------------------------------------------------------------------------
# Büchi membership on node masks against the pebble arena it replaced: the
# flat core on the integer arena, and the enumeration oracle on the named one.
# ---------------------------------------------------------------------------


def _tie_node_region_to_the_core(aut, final, t) -> bool:
    """The node masks hold exactly the state vertices of the core's region
    on the pebble arena; returns whether that region is partial."""
    states = csorted(aut.states)
    on_states = arena_region(aut, states, final, t)
    assert mask_ids(buchi_node_region(aut, states, final, t), len(t.nodes)) == on_states
    return 0 < len(on_states) < len(states) * len(t.nodes)


def test_node_region_is_the_arena_cores_region(monkeypatch):
    """10,000 small draws, 40 large ones and 2,000 layered ones: the node
    masks hold exactly the state vertices of the core's region on the
    pebble arena.  The region conditions of the node attractor matter only
    from a third round of the fixed point on, which the random draws almost
    never reach, so at least 100 layered draws must take five node
    attractors or more."""
    rng = random.Random(11)
    partial = 0
    for max_states, max_nodes in [(7, 14)] * 10_000 + [(16, 300)] * 40:
        aut, final = random_alternating_buchi(rng, max_states, max_symbols=3)
        t = random_regular_tree(rng, max_nodes, aut.alphabet)
        partial += _tie_node_region_to_the_core(aut, final, t)
    assert partial >= 100

    attractor, calls = nodegraph.attractor, [0]

    def counted(*args):
        calls[0] += 1
        return attractor(*args)

    monkeypatch.setattr(nodegraph, "attractor", counted)
    rng = random.Random(3)
    rounds = 0
    for _ in range(2_000):
        calls[0] = 0
        _tie_node_region_to_the_core(*layered_buchi(rng))
        rounds += calls[0] >= 5
    assert rounds >= 100


def test_node_attractor_is_the_arena_attractor():
    """On random regions and bases, escape-proof or not, `nodegraph.attractor`
    joins exactly the state vertices that `games._attractor` joins on the
    pebble arena, whose region holds those state vertices and the coins
    whose children both lie in it."""
    rng = random.Random(17)
    vacuous = 0
    for _ in range(1500):
        aut, _ = random_alternating_buchi(rng, max_states=6, max_symbols=2)
        eloise = frozenset(q for q in aut.states if rng.random() < 0.5)
        aut = dataclasses.replace(aut, eloise=eloise, abelard=aut.states - eloise)
        t = random_regular_tree(rng, 8, aut.alphabet)
        states = csorted(aut.states)
        k, width = len(states), len(t.nodes)
        region = [sum(1 << r for r in range(k) if rng.random() < 0.8) for _ in t.nodes]
        base = [m & sum(1 << r for r in range(k) if rng.random() < 0.2) for m in region]
        arena = build_tree_game_arena(aut, t)
        inside = bytearray(region[v % width] >> (v // width) & 1 for v in range(k * width))
        inside += bytes(all(inside[w] for w in ws) for ws in arena.succ[k * width:])
        pred: list = [[] for _ in arena.succ]
        for v, ws in enumerate(arena.succ):
            for w in ws:
                pred[w].append(v)
        left = [sum(inside[w] for w in ws) for ws in arena.succ]
        vacuous += any(inside[v] and not left[v] for v in range(k * width))
        hers = sum(1 << r for r, q in enumerate(states) if q in eloise)
        ids = sorted(r * width + n for n, m in enumerate(base) for r in range(k) if m >> r & 1)
        for mine, code in ((hers, OWN_ELOISE), (~hers, OWN_ABELARD)):
            attracts = bytes(o in (code, OWN_RANDOM) for o in arena.owner)
            step = _attractor(pred, bytearray(inside), ids, attracts, left.copy())
            joined = nodegraph.attractor(_node_game(aut, states, t), region, base, mine)
            assert mask_ids(joined, width) == {v for v in range(k * width) if step[v] >= 0}
    assert vacuous > 100


def test_node_region_is_the_oracles_region():
    rng = random.Random(13)
    won_some = lost_some = 0
    for _ in range(300):
        aut, final = random_alternating_buchi(rng, max_states=4, max_symbols=3)
        t = random_regular_tree(rng, 4, aut.alphabet)
        game = build_acceptance_game(aut, final, t)
        won = oracle_almost_sure_buchi(game.arena, game.target)
        states = csorted(aut.states)
        masks = buchi_node_region(aut, states, final, t)
        assert {state_vertex(q, n) for n, m in zip(t.nodes, masks)
                for r, q in enumerate(states) if m >> r & 1} == {
            v for v in won if v in game.arena.eloise | game.arena.abelard}
        verdict = qualitative_membership(aut, buchi(final), t)
        assert verdict == (game.arena.initial in won)
        won_some += verdict
        lost_some += not verdict
    assert won_some > 50 and lost_some > 50


def _raised(call) -> tuple:
    with pytest.raises((FormatError, ValueError)) as e:
        call()
    return type(e.value), str(e.value)


def test_buchi_route_raises_the_builders_errors():
    """Missing rows, undeclared states and foreign nodes fail the Büchi
    route with the builder's exception and message, and a missing row fails
    the co-Büchi route, on the same node game, with them too."""
    rng = random.Random(43)
    holes = 0
    for _ in range(300):
        aut, final = random_alternating_buchi(rng, max_states=5, max_symbols=3)
        t = random_regular_tree(rng, 6, aut.alphabet)
        states = csorted(aut.states)
        gone = {(q, s) for q in states for s in aut.alphabet if rng.random() < 0.15}
        bad = dataclasses.replace(aut, complete=False, transitions=frozenset(
            r for r in aut.transitions if r[:2] not in gone))
        try:
            build_tree_game_arena(bad, t)
        except FormatError as e:
            holes += 1
            expected = (FormatError, str(e))
            assert _raised(lambda: qualitative_membership(bad, buchi(final), t)) == expected
            assert _raised(lambda: qualitative_membership(bad, cobuchi(final), t)) == expected
        else:
            assert mask_ids(buchi_node_region(bad, states, final, t), len(t.nodes)) == (
                arena_region(bad, states, final, t))

        # Rows from an undeclared state are ignored; rows to one, or an
        # undeclared initial state, are rejected.
        q, s = rng.choice(states), rng.choice(list(aut.alphabet))
        ignored = dataclasses.replace(aut, transitions=aut.transitions | {("zz", s, q, q)})
        assert qualitative_membership(ignored, buchi(final), t) == qualitative_membership(
            aut, buchi(final), t)
        for undeclared in (
            dataclasses.replace(aut, initial="zz"),
            dataclasses.replace(aut, transitions=aut.transitions | {(q, s, "zz", "zy")}),
        ):
            expected = _raised(lambda: build_tree_game_arena(undeclared, t))
            assert expected[0] is ValueError and expected[1].startswith("undeclared states: z")
            assert _raised(lambda: qualitative_membership(undeclared, buchi(final), t)) == expected
        n = rng.choice(t.nodes)
        for foreign in (dataclasses.replace(t, root="zz"),
                        dataclasses.replace(t, succ1={**t.succ1, n: "zz"})):
            expected = _raised(lambda: build_tree_game_arena(aut, foreign))
            assert _raised(lambda: qualitative_membership(aut, buchi(final), foreign)) == expected
    assert holes > 100


# ---------------------------------------------------------------------------
# Co-Büchi membership on the node game's rows against the pebble arena's
# coins it replaced, and the named enumeration oracle.
# ---------------------------------------------------------------------------


def test_cobuchi_node_rows_are_the_arena_coins(monkeypatch):
    """1,200 draws: random ones, with her rows mirrored on every second one,
    and layered ones.  Co-Büchi membership hands `games.almost_sure_cobuchi`
    the node game's rows, which must be the arena's coins: at each state
    vertex the coins' supports, in the arena's order, so her move count,
    and with it the choice bound's refusals, are the arena's.  Under a
    small choice bound, membership, the fixed point on the arena's moves
    and the named enumeration oracle refuse the same draws and agree on
    the rest."""
    bound = 64
    calls = []

    def bounded(moves, mine, initial, target):
        calls.append((moves, mine, initial, frozenset(target)))
        return games.almost_sure_cobuchi(moves, mine, initial, target, bound)

    def verdict(solve):
        try:
            return solve()
        except ResourceLimit:
            return "refused"

    monkeypatch.setattr(acceptance, "almost_sure_cobuchi", bounded)
    rng = random.Random(29)
    seen = {True: 0, False: 0, "refused": 0}
    loops = twins = 0
    for i in range(1200):
        if i % 6 == 5:
            aut, final, t = layered_buchi(rng)
        else:
            aut, final = random_alternating_buchi(rng, max_states=4)
            if i % 2:
                aut = mirrored(rng, aut)
            t = random_regular_tree(rng, 5, aut.alphabet)
        states = csorted(aut.states)
        arena, goal = build_tree_game_arena(aut, t), state_ids(states, final, t)
        calls.clear()
        got = verdict(lambda: qualitative_membership(aut, cobuchi(final), t))
        ((moves, mine, initial, target),) = calls
        assert moves == [tuple(frozenset(arena.succ[c]) for c in arena.succ[v])
                         for v in range(len(states) * len(t.nodes))]
        assert (mine, initial, target) == (arena.eloise, arena.initial, goal)
        assert math.prod(len(moves[v]) for v in mine) == math.prod(
            len(arena.succ[v]) for v in arena.eloise)
        assert got == verdict(lambda: games.almost_sure_cobuchi(
            arena_moves(arena), arena.eloise, arena.initial, goal, bound))
        game = build_acceptance_game(aut, final, t)
        assert got == verdict(lambda: _enumerated_cobuchi(game.arena, game.target, bound))
        seen[got] += 1
        loops += any(t.succ0[n] == t.succ1[n] for n in t.nodes)
        twins += any(len(set(moves[v])) < len(moves[v]) for v in mine)
    assert min(seen.values()) >= 150 and loops >= 600 and twins >= 60, (seen, loops, twins)
