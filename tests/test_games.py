import collections
import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from qualtree import acceptance
from qualtree.acceptance import (
    build_acceptance_game,
    build_tree_game_arena,
    qualitative_membership,
    state_vertex,
)
from qualtree.automata import cobuchi
from qualtree.dist import Distribution
from qualtree.emptiness import ImperfectInfoArena, build_emptiness_game
from qualtree.errors import ResourceLimit
from qualtree.games import (
    ELOISE,
    OWN_ABELARD,
    OWN_ELOISE,
    OWN_RANDOM,
    Arena,
    MdpView,
    PositionalStrategy,
    StochasticArena,
    _as_buchi_core,
    almost_sure_buchi,
    almost_sure_cobuchi,
    almost_sure_reach,
    arena_moves,
    eloise_positional_strategies,
    fix_strategy,
    mec_decomposition,
    number,
)
from qualtree.game_oracles import (
    oracle_almost_sure_buchi,
    oracle_almost_sure_cobuchi,
    oracle_almost_sure_reach,
)
from qualtree.graphs import reachable, sccs
from qualtree.markov import as_verdict
from qualtree.ordering import ckey, csorted
from qualtree.suite import random_alternating_buchi
import arena_oracles
from arena_oracles import (
    Mdp,
    _enumerated_cobuchi,
    _positive_buchi_view,
    buchi_to_reachability,
    check_buchi_strategy,
    check_reach_strategy,
    controller_positive_avoid,
    controller_positive_buchi,
    controller_positive_cobuchi,
    named_full_information_arena,
    random_mdp_arena,
    state_ids,
    view_of_mdp,
    with_initial,
)
from draws import (
    layered_buchi,
    mirrored,
    random_arena,
    random_imperfect_arena,
    random_regular_tree,
    random_target,
)
from weighted_chains import as_markov_chain, named_bottoms, support_chain


def max_end_components(m: Mdp) -> list[tuple[frozenset, frozenset]]:
    """MECs of an arena MDP by name, each with its retained edge set."""
    view = view_of_mdp(m)
    result = []
    for ids in mec_decomposition(view):
        comp = frozenset(view.states[i] for i in ids)
        kept = set()
        for v in comp:
            if v in m.arena.random:
                kept |= {(v, w) for w in m.arena.edges[v]}
            else:
                kept |= {(v, w) for w in m.arena.edges[v] if w in comp}
        result.append((comp, frozenset(kept)))
    return result


def total_strategy(a: Arena, s: PositionalStrategy) -> PositionalStrategy:
    """Extend a partial strategy of hers to all her vertices (first
    successor elsewhere).

    Harmless for strategies produced by the solvers: from inside the
    winning region the play never visits the filled-in vertices.
    """
    choice = dict(s.choice)
    for v in a.eloise:
        choice.setdefault(v, a.succ[v][0])
    return PositionalStrategy(ELOISE, choice)


def on_names(solve, g: StochasticArena, target):
    """A solver on ids run on a named arena: numbered once, then the region
    and the strategy named back."""
    a, goal, names = number(g, target)
    region, s = solve(a, goal)
    return (frozenset(names[v] for v in region),
            PositionalStrategy(s.owner, {names[v]: names[w] for v, w in s.choice.items()}))


def cobuchi_on_names(g: StochasticArena, target, choice_bound: int = 2**20) -> bool:
    a, goal, _ = number(g, target)
    return almost_sure_cobuchi(arena_moves(a), a.eloise, a.initial, goal, choice_bound)


def arena(owners, edges, dist=None, initial=None):
    groups = {"eloise": set(), "abelard": set(), "random": set()}
    for v, o in owners.items():
        groups[o].add(v)
    return StochasticArena(
        eloise=frozenset(groups["eloise"]),
        abelard=frozenset(groups["abelard"]),
        random=frozenset(groups["random"]),
        edges={v: tuple(ws) for v, ws in edges.items()},
        dist=dist or {},
        initial=initial or sorted(owners)[0],
    )


def test_arena_rejects_dead_ends_and_bad_support():
    with pytest.raises(ValueError, match="dead-end"):
        arena({"v": "eloise"}, {"v": ()})
    with pytest.raises(ValueError, match="support"):
        arena(
            {"v": "random", "w": "eloise"},
            {"v": ("v", "w"), "w": ("w",)},
            dist={"v": Distribution.point("v")},
        )


def test_fix_strategy_identity_when_no_owned_vertices():
    a = Arena([(0, 1), (0,)], bytes([OWN_ABELARD, OWN_RANDOM]), 0)
    view = fix_strategy(a, {})
    assert list(view.states) == [0, 1] and view.initial == 0
    assert view.moves == [(frozenset({0}), frozenset({1})), (frozenset({0}),)]


def test_fix_strategy_point_distribution():
    # her vertex 0 chooses between his self-loops 1 and 2
    a = Arena([(1, 2), (1,), (2,)], bytes([OWN_ELOISE, OWN_ABELARD, OWN_ABELARD]), 0)
    view = fix_strategy(a, {0: 2})
    assert view.moves[0] == (frozenset({2}),)
    assert view.moves[1:] == [(frozenset({1}),), (frozenset({2}),)]


def test_fix_strategy_names_uncovered_vertex():
    a = Arena([(0, 1), (1,)], bytes([OWN_ELOISE, OWN_ELOISE]), 0)
    with pytest.raises(ValueError, match="vertex 1"):
        fix_strategy(a, {0: 1})
    with pytest.raises(ValueError, match="choice 0 at 1 is not an edge"):
        fix_strategy(a, {0: 1, 1: 0})


def test_fixing_both_players_gives_a_simulatable_chain():
    rng = random.Random(31)
    for _ in range(10):
        g = random_arena(rng, 5)
        target = random_target(rng, g)
        s_e = next(arena_oracles.eloise_positional_strategies(g))
        m1 = arena_oracles.fix_strategy(g, s_e)
        s_a = PositionalStrategy("abelard", {v: m1.arena.edges[v][0] for v in m1.arena.eloise})
        m2 = arena_oracles.fix_strategy(
            StochasticArena(frozenset(), m1.arena.eloise, m1.arena.random,
                            m1.arena.edges, m1.arena.dist, m1.arena.initial),
            s_a,
        )
        chain = as_markov_chain(m2, target)
        verdict = as_verdict(support_chain(chain), "buchi")
        # play simulation frequency agrees with the exact verdict
        hits = 0
        plays, horizon, burn = 300, 120, 60
        for p in range(plays):
            prng = random.Random(p * 1009 + 17)
            cur = chain.initial
            seen = False
            for step in range(horizon):
                items = chain.trans[cur].items()
                roll = prng.random()
                acc = 0.0
                for x, pr in items:
                    acc += float(pr)
                    if roll < acc:
                        cur = x
                        break
                if step >= burn and cur in chain.marked:
                    seen = True
            hits += seen
        freq = hits / plays
        assert (freq > 0.95) if verdict else True
        if freq > 0.999 and not verdict:
            pytest.fail("simulation contradicts a negative verdict")


def test_mec_self_loop_controller():
    g = arena({"v": "eloise"}, {"v": ("v",)})
    mecs = max_end_components(Mdp(g))
    assert mecs == [(frozenset({"v"}), frozenset({("v", "v")}))]


def test_empty_candidate_has_no_end_components_without_tarjan(monkeypatch):
    def no_sccs(adj):
        raise AssertionError("sccs called on an empty candidate")

    monkeypatch.setattr("qualtree.games.sccs", no_sccs)
    view = MdpView(("s",), 0, ((frozenset({0}),),))
    assert mec_decomposition(view, within=frozenset()) == []


def test_mecs_of_pure_chain_coincide_with_bsccs():
    rng = random.Random(4)
    for _ in range(20):
        g = random_mdp_arena(rng, 5)
        pure = StochasticArena(
            frozenset(), frozenset(),
            g.eloise | g.random,
            {v: g.edges[v] if v in g.random else (g.edges[v][0],) for v in g.vertices},
            {**g.dist, **{v: Distribution.point(g.edges[v][0]) for v in g.eloise}},
            g.initial,
        )
        chain = as_markov_chain(Mdp(pure), frozenset())
        chain_bottoms = named_bottoms(support_chain(chain))
        reachable_mecs = {
            comp
            for comp, _ in max_end_components(Mdp(pure))
            if comp & set().union(*chain_bottoms) or _graph_reachable(pure, comp)
        }
        assert chain_bottoms <= {c for c, _ in max_end_components(Mdp(pure))}
        assert chain_bottoms == {c for c in reachable_mecs if _is_bottom(pure, c)}


def _graph_reachable(g, comp):
    seen = {g.initial}
    stack = [g.initial]
    while stack:
        v = stack.pop()
        if v in comp:
            return True
        for w in g.edges[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def _is_bottom(g, comp):
    return all(set(g.edges[v]) <= comp for v in comp)


def _brute_force_mecs(m: Mdp):
    g = m.arena
    vs = sorted(g.vertices)
    ecs = []
    for r in range(1, len(vs) + 1):
        for sub in itertools.combinations(vs, r):
            s = frozenset(sub)
            ok = True
            for v in s:
                if v in g.random:
                    if not set(g.edges[v]) <= s:
                        ok = False
                        break
                else:
                    if not any(w in s for w in g.edges[v]):
                        ok = False
                        break
            if not ok:
                continue

            def succ(v):
                if v in g.random:
                    return [w for w in g.edges[v]]
                return [w for w in g.edges[v] if w in s]

            ids = {v: i for i, v in enumerate(sub)}
            comps = sccs([[ids[w] for w in succ(v)] for v in sub])
            if len(comps) == 1 and len(comps[0]) == len(s):
                ecs.append(s)
    return {e for e in ecs if not any(e < f for f in ecs)}


def test_mecs_match_subset_brute_force():
    # hand-built five-vertex controller MDP with a proper sub end component
    g = arena(
        {"a": "eloise", "b": "eloise", "c": "random", "d": "eloise", "e": "eloise"},
        {
            "a": ("b", "d"),
            "b": ("a",),
            "c": ("a", "e"),
            "d": ("c", "d"),
            "e": ("e",),
        },
        dist={"c": Distribution.half_half("a", "e")},
    )
    m = Mdp(g)
    assert {c for c, _ in max_end_components(m)} == _brute_force_mecs(m)
    rng = random.Random(8)
    for _ in range(40):
        m = Mdp(random_mdp_arena(rng, 5))
        assert {c for c, _ in max_end_components(m)} == _brute_force_mecs(m)


def test_controller_positive_buchi_trivial_cases():
    g = arena({"v": "eloise"}, {"v": ("v",)})
    assert not controller_positive_buchi(Mdp(g), frozenset())
    assert controller_positive_buchi(Mdp(g), frozenset({"v"}))


def _enumerate_controller_positive_buchi(m: Mdp, target) -> bool:
    g = m.arena
    for s in arena_oracles.eloise_positional_strategies(g):
        chain = as_markov_chain(arena_oracles.fix_strategy(g, s), target)
        if any(c & target for c in named_bottoms(support_chain(chain))):
            return True
    return False


def test_controller_positive_buchi_matches_enumeration():
    rng = random.Random(21)
    for _ in range(200):
        m = Mdp(random_mdp_arena(rng, 6))
        target = random_target(rng, m.arena)
        assert controller_positive_buchi(m, target) == _enumerate_controller_positive_buchi(m, target)


def _whole_mdp_positive_buchi(view, target) -> bool:
    """Decompose the whole MDP, then keep the end components the initial
    state reaches: the oracle for the decomposition of the reachable part."""
    reach = reachable([view.initial], view.succ)
    return any(c & target and c & reach for c in mec_decomposition(view))


def test_positive_buchi_on_reachable_part_matches_whole_mdp():
    rng = random.Random(71)
    verdicts, partial = set(), 0
    for _ in range(200):
        a, _, _ = number(random_arena(rng, 8), frozenset())
        fixed = fix_strategy(a, next(eloise_positional_strategies(a)).choice)
        for view in (fixed, view_of_mdp(Mdp(random_mdp_arena(rng, 8)))):
            partial += len(reachable([view.initial], view.succ)) < len(view.states)
            n = len(view.states)
            for target in (frozenset(rng.sample(range(n), rng.randint(0, n))), frozenset(range(n))):
                verdict = _positive_buchi_view(view, target)
                assert verdict == _whole_mdp_positive_buchi(view, target)
                verdicts.add(verdict)
    assert verdicts == {True, False} and partial > 100


def _renumbered(g, rng):
    """The arena again, through the public constructor, with its edges
    inserted in shuffled order: the solvers number vertices in that order."""
    order = csorted(g.vertices)
    rng.shuffle(order)
    return StochasticArena(g.eloise, g.abelard, g.random,
                           {v: g.edges[v] for v in order}, g.dist, g.initial)


def _cobuchi_check(a, goal, s) -> bool:
    return not _positive_buchi_view(fix_strategy(a, s.choice), goal)


def test_oracles_decide_every_start_as_the_per_start_checks():
    """One end-component decomposition per strategy gives, from every start
    vertex, the verdict of the exact strategy check played from that vertex,
    for Büchi, reach and co-Büchi: on seeded random arenas with a random
    target, an empty one and a full one."""
    rng = random.Random(89)
    partial = collections.Counter()
    for _ in range(500):
        g = random_arena(rng, 6)
        for target in (random_target(rng, g), frozenset(), g.vertices):
            a, goal, names = number(g, target)
            strategies = list(eloise_positional_strategies(a))
            for oracle, check in ((oracle_almost_sure_buchi, check_buchi_strategy),
                                  (oracle_almost_sure_reach, check_reach_strategy),
                                  (oracle_almost_sure_cobuchi, _cobuchi_check)):
                won = {names[v] for v in range(len(names))
                       if any(check(replace(a, initial=v), goal, s) for s in strategies)}
                assert oracle(g, target) == won
                partial[oracle] += 0 < len(won) < len(names)
    assert len(partial) == 3 and min(partial.values()) >= 50


def test_verdicts_do_not_depend_on_the_numbering():
    rng = random.Random(61)
    for _ in range(60):
        g = random_arena(rng, 7)
        target = random_target(rng, g)
        g2 = _renumbered(g, rng)
        for solve in (almost_sure_buchi, almost_sure_reach):
            assert on_names(solve, g2, target) == on_names(solve, g, target)
        for oracle in (oracle_almost_sure_buchi, oracle_almost_sure_reach):
            assert oracle(g2, target) == oracle(g, target)
        m = Mdp(random_mdp_arena(rng, 6))
        target = random_target(rng, m.arena)
        m2 = Mdp(_renumbered(m.arena, rng))
        for positive in (controller_positive_buchi, controller_positive_cobuchi,
                         controller_positive_avoid):
            assert positive(m2, target) == positive(m, target)
        assert set(max_end_components(m2)) == set(max_end_components(m))


def test_almost_sure_reach_contains_target_initial():
    g = arena({"v": "eloise", "w": "eloise"}, {"v": ("w",), "w": ("w",)})
    region, _ = on_names(almost_sure_reach, g, frozenset({"v"}))
    assert "v" in region


def test_almost_sure_reach_rejects_coin_to_wrong_sink():
    g = arena(
        {"s": "random", "yes": "eloise", "no": "eloise"},
        {"s": ("yes", "no"), "yes": ("yes",), "no": ("no",)},
        dist={"s": Distribution.half_half("yes", "no")},
        initial="s",
    )
    region, _ = on_names(almost_sure_reach, g, frozenset({"yes"}))
    assert "s" not in region and "yes" in region and "no" not in region


def test_almost_sure_buchi_trivial_cases():
    g = arena({"v": "eloise"}, {"v": ("v",)})
    region, _ = on_names(almost_sure_buchi, g, frozenset({"v"}))
    assert "v" in region
    region2, _ = on_names(almost_sure_buchi, g, frozenset())
    assert not region2


def test_solvers_and_strategies_match_oracles_on_random_suite():
    rng = random.Random(2)
    for _ in range(120):
        g = random_arena(rng, 7)
        target = random_target(rng, g)
        a, goal, names = number(g, target)
        region_b, strat_b = almost_sure_buchi(a, goal)
        assert {names[v] for v in region_b} == oracle_almost_sure_buchi(g, target)
        region_r, strat_r = almost_sure_reach(a, goal)
        assert {names[v] for v in region_r} == oracle_almost_sure_reach(g, target)
        if a.initial in region_b:
            assert check_buchi_strategy(a, goal, total_strategy(a, strat_b))
        if a.initial in region_r:
            assert check_reach_strategy(a, goal, total_strategy(a, strat_r))


def test_check_buchi_strategy_reduces_to_chain_verdict_without_opponent():
    g = arena(
        {"s": "random", "x": "random"},
        {"s": ("x",), "x": ("s", "x")},
        dist={"s": Distribution.point("x"), "x": Distribution.half_half("s", "x")},
        initial="s",
    )
    s = PositionalStrategy(ELOISE, {})
    chain = as_markov_chain(arena_oracles.fix_strategy(g, s), frozenset({"x"}))
    a, goal, _ = number(g, frozenset({"x"}))
    assert check_buchi_strategy(a, goal, s) == as_verdict(support_chain(chain), "buchi")


def test_check_buchi_strategy_rejects_target_free_cycle():
    g = arena(
        {"e": "eloise", "f": "eloise", "loop": "eloise"},
        {"e": ("f", "loop"), "f": ("e",), "loop": ("loop",)},
        initial="e",
    )
    a, goal, names = number(g, frozenset({"f"}))
    e, f, loop = (names.index(v) for v in ("e", "f", "loop"))
    bad = PositionalStrategy(ELOISE, {e: loop, f: e, loop: loop})
    good = PositionalStrategy(ELOISE, {e: f, f: e, loop: loop})
    assert not check_buchi_strategy(a, goal, bad)
    assert check_buchi_strategy(a, goal, good)


def test_id_strategy_checks_tie_to_the_named_reference():
    """On every positional strategy of 300 seeded arenas, `fix_strategy`
    leaves the named, weighted MDP it replaced, numbered in the same order,
    and the checks on ids give the named checks' verdicts.  On the same
    arenas, `almost_sure_reach` on ids gives the region and the choices of
    the named route it replaced: the named absorbing arena numbered into
    the core, with her target vertices on their first edge."""
    rng = random.Random(19)
    verdicts, strategies = set(), 0
    for _ in range(300):
        g = random_arena(rng, 8)
        target = random_target(rng, g)
        a, goal, names = number(g, target)
        for s in eloise_positional_strategies(a):
            named = PositionalStrategy(ELOISE, {names[v]: names[w] for v, w in s.choice.items()})
            m = arena_oracles.fix_strategy(g, named)
            view, old = fix_strategy(a, s.choice), view_of_mdp(m)
            assert (tuple(names[v] for v in view.states), view.initial, view.moves) == (
                old.states, old.initial, old.moves)
            verdict = (check_buchi_strategy(a, goal, s), check_reach_strategy(a, goal, s))
            assert verdict == (not controller_positive_cobuchi(m, target),
                               not controller_positive_avoid(m, target))
            verdicts.add(verdict)
            strategies += 1
        absorbed, goal2, names2 = number(arena_oracles._absorb(g, target), target)
        old_region, old_choice = _as_buchi_core(absorbed, goal2)
        old_choice = {names2[v]: names2[w] for v, w in old_choice.items()}
        old_choice.update({v: g.edges[v][0] for v in g.eloise & target})
        region, s = almost_sure_reach(a, goal)
        assert {names[v] for v in region} == {names2[v] for v in old_region}
        assert {names[v]: names[w] for v, w in s.choice.items()} == old_choice
    assert verdicts == {(True, True), (False, True), (False, False)} and strategies > 1000


def test_almost_sure_cobuchi_trivial_cases():
    g = arena({"v": "eloise"}, {"v": ("v",)})
    assert cobuchi_on_names(g, frozenset())
    assert not cobuchi_on_names(g, frozenset({"v"}))


def test_almost_sure_cobuchi_wins_where_simpler_formulas_lose():
    """His vertex v in C loops, or steps to the target t.  From t the play
    goes to the safe sink s, so she wins at v, where no sure-safe set is
    reached: the one-level νX. ASReach_X(Safe_X(C)) says lost.  In the
    second game his other move is a coin to t or s, and t leads back to v:
    she wins at v again, where the union of the safe and the reach
    predecessor sets says lost, since neither holds both of his moves."""
    g = arena({"v": "abelard", "t": "eloise", "s": "eloise"},
              {"v": ("v", "t"), "t": ("s",), "s": ("s",)}, initial="v")
    assert cobuchi_on_names(g, frozenset({"t"})) and _enumerated_cobuchi(g, frozenset({"t"}))
    v, t, s = (frozenset((i,)) for i in range(3))
    assert almost_sure_cobuchi([(v, t | s), (v,), (s,)], [], 0, [1])
    g = arena({"v": "abelard", "c": "random", "t": "eloise", "s": "eloise"},
              {"v": ("v", "c"), "c": ("t", "s"), "t": ("v",), "s": ("s",)},
              dist={"c": Distribution.half_half("t", "s")}, initial="v")
    assert _enumerated_cobuchi(g, frozenset({"t"}))


def test_almost_sure_cobuchi_loses_only_at_her_moveless_vertex():
    """A vertex of hers with no move is lost, and no other vertex is lost
    for it.  No game of the program has one: `StochasticArena` rejects
    dead ends, and membership's node game a state with no row for a label
    of the tree, with the builder's error."""
    loop = (frozenset((0,)),)
    assert almost_sure_cobuchi([loop, ()], [1], 0, [])
    assert not almost_sure_cobuchi([loop, ()], [1], 1, [])


def test_almost_sure_cobuchi_collapses_on_controller_free_arenas():
    rng = random.Random(6)
    for _ in range(100):
        g = random_mdp_arena(rng, 5)
        flipped = StochasticArena(
            frozenset(), g.eloise, g.random, g.edges, g.dist, g.initial
        )
        target = random_target(rng, flipped)
        expected = not controller_positive_buchi(
            Mdp(StochasticArena(g.eloise, frozenset(), g.random, g.edges, g.dist, g.initial)),
            target,
        )
        assert cobuchi_on_names(flipped, target) == expected


def test_almost_sure_cobuchi_size_guard():
    owners = {f"v{i}": "eloise" for i in range(25)}
    edges = {f"v{i}": tuple(f"v{j}" for j in range(25)) for i in range(25)}
    g = arena(owners, edges, initial="v0")
    for solve in (cobuchi_on_names, _enumerated_cobuchi):
        with pytest.raises(ResourceLimit):
            solve(g, frozenset({"v0"}))


def _node_game_calls(monkeypatch, draws) -> list:
    """For each (automaton, accepting states, tree), the arguments co-Büchi
    membership hands `almost_sure_cobuchi`, with the named acceptance game."""
    calls = []
    monkeypatch.setattr(acceptance, "almost_sure_cobuchi", lambda *args: calls.append(args))
    out = []
    for aut, final, t in draws:
        qualitative_membership(aut, cobuchi(final), t)
        (moves, mine, _, goal), = calls
        calls.clear()
        names = [state_vertex(q, n) for q in csorted(aut.states) for n in t.nodes]
        out.append((moves, mine, goal, names, build_acceptance_game(aut, final, t)))
    return out


def test_almost_sure_cobuchi_matches_the_enumeration_oracle(monkeypatch):
    """The fixed point and the enumeration oracle agree from every start
    vertex: on random arenas with three targets, and on the node game that
    co-Büchi membership hands the fixed point, of random automata, with
    her rows mirrored on every second draw, and of layered ones, against
    the named pebble arena.  Draws with more than 2**7 positional
    strategies are skipped, to keep the enumeration short."""
    rng = random.Random(83)
    seen = {True: 0, False: 0}
    for _ in range(150):
        g = random_arena(rng, 8)
        for target in _targets(rng, g):
            a, goal, names = number(g, target)
            for v, name in enumerate(names):
                verdict = almost_sure_cobuchi(arena_moves(a), a.eloise, v, goal)
                assert verdict == _enumerated_cobuchi(with_initial(g, name), target)
                seen[verdict] += 1
    rng = random.Random(29)
    draws = []
    for i in range(240):
        if i % 4 == 3:
            draws.append(layered_buchi(rng))
            continue
        aut, final = random_alternating_buchi(rng, max_states=4)
        t = random_regular_tree(rng, 5, aut.alphabet)
        draws.append((mirrored(rng, aut) if i % 2 else aut, final, t))
    tied = 0
    for moves, mine, goal, names, game in _node_game_calls(monkeypatch, draws):
        assert all(moves)
        if math.prod(len(moves[v]) for v in mine) > 2**7:
            continue
        tied += 1
        for v, name in enumerate(names):
            verdict = almost_sure_cobuchi(moves, mine, v, goal)
            assert verdict == _enumerated_cobuchi(with_initial(game.arena, name), game.target)
            seen[verdict] += 1
    assert tied >= 150 and min(seen.values()) >= 500, (tied, seen)


def test_gadget_structure_and_trivial_instance():
    g = arena({"f": "random"}, {"f": ("f",)}, dist={"f": Distribution.point("f")})
    g2, goal = buchi_to_reachability(g, frozenset({"f"}))
    (goal_vertex,) = goal
    gate = ("gate", "f")
    assert g2.dist[gate] == Distribution.half_half(goal_vertex, "f")
    assert g2.edges[gate] == (goal_vertex, "f")
    region, _ = on_names(almost_sure_reach, g2, goal)
    assert g2.initial in region


def test_gadget_preserves_verdicts_everywhere():
    rng = random.Random(14)
    for _ in range(60):
        g = random_arena(rng, 6)
        target = random_target(rng, g)
        region_b, _ = on_names(almost_sure_buchi, g, target)
        g2, goal = buchi_to_reachability(g, target)
        region_r, _ = on_names(almost_sure_reach, g2, goal)
        assert region_b == region_r & g.vertices


def test_verdicts_invariant_under_reweighting():
    rng = random.Random(15)
    for _ in range(40):
        g = random_arena(rng, 6)
        target = random_target(rng, g)
        dist2 = {}
        for v in g.random:
            support = g.edges[v]
            weights = [rng.randint(1, 9) for _ in support]
            total = sum(weights)
            dist2[v] = Distribution({w: Fraction(x, total) for w, x in zip(support, weights)})
        g2 = StochasticArena(g.eloise, g.abelard, g.random, g.edges, dist2, g.initial)
        # the solvers and the oracles see only the numbered arena
        assert number(g, target) == number(g2, target)


def test_with_initial_moves_the_start_vertex():
    g = arena({"v": "eloise", "w": "eloise"}, {"v": ("w",), "w": ("w",)})
    assert with_initial(g, "w").initial == "w"


# The sweep that the integer core replaced, kept as a second oracle: every
# round re-sorts the region, and pruning rescans it to a fixed point.


def _sweep_positive_attractor(g, region, target):
    rank = {v: 0 for v in region & target}
    witness = {}
    changed = True
    while changed:
        changed = False
        for v in csorted(region - rank.keys()):
            succ = g.edges[v]
            if v in g.abelard:
                if all(w in rank for w in succ):
                    rank[v] = 1 + max(rank[w] for w in succ)
                    changed = True
            else:
                inside = [w for w in succ if w in rank]
                if inside:
                    best = min(inside, key=lambda w: (rank[w], ckey(w)))
                    rank[v] = rank[best] + 1
                    witness[v] = best
                    changed = True
    return set(rank), rank, witness


def _sweep_closure_prune(g, region):
    region = set(region)
    changed = True
    while changed:
        changed = False
        for v in list(region):
            succ_in = [w for w in g.edges[v] if w in region]
            ok = bool(succ_in) if v in g.eloise else len(succ_in) == len(g.edges[v])
            if not ok:
                region.discard(v)
                changed = True
    return region


def _sweep_as_buchi(g, target):
    region = set(g.vertices)
    while True:
        region = _sweep_closure_prune(g, region)
        if not region:
            return frozenset()
        attracted, _, _ = _sweep_positive_attractor(g, region, set(target))
        if attracted == region:
            return frozenset(region)
        region = attracted


def _assert_core_matches_sweep(g, target, starts):
    """Regions equal to the sweep's; strategies win from the given starts.
    Returns the regions by name."""
    a, goal, names = number(g, target)
    region_b, strat_b = almost_sure_buchi(a, goal)
    assert {names[v] for v in region_b} == _sweep_as_buchi(g, target)
    region_r, strat_r = almost_sure_reach(a, goal)
    assert {names[v] for v in region_r} == _sweep_as_buchi(arena_oracles._absorb(g, target), target)
    assert set(strat_b.choice) == region_b & set(a.eloise)
    total_b, total_r = total_strategy(a, strat_b), total_strategy(a, strat_r)
    for v in map(names.index, starts):
        if v in region_b:
            assert check_buchi_strategy(replace(a, initial=v), goal, total_b)
        if v in region_r:
            assert check_reach_strategy(replace(a, initial=v), goal, total_r)
    return {names[v] for v in region_b}, {names[v] for v in region_r}


def _targets(rng, g):
    return [random_target(rng, g), frozenset(), g.vertices]


def test_integer_core_matches_sweep_on_random_arenas():
    rng = random.Random(41)
    won = 0
    for _ in range(150):
        g = random_arena(rng, 8)
        for target in _targets(rng, g):
            region_b, _ = _assert_core_matches_sweep(g, target, csorted(g.vertices))
            won += bool(region_b)
    assert won > 150


def _acceptance_arenas(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        aut, final = random_alternating_buchi(rng, max_states=4)
        t = random_regular_tree(rng, 5, aut.alphabet)
        for target in (final, frozenset(), aut.states):
            game = build_acceptance_game(aut, target, t)
            yield game.arena, game.target


def test_integer_core_matches_sweep_on_acceptance_arenas():
    rng = random.Random(43)
    won = lost = 0
    for g, target in _acceptance_arenas(47, 40):
        starts = [g.initial] + rng.sample(csorted(g.vertices), min(4, len(g.vertices)))
        region_b, _ = _assert_core_matches_sweep(g, target, starts)
        won += g.initial in region_b
        lost += g.initial not in region_b
    assert won > 10 and lost > 10


def _random_int_arena(rng):
    """1 to 30 vertices of mixed owners, each with 1 to 3 distinct
    successors, and about a fifth of them in the goal."""
    n = rng.randint(1, 30)
    succ = [tuple(rng.sample(range(n), rng.randint(1, min(3, n)))) for _ in range(n)]
    owner = bytes(rng.randrange(3) for _ in range(n))
    goal = frozenset(v for v in range(n) if rng.random() < 0.2)
    return Arena(succ, owner, 0), goal


def _membership_int_arenas(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        aut, final = random_alternating_buchi(rng, max_states=6)
        t = random_regular_tree(rng, 8, aut.alphabet)
        states = csorted(aut.states)
        arena = build_tree_game_arena(aut, t)
        for target in (final, frozenset(), aut.states):
            yield arena, state_ids(states, target, t)


def test_flat_core_matches_set_core(monkeypatch):
    """The flat-buffer core gives the region and the choices, in the same
    key order, of the core on sets that it replaced, on random arenas, many
    of which take more than one round, and on membership arenas."""
    attractor, calls = arena_oracles._attractor, [0]

    def counted(*args):
        calls[0] += 1
        return attractor(*args)

    monkeypatch.setattr(arena_oracles, "_attractor", counted)
    rng = random.Random(61)
    arenas = [_random_int_arena(rng) for _ in range(2000)]
    several = 0
    for a, goal in itertools.chain(arenas, _membership_int_arenas(67, 60)):
        calls[0] = 0
        old_region, old_choice = arena_oracles._as_buchi_core(a, goal)
        several += calls[0] > 2  # a second round starts with a third attractor
        region, choice = _as_buchi_core(a, goal)
        assert region == old_region
        assert list(choice.items()) == list(old_choice.items())
    assert several >= 500


def _revalidated(g):
    """The arena again, through the public constructor and its checks."""
    return StochasticArena(g.eloise, g.abelard, g.random, g.edges, g.dist, g.initial)


def test_trusted_builders_pass_the_public_constructor():
    rng = random.Random(53)
    built = []
    for _ in range(40):
        g = random_arena(rng, 6)
        target = random_target(rng, g)
        built += [
            arena_oracles._absorb(g, target),
            with_initial(g, csorted(g.vertices)[-1]),
            buchi_to_reachability(g, target)[0],
            arena_oracles.fix_strategy(g, next(arena_oracles.eloise_positional_strategies(g))).arena,
        ]
        game, tgt = random_imperfect_arena(rng)
        built.append(named_full_information_arena(game, tgt)[0])
    for g, _ in _acceptance_arenas(59, 20):
        built.append(g)
    games = []
    for _ in range(10):
        aut, final = random_alternating_buchi(rng, max_states=3)
        games.append(build_emptiness_game(aut, final)[0])
        built.append(named_full_information_arena(games[-1], frozenset())[0])
    for g in built:
        assert _revalidated(g) == g
    # emptiness games are built without the ImperfectInfoArena checks
    for g in games:
        assert ImperfectInfoArena(g.vertices, g.initial, g.actions, g.trans, g.obs) == g
    with pytest.raises(ValueError, match="unknown"):
        with_initial(built[0], ("not", "a", "vertex"))
