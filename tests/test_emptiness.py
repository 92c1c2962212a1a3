import dataclasses
import itertools
import os
import pickle
import random
import subprocess
import sys

import numpy as np
import pytest

import qualtree
import qualtree.emptiness as emptiness_module
from qualtree.acceptance import qualitative_membership
from qualtree.automata import (
    Alphabet,
    AlternatingTreeAutomaton,
    buchi,
)
from qualtree.emptiness import (
    EmptinessAction,
    ImperfectInfoArena,
    LocalChoice,
    ObservationStrategy,
    build_emptiness_game,
    check_emptiness,
    check_observation_strategy,
    extract_witness,
    fully_observable,
    initial_belief,
    reachable_beliefs,
    solve_by_enumeration,
    number_game,
    solve_imperfect_buchi,
    _bits,
    _closed_tables,
    _full_information_arena,
    _materialize,
    _named_beliefs,
    _reached,
    _search_belief_table,
    _sure_belief_strategy,
    _table_refuter,
    _wins_full_information,
)
from qualtree.errors import DisagreementError, FormatError, ResourceLimit
from qualtree.games import MdpView, _attractor, almost_sure_buchi, mec_decomposition, number
import qualtree.games as games_module
from qualtree.ordering import ckey, csorted
from qualtree.gallery import (
    contradictory_uniformity_automaton,
    one_state_acceptor,
)
from qualtree.suite import (
    random_alternating_buchi,
    random_regular_tree,
)
from arena_oracles import _as_buchi_core as set_as_buchi_core, named_full_information_arena
from draws import random_imperfect_arena
from search_oracles import closed_tables_by_walk, whole_product_refuter


def two_state_automaton():
    sigma = Alphabet(("a", "b"))
    states = frozenset({"q0", "q1"})
    transitions = {
        ("q0", "a", "q0", "q1"),
        ("q0", "a", "q1", "q1"),
        ("q0", "b", "q0", "q0"),
        ("q1", "a", "q1", "q1"),
        ("q1", "b", "q1", "q1"),
    }
    return AlternatingTreeAutomaton(
        alphabet=sigma,
        states=states,
        initial="q0",
        transitions=frozenset(transitions),
        complete=True,
        eloise=frozenset({"q0"}),
        abelard=frozenset({"q1"}),
    )


def test_game_shape_matches_construction_arithmetic():
    aut = two_state_automaton()
    game, target = build_emptiness_game(aut, frozenset({"q1"}))
    assert len(game.vertices) == 2 * 2 + 1
    assert set(game.obs.values()) == {"e", "0", "1"}
    # protagonist rows: two choices on a, one on b, so three actions
    assert len(game.actions) == 3
    assert target == {("q1", "0"), ("q1", "1")}


def test_observation_classes_group_by_direction():
    aut = two_state_automaton()
    game, target = build_emptiness_game(aut, frozenset({"q1"}))
    n = number_game(game, target)
    classes = {o: {game.vertices[v] for v in _bits(mask)}
               for o, mask in zip(n.observations, n.classes)}
    assert classes["0"] == {("q0", "0"), ("q1", "0")}
    assert classes["1"] == {("q0", "1"), ("q1", "1")}
    assert classes["e"] == {("q0", "e")}


def test_incomplete_protagonist_row_is_an_error():
    sigma = Alphabet(("a", "b"))
    for mine in (True, False):  # the opponent's rows are checked the same way
        aut = AlternatingTreeAutomaton(
            alphabet=sigma,
            states=frozenset({"q"}),
            initial="q",
            transitions=frozenset({("q", "a", "q", "q")}),
            eloise=frozenset({"q"} if mine else ()),
            abelard=frozenset(() if mine else {"q"}),
        )
        with pytest.raises(FormatError, match="state q on symbol b"):
            build_emptiness_game(aut, frozenset({"q"}))


def single_vertex_arena(in_target: bool):
    act = ("go",)
    arena = ImperfectInfoArena(
        vertices=("v",),
        initial="v",
        actions=act,
        trans={("v", "go"): (("v",),)},
        obs={"v": "o"},
    )
    strat = ObservationStrategy(
        memory=("m",),
        init_memory="m",
        act={("m", "o"): "go"},
        update={("m", "o", "go"): "m"},
    )
    return arena, strat, frozenset({"v"} if in_target else set())


@pytest.mark.parametrize("support, message", [
    ((), "empty transition"),
    (("v", "v"), "repeats a vertex"),
    (("v", "w"), "leaves arena"),
], ids=["empty", "repeated", "outside"])
def test_arena_rejects_a_bad_support(support, message):
    with pytest.raises(ValueError, match=message):
        ImperfectInfoArena(vertices=("v",), initial="v", actions=("go",),
                           trans={("v", "go"): (support,)}, obs={"v": "o"})


def test_check_strategy_trivial_cases():
    arena, strat, target = single_vertex_arena(True)
    assert check_observation_strategy(arena, target, strat)
    arena, strat, target = single_vertex_arena(False)
    assert not check_observation_strategy(arena, target, strat)


def test_check_strategy_monte_carlo_consistency():
    """A uniformly randomising opponent turns the product into a chain; plays
    under a verified strategy must keep meeting the target."""
    rng = random.Random(41)
    np_rng = np.random.default_rng(41)
    confirmed = 0
    attempts = 0
    while confirmed < 20 and attempts < 400:
        attempts += 1
        arena, target = random_imperfect_arena(rng, max_vertices=4, max_actions=2)
        if not target:
            continue
        verdict, strat = solve_imperfect_buchi(arena, target)
        if not verdict:
            continue
        confirmed += 1
        # product chain under uniform opponent
        states = []
        index = {}
        rows = []

        def state_id(s):
            if s not in index:
                index[s] = len(states)
                states.append(s)
                rows.append(None)
            return index[s]

        start = state_id((arena.initial, strat.init_memory))
        i = 0
        while i < len(states):
            v, m = states[i]
            a = strat.act[(m, arena.obs[v])]
            supports = arena.trans[(v, a)]
            weights = {}
            for support in supports:  # each support weighted uniformly
                for v2 in csorted(support):
                    m2 = strat.update[(m, arena.obs[v2], a)]
                    j = state_id((v2, m2))
                    weights[j] = weights.get(j, 0.0) + 1 / len(support) / len(supports)
            rows[i] = weights
            i += 1
        size = len(states)
        cum = np.zeros((size, size))
        for i, weights in enumerate(rows):
            row = np.zeros(size)
            for j, p in weights.items():
                row[j] = p
            cum[i] = np.cumsum(row)
        marked = np.array([s[0] in target for s in states])

        plays, horizon, burn = 10_000, 600, 100
        cur = np.full(plays, start)
        seen = np.zeros(plays, dtype=bool)
        for step in range(horizon):
            r = np_rng.random(plays)
            cur = (r[:, None] > cum[cur]).sum(axis=1)
            if step >= burn:
                seen |= marked[cur]
        assert seen.all(), "a verified strategy left a 500-step window without target visits"
    assert confirmed == 20


def test_solver_on_fully_observable_instances_collapses_to_perfect_information():
    rng = random.Random(43)
    for _ in range(40):
        arena, target = random_imperfect_arena(rng, max_vertices=4, max_actions=2)
        observable = fully_observable(arena)
        verdict, _ = solve_imperfect_buchi(observable, target)
        assert verdict == (bool(target) and _wins_full_information(number_game(observable, target)))


def test_solver_matches_enumeration_on_random_arenas():
    rng = random.Random(47)
    for _ in range(100):
        arena, target = random_imperfect_arena(rng, max_vertices=5, max_actions=3)
        verdict, strat = solve_imperfect_buchi(arena, target)
        oracle_verdict, _ = solve_by_enumeration(arena, target)
        assert verdict == oracle_verdict
        if verdict:
            assert check_observation_strategy(arena, target, strat)


def test_blindness_separation_regression():
    """The named regression: empty language, yet the observable variant of the
    same arena is won by the protagonist."""
    aut, core = contradictory_uniformity_automaton()
    game, target = build_emptiness_game(aut, core)
    blind, _ = solve_imperfect_buchi(game, target)
    observable, strat = solve_imperfect_buchi(fully_observable(game), target)
    assert blind is False
    assert observable is True
    assert check_observation_strategy(fully_observable(game), target, strat)


def test_check_emptiness_trivial_nonempty():
    aut, final = one_state_acceptor()
    result = check_emptiness(aut, final)
    assert result.kind == "nonempty"
    assert set(result.witness.label.values()) == {"a"}
    assert qualitative_membership(aut, buchi(final), result.witness)


def test_check_emptiness_named_empty():
    aut, core = contradictory_uniformity_automaton()
    assert check_emptiness(aut, core).kind == "empty"


def test_membership_check_stops_a_wrong_nonempty_verdict(monkeypatch):
    """The solver does not re-check its own strategy, so the membership
    check of the extracted tree is what stops a losing table: here the
    search is made to return the first closed table of a game whose
    language is empty, though its full-information relaxation is won."""
    aut, core = contradictory_uniformity_automaton()
    game, target = build_emptiness_game(aut, core)
    assert _wins_full_information(number_game(game, target))

    def first_table(n, masks, post):
        return dict(next(_closed_tables(0, post, range(len(n.g.actions)))))

    monkeypatch.setattr(emptiness_module, "_sure_belief_strategy", lambda n, masks, post: None)
    monkeypatch.setattr(emptiness_module, "_search_belief_table", first_table)
    verdict, strat = solve_imperfect_buchi(game, target)
    assert verdict and not check_observation_strategy(game, target, strat)
    with pytest.raises(DisagreementError, match="extracted witness failed the membership check"):
        check_emptiness(aut, core)


def test_extract_witness_constant_strategy():
    aut, final = one_state_acceptor()
    game, target = build_emptiness_game(aut, final)
    (action,) = game.actions
    strat = ObservationStrategy(
        memory=("m",),
        init_memory="m",
        act={("m", o): action for o in ("e", "0", "1")},
        update={("m", o, action): "m" for o in ("e", "0", "1")},
    )
    tree, choices = extract_witness(aut, final, strat)
    # the unfolding is the constant tree even if nodes split by direction
    assert set(tree.label.values()) == {"a"}
    assert set(choices) == set(tree.nodes)


def test_extract_witness_parity_strategy():
    sigma = Alphabet(("a", "b"))
    aut = AlternatingTreeAutomaton(
        alphabet=sigma,
        states=frozenset({"q"}),
        initial="q",
        transitions=frozenset({("q", "a", "q", "q"), ("q", "b", "q", "q")}),
        complete=True,
        eloise=frozenset({"q"}),
        abelard=frozenset(),
    )
    game, _ = build_emptiness_game(aut, frozenset({"q"}))
    act_a = next(x for x in game.actions if x.symbol == "a")
    act_b = next(x for x in game.actions if x.symbol == "b")
    strat = ObservationStrategy(
        memory=(0, 1),
        init_memory=0,
        act={(0, o): act_a for o in ("e", "0", "1")} | {(1, o): act_b for o in ("0", "1")},
        update={(m, o, a): 1 - m for m in (0, 1) for o in ("e", "0", "1") for a in (act_a, act_b)},
    )
    tree, _ = extract_witness(aut, frozenset({"q"}), strat)
    labels_by_level = {tree.label[tree.root], tree.label[tree.succ0[tree.root]]}
    assert labels_by_level == {"a", "b"}
    assert tree.label[tree.succ0[tree.succ0[tree.root]]] == "a"


def test_emptiness_verdict_invariant_under_state_renaming():
    rng = random.Random(53)
    for _ in range(25):
        aut, final = random_alternating_buchi(rng, max_states=3)
        names = sorted(aut.states)
        permuted = rng.sample(names, len(names))
        rename = dict(zip(names, permuted))
        aut2 = AlternatingTreeAutomaton(
            alphabet=aut.alphabet,
            states=aut.states,
            initial=rename[aut.initial],
            transitions=frozenset(
                (rename[q], a, rename[q0], rename[q1]) for q, a, q0, q1 in aut.transitions
            ),
            complete=True,
            eloise=frozenset(rename[q] for q in aut.eloise),
            abelard=frozenset(rename[q] for q in aut.abelard),
        )
        final2 = frozenset(rename[q] for q in final)
        assert check_emptiness(aut, final).kind == check_emptiness(aut2, final2).kind


def test_universal_roundtrip_empty_means_no_member_and_nonempty_ships_witness():
    rng = random.Random(59)
    tried = 0
    for _ in range(50):
        aut, final = random_alternating_buchi(rng, max_states=3)
        universal = AlternatingTreeAutomaton(
            alphabet=aut.alphabet,
            states=aut.states,
            initial=aut.initial,
            transitions=aut.transitions,
            complete=True,
            eloise=frozenset(),
            abelard=aut.states,
        )
        result = check_emptiness(universal, final)
        tried += 1
        if result.kind == "empty":
            for _ in range(20):
                t = random_regular_tree(rng, 3, universal.alphabet)
                assert not qualitative_membership(universal, buchi(final), t)
        else:
            assert qualitative_membership(universal, buchi(final), result.witness)
    assert tried == 50


def test_resource_guard_is_a_distinct_outcome():
    aut, final = contradictory_uniformity_automaton()
    result = check_emptiness(aut, final, belief_cap=2)
    assert result.kind == "resource-exceeded"
    game, target = build_emptiness_game(aut, final)
    with pytest.raises(ResourceLimit):
        reachable_beliefs(number_game(game, target), cap=2)


def test_belief_exploration_is_observation_pure():
    """Every knowledge set lies in one observation class, so any member
    names its observation, and successors come in canonical observation
    order."""
    games = [build_emptiness_game(*contradictory_uniformity_automaton())]
    rng = random.Random(23)
    for _ in range(40):
        games.append(random_imperfect_arena(rng))
        games.append(build_emptiness_game(*random_alternating_buchi(rng, max_states=4)))
    for game, target in games:
        n = number_game(game, target)
        masks, post = reachable_beliefs(n, cap=10_000)
        assert masks[0] == 1 << game.vertices.index(game.initial)
        assert list(n.observations) == csorted(set(game.obs.values()))
        for mask in masks:
            assert mask and len({n.obs[v] for v in _bits(mask)}) == 1
        for branches in post.values():
            assert list(branches) == sorted(branches)


def test_full_information_refutation_needs_no_knowledge_sets():
    """Automata the full-information relaxation refutes are empty even when
    their knowledge sets exceed the cap."""
    rng = random.Random(7)
    refuted = []
    for i in range(100):
        aut, final = random_alternating_buchi(rng, max_states=4)
        game, target = build_emptiness_game(aut, final)
        n = number_game(game, target)
        if target and not _wins_full_information(n):
            if len(reachable_beliefs(n, cap=10_000)[0]) > 2:
                refuted.append(i)
                assert check_emptiness(aut, final, belief_cap=2).kind == "empty"
    assert {15, 48, 57, 59, 77} <= set(refuted)


# ---------------------------------------------------------------------------
# The integer-id fast paths against the code they replaced, kept here only as
# the oracle: the named partial product with its end-component
# refutation, and the sweep attractor of the sure-winning short-cut.
# ---------------------------------------------------------------------------


def _old_partial_refuted(g, target, assign, post):
    start = (g.initial, initial_belief(g))
    states, moves, seen, queue = [], {}, {start}, [start]
    while queue:
        v, b = queue.pop()
        if b not in assign:
            continue
        states.append((v, b))
        a = assign[b]
        mvs = []
        for support in g.trans[(v, a)]:
            d2 = frozenset((v2, post[(b, a)][g.obs[v2]]) for v2 in support)
            mvs.append(d2)
            for st in d2:
                if st not in seen:
                    seen.add(st)
                    queue.append(st)
        moves[(v, b)] = tuple(mvs)
    # every seen pair gets an id; pairs of unassigned beliefs get no moves
    pairs = csorted(seen)
    ids = {st: i for i, st in enumerate(pairs)}
    view = MdpView(
        pairs, ids[start],
        [tuple(frozenset(ids[x] for x in d) for d in moves.get(st, ())) for st in pairs],
    )
    safe = frozenset(ids[st] for st in states if st[0] not in target)
    return bool(mec_decomposition(view, within=safe))


def _det_attractor(region, owner_is_e, succ, base, for_eloise):
    attr = set(base) & region
    witness = {}
    changed = True
    while changed:
        changed = False
        for v in csorted(region - attr):
            inside = [w for w in succ(v) if w in region]
            if owner_is_e(v) == for_eloise:
                hit = [w for w in inside if w in attr]
                if hit:
                    attr.add(v)
                    witness[v] = min(hit, key=ckey)
                    changed = True
            elif all(w in attr for w in inside):
                attr.add(v)
                changed = True
    return attr, witness


def _old_sure_belief_strategy(g, target, beliefs, post):
    """The sweep short-cut on named knowledge sets.  Its choices follow
    canonical order: the least action that joins the attractor, else the
    least action that stays in the region."""
    nodes, succ = set(), {}
    for b in beliefs:
        nodes.add(b)
        succ[b] = [(b, a) for a in g.actions]
        for a in g.actions:
            nodes.add((b, a))
            succ[(b, a)] = [b2 for _, b2 in sorted(post[(b, a)].items())]

    def owner_is_e(v):
        return isinstance(v, frozenset)

    goal = {b for b in beliefs if b <= target}
    region = set(nodes)
    while True:
        attr, witness = _det_attractor(region, owner_is_e, succ.get, goal & region, True)
        lost = region - attr
        if not lost:
            break
        trap, _ = _det_attractor(region, owner_is_e, succ.get, lost, False)
        region -= trap
        if initial_belief(g) not in region:
            return None
    assign = {}
    for b in beliefs:
        if b not in region:
            continue
        if b in witness:
            assign[b] = witness[b][1]
        else:
            stay = [a for a in csorted(g.actions) if (b, a) in region]
            if not stay:
                return None
            assign[b] = stay[0]
    return assign


@dataclasses.dataclass
class Walk:
    """A game with both knowledge-set walks: the numbered one (masks and
    the successor table on ids) and the named one (frozensets of vertices
    and the table on them)."""

    game: object
    target: frozenset
    n: object
    masks: list
    post: dict
    beliefs: list
    named: dict

    def assign(self, table: dict) -> dict:
        """A table on ids, on names."""
        return {self.beliefs[b]: self.game.actions[a] for b, a in table.items()}


def _walk(game, target, cap=400) -> Walk:
    n = number_game(game, target)
    return Walk(game, frozenset(target), n, *reachable_beliefs(n, cap),
                *_named_beliefs(game, cap))


def _knowledge_games(seed, count):
    """Walks of seeded automata and arenas whose full-information
    relaxation is won, so the knowledge-set routes run.  The arenas list
    their actions against canonical order."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        if len(out) % 2:
            game, target = random_imperfect_arena(rng, max_vertices=5, max_actions=3)
            game = dataclasses.replace(game, actions=game.actions[::-1])
        else:
            aut, final = random_alternating_buchi(rng, max_states=4)
            game, target = build_emptiness_game(aut, final)
        if not target or not _wins_full_information(number_game(game, target)):
            continue
        out.append(_walk(game, target))
    return out


def _contradictory_walk() -> Walk:
    return _walk(*build_emptiness_game(*contradictory_uniformity_automaton()))


def test_integer_refutation_matches_distribution_product_on_every_visited_table():
    visited = cut = 0
    for w in [_contradictory_walk()] + _knowledge_games(71, 60):
        refuted = _table_refuter(w.n, w.masks, w.post)

        def checked(table):
            nonlocal visited, cut
            fast = refuted(table)
            assert fast == _old_partial_refuted(w.game, w.target, w.assign(table), w.named)
            visited += 1
            cut += fast
            return fast

        tables = _closed_tables(0, w.post, range(len(w.game.actions)), checked)
        first = next(tables, None)
        first = None if first is None else dict(first)
        assert first == _search_belief_table(w.n, w.masks, w.post)
        # every closed table the pruning lets through wins exactly
        for table in itertools.chain([first] if first else [], itertools.islice(tables, 20)):
            strat = _materialize(w.game, w.assign(table), w.named)
            assert check_observation_strategy(w.game, w.target, strat)
    assert visited > 500 and 0 < cut < visited


def test_search_assigns_only_reached_knowledge_sets():
    """The refuter builds each table's product from the rows of its assigned
    knowledge sets without walking it, which is exact because every table
    the search visits assigns only knowledge sets reached under it."""
    visited = 0
    for w in [_contradictory_walk()] + _knowledge_games(71, 60):
        refuted = _table_refuter(w.n, w.masks, w.post)

        def checked(table):
            nonlocal visited
            assert set(table) <= set(_reached(0, table, w.post)[0])
            visited += 1
            return refuted(table)

        tables = _closed_tables(0, w.post, range(len(w.game.actions)), checked)
        for table in itertools.islice(tables, 20):
            assert set(table) == set(_reached(0, table, w.post)[0])
    assert visited > 500


def test_action_hash_is_the_dataclass_hash_computed_once():
    aut, final = random_alternating_buchi(random.Random(5), max_states=4)
    game, _ = build_emptiness_game(aut, final)
    for a in game.actions:
        twin = EmptinessAction(a.symbol, LocalChoice(a.choice.assign))
        assert twin == a and hash(twin) == hash(a) == hash((a.symbol, a.choice))
    # string hashes differ between processes, so unpickling recomputes the hash
    src = os.path.dirname(os.path.dirname(os.path.abspath(qualtree.__file__)))
    check = ("import pickle, sys\n"
             "acts = pickle.load(sys.stdin.buffer)\n"
             "assert all(hash(a) == hash((a.symbol, a.choice)) for a in acts)\n"
             "print(len(set(acts)))\n")
    env = dict(os.environ, PYTHONHASHSEED="123", PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", check], input=pickle.dumps(game.actions),
                          env=env, capture_output=True, check=True)
    assert int(done.stdout) == len(game.actions)


def test_worklist_attractor_matches_sweep_on_knowledge_set_games():
    rng = random.Random(73)
    for w in _knowledge_games(79, 60):
        game, beliefs = w.game, w.beliefs
        n_b, n_a = len(beliefs), len(game.actions)
        node = list(beliefs) + [(b, a) for b in beliefs for a in game.actions]
        canonical = sorted(range(n_a), key=lambda a: ckey(game.actions[a]))
        succ = [[n_b + b * n_a + a for a in canonical] for b in range(n_b)]
        succ += [list(w.post[(b, a)].values()) for b in range(n_b) for a in range(n_a)]
        pred = [[] for _ in succ]
        for v, ws in enumerate(succ):
            for x in ws:
                pred[x].append(v)
        old_succ = {node[v]: [node[x] for x in ws] for v, ws in enumerate(succ)}

        def owner_is_e(x):
            return isinstance(x, frozenset)

        goal = {b for b in range(n_b) if beliefs[b] <= w.target}
        regions = [set(range(len(node)))]
        regions += [{v for v in range(len(node)) if rng.random() < 0.8} for _ in range(3)]
        for region in regions:
            for base, for_eloise in ((goal & region, True), (set(rng.sample(sorted(region), len(region) // 4)), False)):
                attracts = [(v < n_b) == for_eloise for v in range(len(succ))]
                waiting = bytearray(v in region for v in range(len(succ)))
                left = [len(region.intersection(ws)) for ws in succ]
                step = _attractor(pred, waiting, sorted(base), attracts, left)
                old_attr, old_witness = _det_attractor(
                    {node[v] for v in region}, owner_is_e, old_succ.get,
                    {node[v] for v in base}, for_eloise)
                joined = {v for v, k in enumerate(step) if k >= 0}
                assert joined <= region and {v for v in region if waiting[v]} == region - joined
                assert {node[v] for v in joined} == old_attr
                assert {v for v in joined if step[v] == 0} >= base
                witness = {v: next(x for x in succ[v] if step[x] == step[v] - 1)
                           for v in joined if attracts[v] and v not in base}
                for v, x in witness.items():
                    assert x in succ[v] and step[x] < step[v]
                for v in joined - base:
                    if not attracts[v]:
                        assert all(step[v] > step[x] for x in succ[v] if x in region)
                if for_eloise:
                    assert {node[v]: node[x] for v, x in witness.items()} == old_witness
        table = _sure_belief_strategy(w.n, w.masks, w.post)
        old = _old_sure_belief_strategy(game, w.target, beliefs, w.named)
        if table is None:
            assert old is None or _reached(initial_belief(game), old, w.named)[1] is not None
        else:
            assert w.assign(table) == old


def test_flat_core_matches_set_core_on_knowledge_set_games(monkeypatch):
    """Every arena the emptiness short-cuts solve, the knowledge-set game of
    `_sure_belief_strategy` and the full-information arena, gets the same
    region and the same choices, in the same order, from the core on sets."""
    core, calls = games_module._as_buchi_core, []

    def recorded(a, goal):
        calls.append((a, goal))
        return core(a, goal)

    walks = _knowledge_games(83, 80)
    monkeypatch.setattr(emptiness_module, "_as_buchi_core", recorded)
    monkeypatch.setattr(games_module, "_as_buchi_core", recorded)
    for w in walks:
        _sure_belief_strategy(w.n, w.masks, w.post)
        _wins_full_information(w.n)
    monkeypatch.undo()
    assert len(calls) == 160
    for a, goal in calls:
        region, choice = core(a, goal)
        old_region, old_choice = set_as_buchi_core(a, goal)
        assert region == old_region
        assert list(choice.items()) == list(old_choice.items())


# ---------------------------------------------------------------------------
# The numbered game against the named one it replaced: the named walk (kept
# for the enumeration oracle) and the named full-information arena.
# ---------------------------------------------------------------------------


def _reference_games(seed):
    """Alternating Büchi automata of 1 to 6 states, random arenas with
    arbitrary observation classes and one or two opponent distributions per
    move, and fully observable variants of both."""
    rng = random.Random(seed)
    out = []
    for i in range(100):
        out.append(build_emptiness_game(*random_alternating_buchi(rng, max_states=1 + i % 6)))
        out.append(random_imperfect_arena(rng, max_vertices=6, max_actions=3))
    out += [(fully_observable(game), target) for game, target in out[:40]]
    return out


def _limit_or_size(walk, *args):
    try:
        return len(walk(*args)[0])
    except ResourceLimit as e:
        return e.what, e.bound


def test_numbered_walk_matches_the_named_walk():
    """Same knowledge sets in the same order, the same successor table in
    the same order, and the same ResourceLimit at the same cap."""
    limited = 0
    for game, target in _reference_games(101):
        n = number_game(game, target)
        masks, post = reachable_beliefs(n, 400)
        beliefs, named = _named_beliefs(game, 400)
        assert [frozenset(game.vertices[v] for v in _bits(m)) for m in masks] == beliefs
        ids = {b: i for i, b in enumerate(beliefs)}
        obs = {o: i for i, o in enumerate(n.observations)}
        on_ids = [((ids[b], game.actions.index(a)),
                   [(obs[o], ids[b2]) for o, b2 in branches.items()])
                  for (b, a), branches in named.items()]
        assert [(key, list(branches.items())) for key, branches in post.items()] == on_ids
        for cap in (1, len(beliefs) // 2, len(beliefs) - 1, len(beliefs)):
            size = _limit_or_size(reachable_beliefs, n, cap)
            assert size == _limit_or_size(_named_beliefs, game, cap)
            limited += size != len(beliefs)
    assert limited > 200


def test_integer_full_information_arena_matches_the_named_one():
    won = lost = 0
    for game, target in _reference_games(103):
        n = number_game(game, target)
        region, _ = almost_sure_buchi(_full_information_arena(n), frozenset(_bits(n.target)))
        arena, tgt = named_full_information_arena(game, target)
        a, goal, names = number(arena, tgt)
        named_region = {names[v] for v in almost_sure_buchi(a, goal)[0]}
        assert ({game.vertices[v] for v in region if v < len(game.vertices)}
                == {x[1] for x in named_region if x[0] == "p"})
        assert _wins_full_information(n) == (arena.initial in named_region)
        won += arena.initial in named_region
        lost += arena.initial not in named_region
    assert won > 20 and lost > 20


# ---------------------------------------------------------------------------
# The search with its frontier on the trail and its end components sought
# through the deepest knowledge set, against the search it replaced.
# ---------------------------------------------------------------------------


def _search_games(seed):
    """Numbered reference games with at most 400 knowledge sets, and the
    contradictory automaton."""
    games = _reference_games(seed)
    games.append(build_emptiness_game(*contradictory_uniformity_automaton()))
    out = []
    for game, target in games:
        n = number_game(game, target)
        try:
            out.append((n, *reachable_beliefs(n, 400)))
        except ResourceLimit:
            continue
    return out


def test_frontier_tables_match_the_walk_without_a_refuter():
    """On ids, as the search runs, and on named knowledge sets, as the
    enumeration oracle runs."""
    for n, masks, post in _search_games(107):
        beliefs, named = _named_beliefs(n.g, 400)
        for root, table, actions in ((0, post, range(len(n.g.actions))),
                                     (beliefs[0], named, list(n.g.actions))):
            new = [dict(t) for t in itertools.islice(_closed_tables(root, table, actions), 40)]
            old = [dict(t) for t in itertools.islice(closed_tables_by_walk(root, table, actions), 40)]
            assert new == old and new


class _Budget(Exception):
    pass


def test_deepest_set_refuter_matches_the_whole_product_search():
    """The same tables visited, the same verdict on each, the same first
    closed table; a search is compared on its first 2,000 visits only."""
    visited = cut = found = 0
    for n, masks, post in _search_games(109):
        runs = []
        for closed, refuter in ((_closed_tables, _table_refuter),
                                (closed_tables_by_walk, whole_product_refuter)):
            refuted, seen = refuter(n, masks, post), []

            def checked(table, refuted=refuted, seen=seen):
                if len(seen) == 2000:
                    raise _Budget
                verdict = refuted(table)
                seen.append((dict(table), verdict))
                return verdict

            try:
                first = next(closed(0, post, range(len(n.g.actions)), checked), None)
            except _Budget:
                first = "budget"
            runs.append((seen, dict(first) if isinstance(first, dict) else first))
        assert runs[0] == runs[1]
        if runs[0][1] != "budget":
            assert runs[0][1] == _search_belief_table(n, masks, post)
        visited += len(runs[0][0])
        cut += sum(verdict for _, verdict in runs[0][0])
        found += isinstance(runs[0][1], dict)
    assert visited > 1000 and 100 < cut < visited and found > 20
