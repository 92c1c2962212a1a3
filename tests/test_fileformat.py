import random

import pytest

from qualtree.automata import buchi, cobuchi
from qualtree.errors import FormatError
from qualtree.fileformat import (
    digest,
    parse_arena,
    parse_automaton,
    parse_tree,
    parse_word,
    serialize_arena,
    serialize_automaton,
    serialize_strategy,
    serialize_tree,
    serialize_word,
)
from qualtree.gallery import contradictory_uniformity_automaton
from qualtree.reductions import sharps_automaton, lift_swap, to_nonzero, universalize
from qualtree.suite import (
    random_arena,
    random_regular_tree,
    random_simple_pwa,
    random_target,
)
from qualtree.automata import Alphabet
from qualtree.trees import lasso


AB = Alphabet(("a", "b"))


def test_word_roundtrip_and_empty_prefix():
    w = lasso(("a",), ("b", "a"))
    assert parse_word(serialize_word(w)) == w
    w2 = lasso((), ("a",))
    assert serialize_word(w2) == "word | a\n"
    assert parse_word("word | a") == w2


def test_word_parse_canonicalises():
    assert parse_word("word s | a s") == lasso((), ("s", "a"))


def test_tree_roundtrip_and_comments():
    rng = random.Random(1)
    for _ in range(20):
        t = random_regular_tree(rng, 4, AB)
        assert parse_tree(serialize_tree(t)) == t
    text = "tree  # a comment\nroot n0\nnode n0 a n0 n0  # loop\n"
    t = parse_tree(text)
    assert t.root == "n0" and t.label["n0"] == "a"


def test_automaton_roundtrips_all_kinds():
    rng = random.Random(3)
    alt, final = contradictory_uniformity_automaton()
    loaded = parse_automaton(serialize_automaton(alt, buchi(final)))
    assert loaded.kind == "alternating-tree"
    assert loaded.automaton == alt
    assert loaded.acceptance == buchi(final)

    pwa = random_simple_pwa(rng, 3, AB)
    loaded = parse_automaton(serialize_automaton(pwa, cobuchi({"q0"})))
    assert loaded.automaton == pwa and loaded.kind == "prob-word"

    pta = lift_swap(pwa)
    loaded = parse_automaton(serialize_automaton(pta, None))
    assert loaded.automaton == pta and loaded.kind == "prob-tree"
    assert loaded.acceptance is None

    au = universalize(pwa)
    loaded = parse_automaton(serialize_automaton(au, cobuchi({"q0"})))
    assert loaded.automaton == au and loaded.kind == "tree"

    nz = to_nonzero(au, frozenset({"q0"}))
    loaded = parse_automaton(serialize_automaton(nz, None))
    assert loaded.automaton == nz and loaded.kind == "nonzero"


def test_arena_roundtrip():
    rng = random.Random(5)
    for _ in range(20):
        g = random_arena(rng, 5)
        target = random_target(rng, g)
        g2, target2 = parse_arena(serialize_arena(g, target))
        assert g2 == g and target2 == target


def test_arena_probability_rules():
    bad = "arena\ninit v\nvertex v random\nedge v v\n"
    with pytest.raises(FormatError, match="probability iff"):
        parse_arena(bad)
    bad2 = "arena\ninit v\nvertex v eloise\nedge v v 1/2\n"
    with pytest.raises(FormatError, match="probability iff"):
        parse_arena(bad2)
    bad3 = "arena\ninit v\nvertex v random\nedge v v 2/3\n"
    with pytest.raises(FormatError, match="sums to"):
        parse_arena(bad3)


def test_rational_forms():
    g, _ = parse_arena("arena\ninit v\nvertex v random\nvertex w eloise\n"
                       "edge v v 1/2\nedge v w 1/2\nedge w w\n")
    assert serialize_arena(g).count("1/2") == 2
    g2, _ = parse_arena("arena\ninit v\nvertex v random\nedge v v 1\n")
    assert "edge v v 1\n" in serialize_arena(g2)


def test_malformed_inputs_raise_format_errors():
    with pytest.raises(FormatError):
        parse_automaton("states q\ninitial q\n")
    with pytest.raises(FormatError):
        parse_automaton("kind mystery\n")
    with pytest.raises(FormatError):
        parse_word("word a b\n")  # missing separator bar
    with pytest.raises(FormatError):
        parse_tree("tree\nroot n0\n")
    # a wrong total mass parses fine and is reported by validation instead
    from qualtree.automata import validate

    loaded = parse_automaton(
        "kind prob-word\nalphabet a\nstates q\ninitial q\nptrans q a 2/3 q\n"
    )
    assert any("sums to 2/3" in line for line in validate(loaded.automaton))


NONZERO_TEXT = ("kind nonzero\nalphabet a\nstates q\ninitial q\naccept buchi q\norder q\n"
                "nzsets forall q | one q | pos\ntrans q a q q\n")
LINES_GIVING_ONE_VALUE = [
    (parse_automaton, NONZERO_TEXT, "alphabet a"),
    (parse_automaton, NONZERO_TEXT, "states q"),
    (parse_automaton, NONZERO_TEXT, "initial q"),
    (parse_automaton, NONZERO_TEXT, "accept cobuchi q"),
    (parse_automaton, NONZERO_TEXT, "order q"),
    (parse_automaton, NONZERO_TEXT, "nzsets forall q | one | pos q"),
    (parse_arena, "arena\ninit v\nvertex v eloise\nvertex w eloise\nedge v v\nedge w w\n", "init w"),
    (parse_tree, "tree\nroot n0\nnode n0 a n0 n0\nnode n1 a n1 n1\n", "root n1"),
]


@pytest.mark.parametrize("parse, text, line", LINES_GIVING_ONE_VALUE,
                         ids=[line.split()[0] for _, _, line in LINES_GIVING_ONE_VALUE])
def test_repeated_one_value_line_is_malformed(parse, text, line):
    """A second line of a kind that gives one value does not replace the first."""
    parse(text)
    with pytest.raises(FormatError, match=f"duplicate {line.split()[0]} line"):
        parse(text + line + "\n")


def test_serializer_refuses_comment_like_tokens():
    det, bad = sharps_automaton(AB, "#")
    with pytest.raises(FormatError, match="token"):
        serialize_automaton(det, cobuchi(bad))


def test_digests_are_stable_and_content_based():
    det, bad = sharps_automaton(AB, "s")
    text = serialize_automaton(det, cobuchi(bad))
    assert digest(text) == digest(text)
    reparsed = serialize_automaton(parse_automaton(text).automaton, cobuchi(bad))
    assert digest(reparsed) == digest(text)


def test_strategy_table_layout():
    from qualtree.gallery import one_state_acceptor
    from qualtree.emptiness import build_emptiness_game, solve_imperfect_buchi

    aut, final = one_state_acceptor()
    game, target = build_emptiness_game(aut, final)
    verdict, strat = solve_imperfect_buchi(game, target)
    assert verdict
    table = serialize_strategy(strat)
    lines = table.splitlines()
    assert lines[0] == "strategy"
    assert lines[1].startswith("memory ") and lines[2].startswith("init ")
    assert any(ln.startswith("act ") for ln in lines)
    assert any(ln.startswith("update ") for ln in lines)


def _reference_serialize_strategy(s) -> str:
    """`serialize_strategy` as it was before it built each action's token
    once per call."""
    mem_id = {m: f"m{i}" for i, m in enumerate(s.memory)}

    def act_token(a) -> str:
        body = ";".join(f"{q}:{p[0]}:{p[1]}" for q, p in a.choice.assign)
        return f"{a.symbol}|{body}" if body else f"{a.symbol}|"

    out = ["strategy", "memory " + " ".join(mem_id[m] for m in s.memory)]
    out.append(f"init {mem_id[s.init_memory]}")
    for (m, o), a in sorted(s.act.items(), key=lambda kv: (mem_id[kv[0][0]], str(kv[0][1]))):
        out.append(f"act {mem_id[m]} {o} {act_token(a)}")
    for (m, o, a), m2 in sorted(
        s.update.items(), key=lambda kv: (mem_id[kv[0][0]], str(kv[0][1]), act_token(kv[0][2]))
    ):
        out.append(f"update {mem_id[m]} {o} {act_token(a)} {mem_id[m2]}")
    return "\n".join(out) + "\n"


def test_strategy_text_matches_the_reference_serializer():
    from qualtree.emptiness import build_emptiness_game, solve_imperfect_buchi
    from qualtree.suite import random_alternating_buchi

    rng = random.Random(31)
    compared = bodiless = 0
    while compared < 40:
        game, target = build_emptiness_game(*random_alternating_buchi(rng, max_states=4))
        verdict, strat = solve_imperfect_buchi(game, target)
        if verdict:
            assert serialize_strategy(strat) == _reference_serialize_strategy(strat)
            compared += 1
            bodiless += not game.actions[0].choice.assign  # no protagonist state
    assert bodiless
