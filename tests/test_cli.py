import io
import re
from contextlib import redirect_stdout

import pytest

from qualtree import cli
from qualtree.automata import buchi, cobuchi
from qualtree.cli import main
from qualtree.fileformat import (
    parse_automaton,
    parse_tree,
    serialize_arena,
    serialize_automaton,
    serialize_tree,
    serialize_word,
)
from qualtree.gallery import (
    constant_tree,
    contradictory_uniformity_automaton,
    one_state_acceptor,
)
from qualtree.reductions import sharps_automaton
from qualtree.automata import Alphabet
from qualtree.suite import random_arena, random_target
from qualtree.trees import lasso
import random


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def strip_time(report: str) -> str:
    return "\n".join(
        ln for ln in report.splitlines() if not ln.startswith("wall-time-ms:")
    )


@pytest.fixture
def files(tmp_path):
    aut, core = contradictory_uniformity_automaton()
    paths = {}
    paths["conflict"] = tmp_path / "conflict.aut"
    paths["conflict"].write_text(serialize_automaton(aut, buchi(core)))
    one, final = one_state_acceptor()
    paths["one"] = tmp_path / "one.aut"
    paths["one"].write_text(serialize_automaton(one, buchi(final)))
    paths["tree"] = tmp_path / "all_a.tree"
    paths["tree"].write_text(serialize_tree(constant_tree("a")))
    det, bad = sharps_automaton(Alphabet(("a",)), "s")
    paths["detector"] = tmp_path / "detector.aut"
    paths["detector"].write_text(serialize_automaton(det, cobuchi(bad)))
    paths["word"] = tmp_path / "w.word"
    paths["word"].write_text(serialize_word(lasso((), ("a", "s"))))
    paths["tmp"] = tmp_path
    return paths


def test_check_emptiness_exit_codes_and_witness(files):
    code, out = run_cli("check-emptiness", str(files["conflict"]), "--oracle")
    assert code == 0  # empty answers the question positively
    assert "verdict: empty" in out and "oracle-agreement: yes" in out

    witness = files["tmp"] / "w.tree"
    code, out = run_cli(
        "check-emptiness", str(files["one"]), "--witness", str(witness), "--oracle"
    )
    assert code == 1
    assert "verdict: nonempty" in out
    tree = parse_tree(witness.read_text())
    assert set(tree.label.values()) == {"a"}
    assert (files["tmp"] / "w.tree.strategy").read_text().startswith("strategy")


def test_check_emptiness_missing_row_is_malformed(files, tmp_path):
    p = tmp_path / "missing-row.aut"
    p.write_text("kind alternating-tree\nalphabet a b\nstates q\ninitial q\neloise q\n"
                 "accept buchi q\ntrans q a q q\n")
    code, out = run_cli("check-emptiness", str(p))
    assert code == 2 and "verdict" not in out
    all_b = tmp_path / "all_b.tree"
    all_b.write_text(serialize_tree(constant_tree("b")))
    code, out = run_cli("membership", str(p), str(all_b))
    assert code == 2 and "verdict" not in out


def test_check_emptiness_unwritable_witness_is_malformed(files, tmp_path):
    witness = tmp_path / "nodir" / "w.tree"
    code, out = run_cli("check-emptiness", str(files["one"]), "--witness", str(witness))
    assert code == 2 and "verdict" not in out


def test_reduce_unwritable_output_is_malformed(files, tmp_path):
    out_path = tmp_path / "nodir" / "au.aut"
    code, out = run_cli("reduce", "universalize", str(files["detector"]), str(out_path))
    assert code == 2 and "output-digest" not in out


def test_check_emptiness_refuses_cobuchi(files, tmp_path):
    aut, core = contradictory_uniformity_automaton()
    p = tmp_path / "cb.aut"
    p.write_text(serialize_automaton(aut, cobuchi(core)))
    code, _ = run_cli("check-emptiness", str(p))
    assert code == 2


def test_membership_and_word_membership(files):
    code, out = run_cli("membership", str(files["conflict"]), str(files["tree"]))
    assert code == 1 and "verdict: nonmember" in out
    code, out = run_cli("word-membership", str(files["detector"]), str(files["word"]))
    assert code == 0 and "verdict: member" in out


def test_ptree_membership(files, tmp_path):
    from qualtree.fileformat import parse_automaton
    from qualtree.reductions import lift_diagonal
    from qualtree.trees import tree_from_word

    det = parse_automaton(files["detector"].read_text())
    lifted = tmp_path / "lifted.aut"
    lifted.write_text(serialize_automaton(lift_diagonal(det.automaton), det.acceptance))
    good = tmp_path / "good.tree"
    good.write_text(serialize_tree(tree_from_word(lasso((), ("a", "s")))))
    code, out = run_cli("ptree-membership", str(lifted), str(good))
    assert code == 0 and "verdict: member" in out
    code, out = run_cli("ptree-membership", str(lifted), str(files["tree"]))
    assert code == 1 and "verdict: nonmember" in out


def test_word_membership_rejects_symbols_outside_alphabet(files, tmp_path):
    alien = tmp_path / "alien.word"
    alien.write_text(serialize_word(lasso(("a", "c"), ("s",))))
    code, out = run_cli("word-membership", str(files["detector"]), str(alien))
    assert code == 2 and "verdict" not in out


def test_membership_rejects_symbols_outside_alphabet(files, tmp_path, capsys):
    alien = tmp_path / "alien.tree"
    alien.write_text(serialize_tree(constant_tree("c")))
    code, out = run_cli("membership", str(files["conflict"]), str(alien))
    assert code == 2 and "verdict" not in out
    err = capsys.readouterr().err
    assert f"{alien}: symbols not in the automaton's alphabet: c" in err


def test_ptree_membership_rejects_symbols_outside_alphabet(files, tmp_path):
    from qualtree.reductions import lift_diagonal
    from qualtree.trees import tree_from_word

    det = parse_automaton(files["detector"].read_text())
    lifted = tmp_path / "lifted.aut"
    lifted.write_text(serialize_automaton(lift_diagonal(det.automaton), det.acceptance))
    alien = tmp_path / "alien.tree"
    alien.write_text(serialize_tree(tree_from_word(lasso(("a", "c"), ("s",)))))
    code, out = run_cli("ptree-membership", str(lifted), str(alien))
    assert code == 2 and "verdict" not in out


def test_solve_game_with_oracle(tmp_path):
    rng = random.Random(71)
    g = random_arena(rng, 5)
    target = random_target(rng, g)
    p = tmp_path / "g.arena"
    p.write_text(serialize_arena(g, target))
    for objective in ("reach", "buchi", "cobuchi"):
        code, out = run_cli("solve-game", str(p), "--objective", objective, "--oracle")
        assert code in (0, 1)
        assert re.search(r"verdict: (true|false)", out)
        assert "oracle-agreement: yes" in out


def test_solve_game_cobuchi_oracle_is_run(tmp_path, monkeypatch):
    """The co-Büchi oracle decides the start vertex as the solver does on
    arenas of both verdicts, and a disagreement exits 4."""
    p = tmp_path / "g.arena"
    p.write_text("arena\ninit v\nvertex v eloise\nedge v v\ntarget v\n")
    code, out = run_cli("solve-game", str(p), "--objective", "cobuchi", "--oracle")
    assert code == 1 and "oracle-agreement: yes" in out
    rng = random.Random(73)
    codes = set()
    for _ in range(40):
        g = random_arena(rng, 6)
        p.write_text(serialize_arena(g, random_target(rng, g)))
        code, out = run_cli("solve-game", str(p), "--objective", "cobuchi", "--oracle")
        assert "oracle-agreement: yes" in out
        codes.add(code)
    assert codes == {0, 1}
    oracle = cli.oracle_almost_sure_cobuchi
    monkeypatch.setattr(cli, "oracle_almost_sure_cobuchi",
                        lambda g, target: g.vertices - oracle(g, target))
    code, out = run_cli("solve-game", str(p), "--objective", "cobuchi", "--oracle")
    assert code == 4 and "oracle-agreement: no" in out


def test_reduce_universalize_bound(files, tmp_path):
    out_path = tmp_path / "au.aut"
    code, _ = run_cli("reduce", "universalize", str(files["detector"]), str(out_path))
    assert code == 0
    loaded = parse_automaton(out_path.read_text())
    aut = loaded.automaton
    assert len(aut.transitions) <= 2 * len(aut.states) * len(aut.alphabet.symbols)


def test_reduce_chain_sharp_then_nonzero(files, tmp_path):
    mid = tmp_path / "gadget.aut"
    code, _ = run_cli("reduce", "sharp", str(files["detector"]), str(mid), "--sharp", "t")
    assert code == 0
    assert parse_automaton(mid.read_text()).acceptance.kind == "cobuchi"

    universal = tmp_path / "au.aut"
    run_cli("reduce", "universalize", str(files["detector"]), str(universal))
    nz = tmp_path / "nz.aut"
    code, _ = run_cli("reduce", "nonzero", str(universal), str(nz))
    assert code == 0
    loaded = parse_automaton(nz.read_text())
    assert loaded.kind == "nonzero"
    assert loaded.automaton.f_one == loaded.automaton.states - {"p1"}


def test_reduce_lifts(files, tmp_path):
    for name in ("lift1", "lift2"):
        out_path = tmp_path / f"{name}.aut"
        code, _ = run_cli("reduce", name, str(files["detector"]), str(out_path))
        assert code == 0
        assert parse_automaton(out_path.read_text()).kind == "prob-tree"


def test_malformed_input_exit_code(tmp_path):
    p = tmp_path / "bad.aut"
    p.write_text("kind prob-word\nalphabet a\nstates q\ninitial q\nptrans q a 2/3 q\n")
    code, _ = run_cli("check-emptiness", str(p))
    assert code == 2
    missing = tmp_path / "missing.aut"
    code, _ = run_cli("membership", str(missing), str(missing))
    assert code == 2


@pytest.mark.parametrize("command, text", [
    ("word-membership", "kind prob-word\nalphabet a s\nstates q r\ninitial q\naccept buchi q\n"
                        "ptrans q a -1/2 q 3/2 r\nptrans q s 1 q\nptrans r a 1 r\nptrans r s 1 r\n"),
    ("ptree-membership", "kind prob-tree\nalphabet a\nstates q\ninitial q\naccept buchi q\n"
                         "pttrans q a -1 q q 2 q q\n"),
    ("solve-game", "arena\ninit v\nvertex v random\nvertex w eloise\n"
                   "edge v w -1/2\nedge v v 3/2\nedge w w\ntarget w\n"),
], ids=["ptrans", "pttrans", "edge"])
def test_negative_weight_is_malformed(files, tmp_path, command, text):
    p = tmp_path / "negative.in"
    p.write_text(text)
    if command == "solve-game":
        argv = [str(p), "--objective", "buchi"]
    else:
        argv = [str(p), str(files["word" if command == "word-membership" else "tree"])]
    code, out = run_cli(command, *argv)
    assert code == 2 and "verdict" not in out


@pytest.mark.parametrize("command, text", [
    ("word-membership", "kind prob-word\nalphabet a s\nstates q r\ninitial q\naccept buchi q\n"
                        "ptrans q a 1 q\nptrans q a 1 r\nptrans q s 1 q\nptrans r a 1 r\n"
                        "ptrans r s 1 r\n"),
    ("ptree-membership", "kind prob-tree\nalphabet a\nstates q\ninitial q\naccept buchi q\n"
                         "pttrans q a 1 q q\npttrans q a 1 q q\n"),
], ids=["ptrans", "pttrans"])
def test_repeated_probabilistic_row_is_malformed(files, tmp_path, command, text):
    p = tmp_path / "repeated.aut"
    p.write_text(text)
    code, out = run_cli(command, str(p), str(files["word" if command == "word-membership" else "tree"]))
    assert code == 2 and "verdict" not in out


@pytest.mark.parametrize("line", ["initial", "initial q r", "initial q\ninitial r"],
                         ids=["no-state", "two-states", "repeated"])
def test_malformed_initial_line(files, tmp_path, line):
    p = tmp_path / "initial.aut"
    p.write_text(f"kind prob-word\nalphabet a s\nstates q r\n{line}\naccept buchi q\n"
                 "ptrans q a 1 q\nptrans q s 1 q\nptrans r a 1 r\nptrans r s 1 r\n")
    code, out = run_cli("word-membership", str(p), str(files["word"]))
    assert code == 2 and "verdict" not in out


@pytest.mark.parametrize("line", ["alphabet a a", "alphabet"], ids=["repeated", "empty"])
def test_malformed_alphabet_line(files, tmp_path, line):
    p = tmp_path / "alphabet.aut"
    p.write_text(f"kind alternating-tree\n{line}\nstates q\ninitial q\nabelard q\n"
                 "accept buchi q\ntrans q a q q\n")
    code, out = run_cli("membership", str(p), str(files["tree"]))
    assert code == 2 and "verdict" not in out


def test_simulate_word_and_tree(files):
    code, out = run_cli("simulate", str(files["tree"]), "--seed", "42", "--horizon", "4")
    assert code == 0 and "samples: a a a a a" in out
    code, out = run_cli("simulate", str(files["word"]), "--seed", "1", "--horizon", "3")
    assert code == 0 and "samples: a s a s" in out


@pytest.mark.parametrize("horizon", ["0", "-1"])
@pytest.mark.parametrize("kind", ["tree", "word"])
def test_simulate_rejects_horizon_below_one(files, kind, horizon):
    code, out = run_cli("simulate", str(files[kind]), "--seed", "1", "--horizon", horizon)
    assert code == 2 and "samples" not in out


NOT_SIMPLE = ("kind prob-word\nalphabet a\nstates q0 q1\ninitial q0\naccept buchi q1\n"
              "ptrans q0 a 1/3 q0 2/3 q1\nptrans q1 a 1 q1\n")


@pytest.mark.parametrize("transform", ["lift1", "lift2", "sharp", "value1", "universalize"])
def test_reduce_of_an_automaton_that_is_not_simple_is_malformed(tmp_path, transform):
    p = tmp_path / "not-simple.aut"
    p.write_text(NOT_SIMPLE)
    out_path = tmp_path / "out.aut"
    code, out = run_cli("reduce", transform, str(p), str(out_path))
    assert code == 2 and "output-digest" not in out
    assert not out_path.exists()


@pytest.mark.parametrize("transform", ["sharp", "value1"])
def test_reduce_with_a_separator_in_the_alphabet_is_malformed(files, tmp_path, transform):
    out_path = tmp_path / "out.aut"
    code, out = run_cli("reduce", transform, str(files["detector"]), str(out_path), "--sharp", "a")
    assert code == 2 and "output-digest" not in out
    assert not out_path.exists()


def test_reports_are_reproducible(files):
    code1, out1 = run_cli("check-emptiness", str(files["conflict"]))
    code2, out2 = run_cli("check-emptiness", str(files["conflict"]))
    assert code1 == code2 == 0
    assert strip_time(out1) == strip_time(out2)


def test_suite_subcommand_smoke():
    code, out = run_cli("suite", "--seed", "9", "--count", "12", "--max-states", "3")
    assert code == 0
    assert "disagreements: 0" in out


@pytest.mark.parametrize("flag", ["--count", "--max-states"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_suite_rejects_count_and_max_states_below_one(flag, value):
    argv = {"--seed": "1", "--count": "2", "--max-states": "2", flag: value}
    code, out = run_cli("suite", *[x for item in argv.items() for x in item])
    assert code == 2 and "verdict" not in out


def test_json_report(files):
    import json

    code, out = run_cli("membership", str(files["conflict"]), str(files["tree"]), "--json")
    body = json.loads(out)
    assert body["verdict"] == "nonmember" and code == 1


def test_undeclared_target_vertex_is_malformed(tmp_path):
    p = tmp_path / "g.arena"
    p.write_text("arena\ninit v\nvertex v eloise\nedge v v\ntarget zz\n")
    code, out = run_cli("solve-game", str(p), "--objective", "buchi")
    assert code == 2 and "verdict" not in out


def test_undeclared_accepting_state_is_malformed(files, tmp_path):
    p = tmp_path / "undeclared.aut"
    p.write_text(files["one"].read_text().replace("accept buchi q", "accept buchi qq"))
    assert "accept buchi qq" in p.read_text()
    code, out = run_cli("membership", str(p), str(files["tree"]))
    assert code == 2 and "verdict" not in out


def test_every_reduce_output_parses(files, tmp_path):
    from qualtree.cli import REDUCTIONS

    universal = tmp_path / "universal.aut"
    assert run_cli("reduce", "universalize", str(files["detector"]), str(universal))[0] == 0
    for name in REDUCTIONS:
        source = universal if name == "nonzero" else files["detector"]
        out_path = tmp_path / f"{name}.out.aut"
        code, _ = run_cli("reduce", name, str(source), str(out_path), "--sharp", "t")
        assert code == 0, name
        loaded = parse_automaton(out_path.read_text())
        if loaded.acceptance is not None:
            assert loaded.acceptance.target <= loaded.automaton.states
