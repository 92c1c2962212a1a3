"""Command-line entry point.

Exit codes: 0 positive verdict (member / true / empty / success),
1 negative verdict, 2 malformed input or an output path that cannot be
written, 3 resource exceeded, 4 internal disagreement between a solver and
its oracle.

Reports are stable key:value lines; the wall-time line comes last so that
byte comparison of everything above it checks reproducibility.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from qualtree.acceptance import qualitative_membership
from qualtree.automata import (
    BUCHI,
    COBUCHI,
    AlternatingTreeAutomaton,
    ProbTreeAutomaton,
    ProbWordAutomaton,
    TreeAutomaton,
    cobuchi,
    universal_to_alternating,
    validate,
)
from qualtree.emptiness import (
    build_emptiness_game,
    check_emptiness,
    solve_by_enumeration,
)
from qualtree.errors import DisagreementError, FormatError, ResourceLimit
from qualtree.fileformat import (
    LoadedAutomaton,
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
from qualtree.games import (
    almost_sure_buchi,
    almost_sure_cobuchi,
    almost_sure_reach,
    arena_moves,
    number,
)
from qualtree.game_oracles import (
    oracle_almost_sure_buchi,
    oracle_almost_sure_cobuchi,
    oracle_almost_sure_reach,
)
from qualtree.markov import lasso_membership_word, prob_tree_membership
from qualtree.reductions import (
    lift_diagonal,
    lift_swap,
    sharp_gadget,
    to_nonzero,
    universalize,
    value1_to_cobuchi,
)
from qualtree.trees import sample_branch, validate_tree

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_MALFORMED = 2
EXIT_RESOURCE = 3
EXIT_DISAGREE = 4


class Report:
    def __init__(self, command: str):
        self.pairs: list[tuple[str, str]] = [("command", command)]
        self.t0 = time.monotonic()

    def add(self, key: str, value) -> None:
        self.pairs.append((key, str(value)))

    def add_input(self, path: str, canonical: str) -> None:
        self.pairs.append(("input-digest", f"{path} {digest(canonical)}"))

    def emit(self, as_json: bool) -> None:
        ms = round((time.monotonic() - self.t0) * 1000)
        pairs = self.pairs + [("wall-time-ms", str(ms))]
        if as_json:
            body: dict = {}
            for k, v in pairs:
                body.setdefault(k, []).append(v)
            flat = {k: v[0] if len(v) == 1 else v for k, v in body.items()}
            print(json.dumps(flat, sort_keys=True))
        else:
            for k, v in pairs:
                print(f"{k}: {v}")


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from e


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise FormatError(f"cannot write {path}: {e}") from e


def _load_automaton(path: str, report: Report) -> LoadedAutomaton:
    loaded = parse_automaton(_read(path))
    problems = validate(loaded.automaton)
    if problems:
        raise FormatError(f"{path}: " + "; ".join(problems))
    report.add_input(path, serialize_automaton(loaded.automaton, loaded.acceptance))
    return loaded


def _load_tree(path: str, report: Report):
    t = parse_tree(_read(path))
    problems = validate_tree(t)
    if problems:
        raise FormatError(f"{path}: " + "; ".join(problems))
    report.add_input(path, serialize_tree(t))
    return t


def _require_accept(loaded: LoadedAutomaton, path: str, kinds=(BUCHI, COBUCHI)):
    if loaded.acceptance is None:
        raise FormatError(f"{path}: an accept line is required here")
    if loaded.acceptance.kind not in kinds:
        raise FormatError(
            f"{path}: acceptance kind {loaded.acceptance.kind} not supported here"
        )
    return loaded.acceptance


def _require_symbols(symbols, alphabet, path: str) -> None:
    alien = set(symbols) - set(alphabet)
    if alien:
        raise FormatError(
            f"{path}: symbols not in the automaton's alphabet: {' '.join(sorted(alien))}"
        )


def _as_alternating(loaded: LoadedAutomaton, path: str) -> AlternatingTreeAutomaton:
    aut = loaded.automaton
    if isinstance(aut, AlternatingTreeAutomaton):
        return aut
    if isinstance(aut, TreeAutomaton):
        return universal_to_alternating(aut)
    raise FormatError(f"{path}: a tree or alternating-tree automaton is required")


def cmd_check_emptiness(args) -> int:
    report = Report(f"check-emptiness {args.automaton}")
    loaded = _load_automaton(args.automaton, report)
    accept = _require_accept(loaded, args.automaton)
    if accept.kind == COBUCHI:
        raise FormatError(
            "emptiness under the co-buchi condition is undecidable in this "
            "semantics; only the buchi condition is supported"
        )
    aut = _as_alternating(loaded, args.automaton)
    result = check_emptiness(aut, accept.target)
    report.add("verdict", result.kind)
    code = {"empty": EXIT_TRUE, "nonempty": EXIT_FALSE, "resource-exceeded": EXIT_RESOURCE}[
        result.kind
    ]
    if result.kind == "nonempty" and args.witness:
        _write(args.witness, serialize_tree(result.witness))
        _write(args.witness + ".strategy", serialize_strategy(result.strategy))
        report.add("witness", args.witness)
    if args.oracle and result.kind != "resource-exceeded":
        game, target = build_emptiness_game(aut, accept.target)
        oracle_verdict, _ = solve_by_enumeration(game, target)
        agree = oracle_verdict == (result.kind == "nonempty")
        report.add("oracle-agreement", "yes" if agree else "no")
        if not agree:
            code = EXIT_DISAGREE
    else:
        report.add("oracle-agreement", "n/a")
    report.emit(args.json)
    return code


def cmd_membership(args) -> int:
    report = Report(f"membership {args.automaton} {args.tree}")
    loaded = _load_automaton(args.automaton, report)
    accept = _require_accept(loaded, args.automaton)
    aut = _as_alternating(loaded, args.automaton)
    t = _load_tree(args.tree, report)
    _require_symbols(t.label.values(), aut.alphabet, args.tree)
    verdict = qualitative_membership(aut, accept, t)
    report.add("verdict", "member" if verdict else "nonmember")
    report.add("oracle-agreement", "n/a")
    report.emit(args.json)
    return EXIT_TRUE if verdict else EXIT_FALSE


def cmd_word_membership(args) -> int:
    report = Report(f"word-membership {args.automaton} {args.word}")
    loaded = _load_automaton(args.automaton, report)
    accept = _require_accept(loaded, args.automaton)
    if not isinstance(loaded.automaton, ProbWordAutomaton):
        raise FormatError(f"{args.automaton}: a prob-word automaton is required")
    w = parse_word(_read(args.word))
    _require_symbols(w.prefix + w.period, loaded.automaton.alphabet, args.word)
    report.add_input(args.word, serialize_word(w))
    verdict = lasso_membership_word(loaded.automaton, accept.target, w, accept.kind)
    report.add("verdict", "member" if verdict else "nonmember")
    report.add("oracle-agreement", "n/a")
    report.emit(args.json)
    return EXIT_TRUE if verdict else EXIT_FALSE


def cmd_ptree_membership(args) -> int:
    report = Report(f"ptree-membership {args.automaton} {args.tree}")
    loaded = _load_automaton(args.automaton, report)
    accept = _require_accept(loaded, args.automaton)
    if not isinstance(loaded.automaton, ProbTreeAutomaton):
        raise FormatError(f"{args.automaton}: a prob-tree automaton is required")
    t = _load_tree(args.tree, report)
    _require_symbols(t.label.values(), loaded.automaton.alphabet, args.tree)
    verdict = prob_tree_membership(loaded.automaton, accept.target, t, accept.kind)
    report.add("verdict", "member" if verdict else "nonmember")
    report.add("oracle-agreement", "n/a")
    report.emit(args.json)
    return EXIT_TRUE if verdict else EXIT_FALSE


def cmd_solve_game(args) -> int:
    report = Report(f"solve-game {args.arena} --objective {args.objective}")
    named, target = parse_arena(_read(args.arena))
    report.add_input(args.arena, serialize_arena(named, target))
    arena, goal, names = number(named, target)
    agree = None
    if args.objective == "cobuchi":
        verdict = almost_sure_cobuchi(arena_moves(arena), arena.eloise, arena.initial, goal)
        if args.oracle:
            agree = verdict == (named.initial in oracle_almost_sure_cobuchi(named, target))
    else:
        solve, oracle = ((almost_sure_reach, oracle_almost_sure_reach) if args.objective == "reach"
                         else (almost_sure_buchi, oracle_almost_sure_buchi))
        region, _ = solve(arena, goal)
        verdict = arena.initial in region
        if args.oracle:
            agree = {names[v] for v in region} == oracle(named, target)
    report.add("verdict", "true" if verdict else "false")
    report.add("oracle-agreement", "n/a" if agree is None else ("yes" if agree else "no"))
    report.emit(args.json)
    if agree is False:
        return EXIT_DISAGREE
    return EXIT_TRUE if verdict else EXIT_FALSE


REDUCTIONS = ("sharp", "value1", "lift1", "lift2", "universalize", "nonzero")


def cmd_reduce(args) -> int:
    report = Report(f"reduce {args.transform} {args.input} {args.output}")
    loaded = _load_automaton(args.input, report)
    aut = loaded.automaton
    sharp = args.sharp
    if args.transform in ("sharp", "value1", "lift1", "lift2", "universalize"):
        if not isinstance(aut, ProbWordAutomaton):
            raise FormatError(f"{args.input}: a prob-word automaton is required")
    if args.transform == "sharp":
        accept = _require_accept(loaded, args.input)
        out, bad = sharp_gadget(aut, accept.target, sharp)
        payload = serialize_automaton(out, cobuchi(bad))
    elif args.transform == "value1":
        accept = _require_accept(loaded, args.input)
        out, bad = value1_to_cobuchi(aut, accept.target, sharp)
        payload = serialize_automaton(out, cobuchi(bad))
    elif args.transform == "lift1":
        payload = serialize_automaton(lift_diagonal(aut), loaded.acceptance)
    elif args.transform == "lift2":
        payload = serialize_automaton(lift_swap(aut), loaded.acceptance)
    elif args.transform == "universalize":
        payload = serialize_automaton(universalize(aut), loaded.acceptance)
    else:
        if not isinstance(aut, TreeAutomaton) or isinstance(aut, AlternatingTreeAutomaton):
            raise FormatError(f"{args.input}: a (universal) tree automaton is required")
        accept = _require_accept(loaded, args.input, kinds=(COBUCHI,))
        nz = to_nonzero(aut, accept.target)
        payload = serialize_automaton(nz, None)
    _write(args.output, payload)
    report.add("output", args.output)
    report.add("output-digest", digest(payload))
    report.emit(args.json)
    return EXIT_TRUE


def cmd_suite(args) -> int:
    from qualtree.suite import emptiness_crosscheck

    for flag, value in (("--count", args.count), ("--max-states", args.max_states)):
        if value < 1:
            raise FormatError(f"{flag} must be at least 1, not {value}")
    report = Report(f"suite --seed {args.seed} --count {args.count} --max-states {args.max_states}")
    records = emptiness_crosscheck(args.seed, args.count, args.max_states)
    disagreements = [r for r in records if not r.ok]
    for r in records:
        report.add("instance", r.line())
    report.add("instances", len(records))
    report.add("disagreements", len(disagreements))
    report.add("verdict", "true" if not disagreements else "false")
    report.emit(args.json)
    return EXIT_TRUE if not disagreements else EXIT_DISAGREE


def cmd_simulate(args) -> int:
    if args.horizon < 1:
        raise FormatError(f"--horizon must be at least 1, not {args.horizon}")
    report = Report(f"simulate {args.input} --seed {args.seed} --horizon {args.horizon}")
    text = _read(args.input)
    first = next((ln.split()[0] for ln in text.splitlines() if ln.split("#", 1)[0].strip()), "")
    if first == "tree":
        t = parse_tree(text)
        problems = validate_tree(t)
        if problems:
            raise FormatError(f"{args.input}: " + "; ".join(problems))
        report.add_input(args.input, serialize_tree(t))
        symbols = sample_branch(t, args.seed, args.horizon)
    elif first == "word":
        w = parse_word(text)
        report.add_input(args.input, serialize_word(w))
        symbols = w.take(args.horizon + 1)
    else:
        raise FormatError(f"{args.input}: expected a tree or word file")
    report.add("samples", " ".join(symbols))
    report.emit(args.json)
    return EXIT_TRUE


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qualtree",
        description="Decision procedures for tree automata with almost-sure branch semantics.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true", help="machine-readable report")

    sp = sub.add_parser("check-emptiness", help="decide emptiness of an alternating buchi automaton")
    sp.add_argument("automaton")
    sp.add_argument("--oracle", action="store_true")
    sp.add_argument("--witness", metavar="OUT")
    common(sp)
    sp.set_defaults(fn=cmd_check_emptiness)

    sp = sub.add_parser("membership", help="qualitative membership of a regular tree")
    sp.add_argument("automaton")
    sp.add_argument("tree")
    common(sp)
    sp.set_defaults(fn=cmd_membership)

    sp = sub.add_parser("word-membership", help="almost-sure acceptance of a lasso word")
    sp.add_argument("automaton")
    sp.add_argument("word")
    common(sp)
    sp.set_defaults(fn=cmd_word_membership)

    sp = sub.add_parser("ptree-membership", help="almost-sure acceptance of a regular tree")
    sp.add_argument("automaton")
    sp.add_argument("tree")
    common(sp)
    sp.set_defaults(fn=cmd_ptree_membership)

    sp = sub.add_parser("solve-game", help="almost-sure winner of a stochastic game")
    sp.add_argument("arena")
    sp.add_argument("--objective", required=True, choices=("reach", "buchi", "cobuchi"))
    sp.add_argument("--oracle", action="store_true")
    common(sp)
    sp.set_defaults(fn=cmd_solve_game)

    sp = sub.add_parser("reduce", help="apply an automaton transformation")
    sp.add_argument("transform", choices=REDUCTIONS)
    sp.add_argument("input")
    sp.add_argument("output")
    sp.add_argument("--sharp", default="sharp", metavar="SYM",
                    help="separator symbol for sharp/value1 (default: sharp)")
    common(sp)
    sp.set_defaults(fn=cmd_reduce)

    sp = sub.add_parser("suite", help="seeded random cross-check suite")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--max-states", type=int, default=4)
    common(sp)
    sp.set_defaults(fn=cmd_suite)

    sp = sub.add_parser("simulate", help="sample a branch of a tree, or unroll a word")
    sp.add_argument("input")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--horizon", type=int, required=True)
    common(sp)
    sp.set_defaults(fn=cmd_simulate)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MALFORMED
    except ResourceLimit as e:
        print(f"verdict: resource-exceeded\nerror: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except DisagreementError as e:
        print(f"error: internal disagreement: {e}", file=sys.stderr)
        return EXIT_DISAGREE


if __name__ == "__main__":
    sys.exit(main())
