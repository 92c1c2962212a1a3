#!/usr/bin/env python3
"""Print seeded membership, solve-game and check-emptiness reports without
their wall-time lines.

Usage: python scripts/report_repro.py SEED COUNT

Draws COUNT seeded alternating automata, each with a regular tree, and COUNT
seeded arenas with targets, then COUNT more seeded alternating Buchi
automata, then COUNT seeded simple prob-word automata, each with a lasso
word and a regular tree.  It writes them as files to a temporary directory
and runs `qualtree membership` (Buchi and co-Buchi acceptance), `qualtree
solve-game --objective reach|buchi|cobuchi` (each also with
--oracle), `qualtree check-emptiness AUT --witness W`, `qualtree
word-membership` on each prob-word automaton and its word, and `qualtree
ptree-membership` on its diagonal and crossed lifts and the tree (Buchi
and co-Buchi acceptance each), in-process, as text and as --json,
printing each exit code and report, and after a check-emptiness report
the files W and W.strategy it wrote.  Reports are meant to be byte-identical above
`wall-time-ms`, so two outputs of this script, say under PYTHONHASHSEED=0
and 123, or of two versions of the program, should compare equal.
"""

import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from qualtree.automata import Alphabet, buchi, cobuchi
from qualtree.cli import main as qualtree
from qualtree.fileformat import (
    serialize_arena,
    serialize_automaton,
    serialize_tree,
    serialize_word,
)
from qualtree.reductions import lift_diagonal, lift_swap
from qualtree.suite import random_alternating_buchi

sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))

from draws import (  # noqa: E402
    random_arena,
    random_lasso_word,
    random_regular_tree,
    random_simple_pwa,
    random_target,
)


def write_inputs(seed: int, count: int) -> list[list[str]]:
    """Write the seeded inputs to the current directory; return the
    command lines to run on them."""
    rng = random.Random(seed)
    commands = []
    for k in range(count):
        aut, final = random_alternating_buchi(rng, max_states=4)
        tree = random_regular_tree(rng, 6, aut.alphabet)
        with open(f"t{k}.tree", "w") as fh:
            fh.write(serialize_tree(tree))
        for name, cond in (("buchi", buchi(final)), ("cobuchi", cobuchi(final))):
            with open(f"a{k}-{name}.aut", "w") as fh:
                fh.write(serialize_automaton(aut, cond))
            commands.append(["membership", f"a{k}-{name}.aut", f"t{k}.tree"])
        g = random_arena(rng, 8)
        with open(f"g{k}.arena", "w") as fh:
            fh.write(serialize_arena(g, random_target(rng, g)))
        for objective in ("reach", "buchi", "cobuchi"):
            commands.append(["solve-game", f"g{k}.arena", "--objective", objective])
            commands.append(["solve-game", f"g{k}.arena", "--objective", objective, "--oracle"])
    for k in range(count):
        aut, final = random_alternating_buchi(rng, max_states=4)
        with open(f"e{k}.aut", "w") as fh:
            fh.write(serialize_automaton(aut, buchi(final)))
        commands.append(["check-emptiness", f"e{k}.aut", "--witness", f"e{k}.witness"])
    sigma = Alphabet(("a", "b"))
    for k in range(count):
        pwa = random_simple_pwa(rng, 4, sigma)
        final = frozenset(q for q in sorted(pwa.states) if rng.random() < 0.5)
        with open(f"w{k}.word", "w") as fh:
            fh.write(serialize_word(random_lasso_word(rng, sigma, 3, 4)))
        with open(f"pt{k}.tree", "w") as fh:
            fh.write(serialize_tree(random_regular_tree(rng, 6, sigma)))
        for name, cond in (("buchi", buchi(final)), ("cobuchi", cobuchi(final))):
            with open(f"p{k}-{name}.aut", "w") as fh:
                fh.write(serialize_automaton(pwa, cond))
            commands.append(["word-membership", f"p{k}-{name}.aut", f"w{k}.word"])
            for lift in (lift_diagonal, lift_swap):
                path = f"p{k}-{name}-{lift.__name__}.aut"
                with open(path, "w") as fh:
                    fh.write(serialize_automaton(lift(pwa), cond))
                commands.append(["ptree-membership", path, f"pt{k}.tree"])
    return commands


def print_outputs(argv: list[str]) -> None:
    """Print, then remove, the witness files a check-emptiness run wrote."""
    if "--witness" not in argv:
        return
    witness = argv[argv.index("--witness") + 1]
    for path in (witness, witness + ".strategy"):
        if os.path.exists(path):
            with open(path) as fh:
                print(f"--- {path}\n{fh.read()}", end="")
            os.remove(path)


def without_wall_time(report: str) -> str:
    lines = []
    for line in report.splitlines():
        if line.startswith("{"):
            body = json.loads(line)
            body.pop("wall-time-ms", None)
            line = json.dumps(body, sort_keys=True)
        elif line.startswith("wall-time-ms:"):
            continue
        lines.append(line)
    return "\n".join(lines)


def main() -> int:
    seed, count = int(sys.argv[1]), int(sys.argv[2])
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative paths keep the reports free of the directory name
        try:
            for argv in write_inputs(seed, count):
                for extra in ([], ["--json"]):
                    out, err = io.StringIO(), io.StringIO()
                    with redirect_stdout(out), redirect_stderr(err):
                        code = qualtree(argv + extra)
                    print(f"$ qualtree {' '.join(argv + extra)}  (exit {code})")
                    print(without_wall_time(out.getvalue() + err.getvalue()))
                    print_outputs(argv)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
