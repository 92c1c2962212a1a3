#!/usr/bin/env python3
"""Print seeded membership, solve-game and check-emptiness reports without
their wall-time lines.

Usage: python scripts/report_repro.py SEED COUNT

Draws COUNT seeded alternating automata, each with a regular tree, and COUNT
seeded arenas with targets, then COUNT more seeded alternating Buchi
automata.  It writes them as files to a temporary directory and runs
`qualtree membership` (Buchi and co-Buchi acceptance), `qualtree
solve-game --objective buchi|cobuchi` and `qualtree check-emptiness AUT
--witness W` on them in-process, as text and as --json, printing each exit
code and report, and after a check-emptiness report the files W and
W.strategy it wrote.  Reports are meant to be byte-identical above
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

from qualtree.automata import buchi, cobuchi
from qualtree.cli import main as qualtree
from qualtree.fileformat import serialize_arena, serialize_automaton, serialize_tree
from qualtree.suite import random_alternating_buchi, random_arena, random_regular_tree, random_target


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
        for objective in ("buchi", "cobuchi"):
            commands.append(["solve-game", f"g{k}.arena", "--objective", objective])
    for k in range(count):
        aut, final = random_alternating_buchi(rng, max_states=4)
        with open(f"e{k}.aut", "w") as fh:
            fh.write(serialize_automaton(aut, buchi(final)))
        commands.append(["check-emptiness", f"e{k}.aut", "--witness", f"e{k}.witness"])
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
