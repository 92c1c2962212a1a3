"""Seeded input generators for the benchmark, written as canonical text.

The generators live here rather than in ``qualtree.suite`` so that a change
to the program cannot change the requests: both commits of a comparison see
byte-identical inputs for the same seed.  Every generator is a pure function
of its ``random.Random`` and iterates only over lists, never over sets, so
the text does not depend on the interpreter's hash seed either.
"""

from __future__ import annotations

import random

SHARP = "s"  # "#" starts a comment in the file formats


def _text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _rows(rng, states, symbols, k_of) -> dict:
    """(state, symbol) -> distinct (target0, target1) pairs, k_of(state) draws each."""
    rows = {}
    for q in states:
        for s in symbols:
            picked: list = []
            for _ in range(k_of(q)):
                pair = (rng.choice(states), rng.choice(states))
                if pair not in picked:
                    picked.append(pair)
            rows[(q, s)] = picked
    return rows


def _alternating_text(states, symbols, eloise, rows, kind, final) -> str:
    abelard = [q for q in states if q not in eloise]
    lines = ["kind alternating-tree", "alphabet " + " ".join(symbols),
             "states " + " ".join(states), f"initial {states[0]}"]
    if eloise:
        lines.append("eloise " + " ".join(eloise))
    if abelard:
        lines.append("abelard " + " ".join(abelard))
    lines.append(" ".join(["accept", kind] + final))
    lines += sorted(f"trans {q} {s} {a} {b}" for (q, s), ps in rows.items() for a, b in ps)
    return _text(lines)


def belief_game_size(states, symbols, eloise, rows, limit: int) -> tuple[int, int]:
    """(actions, reachable knowledge sets) of the emptiness game; the count
    stops just above ``limit``.

    Actions pair a symbol with one row per protagonist state.  The
    protagonist observes only the last direction, so a knowledge set is a
    direction together with the set of automaton states it allows.
    """
    n_actions = 0
    for s in symbols:
        count = 1
        for q in eloise:
            count *= len(rows[(q, s)])
        n_actions += count
    start = ("e", (states[0],))
    seen = {start}
    queue = [start]
    while queue:
        _, belief = queue.pop()
        for s in symbols:
            # protagonist states follow one announced row; opponent states may take any
            choices = [rows[(q, s)] for q in belief if q in eloise]
            fixed = [p for q in belief if q not in eloise for p in rows[(q, s)]]
            combos = [[]]
            for c in choices:
                combos = [acc + [p] for acc in combos for p in c]
            for combo in combos:
                pairs = fixed + combo
                for d in (0, 1):
                    nxt = (str(d), tuple(sorted({p[d] for p in pairs})))
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
                        if len(seen) > limit:
                            return n_actions, len(seen)
    return n_actions, len(seen)


def emptiness_automaton(rng: random.Random, n: int, max_beliefs: int) -> str:
    """Complete alternating Buchi automaton with ``n`` states, drawn as the
    crosscheck suite's generator draws it (small protagonist choice space,
    free opponent branching), redrawn while its game has more than
    ``max_beliefs`` knowledge sets.

    The solver's time grows steeply with the knowledge sets.  The bound
    drops only the largest games, about one draw in 100 at 10 states, so
    that no single request outweighs the rest of a corpus.
    """
    while True:
        states = [f"q{i}" for i in range(n)]
        symbols = ["a", "b"][: rng.randint(1, 2)]
        n_eloise = min(rng.choice([0, 1, 1, 1, 2]), n)
        eloise = sorted(rng.sample(states, n_eloise))

        def k_of(q):
            if q in eloise:
                return rng.choice([1, 1, 2]) if n_eloise <= 1 else rng.choice([1, 1, 1, 2])
            return rng.choice([1, 1, 2, 2, 3])

        rows = _rows(rng, states, symbols, k_of)
        final = [q for q in states if rng.random() < 0.55]
        if belief_game_size(states, symbols, eloise, rows, max_beliefs)[1] <= max_beliefs:
            return _alternating_text(states, symbols, eloise, rows, "buchi", final)


def choice_space(eloise, rows, labels) -> int:
    """Number of protagonist positional strategies in the membership arena."""
    n = 1
    for q in eloise:
        for label in labels:
            n *= len(rows[(q, label)])
    return n


def membership_automaton(rng: random.Random, n_states: int, kind: str, max_eloise: int,
                         branching: list[int], final_p: float) -> tuple[str, list, dict]:
    """Complete alternating automaton over {a, b}; returns (text, eloise, rows)."""
    states = [f"q{i}" for i in range(n_states)]
    eloise = sorted(rng.sample(states, rng.randint(0, min(max_eloise, n_states))))
    rows = _rows(rng, states, ["a", "b"], lambda q: rng.choice(branching))
    final = [q for q in states if rng.random() < final_p] or [states[-1]]
    return _alternating_text(states, ["a", "b"], eloise, rows, kind, final), eloise, rows


def regular_tree(rng: random.Random, n_nodes: int, symbols: list[str]) -> tuple[str, list]:
    """Tree presentation with every node reachable from the root: node i
    hangs below an earlier node, the remaining successors point anywhere.
    Returns (text, labels)."""
    nodes = [f"n{i}" for i in range(n_nodes)]
    succ = [[None, None] for _ in nodes]
    for i in range(1, n_nodes):
        free = [(p, side) for p in rng.sample(range(i), min(i, 4))
                for side in (0, 1) if succ[p][side] is None]
        p, side = free[0] if free else (i - 1, rng.getrandbits(1))
        succ[p][side] = i
    lines = ["tree", "root n0"]
    labels = []
    for i, n in enumerate(nodes):
        c0 = succ[i][0] if succ[i][0] is not None else rng.randrange(n_nodes)
        c1 = succ[i][1] if succ[i][1] is not None else rng.randrange(n_nodes)
        labels.append(rng.choice(symbols))
        lines.append(f"node {n} {labels[-1]} {nodes[c0]} {nodes[c1]}")
    return _text(lines), labels


def simple_prob_word(rng: random.Random, n_states: int, symbols: list[str],
                     kind: str, final_p: float) -> str:
    """Simple probabilistic word automaton: point masses and even splits."""
    states = [f"q{i}" for i in range(n_states)]
    final = [q for q in states if rng.random() < final_p] or [states[-1]]
    lines = ["kind prob-word", "alphabet " + " ".join(symbols),
             "states " + " ".join(states), "initial q0",
             " ".join(["accept", kind] + final)]
    for q in states:
        for s in symbols:
            a, b = rng.choice(states), rng.choice(states)
            if rng.random() < 0.45 or a == b:
                lines.append(f"ptrans {q} {s} 1 {a}")
            else:
                lines.append(f"ptrans {q} {s} 1/2 {a} 1/2 {b}")
    return _text(lines)


def separated_word(rng: random.Random, symbols: list[str], n_blocks: int,
                   block_len: tuple[int, int]) -> str:
    """Lasso word that starts with the separator and keeps separating blocks,
    so the value-1 gadget sees real blocks instead of its reject sink."""
    def blocks(count: int) -> list[str]:
        out: list[str] = []
        for _ in range(count):
            out.append(SHARP)
            out.extend(rng.choice(symbols) for _ in range(rng.randint(*block_len)))
        return out

    prefix = blocks(rng.randint(1, 2))
    return "word " + " ".join(prefix) + " | " + " ".join(blocks(n_blocks)) + "\n"
