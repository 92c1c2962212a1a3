"""The three workloads: request streams, the request path, and verdict checks.

A request is one decision on one generated input that arrives as text.  The
request path (``execute``) is what the timed loop measures; the checks run
after it, outside the timed region.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import re
from typing import NamedTuple

import gen


class Request(NamedTuple):
    kind: str  # emptiness | buchi | cobuchi | lift1 | lift2 | value1
    texts: tuple[str, ...]


# Verdict codes used in the stored record.
CODES = {"empty": "E", "nonempty": "N", "member": "T", "nonmember": "F", "undecided": "U"}

# Knowledge-set bound for emptiness inputs (see gen.emptiness_automaton)
# and the co-Buchi strategy counts for membership inputs: at most the first,
# or above the second, where the solver refuses.
EMPTINESS_MAX_BELIEFS = 400
COBUCHI_REFUSED_ABOVE = 2**20  # games.almost_sure_cobuchi's default choice bound


def digest(requests: list[Request]) -> str:
    h = hashlib.sha256()
    for r in requests:
        h.update(r.kind.encode())
        for t in r.texts:
            h.update(b"\0" + t.encode())
        h.update(b"\1")
    return "sha256:" + h.hexdigest()


# ---------------------------------------------------------------------------
# Request streams: endless, and a pure function of their random generator.
#
# Streams are stratified: sizes and co-Buchi strategy counts cycle through
# fixed slots, and the generator draws everything else, so a corpus cut from
# a stream holds a fixed mix of cheap and costly requests.
# ---------------------------------------------------------------------------


def _spread(lo: int, hi: int, k: int) -> list[int]:
    """k evenly spaced sizes from lo to hi."""
    return [lo + round(j * (hi - lo) / (k - 1)) for j in range(k)]


# Protagonist strategy-count slots for co-Buchi membership.  The solver
# enumerates the strategies, so the slot bounds a request's cost: up to about
# 2 s for the largest slot below the refusal bound.  The last slot is above
# that bound and yields an undecided request.
STRATEGY_SLOTS = [(1, 8), (9, 32), (33, 128)] * 3 + \
    [(257, 1024), (COBUCHI_REFUSED_ABOVE + 1, float("inf"))]


def _emptiness_stream(rng: random.Random, states: tuple[int, int], max_beliefs: int):
    for n in itertools.cycle(range(states[0], states[1] + 1)):
        yield Request("emptiness", (gen.emptiness_automaton(rng, n, max_beliefs),))


def _cobuchi_request(rng: random.Random, max_states: int, max_nodes: int,
                     strategies: tuple) -> Request:
    """Small co-Buchi membership query whose protagonist has a number of
    positional strategies in the ``strategies`` range.  The solver
    enumerates them, so the range bounds the request's cost."""
    while True:
        text, eloise, rows = gen.membership_automaton(
            rng, rng.randint(2, max_states), "cobuchi", 2, [1, 2, 2, 3], 0.25)
        tree, labels = gen.regular_tree(rng, rng.randint(3, max_nodes), ["a", "b"])
        if strategies[0] <= gen.choice_space(eloise, rows, labels) <= strategies[1]:
            return Request("cobuchi", (text, tree))


def _membership_stream(rng: random.Random, states: tuple[int, int], nodes: tuple[int, int],
                       trees_per_automaton: int, slots):
    """Groups of Buchi queries sharing one automaton, then one co-Buchi query."""
    state_slots = itertools.cycle(_spread(*states, 7))
    node_slots = itertools.cycle(_spread(*nodes, 5))
    strategy_slots = itertools.cycle(slots)
    while True:
        n = next(state_slots)
        text, _, _ = gen.membership_automaton(rng, n, "buchi", max(1, n // 4),
                                             [1, 2, 2, 3, 3], 0.15)
        for _ in range(trees_per_automaton):
            tree, _ = gen.regular_tree(rng, next(node_slots), ["a", "b"])
            yield Request("buchi", (text, tree))
        yield _cobuchi_request(rng, min(4, states[1]), min(10, nodes[1]), next(strategy_slots))


def _chains_stream(rng: random.Random, states: tuple[int, int], nodes: tuple[int, int],
                   blocks: tuple[int, int]):
    """Alternating lifted tree queries and value-1 gadget queries."""
    lifts = itertools.cycle(["lift1", "lift2"])
    state_slots = itertools.cycle(_spread(*states, 5))
    node_slots = itertools.cycle(_spread(*nodes, 4))
    gadget_slots = itertools.cycle(_spread(2, max(3, states[1] // 3), 3))
    block_slots = itertools.cycle(_spread(*blocks, 5))
    while True:
        kind = rng.choice(["buchi", "cobuchi"])
        pwa = gen.simple_prob_word(rng, next(state_slots), ["a", "b"], kind, 0.5)
        tree, _ = gen.regular_tree(rng, next(node_slots), ["a", "b"])
        yield Request(next(lifts), (pwa, tree))
        # Mostly-accepting word automata, so that some blocks are accepted surely
        # and the gadget's verdict is not almost always "nonmember".
        pwa = gen.simple_prob_word(rng, next(gadget_slots), ["a", "b"], "buchi", 0.85)
        word = gen.separated_word(rng, ["a", "b"], next(block_slots), (1, 8))
        yield Request("value1", (pwa, word))


# Each workload's corpus is the first requests of its stream from one fixed
# generator seed: (stream, requests in the corpus, requests per group).  A
# group is a run of requests that belong together (the Buchi queries sharing
# one automaton, then the co-Buchi query; a lifted query, then a value-1
# query) and is never split.  Full corpora take 9-15 s per pass on the
# reference machine, so a 40 s run makes two or three passes.  The tiny
# corpora serve the benchmark's tests.
STREAMS = {
    "emptiness": {"full": (lambda rng: _emptiness_stream(rng, (1, 10), EMPTINESS_MAX_BELIEFS),
                           100, 1),
                  "tiny": (lambda rng: _emptiness_stream(rng, (1, 4), 8), 8, 1)},
    "membership": {"full": (lambda rng: _membership_stream(rng, (4, 16), (30, 300), 4,
                                                           STRATEGY_SLOTS), 60, 5),
                   "tiny": (lambda rng: _membership_stream(rng, (2, 4), (3, 8), 2,
                                                           [(1, 8)]), 6, 3)},
    "chains": {"full": (lambda rng: _chains_stream(rng, (5, 40), (30, 300), (40, 120)), 70, 2),
               "tiny": (lambda rng: _chains_stream(rng, (2, 4), (3, 8), (1, 2)), 4, 2)},
}


def corpus(workload: str, size: str = "full") -> list[Request]:
    """The workload's fixed corpus, the same for every seed."""
    stream, count, _ = STREAMS[workload][size]
    return list(itertools.islice(stream(random.Random(f"{workload}/corpus")), count))


# State (q...) and tree-node (n...) names in the generated texts.
_NAME = re.compile(r"\b([qn])(\d+)\b")


def renamed(req: Request, tag: str) -> Request:
    """The request with ``tag`` inserted after the first letter of every
    state and node name.  All names get the same tag, so their canonical
    order among themselves, and against any other name, stays the same:
    the program does the same work on a renamed request, and its verdict
    does not change."""
    return Request(req.kind, tuple(_NAME.sub(rf"\g<1>{tag}\g<2>", t) for t in req.texts))


def schedule(workload: str, seed: int, size: str = "full"):
    """Endless sequence of (pass, corpus index, request) for one seed.

    Every pass sends the whole corpus, starting at a seed-chosen group and
    with names tagged by seed and pass.  The texts therefore differ between
    seeds and between passes, so no pass can be answered from a cache of
    an earlier one, while the work per pass stays the same.
    """
    base = corpus(workload, size)
    group = STREAMS[workload][size][2]
    start = random.Random(f"{workload}/{seed}").randrange(len(base) // group) * group
    order = list(range(start, len(base))) + list(range(start))
    for p in itertools.count():
        tag = f"{seed % 10000:04d}x{p:02d}x"
        for i in order:
            yield p, i, renamed(base[i], tag)


# ---------------------------------------------------------------------------
# Canary slice: small fixed inputs whose expected verdicts come from the
# repository's oracles (see record.py), plus the gallery's known answers.
# ---------------------------------------------------------------------------

GALLERY_EMPTY = """kind alternating-tree
alphabet a b
states q ca cb dead
initial q
abelard q ca cb dead
accept buchi q ca cb
trans ca a ca ca
trans ca b dead dead
trans cb a dead dead
trans cb b cb cb
trans dead a dead dead
trans dead b dead dead
trans q a ca ca
trans q a cb cb
trans q b ca ca
trans q b cb cb
"""

GALLERY_ONE_STATE = """kind alternating-tree
alphabet a
states q
initial q
eloise q
accept buchi q
trans q a q q
"""

CONSTANT_A_TREE = "tree\nroot n0\nnode n0 a n0 n0\n"

# (request, expected verdict, route) known without running anything.
GALLERY = {
    "emptiness": [
        (Request("emptiness", (GALLERY_EMPTY,)), "empty",
         "gallery: contradictory_uniformity_automaton is empty"),
        (Request("emptiness", (GALLERY_ONE_STATE,)), "nonempty",
         "gallery: one_state_acceptor is non-empty"),
    ],
    "membership": [
        (Request("buchi", (GALLERY_ONE_STATE, CONSTANT_A_TREE)), "member",
         "gallery: one_state_acceptor accepts constant_tree('a')"),
    ],
    "chains": [],
}


def canary(workload: str) -> list[Request]:
    """Oracle-sized requests, the same for every seed."""
    rng = random.Random(f"canary/{workload}")
    if workload == "emptiness":
        stream = _emptiness_stream(rng, (1, 4), 8)
    elif workload == "membership":
        stream = (r for r in _membership_stream(rng, (2, 3), (2, 4), 2, [(1, 8)])
                  if r.kind == "buchi")
    else:
        stream = _chains_stream(rng, (2, 6), (3, 12), (1, 3))
    return list(itertools.islice(stream, 12))


# ---------------------------------------------------------------------------
# The request path.
# ---------------------------------------------------------------------------


def execute(qt, req: Request):
    """Answer one request through the program; returns (verdict, artifact).

    ``qt`` holds the program's modules; functions are looked up on them at
    call time, so the tracer's rebinding of module attributes is seen.
    """
    ff = qt.fileformat
    if req.kind == "emptiness":
        loaded = ff.parse_automaton(req.texts[0])
        res = qt.emptiness.check_emptiness(loaded.automaton, loaded.acceptance.target)
        if res.kind == "nonempty":
            return "nonempty", (ff.serialize_tree(res.witness),
                                ff.serialize_strategy(res.strategy))
        return ("undecided" if res.kind == "resource-exceeded" else res.kind), None
    loaded = ff.parse_automaton(req.texts[0])
    if req.kind in ("buchi", "cobuchi"):
        tree = ff.parse_tree(req.texts[1])
        try:
            ok = qt.acceptance.qualitative_membership(loaded.automaton, loaded.acceptance, tree)
        except qt.errors.ResourceLimit:
            return "undecided", None
        return ("member" if ok else "nonmember"), None
    if req.kind in ("lift1", "lift2"):
        tree = ff.parse_tree(req.texts[1])
        lift = qt.reductions.lift_diagonal if req.kind == "lift1" else qt.reductions.lift_swap
        ok = qt.markov.prob_tree_membership(
            lift(loaded.automaton), loaded.acceptance.target, tree, loaded.acceptance.kind)
        return ("member" if ok else "nonmember"), None
    if req.kind == "value1":
        word = ff.parse_word(req.texts[1])
        aut, bad = qt.reductions.value1_to_cobuchi(
            loaded.automaton, loaded.acceptance.target, gen.SHARP)
        ok = qt.markov.lasso_membership_word(aut, bad, word, "cobuchi")
        return ("member" if ok else "nonmember"), (aut, bad)
    raise ValueError(f"unknown request kind {req.kind!r}")


# ---------------------------------------------------------------------------
# Independent checks, run outside the timed region.
# ---------------------------------------------------------------------------


def recheck_witness(qt, req: Request, artifact) -> str | None:
    """Parse the serialised witness back and re-verify it by membership."""
    tree_text, strategy_text = artifact
    if not strategy_text.startswith("strategy\n"):
        return "witness strategy text is malformed"
    loaded = qt.fileformat.parse_automaton(req.texts[0])
    tree = qt.fileformat.parse_tree(tree_text)
    cond = qt.automata.buchi(loaded.acceptance.target)
    if not qt.acceptance.qualitative_membership(loaded.automaton, cond, tree):
        return "witness tree is not accepted"
    return None


def _bottom_verdict(start, succ, is_marked, kind: str) -> bool:
    """Almost-sure verdict of a finite chain from its support graph alone:
    every reachable bottom SCC meets (buchi) or avoids (cobuchi) the marked
    states.  Kosaraju's algorithm, written iteratively."""
    order, seen = [], {start}
    stack = [(start, iter(succ(start)))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if w not in seen:
                seen.add(w)
                stack.append((w, iter(succ(w))))
                break
        else:
            stack.pop()
            order.append(v)
    pred: dict = {v: [] for v in seen}
    for v in seen:
        for w in succ(v):
            pred[w].append(v)
    comp: dict = {}
    for root in reversed(order):
        if root in comp:
            continue
        comp[root] = root
        todo = [root]
        while todo:
            v = todo.pop()
            for w in pred[v]:
                if w not in comp:
                    comp[w] = root
                    todo.append(w)
    bottom = {c: True for c in comp.values()}
    hits = {c: False for c in comp.values()}
    for v in seen:
        if is_marked(v):
            hits[comp[v]] = True
        if any(comp[w] != comp[v] for w in succ(v)):
            bottom[comp[v]] = False
    bottoms = [c for c, b in bottom.items() if b]
    if kind == "buchi":
        return all(hits[c] for c in bottoms)
    return not any(hits[c] for c in bottoms)


def _read_pwa(text: str):
    """(initial, final, kind, {(q, s): [targets]}) from a prob-word file."""
    support, final, kind, initial = {}, set(), None, None
    for line in text.splitlines():
        tok = line.split()
        if tok[0] == "initial":
            initial = tok[1]
        elif tok[0] == "accept":
            kind, final = tok[1], set(tok[2:])
        elif tok[0] == "ptrans":
            support[(tok[1], tok[2])] = sorted(set(tok[4::2]))
    return initial, final, kind, support


def reference_verdict(req: Request, artifact) -> str:
    """Chain verdicts recomputed by the benchmark's own support-graph code."""
    if req.kind in ("lift1", "lift2"):
        initial, final, kind, support = _read_pwa(req.texts[0])
        lines = req.texts[1].splitlines()
        root = lines[1].split()[1]
        label, c0, c1 = {}, {}, {}
        for line in lines[2:]:
            _, n, lab, a, b = line.split()
            label[n], c0[n], c1[n] = lab, a, b

        # Both lifts put every target of the word row on both children.
        def succ(v):
            q, n = v
            return [(x, c) for x in support[(q, label[n])] for c in (c0[n], c1[n])]

        ok = _bottom_verdict((initial, root), succ, lambda v: v[0] in final, kind)
    else:
        aut, bad = artifact
        _, rest = req.texts[1].split(None, 1)
        left, right = rest.split("|")
        word = left.split() + right.split()
        k = len(left.split())

        def succ(v):
            q, i = v
            j = i + 1 if i + 1 < len(word) else k
            return [(x, j) for x in sorted(aut.delta[(q, word[i])].support())]

        ok = _bottom_verdict((aut.initial, 0), succ, lambda v: v[0] in bad, "cobuchi")
    return "member" if ok else "nonmember"

