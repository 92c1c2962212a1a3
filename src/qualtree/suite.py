"""Seeded random instances, the solver-versus-oracle cross-check suite, and
the one-bit memory product that probes knowledge-set memory.

Generators are tuned so the blunt enumeration oracles stay tractable: the
protagonist's local-choice space is kept small while opponent branching
stays free.  Every run is a pure function of the seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from qualtree.automata import (
    Alphabet,
    AlternatingTreeAutomaton,
    ProbTreeAutomaton,
    ProbWordAutomaton,
)
from qualtree.dist import Distribution
from qualtree.emptiness import (
    ImperfectInfoArena,
    build_emptiness_game,
    check_emptiness,
    check_observation_strategy,
    solve_by_enumeration,
)
from qualtree.games import StochasticArena
from qualtree.ordering import csorted
from qualtree.trees import RegularTree, UltimatelyPeriodicWord, lasso


def random_alternating_buchi(
    rng: random.Random, max_states: int = 4, max_symbols: int = 2
) -> tuple[AlternatingTreeAutomaton, frozenset]:
    """Complete alternating automaton with a small protagonist choice space."""
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    sigma = Alphabet(tuple("abc"[: rng.randint(1, max_symbols)]))
    n_eloise = min(rng.choice([0, 1, 1, 1, 2]), n)
    eloise = frozenset(rng.sample(states, n_eloise))
    transitions = set()
    for q in states:
        for s in sigma:
            if q in eloise:
                k = rng.choice([1, 1, 2]) if n_eloise <= 1 else rng.choice([1, 1, 1, 2])
            else:
                k = rng.choice([1, 1, 2, 2, 3])
            while True:
                rows = {
                    (q, s, rng.choice(states), rng.choice(states)) for _ in range(k)
                }
                if rows:
                    break
            transitions |= rows
    final = frozenset(q for q in states if rng.random() < 0.55)
    aut = AlternatingTreeAutomaton(
        alphabet=sigma,
        states=frozenset(states),
        initial="q0",
        transitions=frozenset(transitions),
        complete=True,
        eloise=eloise,
        abelard=frozenset(states) - eloise,
    )
    return aut, final


def random_regular_tree(
    rng: random.Random, max_nodes: int, alphabet: Alphabet
) -> RegularTree:
    """Random tree presentation with every node reachable by construction."""
    m = rng.randint(1, max_nodes)
    nodes = [f"n{i}" for i in range(m)]
    succ0: dict = {}
    succ1: dict = {}
    for i in range(1, m):
        parent = nodes[rng.randrange(i)]
        side = succ0 if rng.getrandbits(1) else succ1
        other = succ1 if side is succ0 else succ0
        if parent in side:
            side, other = other, side
        if parent in side:
            parent = nodes[i - 1]
            side = succ0 if parent not in succ0 else succ1
        side[parent] = nodes[i]
    for n in nodes:
        succ0.setdefault(n, rng.choice(nodes))
        succ1.setdefault(n, rng.choice(nodes))
    return RegularTree(
        nodes=tuple(nodes),
        root=nodes[0],
        label={n: rng.choice(list(alphabet)) for n in nodes},
        succ0=succ0,
        succ1=succ1,
    )


def random_simple_pwa(
    rng: random.Random, max_states: int, alphabet: Alphabet
) -> ProbWordAutomaton:
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    delta = {}
    for q in states:
        for s in alphabet:
            if rng.random() < 0.45:
                delta[(q, s)] = Distribution.point(rng.choice(states))
            else:
                delta[(q, s)] = Distribution.half_half(
                    rng.choice(states), rng.choice(states)
                )
    return ProbWordAutomaton(alphabet, frozenset(states), "q0", delta)


def random_lasso_word(
    rng: random.Random, alphabet: Alphabet, max_prefix: int = 2, max_period: int = 3
) -> UltimatelyPeriodicWord:
    symbols = list(alphabet)
    prefix = [rng.choice(symbols) for _ in range(rng.randint(0, max_prefix))]
    period = [rng.choice(symbols) for _ in range(rng.randint(1, max_period))]
    return lasso(prefix, period)


def random_split_automaton(rng: random.Random, n: int, alphabet: Alphabet) -> ProbTreeAutomaton:
    """A probabilistic tree automaton on n states whose splits may send
    different states to the two children, unlike the lifts of word automata."""
    states = [f"q{i}" for i in range(n)]
    pairs = [(q0, q1) for q0 in states for q1 in states]
    delta = {}
    for q in states:
        for x in alphabet.symbols:
            split = rng.sample(pairs, rng.randint(1, min(3, len(pairs))))
            weights = [rng.randint(1, 4) for _ in split]
            delta[(q, x)] = Distribution(
                {pair: Fraction(wt, sum(weights)) for pair, wt in zip(split, weights)}
            )
    return ProbTreeAutomaton(alphabet, frozenset(states), states[0], delta)


def with_unreachable_nodes(rng: random.Random, t: RegularTree, alphabet: Alphabet,
                           extra: int) -> RegularTree:
    """t with its nodes listed in random order and `extra` nodes spliced in
    among them that the root never reaches."""
    nodes = rng.sample(t.nodes, len(t.nodes))
    label, succ0, succ1 = dict(t.label), dict(t.succ0), dict(t.succ1)
    for i in range(extra):
        nodes.insert(rng.randint(0, len(nodes)), f"u{i}")
    for i in range(extra):
        label[f"u{i}"] = rng.choice(alphabet.symbols)
        succ0[f"u{i}"] = rng.choice(nodes)
        succ1[f"u{i}"] = rng.choice(nodes)
    return RegularTree(tuple(nodes), t.root, label, succ0, succ1)


def random_arena(rng: random.Random, max_vertices: int = 7) -> StochasticArena:
    n = rng.randint(2, max_vertices)
    vs = [f"v{i}" for i in range(n)]
    eloise, abelard, rand = set(), set(), set()
    edges: dict = {}
    dist: dict = {}
    for v in vs:
        succ = tuple(rng.sample(vs, rng.randint(1, min(3, n))))
        edges[v] = succ
        roll = rng.random()
        if roll < 0.34:
            eloise.add(v)
        elif roll < 0.67:
            abelard.add(v)
        else:
            rand.add(v)
            ws = [rng.randint(1, 4) for _ in succ]
            total = sum(ws)
            dist[v] = Distribution({s: Fraction(w, total) for s, w in zip(succ, ws)})
    return StochasticArena(
        frozenset(eloise), frozenset(abelard), frozenset(rand), edges, dist, vs[0]
    )


def random_target(rng: random.Random, g: StochasticArena) -> frozenset:
    vs = csorted(g.vertices)
    return frozenset(rng.sample(vs, rng.randint(0, len(vs))))


@dataclass(frozen=True)
class SuiteRecord:
    index: int
    verdict: str
    agree: bool  # solver verdict == oracle verdict
    witness_ok: bool | None  # None when there is no witness to verify
    detail: str

    @property
    def ok(self) -> bool:
        return self.agree and self.witness_ok is not False

    def line(self) -> str:
        witness = "n/a" if self.witness_ok is None else ("yes" if self.witness_ok else "NO")
        agree = "yes" if self.agree else "NO"
        return (
            f"instance {self.index:04d}: verdict={self.verdict} "
            f"agree={agree} witness-ok={witness} {self.detail}"
        )


def emptiness_crosscheck(seed: int, count: int, max_states: int) -> list[SuiteRecord]:
    """Criterion suite: efficient emptiness decision versus the knowledge-set
    strategy enumeration.  A non-empty verdict's strategy must also pass the
    exact product check; `check_emptiness` has already checked its witness
    tree by membership."""
    rng = random.Random(seed)
    records = []
    for i in range(count):
        aut, final = random_alternating_buchi(rng, max_states=max_states)
        result = check_emptiness(aut, final)
        game, target = build_emptiness_game(aut, final)
        oracle_verdict, _ = solve_by_enumeration(game, target)
        agree = (result.kind == "nonempty") == oracle_verdict
        witness_ok = None
        detail = f"states={len(aut.states)} actions={len(game.actions)}"
        if result.kind == "nonempty":
            witness_ok = check_observation_strategy(game, target, result.strategy)
            detail += f" witness-nodes={len(result.witness.nodes)}"
        records.append(SuiteRecord(i, result.kind, agree, witness_ok, detail))
    return records


def with_memory_bit(g: ImperfectInfoArena, target) -> tuple[ImperfectInfoArena, frozenset]:
    """`g` with one extra bit of memory built into the arena.

    Vertex (v, bit) is observed as (obs(v), bit).  Action (a, f) plays a,
    and f gives the next bit for each observation that occurs as a
    successor, so (v, bit) moves to (w, f(obs w)).  A knowledge set of this
    game is a knowledge set of `g` paired with one bit, so its knowledge-set
    strategies are the strategies of `g` with (knowledge set, bit) memory.
    """
    entered = csorted({g.obs[w] for supports in g.trans.values() for support in supports
                       for w in support})
    updates = [tuple(zip(entered, bits))
               for bits in itertools.product((0, 1), repeat=len(entered))]
    vertices = tuple((v, bit) for v in g.vertices for bit in (0, 1))
    actions = tuple((a, f) for a in g.actions for f in updates)
    trans = {}
    for a, f in actions:
        nxt = dict(f)
        for v in g.vertices:
            trans[((v, 0), (a, f))] = trans[((v, 1), (a, f))] = tuple(
                tuple((w, nxt[g.obs[w]]) for w in support) for support in g.trans[(v, a)])
    arena = ImperfectInfoArena(
        vertices=vertices,
        initial=(g.initial, 0),
        actions=actions,
        trans=trans,
        obs={(v, bit): (g.obs[v], bit) for v, bit in vertices},
    )
    return arena, frozenset((v, bit) for v in target for bit in (0, 1))
