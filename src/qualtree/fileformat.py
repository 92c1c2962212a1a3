"""Line-oriented file formats and canonical, digest-stable printing.

Grammar (tokens are whitespace-separated; ``#`` starts a comment, so file
tokens may not contain it):

automaton file
    kind tree|alternating-tree|prob-word|prob-tree|nonzero
    alphabet s1 s2 ...
    states q1 ...
    initial q
    eloise q ...            (alternating-tree, nonzero)
    abelard q ...           (alternating-tree, nonzero)
    accept buchi|cobuchi q ...
    order q1 q2 ...         (nonzero, ascending)
    nzsets forall q ... | one q ... | pos q ...
    trans q a q0 q1         (split transition)
    ltrans q a q2           (local transition, nonzero)
    ptrans q a p1 q1 p2 q2 ...
    pttrans q a p1 q1l q1r p2 q2l q2r ...

tree file
    tree
    root n
    node n label n0 n1

word file
    word u1 u2 ... | v1 v2 ...      (prefix | period; prefix may be empty)

arena file
    arena
    init v
    vertex v eloise|abelard|random
    edge v w [p]            (p required iff v is random)
    target v ...

Printing sorts every set lexicographically and writes rationals as n/d,
so equal values serialize byte-identically; digests are taken over that
canonical form.
"""

from __future__ import annotations

import functools
import hashlib
import re
from dataclasses import dataclass
from fractions import Fraction

from qualtree.automata import (
    AcceptanceCondition,
    Alphabet,
    AlternatingTreeAutomaton,
    NonZeroAutomaton,
    ProbTreeAutomaton,
    ProbWordAutomaton,
    TreeAutomaton,
    missing_rows,
)
from qualtree.dist import Distribution
from qualtree.errors import FormatError
from qualtree.games import StochasticArena
from qualtree.ordering import csorted
from qualtree.trees import RegularTree, UltimatelyPeriodicWord, lasso

KINDS = ("tree", "alternating-tree", "prob-word", "prob-tree", "nonzero")
# Automaton lines that give one value; a second one is malformed, not an update.
ONE_VALUE_LINES = ("alphabet", "states", "initial", "accept", "order", "nzsets")


# What a token may not hold: whitespace, exactly as `str.isspace` has it, or
# the comment sign.
_TOKEN_BREAK = re.compile(r"[\s#]")


def _token(t: str) -> str:
    if not t or _TOKEN_BREAK.search(t):
        raise FormatError(f"not a writable token: {t!r}")
    return t


# A weight token: ASCII digits, an optional "/" and ASCII denominator digits.
# A leading "-" is read so that a negative weight is reported as one.
_WEIGHT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _rat(text: str) -> Fraction:
    """A weight: a non-negative rational written ``n`` or ``n/d``."""
    m = _WEIGHT.fullmatch(text)
    if m is None or m[2] is not None and not int(m[2]):
        raise FormatError(f"bad rational {text!r}")
    x = Fraction(int(m[1]), int(m[2] or 1))
    if x < 0:
        raise FormatError(f"negative weight {text!r}")
    return x


def _rat_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _lines(text: str) -> list[list[str]]:
    out = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append(body.split())
    return out


@dataclass(frozen=True)
class LoadedAutomaton:
    kind: str
    automaton: object
    acceptance: AcceptanceCondition | None


def parse_automaton(text: str) -> LoadedAutomaton:
    lines = _lines(text)
    if not lines or lines[0][0] != "kind" or len(lines[0]) != 2:
        raise FormatError("automaton file must start with a kind line")
    kind = lines[0][1]
    if kind not in KINDS:
        raise FormatError(f"unknown automaton kind {kind!r}")

    alphabet = None
    states: list[str] = []
    initial = None
    eloise: set = set()
    abelard: set = set()
    accept = None
    order: tuple = ()
    nzsets = None
    trans: set = set()
    ltrans: set = set()
    pdelta: dict = {}
    weight_of: dict = {}  # weight token -> Fraction; rows repeat a few weights

    def dist_pairs(toks, stride):
        if len(toks) % stride != 0 or not toks:
            raise FormatError(f"bad probabilistic row: {' '.join(toks)}")
        items = []
        for i in range(0, len(toks), stride):
            p = weight_of.get(toks[i])
            if p is None:
                p = weight_of[toks[i]] = _rat(toks[i])
            if stride == 2:
                items.append((toks[i + 1], p))
            else:
                items.append(((toks[i + 1], toks[i + 2]), p))
        return Distribution(items)

    seen: set = set()
    for line in lines[1:]:
        head, rest = line[0], line[1:]
        if head in ONE_VALUE_LINES:
            if head in seen:
                raise FormatError(f"duplicate {head} line")
            seen.add(head)
        if head == "alphabet":
            if not rest or len(set(rest)) != len(rest):
                raise FormatError(f"alphabet line needs distinct symbols: {' '.join(line)}")
            alphabet = Alphabet(tuple(rest))
        elif head == "states":
            states = rest
        elif head == "initial":
            if len(rest) != 1:
                raise FormatError(f"initial line needs 1 token: {' '.join(line)}")
            (initial,) = rest
        elif head == "eloise":
            eloise.update(rest)
        elif head == "abelard":
            abelard.update(rest)
        elif head == "accept":
            if not rest or rest[0] not in ("buchi", "cobuchi"):
                raise FormatError("accept line needs buchi or cobuchi")
            accept = AcceptanceCondition(rest[0], frozenset(rest[1:]))
        elif head == "order":
            order = tuple(rest)
        elif head == "nzsets":
            parts: list[list[str]] = [[]]
            for t in rest:
                if t == "|":
                    parts.append([])
                else:
                    parts[-1].append(t)
            if len(parts) != 3 or [p[0] for p in parts] != ["forall", "one", "pos"]:
                raise FormatError("nzsets line must read: forall ... | one ... | pos ...")
            nzsets = tuple(frozenset(p[1:]) for p in parts)
        elif head == "trans":
            if len(rest) != 4:
                raise FormatError(f"trans line needs 4 tokens: {' '.join(line)}")
            trans.add(tuple(rest))
        elif head == "ltrans":
            if len(rest) != 3:
                raise FormatError(f"ltrans line needs 3 tokens: {' '.join(line)}")
            ltrans.add(tuple(rest))
        elif head in ("ptrans", "pttrans"):
            key = tuple(rest[:2])
            if key in pdelta:
                raise FormatError(f"duplicate {head} row for {' '.join(key)}")
            pdelta[key] = dist_pairs(rest[2:], 2 if head == "ptrans" else 3)
        else:
            raise FormatError(f"unknown line {head!r} in automaton file")

    if alphabet is None or initial is None or not states:
        raise FormatError("automaton file needs alphabet, states and initial lines")
    sset = frozenset(states)
    if accept is not None and not accept.target <= sset:
        unknown = " ".join(csorted(accept.target - sset))
        raise FormatError(f"accept line names undeclared states: {unknown}")

    if kind == "tree":
        aut: object = TreeAutomaton(
            alphabet, sset, initial, frozenset(trans),
            complete=not missing_rows(sset, alphabet, trans),
        )
    elif kind == "alternating-tree":
        aut = AlternatingTreeAutomaton(
            alphabet, sset, initial, frozenset(trans),
            complete=not missing_rows(sset, alphabet, trans),
            eloise=frozenset(eloise), abelard=frozenset(abelard),
        )
    elif kind == "prob-word":
        aut = ProbWordAutomaton(alphabet, sset, initial, pdelta)
    elif kind == "prob-tree":
        aut = ProbTreeAutomaton(alphabet, sset, initial, pdelta)
    else:
        if nzsets is None:
            raise FormatError("nonzero automaton needs an nzsets line")
        aut = NonZeroAutomaton(
            alphabet=alphabet, states=sset, order=order, initial=initial,
            eloise=frozenset(eloise), abelard=frozenset(abelard),
            local_transitions=frozenset(ltrans), split_transitions=frozenset(trans),
            f_forall=nzsets[0], f_one=nzsets[1], f_pos=nzsets[2],
        )
    return LoadedAutomaton(kind, aut, accept)


def kind_of(aut) -> str:
    if isinstance(aut, NonZeroAutomaton):
        return "nonzero"
    if isinstance(aut, AlternatingTreeAutomaton):
        return "alternating-tree"
    if isinstance(aut, TreeAutomaton):
        return "tree"
    if isinstance(aut, ProbWordAutomaton):
        return "prob-word"
    if isinstance(aut, ProbTreeAutomaton):
        return "prob-tree"
    raise FormatError(f"not an automaton: {type(aut).__name__}")


def serialize_automaton(aut, acceptance: AcceptanceCondition | None = None) -> str:
    kind = kind_of(aut)
    out = [f"kind {kind}"]
    out.append("alphabet " + " ".join(_token(s) for s in aut.alphabet))
    out.append("states " + " ".join(_token(q) for q in csorted(aut.states)))
    out.append(f"initial {_token(aut.initial)}")
    if isinstance(aut, (AlternatingTreeAutomaton, NonZeroAutomaton)):
        if aut.eloise:
            out.append("eloise " + " ".join(_token(q) for q in csorted(aut.eloise)))
        if aut.abelard:
            out.append("abelard " + " ".join(_token(q) for q in csorted(aut.abelard)))
    if acceptance is not None:
        out.append(
            f"accept {acceptance.kind} "
            + " ".join(_token(q) for q in csorted(acceptance.target))
        )
    if isinstance(aut, NonZeroAutomaton):
        out.append("order " + " ".join(_token(q) for q in aut.order))
        out.append(
            "nzsets forall " + " ".join(csorted(aut.f_forall))
            + " | one " + " ".join(csorted(aut.f_one))
            + " | pos " + " ".join(csorted(aut.f_pos))
        )
        for t in csorted(aut.local_transitions):
            out.append("ltrans " + " ".join(_token(x) for x in t))
        for t in csorted(aut.split_transitions):
            out.append("trans " + " ".join(_token(x) for x in t))
    elif isinstance(aut, TreeAutomaton):
        for t in csorted(aut.transitions):
            out.append("trans " + " ".join(_token(x) for x in t))
    elif isinstance(aut, ProbWordAutomaton):
        for (q, a) in sorted(aut.delta):
            row = " ".join(f"{_rat_str(p)} {_token(x)}" for x, p in aut.delta[(q, a)].items())
            out.append(f"ptrans {_token(q)} {_token(a)} {row}")
    elif isinstance(aut, ProbTreeAutomaton):
        for (q, a) in sorted(aut.delta):
            row = " ".join(
                f"{_rat_str(p)} {_token(x[0])} {_token(x[1])}"
                for x, p in aut.delta[(q, a)].items()
            )
            out.append(f"pttrans {_token(q)} {_token(a)} {row}")
    return "\n".join(out) + "\n"


def parse_tree(text: str) -> RegularTree:
    lines = _lines(text)
    if not lines or lines[0] != ["tree"]:
        raise FormatError("tree file must start with a tree line")
    root = None
    nodes: list[str] = []
    label: dict = {}
    succ0: dict = {}
    succ1: dict = {}
    for line in lines[1:]:
        if line[0] == "root" and len(line) == 2:
            if root is not None:
                raise FormatError("duplicate root line")
            root = line[1]
        elif line[0] == "node" and len(line) == 5:
            n, lab, c0, c1 = line[1:]
            if n in label:
                raise FormatError(f"duplicate node line for {n}")
            nodes.append(n)
            label[n] = lab
            succ0[n] = c0
            succ1[n] = c1
        else:
            raise FormatError(f"bad tree line: {' '.join(line)}")
    if root is None or not nodes:
        raise FormatError("tree file needs a root and at least one node")
    return RegularTree(tuple(nodes), root, label, succ0, succ1)


def serialize_tree(t: RegularTree) -> str:
    out = ["tree", f"root {_token(t.root)}"]
    for n in csorted(t.nodes):
        out.append(
            f"node {_token(n)} {_token(t.label[n])} "
            f"{_token(t.succ0[n])} {_token(t.succ1[n])}"
        )
    return "\n".join(out) + "\n"


def parse_word(text: str) -> UltimatelyPeriodicWord:
    lines = _lines(text)
    if len(lines) != 1 or lines[0][0] != "word":
        raise FormatError("word file is a single word line")
    toks = lines[0][1:]
    if "|" not in toks:
        raise FormatError("word line needs a | separating prefix and period")
    cut = toks.index("|")
    prefix, period = toks[:cut], toks[cut + 1 :]
    if not period:
        raise FormatError("word period may not be empty")
    return lasso(prefix, period)


def serialize_word(w: UltimatelyPeriodicWord) -> str:
    left = " ".join(_token(s) for s in w.prefix)
    right = " ".join(_token(s) for s in w.period)
    middle = f"{left} | {right}" if left else f"| {right}"
    return f"word {middle}\n"


def parse_arena(text: str) -> tuple[StochasticArena, frozenset]:
    lines = _lines(text)
    if not lines or lines[0] != ["arena"]:
        raise FormatError("arena file must start with an arena line")
    init = None
    owner: dict = {}
    edges: dict = {}
    weights: dict = {}
    target: set = set()
    for line in lines[1:]:
        head, rest = line[0], line[1:]
        if head == "init" and len(rest) == 1:
            if init is not None:
                raise FormatError("duplicate init line")
            init = rest[0]
        elif head == "vertex" and len(rest) == 2 and rest[1] in ("eloise", "abelard", "random"):
            if rest[0] in owner:
                raise FormatError(f"duplicate vertex {rest[0]}")
            owner[rest[0]] = rest[1]
            edges[rest[0]] = []
        elif head == "edge" and len(rest) in (2, 3):
            v, w = rest[0], rest[1]
            if v not in owner:
                raise FormatError(f"edge from undeclared vertex {v}")
            if (owner[v] == "random") != (len(rest) == 3):
                raise FormatError(f"edge {v} -> {w}: probability iff source is random")
            edges[v].append(w)
            if len(rest) == 3:
                weights[(v, w)] = _rat(rest[2])
        elif head == "target":
            target.update(rest)
        else:
            raise FormatError(f"bad arena line: {' '.join(line)}")
    if init is None:
        raise FormatError("arena file needs an init line")
    if not target <= owner.keys():
        unknown = " ".join(csorted(target - owner.keys()))
        raise FormatError(f"target line names undeclared vertices: {unknown}")
    groups = {"eloise": set(), "abelard": set(), "random": set()}
    for v, o in owner.items():
        groups[o].add(v)
    dist = {
        v: Distribution([(w, weights[(v, w)]) for w in edges[v]])
        for v in groups["random"]
    }
    try:
        arena = StochasticArena(
            eloise=frozenset(groups["eloise"]),
            abelard=frozenset(groups["abelard"]),
            random=frozenset(groups["random"]),
            edges={v: tuple(ws) for v, ws in edges.items()},
            dist=dist,
            initial=init,
        )
    except ValueError as e:
        raise FormatError(str(e)) from e
    return arena, frozenset(target)


def serialize_arena(g: StochasticArena, target: frozenset = frozenset()) -> str:
    out = ["arena", f"init {_token(str(g.initial))}"]
    for v in csorted(g.vertices):
        out.append(f"vertex {_token(str(v))} {g.owner(v)}")
    for v in csorted(g.vertices):
        for w in g.edges[v]:
            if v in g.random:
                out.append(f"edge {_token(str(v))} {_token(str(w))} {_rat_str(g.dist[v][w])}")
            else:
                out.append(f"edge {_token(str(v))} {_token(str(w))}")
    if target:
        out.append("target " + " ".join(_token(str(v)) for v in csorted(target)))
    return "\n".join(out) + "\n"


def serialize_strategy(s) -> str:
    """Textual table for observation strategies: memory ids, then act and
    update rows keyed by observation and action tokens."""
    mem_id = {m: f"m{i}" for i, m in enumerate(s.memory)}

    @functools.cache  # a strategy plays few actions on many rows
    def act_token(a) -> str:
        return f"{a.symbol}|" + ";".join(f"{q}:{p[0]}:{p[1]}" for q, p in a.choice.assign)

    out = ["strategy", "memory " + " ".join(mem_id[m] for m in s.memory)]
    out.append(f"init {mem_id[s.init_memory]}")
    for (m, o), a in sorted(s.act.items(), key=lambda kv: (mem_id[kv[0][0]], str(kv[0][1]))):
        out.append(f"act {mem_id[m]} {o} {act_token(a)}")
    for (m, o, a), m2 in sorted(
        s.update.items(), key=lambda kv: (mem_id[kv[0][0]], str(kv[0][1]), act_token(kv[0][2]))
    ):
        out.append(f"update {mem_id[m]} {o} {act_token(a)} {mem_id[m2]}")
    return "\n".join(out) + "\n"


def digest(canonical_text: str) -> str:
    return "sha256:" + hashlib.sha256(canonical_text.encode()).hexdigest()
