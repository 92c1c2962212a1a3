"""Finite presentations of infinite objects: regular trees and lasso words.

A ``RegularTree`` is a finite pointed graph whose unfolding is an infinite
labelled binary tree; an ``UltimatelyPeriodicWord`` is the lasso u v^w in
its unique canonical form (shortest prefix, primitive period), so equality
of values is equality of the infinite words they denote.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from qualtree.ordering import csorted


def _primitive(period: tuple) -> tuple:
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and period == period[: d] * (n // d):
            return period[: d]
    return period


def canonical_lasso(prefix, period) -> tuple[tuple, tuple]:
    """Canonical (u, v) for u v^w: v primitive, u as short as possible.

    Rolling the last prefix symbol into the period is valid exactly when it
    equals the last period symbol, so the prefix is shortened by repeated
    right-rotation.
    """
    prefix, period = tuple(prefix), tuple(period)
    if not period:
        raise ValueError("period must be non-empty")
    period = _primitive(period)
    while prefix and prefix[-1] == period[-1]:
        prefix = prefix[:-1]
        period = (period[-1],) + period[:-1]
    return prefix, period


@dataclass(frozen=True)
class UltimatelyPeriodicWord:
    prefix: tuple[str, ...]
    period: tuple[str, ...]

    def __post_init__(self):
        p, v = canonical_lasso(self.prefix, self.period)
        if (p, v) != (self.prefix, self.period):
            raise ValueError(
                f"({self.prefix}, {self.period}) is not canonical; use lasso()"
            )

    def at(self, i: int) -> str:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]

    def take(self, n: int) -> tuple[str, ...]:
        return tuple(self.at(i) for i in range(n))

    def __len__(self) -> int:
        """Length of the lasso presentation, not of the infinite word."""
        return len(self.prefix) + len(self.period)


def lasso(prefix, period) -> UltimatelyPeriodicWord:
    p, v = canonical_lasso(prefix, period)
    return UltimatelyPeriodicWord(p, v)


@dataclass(frozen=True)
class RegularTree:
    nodes: tuple[str, ...]
    root: str
    label: dict  # node -> symbol
    succ0: dict  # node -> node
    succ1: dict  # node -> node

    def child(self, node: str, direction: int) -> str:
        return self.succ0[node] if direction == 0 else self.succ1[node]


def validate_tree(t: RegularTree) -> list[str]:
    report = []
    nodes = set(t.nodes)
    if len(nodes) != len(t.nodes):
        report.append("duplicate node ids")
    if t.root not in nodes:
        report.append(f"root {t.root} is not a node")
        return report
    for n in t.nodes:
        for m, what in ((t.label, "label"), (t.succ0, "succ0"), (t.succ1, "succ1")):
            if n not in m:
                report.append(f"{what} undefined on node {n}")
    for m in ("succ0", "succ1"):
        for n, w in sorted(getattr(t, m).items()):
            if w not in nodes:
                report.append(f"{m}({n}) = {w} is not a node")
    seen = {t.root}
    stack = [t.root]
    while stack:
        n = stack.pop()
        for w in (t.succ0.get(n), t.succ1.get(n)):
            if w in nodes and w not in seen:
                seen.add(w)
                stack.append(w)
    for n in csorted(nodes - seen):
        report.append(f"node {n} unreachable from root")
    return report


def tree_from_word(w: UltimatelyPeriodicWord) -> RegularTree:
    """The tree whose every branch reads w: node i carries w's i-th symbol.

    Both successors point to the next lasso position, so the node count is
    exactly the lasso length.
    """
    k = len(w.prefix)
    n = k + len(w.period)
    width = len(str(n - 1))
    ids = tuple(f"n{i:0{width}d}" for i in range(n))
    nxt = {ids[i]: ids[i + 1 if i + 1 < n else k] for i in range(n)}
    return RegularTree(
        nodes=ids,
        root=ids[0],
        label={ids[i]: w.at(i) for i in range(n)},
        succ0=dict(nxt),
        succ1=dict(nxt),
    )


def sample_branch(t: RegularTree, seed: int, horizon: int) -> tuple[str, ...]:
    """Labels read along a coin-flipped branch: horizon+1 symbols, seed-deterministic."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    rng = random.Random(seed)
    node = t.root
    out = [t.label[node]]
    for _ in range(horizon):
        node = t.child(node, rng.getrandbits(1))
        out.append(t.label[node])
    return tuple(out)
