"""Iterative graph algorithms shared by the Markov and game analyses."""

from __future__ import annotations

from typing import Callable, Iterable, Sequence


def reachable(starts: Iterable, succ: Callable) -> set:
    seen = set(starts)
    stack = list(seen)
    while stack:
        v = stack.pop()
        for w in succ(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def sccs(adj: Sequence[Sequence[int]]) -> list[list[int]]:
    """Tarjan's algorithm on vertices ``0 .. len(adj) - 1``, iterative to
    survive deep products.

    ``adj[v]`` lists the successors of ``v``.  Roots and successors are
    explored in list order, so callers that number vertices canonically get
    a deterministic decomposition.  Components come out in reverse
    topological order: no edge leads from a component to a later one.
    """
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    out: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    out.append(comp)
    return out
