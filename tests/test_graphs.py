import random

from qualtree.graphs import sccs


def _random_graph(rng, n):
    """Adjacency lists with isolated vertices, self-loops and multi-edges."""
    adj = []
    for v in range(n):
        succ = [rng.randrange(n) for _ in range(rng.choice((0, 0, 1, 2, 3)))]
        if rng.random() < 0.2:
            succ.append(v)
        if succ and rng.random() < 0.3:
            succ.append(succ[0])
        adj.append(succ)
    return adj


def _reach(adj, v):
    seen = {v}
    stack = [v]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def test_sccs_match_mutual_reachability_in_reverse_topological_order():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(0, 14)
        adj = _random_graph(rng, n)
        comps = sccs(adj)
        reach = [_reach(adj, v) for v in range(n)]
        classes = {frozenset(w for w in reach[v] if v in reach[w]) for v in range(n)}
        assert sum(len(c) for c in comps) == n
        assert {frozenset(c) for c in comps} == classes
        position = {v: i for i, c in enumerate(comps) for v in c}
        for v in range(n):
            for w in adj[v]:
                assert position[w] <= position[v]


def test_sccs_on_long_path_and_cycle_do_not_recurse():
    n = 200_000
    path = [[v + 1] for v in range(n - 1)] + [[]]
    assert sccs(path) == [[v] for v in reversed(range(n))]
    cycle = [[(v + 1) % n] for v in range(n)]
    (comp,) = sccs(cycle)
    assert sorted(comp) == list(range(n))
