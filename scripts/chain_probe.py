#!/usr/bin/env python3
"""Tie the chain verdicts on state masks to the reference chains.

Each seeded draw makes a `random_simple_pwa` and a `random_split_automaton`
of up to MAX_STATES states, a lasso word, and a `random_regular_tree` of up
to MAX_NODES nodes with three unreachable nodes spliced in.
`lasso_membership_word` on the word, and `prob_tree_membership` on both
lifts and on the split automaton, over the tree and over the word's tree,
must give the verdict of `as_verdict` on `word_chain` or `tree_chain`,
under Büchi and under co-Büchi.  Those draws almost never change verdict
when the tree is mirrored, so each draw also decides a sticky split
automaton, which keeps its state on both children half the time, on a
fork of depth 1 or 2 with two unreachable nodes, and on the fork's mirror
image: a mix-up of the two children then changes verdicts.  Each case is
decided again with one transition row removed: the mask route must stop
with the reference's missing-row error, or neither may stop.  Each
disagreement is printed on its own line, and any makes the exit code 4.

Usage: python scripts/chain_probe.py [SEED] [COUNT] [MAX_STATES] [MAX_NODES]
"""

import collections
import random
import sys
import time

from qualtree.automata import BUCHI, COBUCHI, Alphabet, ProbTreeAutomaton
from qualtree.dist import Distribution
from qualtree.markov import (
    as_verdict,
    lasso_membership_word,
    prob_tree_membership,
    tree_chain,
    word_chain,
)
from qualtree.reductions import lift_diagonal, lift_swap
from qualtree.suite import (
    random_lasso_word,
    random_regular_tree,
    random_simple_pwa,
    random_split_automaton,
    with_unreachable_nodes,
)
from qualtree.trees import RegularTree, tree_from_word

SIGMA = Alphabet(("a", "b"))


def fork(rng, depth, sigma):
    """The finite binary tree of the given depth, randomly labelled, whose
    leaves loop on themselves."""
    nodes, label, succ0, succ1 = [], {}, {}, {}

    def grow(d):
        v = f"n{len(nodes)}"
        nodes.append(v)
        label[v] = rng.choice(sigma.symbols)
        succ0[v], succ1[v] = (grow(d - 1), grow(d - 1)) if d else (v, v)
        return v

    grow(depth)
    return RegularTree(tuple(nodes), nodes[0], label, succ0, succ1)


def sticky_split_automaton(rng, n, sigma):
    """A split automaton with one pair per row, which keeps its state on
    both children half the time."""
    states = [f"q{i}" for i in range(n)]
    delta = {(q, x): Distribution.point((q, q) if rng.random() < 0.5
                                        else (rng.choice(states), rng.choice(states)))
             for q in states for x in sigma.symbols}
    return ProbTreeAutomaton(sigma, frozenset(states), states[0], delta)


def cases(rng, max_states, max_nodes):
    """(decide, build, automaton, marked states, word or tree) of one draw;
    the last two are a fork and its mirror image."""
    a = random_simple_pwa(rng, max_states, SIGMA)
    final = frozenset(q for q in sorted(a.states) if rng.random() < 0.5)
    w = random_lasso_word(rng, SIGMA, max_nodes // 2, max(1, max_nodes // 2))
    t = with_unreachable_nodes(rng, random_regular_tree(rng, max_nodes, SIGMA), SIGMA, 3)
    b = random_split_automaton(rng, rng.randint(1, max_states), SIGMA)
    b_final = frozenset(q for q in sorted(b.states) if rng.random() < 0.5)
    yield lasso_membership_word, word_chain, a, final, w
    for x in (t, tree_from_word(w)):
        for lift in (lift_diagonal, lift_swap):
            yield prob_tree_membership, tree_chain, lift(a), final, x
        yield prob_tree_membership, tree_chain, b, b_final, x
    c = sticky_split_automaton(rng, rng.randint(1, max_states), SIGMA)
    c_final = frozenset(q for q in sorted(c.states) if rng.random() < 0.5)
    f = with_unreachable_nodes(rng, fork(rng, rng.randint(1, 2), SIGMA), SIGMA, 2)
    for x in (f, RegularTree(f.nodes, f.root, f.label, f.succ1, f.succ0)):
        yield prob_tree_membership, tree_chain, c, c_final, x


def without_a_row(rng, a):
    """a with one transition row removed, picked at random."""
    delta = dict(a.delta)
    del delta[rng.choice(sorted(delta))]
    return type(a)(a.alphabet, a.states, a.initial, delta)


def by_chain(build):
    """Decide by the bottom SCCs of the chain that `build` makes."""
    return lambda a, final, x, kind: as_verdict(build(a, final, x), kind)


def decided(decide, *args):
    """The verdict, or the message of the missing-row error that stopped it."""
    try:
        return decide(*args)
    except KeyError as e:
        return str(e)


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    count = int(sys.argv[2]) if len(sys.argv) > 2 else 300
    max_states = int(sys.argv[3]) if len(sys.argv) > 3 else 5
    max_nodes = int(sys.argv[4]) if len(sys.argv) > 4 else 12

    rng = random.Random(seed)
    t0 = time.monotonic()
    members, stopped, compared, bad, mirrored = collections.Counter(), 0, 0, 0, 0
    for i in range(count):
        wanted = []
        for decide, build, aut, marked, x in cases(rng, max_states, max_nodes):
            broken, reference = without_a_row(rng, aut), by_chain(build)
            for kind in (BUCHI, COBUCHI):
                compared += 1
                verdict = decide(aut, marked, x, kind)
                wanted.append(reference(aut, marked, x, kind))
                if verdict != wanted[-1]:
                    print(f"draw {i}: {decide.__name__} {kind} says {verdict}, "
                          f"the reference chain says {not verdict}")
                    bad += 1
                members[kind] += verdict
                got, want = decided(decide, broken, marked, x, kind), decided(
                    reference, broken, marked, x, kind)
                if got != want:
                    print(f"draw {i}: without a row, {decide.__name__} {kind} gives {got!r}, "
                          f"the reference chain {want!r}")
                    bad += 1
                stopped += isinstance(want, str)
        mirrored += wanted[-4:-2] != wanted[-2:]
    elapsed = time.monotonic() - t0
    print(f"{count} draws in {elapsed:.1f}s: {compared} verdicts compared "
          f"({members[BUCHI]} Büchi and {members[COBUCHI]} co-Büchi members), "
          f"{stopped} stopped by a removed row, {mirrored} forks whose verdict mirroring "
          f"changes, {bad} disagreements")
    return 0 if not bad else 4


if __name__ == "__main__":
    sys.exit(main())
