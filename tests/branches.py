"""Branches of regular trees, which only the tests read.

`branch_word` reads the word along a branch given as a lasso over the
direction bits "0" and "1".  `sampled_branch_lasso` closes a coin-flipped
branch of a direction-oblivious tree (`is_direction_oblivious`) into a
lasso.  The probabilistic semantics decide trees through their run chains
and never enumerate branches; these serve the tests that sample them.
"""

from __future__ import annotations

import random

from qualtree.trees import RegularTree, UltimatelyPeriodicWord, lasso


def branch_word(t: RegularTree, b: UltimatelyPeriodicWord) -> UltimatelyPeriodicWord:
    """The word read along branch b (a lasso over direction bits "0"/"1").

    The pair (tree node, position in b's lasso) evolves deterministically,
    so the first repeated pair closes the output lasso.
    """
    bad = set(b.prefix + b.period) - {"0", "1"}
    if bad:
        raise ValueError(f"branch must be a word over 0/1, found {sorted(bad)}")
    k = len(b.prefix)
    positions = len(b.prefix) + len(b.period)

    def next_pos(i: int) -> int:
        return i + 1 if i + 1 < positions else k

    seen: dict[tuple[str, int], int] = {}
    labels: list[str] = []
    node, pos = t.root, 0
    while (node, pos) not in seen:
        seen[(node, pos)] = len(labels)
        labels.append(t.label[node])
        direction = 0 if b.at(pos) == "0" else 1
        node, pos = t.child(node, direction), next_pos(pos)
    start = seen[(node, pos)]
    return lasso(labels[:start], labels[start:])


def is_direction_oblivious(t: RegularTree) -> bool:
    return all(t.succ0[n] == t.succ1[n] for n in t.nodes)


def sampled_branch_lasso(t: RegularTree, seed: int) -> UltimatelyPeriodicWord:
    """Close a random branch into a lasso at the first revisited node.

    Only exact for direction-oblivious trees (succ0 == succ1 pointwise),
    where the node walk does not depend on the sampled directions.
    """
    if not is_direction_oblivious(t):
        raise ValueError("branch closure needs succ0 == succ1 at every node")
    rng = random.Random(seed)
    seen: dict[str, int] = {}
    labels: list[str] = []
    node = t.root
    while node not in seen:
        seen[node] = len(labels)
        labels.append(t.label[node])
        node = t.child(node, rng.getrandbits(1))
    start = seen[node]
    return lasso(labels[:start], labels[start:])
