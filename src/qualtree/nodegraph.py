"""Games and chains on a graph of places, with one state mask per place.

A place is a tree node or a lasso position.  Place n reads the symbol id
``sym[n]`` and has the children ``left[n]`` and ``right[n]`` (both children
of a lasso position are the next position).  A row of a symbol is a triple
of state bits (q, q0, q1): at a place that reads it, state q may move to q0
at the left child and to q1 at the right child.  A node game is the tuple
(rows by symbol id, sym, left, right, parents), and a set of (state, place)
pairs is a list of state masks, one per place.

Membership plays the pebble game on it (`acceptance`), and the chain
verdicts of `markov` read the same graph with every state existential.
"""

from __future__ import annotations


def tree_places(t) -> tuple:
    """The places of a regular tree: the labels, the left and the right
    child ids, by node id in ``t.nodes`` order, and the root's id."""
    index = {v: i for i, v in enumerate(t.nodes)}
    return ([t.label[v] for v in t.nodes], [index[t.succ0[v]] for v in t.nodes],
            [index[t.succ1[v]] for v in t.nodes], index[t.root])


def parents(left: list, right: list) -> list:
    """Per place, the distinct places that have it as a child."""
    out: list = [[] for _ in left]
    for p, children in enumerate(zip(left, right)):
        for c in set(children):
            out[c].append(p)
    return out


def attractor(game: tuple, region: list, base: list, mine: int) -> list:
    """The attractor of `base` inside `region`, a state mask per node of the
    node game, for the player whose states are the bits of `mine`.

    A state of that player joins with some row that lies in the region and
    hits the attractor, any other state once every row that lies in the
    region does.  A worklist over nodes: each is evaluated at the start and
    again when a child's mask grows.  An evaluation reads only the symbol
    and the children's masks, so each distinct one is made once per call.
    """
    rows, sym, left, right, parents = game
    joined = list(base)
    work = list(range(len(joined)))
    queued = bytearray(b"\x01") * len(joined)
    ready_for: dict = {}
    while work:
        n = work.pop()
        queued[n] = 0
        todo = region[n] & ~joined[n]
        if not todo:
            continue
        l, r = left[n], right[n]
        key = (sym[n], region[l], region[r], joined[l], joined[r])
        ready = ready_for.get(key)
        if ready is None:
            _, rl, rr, xl, xr = key
            hit = miss = 0  # states with a row in the region that hits, that misses
            for q, b0, b1 in rows[sym[n]]:
                if b0 & rl and b1 & rr:
                    if b0 & xl or b1 & xr:
                        hit |= q
                    else:
                        miss |= q
            ready = ready_for[key] = hit & mine | ~miss & ~mine
        add = todo & ready
        if add:
            joined[n] |= add
            for p in parents[n]:
                if not queued[p]:
                    queued[p] = 1
                    work.append(p)
    return joined


def forward(game: tuple, start: list) -> list:
    """The pairs reachable from `start` by rows, a state mask per place.

    A worklist over places: a place is imaged at the start if its mask is
    not empty, and again when its mask grows.  The image of a mask at a
    place reads only its symbol, so each distinct one is made once per call.
    """
    rows, sym, left, right, _ = game
    reach = list(start)
    work = [n for n, m in enumerate(reach) if m]
    queued = bytearray(len(reach))
    for n in work:
        queued[n] = 1
    image_of: dict = {}
    while work:
        n = work.pop()
        queued[n] = 0
        key = (sym[n], reach[n])
        image = image_of.get(key)
        if image is None:
            l = r = 0
            for q, b0, b1 in rows[sym[n]]:
                if q & reach[n]:
                    l |= b0
                    r |= b1
            image = image_of[key] = (l, r)
        for c, add in zip((left[n], right[n]), image):
            if add & ~reach[c]:
                reach[c] |= add
                if not queued[c]:
                    queued[c] = 1
                    work.append(c)
    return reach
