#!/usr/bin/env python3
"""Probe whether one extra bit of memory changes an emptiness verdict.

For each seeded `random_alternating_buchi` draw, the pruned solver decides
the emptiness game and its `with_memory_bit` product.  A flip would show
that knowledge-set memory is not enough; each is printed on its own line,
and any flip makes the exit code 4.  Every strategy returned with a
non-empty verdict, for the game and for its product, must pass the exact
`check_observation_strategy`; each failure is printed on its own line, and
any failure makes the exit code 4 too.  A draw whose decisions and checks
take more than LIMIT_S seconds, or hit a size cap, is printed as undecided.

Usage: python scripts/memory_probe.py [SEED] [COUNT] [MAX_STATES] [MAX_SYMBOLS]
"""

import random
import signal
import sys
import time

from qualtree.emptiness import (
    build_emptiness_game,
    check_observation_strategy,
    solve_imperfect_buchi,
)
from qualtree.errors import ResourceLimit
from qualtree.suite import random_alternating_buchi, with_memory_bit

LIMIT_S = 10.0


class _OutOfTime(Exception):
    pass


def _out_of_time(signum, frame):
    raise _OutOfTime


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 11
    count = int(sys.argv[2]) if len(sys.argv) > 2 else 200
    max_states = int(sys.argv[3]) if len(sys.argv) > 3 else 3
    max_symbols = int(sys.argv[4]) if len(sys.argv) > 4 else 2

    signal.signal(signal.SIGALRM, _out_of_time)
    rng = random.Random(seed)
    t0 = time.monotonic()
    nonempty = undecided = flips = failed = 0
    for i in range(count):
        aut, final = random_alternating_buchi(rng, max_states, max_symbols)
        signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
        try:
            game, target = build_emptiness_game(aut, final)
            product, product_target = with_memory_bit(game, target)
            plain, plain_strat = solve_imperfect_buchi(game, target)
            enriched, enriched_strat = solve_imperfect_buchi(product, product_target)
            checks = (("knowledge-set", game, target, plain_strat),
                      ("bit-enriched", product, product_target, enriched_strat))
            wrong = [name for name, g, t, s in checks
                     if s is not None and not check_observation_strategy(g, t, s)]
        except (_OutOfTime, ResourceLimit) as e:
            undecided += 1
            print(f"draw {i:04d}: undecided ({type(e).__name__}) states={len(aut.states)}")
            continue
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        nonempty += plain
        for name in wrong:
            failed += 1
            print(f"draw {i:04d}: STRATEGY CHECK FAILED {name} states={len(aut.states)}")
        if plain != enriched:
            flips += 1
            print(f"draw {i:04d}: FLIP knowledge-set={'nonempty' if plain else 'empty'} "
                  f"bit-enriched={'nonempty' if enriched else 'empty'} states={len(aut.states)}")
    elapsed = time.monotonic() - t0
    decided = count - undecided
    print(f"{count} draws in {elapsed:.1f}s: {decided} decided ({nonempty} nonempty, "
          f"{decided - nonempty} empty), {undecided} undecided, {flips} flips, "
          f"{failed} failed strategy checks")
    return 4 if flips or failed else 0


if __name__ == "__main__":
    sys.exit(main())
