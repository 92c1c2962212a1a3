"""Spans around calls into the program's modules, installed from outside.

Modules import one another's functions by name (``from qualtree.games import
almost_sure_buchi``), so wrapping a function means rebinding that name in
every ``qualtree`` module that holds it, not only in the defining module.
Nothing under ``src/`` is edited; ``uninstall`` restores every binding.

Two kinds of wrapper:

* a *span* records (id, parent, request, name, start, end) in memory;
* a *counted* call only adds its count and time to totals.  It is used for
  leaf functions called thousands of times per request (``csorted``,
  ``Distribution.map``, ``fix_strategy``), whose individual spans would
  dominate the traced run's memory.  Their time stays inside the enclosing
  span's self time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function) -> how it is wrapped; "span" or "counted".
WRAPPED = {
    ("fileformat", "parse_automaton"): "span",
    ("fileformat", "parse_tree"): "span",
    ("fileformat", "parse_word"): "span",
    ("fileformat", "serialize_tree"): "span",
    ("fileformat", "serialize_strategy"): "span",
    ("emptiness", "check_emptiness"): "span",
    ("emptiness", "build_emptiness_game"): "span",
    ("emptiness", "solve_imperfect_buchi"): "span",
    ("emptiness", "reachable_beliefs"): "span",
    ("emptiness", "check_observation_strategy"): "span",
    ("emptiness", "extract_witness"): "span",
    ("acceptance", "qualitative_membership"): "span",
    ("acceptance", "build_acceptance_game"): "span",
    ("acceptance", "build_tree_game_arena"): "span",
    ("games", "almost_sure_buchi"): "span",
    ("games", "almost_sure_cobuchi"): "span",
    ("games", "mec_decomposition"): "span",
    ("games", "fix_strategy"): "counted",
    ("markov", "prob_tree_membership"): "span",
    ("markov", "lasso_membership_word"): "span",
    ("markov", "tree_chain"): "span",
    ("markov", "word_chain"): "span",
    ("markov", "bsccs"): "span",
    ("graphs", "sccs"): "span",
    ("reductions", "value1_to_cobuchi"): "span",
    ("reductions", "lift_diagonal"): "span",
    ("reductions", "lift_swap"): "span",
    ("ordering", "csorted"): "counted",
    ("dist", "Distribution.map"): "counted",
}


def _size(fn, args, kwargs, result) -> int:
    """Work count a call contributes to its layer's counters."""
    name = fn.__name__
    if name.startswith("parse_"):
        return len(args[0])
    if name.startswith("serialize_"):
        return len(result)
    if name == "build_emptiness_game":
        return len(result[0].actions)
    if name == "reachable_beliefs":
        return len(result[0])
    if name == "extract_witness":
        return len(result[0].nodes)
    if name == "build_tree_game_arena":
        return len(result.eloise) + len(result.abelard) + len(result.random)
    if name == "mec_decomposition":
        within = kwargs.get("within", args[1] if len(args) > 1 else None)
        return len(args[0].states if within is None else within)
    if name in ("tree_chain", "word_chain"):
        return len(result.states)
    if name == "sccs":
        return sum(len(c) for c in result)
    return 0


# Per-layer metric -> (what is summed, over which wrapped names).  "incl" is
# span time with children, "self" span time without them, "leaf" the time of
# counted calls, "calls" the number of calls, "size" the work counts of _size.
LAYER_METRICS = {
    "fileformat.parse_s": ("incl", ["fileformat.parse_automaton", "fileformat.parse_tree",
                                    "fileformat.parse_word"]),
    "fileformat.serialize_s": ("incl", ["fileformat.serialize_tree",
                                        "fileformat.serialize_strategy"]),
    "fileformat.bytes": ("size", ["fileformat.parse_automaton", "fileformat.parse_tree",
                                  "fileformat.parse_word", "fileformat.serialize_tree",
                                  "fileformat.serialize_strategy"]),
    "emptiness.build_game_s": ("incl", ["emptiness.build_emptiness_game"]),
    "emptiness.actions": ("size", ["emptiness.build_emptiness_game"]),
    "emptiness.beliefs_s": ("incl", ["emptiness.reachable_beliefs"]),
    "emptiness.beliefs": ("size", ["emptiness.reachable_beliefs"]),
    "emptiness.solve_self_s": ("self", ["emptiness.solve_imperfect_buchi"]),
    "emptiness.strategy_check_s": ("incl", ["emptiness.check_observation_strategy"]),
    "emptiness.strategy_checks": ("calls", ["emptiness.check_observation_strategy"]),
    "emptiness.witness_s": ("incl", ["emptiness.extract_witness"]),
    "emptiness.witness_nodes": ("size", ["emptiness.extract_witness"]),
    "acceptance.arena_s": ("incl", ["acceptance.build_tree_game_arena"]),
    "acceptance.arena_vertices": ("size", ["acceptance.build_tree_game_arena"]),
    "acceptance.calls": ("calls", ["acceptance.qualitative_membership"]),
    "games.as_buchi_s": ("incl", ["games.almost_sure_buchi"]),
    "games.as_buchi_calls": ("calls", ["games.almost_sure_buchi"]),
    "games.mec_s": ("incl", ["games.mec_decomposition"]),
    "games.mec_calls": ("calls", ["games.mec_decomposition"]),
    "games.mec_states": ("size", ["games.mec_decomposition"]),
    "games.cobuchi_s": ("incl", ["games.almost_sure_cobuchi"]),
    "games.strategies_tried": ("calls", ["games.fix_strategy"]),
    "markov.chain_build_s": ("incl", ["markov.tree_chain", "markov.word_chain"]),
    "markov.chain_states": ("size", ["markov.tree_chain", "markov.word_chain"]),
    "markov.bscc_s": ("incl", ["markov.bsccs"]),
    "graphs.sccs_s": ("incl", ["graphs.sccs"]),
    "graphs.sccs_calls": ("calls", ["graphs.sccs"]),
    "graphs.sccs_nodes": ("size", ["graphs.sccs"]),
    "reductions.reduce_s": ("incl", ["reductions.value1_to_cobuchi", "reductions.lift_diagonal",
                                     "reductions.lift_swap"]),
    "ordering.csorted_s": ("leaf", ["ordering.csorted"]),
    "ordering.csorted_calls": ("calls", ["ordering.csorted"]),
    "dist.map_calls": ("calls", ["dist.Distribution.map"]),
}


class Tracer:
    """Records spans and counters for the calls made while installed."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, request, name, start, end)
        self.calls: dict = defaultdict(int)
        self.sizes: dict = defaultdict(int)
        self.leaf_time: dict = defaultdict(float)
        self._stack: list[int] = []
        self._next = 0
        self.request_id = -1
        self._bindings: list[tuple] = []  # (object, attribute, original, wrapper)

    def _span(self, name, fn, *args, **kwargs):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self.request_id, name, start, end))
            self.calls[name] += 1
        self.sizes[name] += _size(fn, args, kwargs, result)
        return result

    def request(self, request_id: int, fn, *args):
        """Run one request under a root span named ``request``."""
        self.request_id = request_id
        return self._span("request", fn, *args)

    def _wrap(self, name, fn, mode):
        if mode == "span":
            def wrapper(*args, **kwargs):
                return self._span(name, fn, *args, **kwargs)
        else:
            calls, leaf_time, clock = self.calls, self.leaf_time, time.perf_counter

            def wrapper(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leaf_time[name] += clock() - start
                    calls[name] += 1
        wrapper.__name__ = fn.__name__
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package: str = "qualtree"):
        """Rebind every wrapped name; the bindings are found once, so
        installing and uninstalling around each request is cheap."""
        if not self._bindings:
            self._bindings = self._find_bindings(package)
        for obj, attr, _, wrapper in self._bindings:
            setattr(obj, attr, wrapper)

    def uninstall(self):
        for obj, attr, orig, _ in self._bindings:
            setattr(obj, attr, orig)

    def _find_bindings(self, package: str) -> list[tuple]:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        out = []
        for (mod_name, qual), mode in WRAPPED.items():
            home = sys.modules[f"{package}.{mod_name}"]
            name = f"{mod_name}.{qual}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                out.append((cls, meth, orig, self._wrap(name, orig, mode)))
                continue
            orig = getattr(home, qual)
            wrapper = self._wrap(name, orig, mode)
            out += [(m, attr, orig, wrapper) for m in modules
                    for attr, value in vars(m).items() if value is orig]
        return out

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> dict:
        """Span id -> duration minus the time covered by its direct children."""
        own = {sid: end - start for sid, _, _, _, start, end in self.spans}
        for sid, parent, _, _, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self) -> tuple[dict, dict]:
        """Per span name: inclusive seconds and self seconds."""
        own = self.self_times()
        incl: dict = defaultdict(float)
        excl: dict = defaultdict(float)
        for sid, _, _, name, start, end in self.spans:
            incl[name] += end - start
            excl[name] += own[sid]
        return incl, excl

    def check_spans(self, latencies: list[float]) -> list[str]:
        """Problems with the recorded spans, given each request's timed
        latency (indexed by request id): a span that does not lie inside its
        parent's interval or belongs to another request, a negative self
        time, or a root span that is not the timed request.  When none is
        found, the self times of a request's spans add up to its root span."""
        slack = 1e-6  # clock readings are rounded to about this
        by_id = {sid: (req, start, end) for sid, _, req, _, start, end in self.spans}
        problems = []
        for sid, parent, req, name, start, end in self.spans:
            if parent < 0:
                took = latencies[req]
                if name != "request" or not end - start <= took < end - start + 1e-3 + took / 100:
                    problems.append(f"request {req}: root span {name} of {end - start:.6f} s, "
                                    f"timed {took:.6f} s")
                continue
            p_req, p_start, p_end = by_id[parent]
            if p_req != req or start < p_start - slack or end > p_end + slack:
                problems.append(f"request {req}: span {sid} ({name}) is not inside its parent")
        for sid, own in self.self_times().items():
            if own < -slack:
                problems.append(f"span {sid}: negative self time {own:.3g} s")
        return problems

    def layer_metrics(self, requests: int) -> dict:
        """Every LAYER_METRICS entry, averaged per traced request."""
        incl, excl = self.totals()
        source = {"incl": incl, "self": excl, "leaf": self.leaf_time,
                  "calls": self.calls, "size": self.sizes}
        return {metric: sum(source[what].get(n, 0) for n in names) / requests
                for metric, (what, names) in LAYER_METRICS.items()}

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\trequest\tname\tstart\tend\n")
            for sid, parent, req, name, start, end in self.spans:
                fh.write(f"{sid}\t{parent}\t{req}\t{name}\t{start:.9f}\t{end:.9f}\n")
