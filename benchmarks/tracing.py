"""Spans and per-layer counters, recorded from outside the program.

Each public function of a layer is wrapped at every name it is looked up
by: the package, its own module, modules that bound it at import (such
as `robusttl.modelcheck.eval_rldl`) and modules whose functions import it
in their body (those read the defining module's attribute at call time).
A span has a name, a start, an end, the enclosing span and the query it
belongs to.  A layer's self time is its spans' durations minus the part
covered by their child spans.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict


def _nba_edges(nba) -> int:
    return sum(len(succs) for succs in nba.transitions.values())


def _reachable(nba) -> int:
    succs: dict = defaultdict(list)
    for (q, _letter), targets in nba.transitions.items():
        succs[q].extend(targets)
    seen = {nba.initial}
    work = [nba.initial]
    while work:
        for q2 in succs[work.pop()]:
            if q2 not in seen:
                seen.add(q2)
                work.append(q2)
    return len(seen)


def _sizes(stats, prefix, value):
    stats[prefix + "_sum"] += value
    stats[prefix + "_max"] = max(stats[prefix + "_max"], value)


def _apa(stats, _args, result):
    _sizes(stats, "apa.states", result.n_states)


def _nba(stats, _args, result):
    _sizes(stats, "nba.states", result.n_states)
    stats["nba.edges_sum"] += _nba_edges(result)


def _dpa(stats, _args, result):
    _sizes(stats, "dpa.states", result.n_states)
    colors = max(result.color) + 1 if result.color else 0
    stats["dpa.colors_max"] = max(stats["dpa.colors_max"], colors)


def _product(stats, _args, result):
    stats["product.states_sum"] += result.n_states


def _intersection(stats, args, result):
    _product(stats, args, result)
    stats["product.allocated"] += result.n_states
    stats["product.reachable"] += _reachable(result)


def _parity(stats, args, _result):
    game = args[0]
    stats["games.solve.vertices_sum"] += len(game.vertices)
    colors = max(game.color.values()) + 1 if game.color else 0
    stats["games.solve.colors_max"] = max(stats["games.solve.colors_max"], colors)


def _hoa(stats, _args, result):
    stats["hoa.bytes"] += len(result.encode())


_EVALUATORS = ("evaluate", "eval_ltl", "eval_ldl", "eval_prompt_ltl",
               "eval_prompt_ldl", "eval_rltl", "eval_rldl",
               "eval_rprompt_ltl", "eval_rprompt_ldl")

# (layer, module, function names, size counter)
LAYERS = (
    ("parser", "robusttl.parser", ("parse",), None),
    ("parser", "robusttl.traces", ("parse_trace",), None),
    ("parser", "robusttl.modelcheck", ("parse_transition_system",), None),
    ("parser", "robusttl.games", ("parse_labeled_game",), None),
    ("semantics", "robusttl.semantics", _EVALUATORS, None),
    ("apa", "robusttl.apa", ("from_rldl", "apa_complement"), _apa),
    ("nba", "robusttl.omega", ("apa_to_nba",), _nba),
    ("dpa", "robusttl.omega", ("nba_to_dpa",), _dpa),
    ("product", "robusttl.omega", ("nba_intersection",), _intersection),
    ("product", "robusttl.modelcheck", ("ts_to_nba",), _product),
    ("emptiness", "robusttl.omega", ("nba_emptiness",), None),
    ("membership", "robusttl.omega",
     ("nba_accepts_lasso", "dpa_accepts_lasso"), None),
    ("membership", "robusttl.apa", ("apa_accepts_lasso",), None),
    ("translate", "robusttl.translate",
     ("rprompt_to_prompt", "fragment_translate", "ltl_surface_to_ldl",
      "embed_ldl_in_rldl", "embed_rltl_in_rldl"), None),
    ("translate", "robusttl.modelcheck", ("relax_prompt",), None),
    ("modelcheck", "robusttl.modelcheck",
     ("mc_rldl", "mc_rprompt_ltl", "mc_fragment", "prompt_mc"), None),
    ("games.reduce", "robusttl.games", ("reduce_game",), None),
    ("games.solve", "robusttl.games", ("solve_parity",), _parity),
    ("games", "robusttl.games",
     ("solve_rldl_game", "solve_rprompt_game", "solve_prompt_game"), None),
    ("hoa", "robusttl.hoa", ("dpa_to_hoa", "nba_to_hoa"), _hoa),
)


class Tracer:
    """Wraps the layer functions while installed and aggregates spans."""

    def __init__(self):
        self.stats: dict = defaultdict(float)
        self.spans: list = []
        self.record = True  # keep individual spans
        self.query = None  # index of the query being answered
        self._stack: list = []  # [layer, span id, time covered by children]
        self._patches: list = []

    def _wrap(self, layer: str, fn, measure):
        tracer = self
        name = f"{layer}:{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = None
            if tracer.record:
                span_id = len(tracer.spans)
                tracer.spans.append(None)
            frame = [layer, span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.stats[layer + ".self_s"] += end - start - frame[2]
                if parent is not None:
                    parent[2] += end - start
                if parent is None or parent[0] != layer:
                    tracer.stats[layer + ".calls"] += 1
                if span_id is not None:
                    tracer.spans[span_id] = (
                        tracer.query, name, start, end,
                        parent[1] if parent is not None else None,
                    )
            if measure is not None:
                # Sizing is the tracer's own work: hide it from the parent.
                begin = time.perf_counter()
                measure(tracer.stats, args, result)
                if parent is not None:
                    parent[2] += time.perf_counter() - begin
            return result

        return traced

    def begin(self, round_index: int, query: int) -> None:
        """Tag the spans of the next query; keep spans of round 0 only."""
        self.query = query
        self.record = round_index == 0

    def install(self) -> None:
        modules = [
            m for key, m in sys.modules.items()
            if key == "robusttl" or key.startswith("robusttl.")
        ]
        for layer, module_name, names, measure in LAYERS:
            module = importlib.import_module(module_name)
            for fn_name in names:
                original = getattr(module, fn_name)
                wrapper = self._wrap(layer, original, measure)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patches.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    def metrics(self, names, rounds: int) -> dict:
        """Per-layer metrics by name; sums and times are per round."""
        out = {}
        for name in names:
            if name == "product.reachable_ratio":
                allocated = self.stats["product.allocated"]
                value = self.stats["product.reachable"] / allocated if allocated else 0.0
            elif name.endswith("_max"):
                value = self.stats[name]
            else:
                value = self.stats[name] / rounds
            out[name] = value
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span is not None:
                    query, name, start, end, parent = span
                    handle.write(json.dumps({
                        "query": query, "name": name, "start": start,
                        "end": end, "parent": parent,
                    }) + "\n")
