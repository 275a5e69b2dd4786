"""Spans around the public calls into each layer of ``hcs``, recorded from
outside the program.

``Tracer.install`` replaces public functions on their modules (and the
``HcsSemantics`` constructor on its class) with wrappers that record a span:
its name, start, end and parent. Calls between the toolkit's own modules go
through module globals, so they are caught too; ``solve_hcs_game``, for
instance, shows up as its three calls ``game_non_blocking``, ``build_arena``
and ``solve_reachability``/``solve_safety``. Spans stay in memory until the
run ends. ``layer_metrics`` turns them into per-layer self times and counts.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Optional


class Tracer:
    def __init__(self):
        #: One list per span: [name, start, end, parent index, counts or None].
        self.spans: list[list] = []
        self._open: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def span(self, name: str) -> "_Span":
        """A root or child span for a ``with`` block."""
        return _Span(self, name)

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def wrap(self, owner, attr: str, name: Callable[..., str], counts: Optional[Callable] = None):
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._begin(name(*args, **kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._end(index)
            if counts is not None:
                tracer.spans[index][4] = counts(args, result)
            return result

        self._restore.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self, hcs) -> None:
        """Wrap the public calls each layer metric is made of."""

        def fixed(label):
            return lambda *a, **k: label

        def engine(args, kwargs, default):
            return kwargs.get("engine", args[1] if len(args) > 1 else default)

        self.wrap(hcs.formats, "from_document", fixed("formats.parse"))
        self.wrap(hcs.formats, "to_document", fixed("formats.serialize"))
        self.wrap(hcs.core.HcsSemantics, "__init__", fixed("core.compile"))
        self.wrap(hcs.core, "member", fixed("core.member"), lambda a, r: {"symbols": len(a[1])})
        self.wrap(
            hcs.core, "determinize_hcs", fixed("core.determinize"), lambda a, r: {"dfa_states": len(r.states)}
        )
        self.wrap(hcs.automata, "minimize", fixed("automata.minimize"), lambda a, r: {"min_states": len(r.states)})
        self.wrap(hcs.automata, "equivalence_counterexample", fixed("automata.equivalence"))
        self.wrap(hcs.games, "countdown_to_hcs_game", fixed("games.reduce"))
        self.wrap(hcs.games, "game_non_blocking", fixed("games.non_blocking"))
        self.wrap(
            hcs.games,
            "build_arena",
            fixed("games.arena"),
            lambda a, r: {"vertices": len(r.vertices), "edges": len(r.edges)},
        )
        self.wrap(hcs.games, "solve_reachability", fixed("games.solve"))
        self.wrap(hcs.games, "solve_safety", fixed("games.solve"))
        self.wrap(
            hcs.vass,
            "decide_coverability",
            lambda *a, **k: "vass.backward" if engine(a, k, "km") == "backward" else "vass.km",
            lambda a, r: {"nodes": r.nodes_explored},
        )
        self.wrap(
            hcs.vassguards,
            "hcs_cover_empty",
            lambda *a, **k: "vassguards.product" if engine(a, k, "onthefly") == "product" else "vassguards.cover_empty",
        )
        self.wrap(
            hcs.vassguards,
            "product_vass",
            fixed("vassguards.product"),
            lambda a, r: {"product_states": len(r.states)},
        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path) -> None:
        """Write every span as [name, start_s, end_s, parent] on one line each."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, counts in self.spans:
                handle.write(json.dumps([name, start, end, parent, counts]) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.index = self.tracer._begin(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._end(self.index)
        return False


#: Per-layer time metrics: metric name -> span names whose self time it sums.
TIME_METRICS = {
    "formats.parse_ms": ("formats.parse",),
    "formats.serialize_ms": ("formats.serialize",),
    "core.compile_ms": ("core.compile",),
    "core.determinize_ms": ("core.determinize",),
    "automata.minimize_ms": ("automata.minimize",),
    "automata.equivalence_ms": ("automata.equivalence",),
    "games.reduce_ms": ("games.reduce",),
    "games.non_blocking_ms": ("games.non_blocking",),
    "games.arena_ms": ("games.arena",),
    "games.solve_ms": ("games.solve",),
    "vass.km_ms": ("vass.km",),
    "vass.backward_ms": ("vass.backward",),
    "vassguards.cover_empty_ms": ("vassguards.cover_empty",),
    "vassguards.product_ms": ("vassguards.product",),
}

#: Per-layer counts: metric name -> (span name, count key).
COUNT_METRICS = {
    "core.dfa_states": ("core.determinize", "dfa_states"),
    "automata.min_states": ("automata.minimize", "min_states"),
    "games.arena_vertices": ("games.arena", "vertices"),
    "games.arena_edges": ("games.arena", "edges"),
    "vass.km_nodes": ("vass.km", "nodes"),
    "vass.backward_nodes": ("vass.backward", "nodes"),
    "vassguards.product_states": ("vassguards.product", "product_states"),
}



def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_kb"):
        return "KiB"
    return "count"


def layer_metrics(spans: list[list], vass_member_roots=()) -> dict[str, float]:
    """Self times (ms), counts and rates from a finished list of spans.

    A span's self time is its duration minus the durations of its direct
    children. ``core.member`` spans under a root whose name is in
    ``vass_member_roots`` count towards ``core.member_vass_ms``, the others
    towards ``core.member_ms``.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    root_of: list[int] = []
    for i, span in enumerate(spans):
        root_of.append(i if span[3] is None else root_of[span[3]])

    self_ms: dict[str, float] = {}
    total_s: dict[str, float] = {}
    counts: dict[tuple[str, str], int] = {}
    member_vass_ms = member_ms = 0.0
    for i, (name, start, end, parent, span_counts) in enumerate(spans):
        own = (end - start - child_time[i]) * 1000.0
        if name == "core.member":
            if spans[root_of[i]][0] in vass_member_roots:
                member_vass_ms += own
            else:
                member_ms += own
        self_ms[name] = self_ms.get(name, 0.0) + own
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        for key, value in (span_counts or {}).items():
            counts[(name, key)] = counts.get((name, key), 0) + value

    out: dict[str, float] = {}
    for metric, names in TIME_METRICS.items():
        out[metric] = sum(self_ms.get(n, 0.0) for n in names)
    out["core.member_ms"] = member_ms
    out["core.member_vass_ms"] = member_vass_ms
    for metric, key in COUNT_METRICS.items():
        out[metric] = counts.get(key, 0)
    member_s = total_s.get("core.member", 0.0)
    out["core.symbols_per_s"] = counts.get(("core.member", "symbols"), 0) / member_s if member_s else 0.0
    arena_s = total_s.get("games.arena", 0.0)
    out["games.vertices_per_s"] = counts.get(("games.arena", "vertices"), 0) / arena_s if arena_s else 0.0
    return out
