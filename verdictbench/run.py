#!/usr/bin/env python3
"""Verdict benchmark for the hcs toolkit.

Run from the repository root:

    python3 verdictbench/run.py --workload countdown-games --seed 1 --seconds 15 --trace 0
    python3 verdictbench/run.py --seconds 15     # every workload, one line each
    python3 verdictbench/run.py --quick

A run builds the workload's corpus from the seed, with reference answers.
It then makes ``PASSES`` passes over the corpus. Before each pass it sets the
toolkit up afresh (a fresh ``import hcs`` plus turning the corpus into model
values) and times that set-up. A pass computes every verdict of the corpus
in a fixed order, one at a time, timing each call, and checks each verdict
outside the timed region. ``setup_s`` is the median set-up; a query's
latency is the least of its timings over the passes, so a burst of load
from elsewhere on the machine has to cover every pass of a query to show.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 1`` the run also
makes one more set-up and pass with spans around every public call into
``hcs`` and reports per-layer metrics instead of end-to-end ones; the spans
go to ``verdictbench/out/``.

Without ``--workload`` the run covers every workload in turn and prints one
line per workload, each with a ``workload`` key. ``--quick`` runs one round
of each corpus, traced, with every check on.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

#: Passes per run, each after a fresh set-up.
PASSES = 5
OUT = HERE / "out"


def import_hcs() -> types.ModuleType:
    """Import the toolkit from ``src/`` afresh and return the package.

    Earlier imports are dropped first, so every set-up pays for the import.
    """
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "hcs" or n.startswith("hcs.")]:
        del sys.modules[name]
    package = importlib.import_module("hcs")
    importlib.import_module("hcs.formats")
    importlib.import_module("hcs.models")
    return package


def set_up(workload, corpus):
    """Fresh import plus model values; returns (seconds, package, items)."""
    start = time.perf_counter()
    hcs = import_hcs()
    items = workload.prepare(hcs, corpus)
    return time.perf_counter() - start, hcs, items


class Pass:
    """Outcome of one pass over the prepared corpus."""

    def __init__(self):
        self.seconds: list[float] = []  # per query, failed ones included
        self.ok: list[bool] = []  # per query: returned a verdict
        self.errors: list[str] = []
        self.doc_bytes = 0  # JSON text written by the succinct pipeline

    @property
    def busy_s(self) -> float:
        return sum(self.seconds)

    @property
    def failed(self) -> int:
        return self.ok.count(False)


def run_pass(hcs, workload, items, tracer=None) -> Pass:
    """Ask every query in order; time each call, then check its verdict.

    With a tracer, each query is one root span.
    """
    out = Pass()
    clock = time.perf_counter
    for item in items:
        kind = item.query.kind
        span = tracer.span(f"query:{kind}") if tracer else None
        start = clock()
        try:
            if span:
                with span:
                    result = workload.ask(hcs, item)
            else:
                result = workload.ask(hcs, item)
        except Exception as exc:  # a failed operation: count it, keep going
            out.seconds.append(clock() - start)
            out.ok.append(False)
            if (kind, type(exc).__name__) not in workload.known_faults:
                out.errors.append(f"{kind}: unexpected {type(exc).__name__}: {exc}")
            continue
        out.seconds.append(clock() - start)
        out.ok.append(True)
        message = workload.check(item, result)
        if message:
            out.errors.append(f"{kind}: {message}")
        out.doc_bytes += getattr(result, "doc_bytes", 0)
    return out


def end_to_end(setup_times, runs: list[Pass]) -> dict:
    """setup_s is the median set-up; every other time is per query, the
    least of its timings over the passes."""
    least = [min(times) for times in zip(*(run.seconds for run in runs))]
    verdict = [all(oks) for oks in zip(*(run.ok for run in runs))]
    ms = sorted(t * 1000.0 for t, ok in zip(least, verdict) if ok)
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "verdicts_per_s": {"value": len(ms) / sum(least), "unit": "1/s"},
        "verdict_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
        "verdict_p90_ms": {"value": deciles[8], "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }


def per_layer(workload, corpus, untraced_s: float, label: str) -> tuple[dict, Pass]:
    """One more set-up and pass, with spans; ``untraced_s`` is the median
    untraced pass time, for ``trace.overhead_ms``."""
    tracer = spans.Tracer()
    hcs = import_hcs()
    tracer.install(hcs)
    try:
        with tracer.span("setup"):
            items = workload.prepare(hcs, corpus)
        traced = run_pass(hcs, workload, items, tracer)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans, {f"query:{kind}" for kind in workloads.VASS_MEMBER_KINDS})
    metrics["formats.doc_kb"] = traced.doc_bytes / 1024.0
    metrics["trace.overhead_ms"] = (traced.busy_s - untraced_s) * 1000.0
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{label}.jsonl")
    return {name: {"value": value, "unit": spans.unit_of(name)} for name, value in metrics.items()}, traced


def run_workload(name: str, seed: int, rounds: int, trace: bool, passes: int = PASSES) -> dict:
    workload = workloads.WORKLOADS[name]
    started = time.perf_counter()
    corpus = workload.make_corpus(seed, rounds)
    corpus_s = time.perf_counter() - started
    # The corpus and its reference answers live for the whole run; keep the
    # collector from walking them, as it would not in a process of the toolkit.
    gc.collect()
    gc.freeze()
    setups, runs = [], []
    for _ in range(passes):
        hcs = items = None  # drop the last pass's models before the next set-up
        gc.collect()
        seconds, hcs, items = set_up(workload, corpus)
        setups.append(seconds)
        runs.append(run_pass(hcs, workload, items))
    hcs = items = None
    gc.collect()
    errors = [message for run in runs for message in run.errors]
    failed = sum(run.failed for run in runs)
    if trace:
        untraced_s = statistics.median(run.busy_s for run in runs)
        metrics, traced = per_layer(workload, corpus, untraced_s, f"{name}-{seed}")
        errors += traced.errors
    else:
        metrics = end_to_end(setups, runs)
    gc.unfreeze()
    for message in errors:
        print(f"{name}: {message}", file=sys.stderr)
    print(
        f"{name}: seed {seed}, {rounds} rounds, {len(runs[0].ok)} queries x {passes} passes; "
        f"corpus {corpus_s:.2f} s, set-up {statistics.median(setups):.3f} s, "
        f"passes {' '.join(f'{run.busy_s:.2f}' for run in runs)} s, "
        f"run {time.perf_counter() - started:.2f} s, peak RSS "
        f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f} MB",
        file=sys.stderr,
    )
    return {
        "correct": not errors,
        "attempted": len(runs[0].ok) * passes,
        "failed": failed,
        "metrics": metrics,
    }


def rounds_for(name: str, seconds: float) -> int:
    return max(1, round(seconds * workloads.WORKLOADS[name].rounds_per_second))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one traced round of each workload")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    ok = True
    for name in names:
        if args.quick:
            result = run_workload(name, args.seed, 1, trace=True, passes=1)
        else:
            result = run_workload(name, args.seed, rounds_for(name, args.seconds), bool(args.trace))
        ok = ok and result["correct"]
        print(json.dumps(result if args.workload else {"workload": name, **result}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
