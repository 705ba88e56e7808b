"""Outside-in span recording for the benchmark's traced runs.

The benchmark never edits the program.  In a traced run it wraps the
public entry points of each ``repro`` layer (module functions, methods and
the names modules import from one another) and records one span per call:
``[id, parent, name, start, end, phase, attrs]``.  Times come from
``time.perf_counter``, which on Linux reads ``CLOCK_MONOTONIC`` and is
therefore comparable between the client process and the daemon.

Spans are kept in memory; :func:`layer_metrics` turns them into the
per-layer metrics named in ``BENCHMARK.json``.  A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import threading
import time
from collections import defaultdict

__all__ = ["Recorder", "install", "finish", "merge_daemon_spans",
           "layer_metrics"]

ARCHETYPES = ("restoring", "pass", "precharged", "superbuffer", "mixed",
              "degenerate")
SWEEP_CONTEXTS = ("phi1", "phi2", "transparent")
SERVE_METHODS = ("analyze", "delta", "explain")

#: Per-layer metric -> span name whose *self* time it sums.
_SELF_TIMES = {
    "netlist.sim_loads_s": "netlist.sim_loads",
    "netlist.erc_s": "netlist.erc",
    "flow.infer_s": "flow.infer",
    "stages.decompose_s": "stages.decompose",
    "delay.invalidate_s": "delay.invalidate",
    "delay.term_eval_s": "delay.term_eval",
    "core.settle_s": "core.settle",
    "core.graph_build_s": "core.graph_build",
    "core.propagate_s": "core.propagate",
    "core.propagate_min_s": "core.propagate_min",
    "core.paths_s": "core.paths",
    "core.verify_self_s": "core.verify",
    "core.to_json_s": "core.to_json",
    "serve.lock_wait_s": "serve.lock_wait",
    "serve.cache_key_s": "serve.cache_key",
    "serve.sim_text_s": "serve.sim_text",
    "serve.journal_append_s": "serve.journal_append",
}

#: Layers that run while a design is set up (analyzer construction or a
#: daemon load); they are normalized per set-up, everything else per
#: measured operation.
_SETUP_LAYERS = ("netlist.sim_loads", "netlist.erc", "flow.infer",
                 "stages.decompose")


class Recorder:
    """In-memory span store.  Spans are recorded only while ``phase`` is
    set, so oracle work between measured phases leaves no spans."""

    def __init__(self, id_base: int = 0) -> None:
        self.spans: list[list] = []
        self.phase: str | None = None
        self._ids = itertools.count(id_base + 1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, attrs=None, post=None):
        """Run ``fn`` inside a span; ``post(result)`` adds attributes."""
        phase = self.phase
        if phase is None:
            return fn(*args, **kwargs)
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            if post is not None and result is not None:
                attrs = {**(attrs or {}), **post(result)}
            self.spans.append(
                [span_id, parent, name, start, end, phase, attrs]
            )


def _wrap(rec, owner, attr, name, *, post=None):
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return rec.call(name, original, args, kwargs, post=post)

    setattr(owner, attr, wrapper)


def install(rec: Recorder) -> None:
    """Wrap every layer entry point the per-layer metrics name.

    Functions a module imported by name are wrapped where they are looked
    up (e.g. ``repro.core.constraints.propagate``), not only where defined.
    """
    from repro.core import analyzer, constraints, graph, mindelay, report
    from repro.delay import parametric, stage_delay
    from repro.serve import cache, journal, rwlock, session

    # Set-up layers.
    _wrap(rec, session, "sim_loads", "netlist.sim_loads")
    _wrap(rec, analyzer, "validate", "netlist.erc")
    _wrap(rec, analyzer, "check", "netlist.erc")
    _wrap(rec, analyzer, "infer_flow", "flow.infer")
    _wrap(rec, analyzer, "decompose", "stages.decompose")
    _wrap(rec, analyzer.TimingAnalyzer, "__init__", "core.setup")

    # Core analysis layers.
    _wrap(rec, analyzer.TimingAnalyzer, "analyze", "core.analyze")
    _wrap(rec, analyzer, "verify_two_phase", "core.verify")
    _wrap(rec, constraints, "qualified_low_nodes", "core.settle")
    arrivals = lambda result: {"arrivals": len(result)}  # noqa: E731
    for module in (analyzer, constraints):
        _wrap(rec, module, "propagate", "core.propagate", post=arrivals)
        _wrap(rec, module, "critical_paths", "core.paths")
    _wrap(rec, mindelay, "propagate_min", "core.propagate_min")
    _wrap(rec, report, "result_to_json", "core.to_json")

    build = graph.TimingGraph.build.__func__

    def graph_build(cls, arcs):
        return rec.call("core.graph_build", build, (cls, arcs), {},
                        attrs={"arcs": len(arcs)})

    graph.TimingGraph.build = classmethod(graph_build)

    # Delay layer: sweeps per clock context, extraction per archetype.
    calc_cls = stage_delay.StageDelayCalculator
    all_arcs = calc_cls.all_arcs
    arcs = calc_cls.arcs

    def sweep(self, active_clocks=None, open_gates=frozenset(), **kwargs):
        if rec.phase is None:
            return all_arcs(self, active_clocks, open_gates, **kwargs)
        if active_clocks is None:
            context = "transparent"
        else:
            phases = {self.netlist.clocks.get(c) for c in active_clocks}
            context = phases.pop() if len(phases) == 1 else "mixed"
        visits = len(self.graph) - len(self.quarantined)
        return rec.call("delay.sweep", all_arcs,
                        (self, active_clocks, open_gates), kwargs,
                        attrs={"context": context, "visits": visits})

    def extract(self, stage, active_clocks=None, open_gates=frozenset()):
        if (
            rec.phase is None
            or self._term_source is not None
            or (stage.index, active_clocks, open_gates) in self._arc_cache
        ):
            return arcs(self, stage, active_clocks, open_gates)
        # The archetype is looked up by finish(), after the run.
        return rec.call("delay.extract", arcs,
                        (self, stage, active_clocks, open_gates), {},
                        attrs={"stage": stage, "netlist": self.netlist})

    calc_cls.all_arcs = sweep
    calc_cls.arcs = extract
    _wrap(rec, calc_cls, "invalidate_devices", "delay.invalidate")
    _wrap(rec, parametric, "evaluate_arcs", "delay.term_eval")

    # Serve layer.
    for method in SERVE_METHODS:
        _wrap(rec, session.DesignSession, method, f"serve.session.{method}")
    _wrap(rec, session.DesignSession, "current_sim_text", "serve.sim_text")
    _wrap(rec, session, "cache_key", "serve.cache_key")
    _wrap(rec, rwlock.RWLock, "acquire_read", "serve.lock_wait")
    _wrap(rec, rwlock.RWLock, "acquire_write", "serve.lock_wait")
    _wrap(rec, journal.DesignJournal, "append", "serve.journal_append")
    _wrap(rec, cache.ResultCache, "get", "serve.cache_get",
          post=lambda payload: {"hit": True})


def finish(spans: list) -> list:
    """Replace the stage objects extraction spans hold by the stage index
    and its archetype (``archetype_of``), outside every timed interval.
    Call it once the spans are complete, before writing them out."""
    from repro.stages.archetypes import archetype_of

    kinds: dict[int, str] = {}
    for span in spans:
        attrs = span[6]
        if span[2] != "delay.extract" or "netlist" not in attrs:
            continue
        stage = attrs["stage"]
        if id(stage) not in kinds:
            kinds[id(stage)] = archetype_of(attrs["netlist"], stage).value
        span[6] = {"stage": stage.index, "archetype": kinds[id(stage)]}
    return spans


def merge_daemon_spans(client_spans: list, daemon_spans: list) -> list:
    """Nest a daemon's spans inside the client request that caused them.

    With one closed-loop client, a daemon root span lies inside exactly
    one client ``http.*`` span; it takes that span as parent and its
    phase.  Returns the daemon spans, re-parented.
    """
    requests = sorted(
        (s for s in client_spans if s[2].startswith("http.")),
        key=lambda s: s[3],
    )
    starts = [s[3] for s in requests]
    by_id = {s[0]: s for s in daemon_spans}

    for span in daemon_spans:
        if span[1] is not None:
            continue
        at = bisect.bisect_right(starts, span[3]) - 1
        if at >= 0 and requests[at][4] >= span[4]:
            span[1] = requests[at][0]
            span[5] = requests[at][5]
        else:
            span[5] = None
    # Children take their root's phase.
    def phase_of(span):
        while span[1] in by_id:
            span = by_id[span[1]]
        return span[5]

    for span in daemon_spans:
        span[5] = phase_of(span)
    return daemon_spans


def _self_times(spans: list) -> dict:
    covered: dict = defaultdict(float)
    for span in spans:
        if span[1] is not None:
            covered[span[1]] += span[4] - span[3]
    return {s[0]: (s[4] - s[3]) - covered.get(s[0], 0.0) for s in spans}


def layer_metrics(spans: list, op_phase: str, n_ops: int,
                  n_setups: int) -> tuple[dict, list]:
    """Per-layer metrics and the ten slowest extracted stages.

    Set-up layers are averaged over ``n_setups`` set-ups (spans of phase
    ``"setup"``); every other layer over ``n_ops`` operations of phase
    ``op_phase``.  Times are seconds per set-up or per operation; counts
    likewise; ratios are taken over the whole phase.
    """
    self_time = _self_times(spans)
    ops = [s for s in spans if s[5] == op_phase]
    setups = [s for s in spans if s[5] == "setup"]
    per_op = 1.0 / max(n_ops, 1)
    per_setup = 1.0 / max(n_setups, 1)
    out: dict = {}
    for metric, name in _SELF_TIMES.items():
        pool, scale = (setups, per_setup) if name in _SETUP_LAYERS \
            else (ops, per_op)
        out[metric] = scale * sum(self_time[s[0]] for s in pool
                                  if s[2] == name)
    for context in SWEEP_CONTEXTS:
        out[f"delay.sweep_s.{context}"] = per_op * sum(
            s[4] - s[3] for s in ops
            if s[2] == "delay.sweep" and s[6]["context"] == context
        )
    extracts = [s for s in ops if s[2] == "delay.extract"]
    for archetype in ARCHETYPES:
        out[f"delay.extract_s.{archetype}"] = per_op * sum(
            self_time[s[0]] for s in extracts
            if s[6]["archetype"] == archetype
        )
    visits = sum(s[6]["visits"] for s in ops if s[2] == "delay.sweep")
    out["delay.stages_extracted"] = per_op * len(extracts)
    out["delay.arc_cache_hit_ratio"] = (
        1.0 - len(extracts) / visits if visits else 0.0
    )
    per_stage: dict = defaultdict(float)
    kinds: dict = {}
    for s in extracts:
        per_stage[s[6]["stage"]] += self_time[s[0]]
        kinds[s[6]["stage"]] = s[6]["archetype"]
    total = sum(per_stage.values())
    hot = sorted(per_stage.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    out["delay.hot10_share"] = (
        sum(t for _i, t in hot) / total if total else 0.0
    )
    hot_list = [
        {"stage": index, "archetype": kinds[index], "seconds": t}
        for index, t in hot
    ]
    out["core.arcs"] = per_op * sum(
        s[6]["arcs"] for s in ops if s[2] == "core.graph_build"
    )
    out["core.arrivals"] = per_op * sum(
        s[6]["arrivals"] for s in ops if s[2] == "core.propagate"
    )
    for method in SERVE_METHODS:
        out[f"serve.session_s.{method}"] = per_op * sum(
            s[4] - s[3] for s in ops if s[2] == f"serve.session.{method}"
        )
    requests = {s[0]: s for s in ops if s[2].startswith("http.")}
    in_daemon = sum(s[4] - s[3] for s in ops if s[1] in requests)
    out["serve.http_s"] = per_op * (
        sum(s[4] - s[3] for s in requests.values()) - in_daemon
    )
    gets = [s for s in ops if s[2] == "serve.cache_get"]
    hits = sum(1 for s in gets if s[6] and s[6].get("hit"))
    out["serve.cache_hit_ratio"] = hits / len(gets) if gets else 0.0
    analyses = [s for s in ops if s[2] == "core.analyze"]
    wall = sum(s[4] - s[3] for s in analyses)
    unattributed = sum(self_time[s[0]] for s in analyses)
    out["trace.attributed_share"] = 1.0 - unattributed / wall if wall else 0.0
    return out, hot_list
