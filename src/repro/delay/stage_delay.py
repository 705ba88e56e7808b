"""Stage timing-arc extraction: TV's transistor-level delay calculator.

For each stage, this module enumerates *timing arcs*: (trigger, output)
pairs with intrinsic rise/fall delays.  An arc's trigger is either

* a **gate** input of the stage -- a node switching the gate of a member
  device (ordinary logic inputs, and clocks gating pass switches or
  precharge devices), or
* a **channel** boundary -- an externally driven node (primary input or
  clock) injecting signal directly into the stage's pass network.

Delay of an arc is computed on an RC tree built from the conducting
sub-network, with TV's value-independent worst-casing:

* **fall** (discharge): the maximum-resistance simple path from the output
  to gnd that passes through a device gated by the trigger, with every
  other conducting device attached as a capacitive branch;
* **rise** (charge): from vdd through the depletion load of a pulled-up
  node, then the maximum-resistance pass path to the output;
* **precharge rise**: from vdd through the clock-gated precharge device;
* **pass transfer**: from the injecting boundary node through the
  maximum-resistance directed pass path.

The RC tree metric is selected by ``model``: ``"elmore"`` (default),
``"lumped"``, ``"pr-min"``, or ``"pr-max"`` (ablation experiment R-T6).
Every family finds its worst path with one search,
:meth:`StageDelayCalculator._worst_paths`: a simple-path walk that is
exact up to ``max_paths`` target hits per walk; if the cap is hit every
arc timed from that walk is marked ``truncated`` (never silently).  One
walk serves many triggers at once by labelling paths with the gates of
their devices.

Throughput
----------
Extraction is organized around a per-stage :class:`StageContext` that
computes the conduction/pass edge lists and their adjacency maps **once**
per ``(stage, cut set)`` and shares them across all six arc-family
extractors; adjacency entries pre-resolve the per-device lookups (gate,
one-hot group, flow legality, boundary-ness) so the path-search inner
loops run on plain tuples.  The clock context ``(active_clocks,
open_gates)`` reaches extraction only as the stage's *cut set* -- the
member devices it cuts -- so contexts with equal cut sets share one
extraction through the arc cache's signature keys: a stage with no
clocked or qualified device is extracted once for the phi1, phi2 and
all-transparent sweeps of a two-phase analysis.  Because stages are
channel-connected components they are independent, and
:meth:`StageDelayCalculator.all_arcs` can fan extraction out over a
worker pool (``parallel=True`` / ``workers=N`` / ``workers="auto"``)
with a deterministic stage-index merge order.

That pool is a **persistent** fork pool: one module-level pool
(:data:`_POOL`) is started lazily and reused across
``all_arcs`` calls, clock corners, and repeated runs of the same
calculator, so the fork cost is paid once per calculator instead of once
per sweep.  Workers attach the calculator -- netlist, stage graph, and
warm per-device caches included -- as a **shared immutable snapshot**
inherited by the fork at pool start; per-task traffic is only
``(run token, corner, chunk of stage indices)`` down and compact arc
tuples back (never the netlist, never dataclass pickles).  Stage batches
are **sized by estimated device work** (device count squared, a proxy
for the superlinear path-search cost) so one oversized stage -- e.g. a
barrel-shifter matrix -- cannot serialize a whole chunk of small ones.
``workers="auto"`` applies a measured **crossover heuristic**: serial
below :data:`PARALLEL_MIN_DEVICES` (pool already warm) or
:data:`PARALLEL_COLD_MIN_DEVICES` (pool must cold-start), and always
serial on a single-CPU host or on a platform without ``fork``.
:func:`shutdown_pool` (registered
``atexit``) tears the pool down idempotently; a timed-out or broken pool
is terminated -- never reused and never orphaned.  See
``repro/bench/perf.py`` for the regression harness that gates these
paths.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import itertools
import math
import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, replace

from .. import robust
from ..errors import DeadlineError, ReproError, StageError
from ..trace import NULL_TRACE
from ..netlist import DeviceKind, FlowDirection, Netlist, Transistor
from ..stages import Stage, StageGraph
from ..tech import Technology
from .effective_res import FALL, RISE, device_resistance
from .elmore import elmore_delay, lumped_delay
from .penfield import pr_bounds
from .rctree import RCTree
from .slope import SlopeModel

__all__ = [
    "ArcTiming",
    "StageArc",
    "StageContext",
    "StageDelayCalculator",
    "DELAY_MODELS",
    "PARALLEL_MIN_DEVICES",
    "PARALLEL_COLD_MIN_DEVICES",
    "WORKERS_AUTO",
    "available_cpus",
    "auto_workers",
    "parallel_crossover",
    "shutdown_pool",
    "pool_diagnostics",
]

DELAY_MODELS = ("elmore", "lumped", "pr-min", "pr-max")

#: Crossing fraction for the 50% delay definition used throughout.
_CROSSING = 0.5

#: Crossover floor when the persistent pool is already **warm** for this
#: calculator: below this device count ``all_arcs`` extracts serially --
#: dispatch and result traffic would dominate the work.  An explicit
#: ``parallel=True`` overrides it.
PARALLEL_MIN_DEVICES = 1024

#: Crossover floor when the pool would have to **cold-start** (fork the
#: workers first): the fork of a large parent heap costs tens of
#: milliseconds, so the netlist must be big enough to amortize it.
PARALLEL_COLD_MIN_DEVICES = 4096

#: ``workers`` spec selecting the measured crossover heuristic: the pool
#: width follows :func:`auto_workers` and the serial/parallel decision
#: follows :func:`parallel_crossover`.
WORKERS_AUTO = "auto"

#: Load-balance oversubscription: aim for about this many chunks per
#: worker so an unlucky chunk cannot idle the rest of the pool.
_CHUNKS_PER_WORKER = 4

#: Cap on ``workers="auto"`` resolution; beyond this the result-decode
#: loop in the parent becomes the bottleneck.
_AUTO_WORKERS_CAP = 8


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _fork_available() -> bool:
    """True if this platform can fork the extraction pool's workers."""
    return "fork" in multiprocessing.get_all_start_methods()


def auto_workers() -> int:
    """Pool width ``workers="auto"`` resolves to on this host."""
    return max(1, min(available_cpus(), _AUTO_WORKERS_CAP))


def parallel_crossover(
    device_count: int, *, pool_warm: bool, cpus: int | None = None
) -> bool:
    """True if a pooled sweep is expected to beat a serial one.

    The heuristic that replaced the bare ``PARALLEL_MIN_DEVICES`` test:
    parallel extraction pays only on a multi-CPU host, and only when the
    netlist is large enough to amortize the pool traffic -- a higher bar
    (:data:`PARALLEL_COLD_MIN_DEVICES`) when the workers would have to
    be forked first than when the pool is already warm
    (:data:`PARALLEL_MIN_DEVICES`).  Thresholds were measured with
    ``repro.bench.perf``; an explicit ``parallel=`` argument to
    :meth:`StageDelayCalculator.all_arcs` bypasses this entirely.
    """
    cpus = available_cpus() if cpus is None else cpus
    if cpus < 2:
        return False
    floor = PARALLEL_MIN_DEVICES if pool_warm else PARALLEL_COLD_MIN_DEVICES
    return device_count >= floor


def _validate_workers(spec) -> int | str:
    """Validate a ``workers`` spec: positive int or ``"auto"``.

    Rejects -- rather than silently clamping -- zero, negative, and
    boolean specs.  ``workers=0`` used to mean 1, which hid caller bugs
    (a miscomputed width quietly became serial), and ``workers=True``
    is almost always a misplaced ``parallel=True``.
    """
    if isinstance(spec, bool):
        raise StageError(
            f"workers must be a positive integer or {WORKERS_AUTO!r}, got "
            f"{spec!r} (did you mean all_arcs(parallel={spec!r})?)"
        )
    if spec == WORKERS_AUTO:
        return WORKERS_AUTO
    try:
        value = int(spec)
    except (TypeError, ValueError):
        raise StageError(
            f"workers must be a positive integer or {WORKERS_AUTO!r}, "
            f"got {spec!r}"
        ) from None
    if value < 1:
        raise StageError(
            f"workers must be a positive integer or {WORKERS_AUTO!r}, "
            f"got {spec!r}"
        )
    return value


#: Monotonic identity for calculators; with the invalidation epoch it
#: tells the persistent pool whether its forked snapshot is still valid.
_CALC_TOKENS = itertools.count(1)


@dataclass(frozen=True)
class ArcTiming:
    """Timing of one output transition of an arc.

    ``delay`` is the intrinsic 50%-crossing delay (seconds), already scaled
    by the technology's calibration factor; ``tau`` is the underlying Elmore
    time constant (used for slew estimation); ``path`` names the devices on
    the worst resistive path; ``truncated`` is set if path enumeration hit
    its cap.

    ``term`` is the optional parametric recipe behind the floats (see
    :mod:`repro.delay.parametric`): a plain nested tuple that replays
    this timing's arithmetic at any technology point.  ``None`` (the
    default) in concrete mode; populated when the calculator extracts
    with ``parametric`` enabled.
    """

    delay: float
    tau: float
    path: tuple[str, ...] = ()
    truncated: bool = False
    term: tuple | None = None


@dataclass(frozen=True)
class StageArc:
    """One timing arc through a stage.

    ``inverting`` tells the arrival propagator which input transition
    produces which output transition: an inverting arc maps input-rise to
    output-fall (gate logic); a non-inverting arc maps rise to rise (pass
    transfer, precharge, clocked switches).
    """

    stage_index: int
    trigger: str
    via: str  # "gate" or "channel"
    output: str
    inverting: bool
    rise: ArcTiming | None
    fall: ArcTiming | None

    def timing(self, transition: str) -> ArcTiming | None:
        """The arc timing for ``"rise"`` or ``"fall"`` (None if absent)."""
        return self.rise if transition == RISE else self.fall


class StageContext:
    """Shared per-stage extraction state.

    Holds everything the six arc-family extractors need about one stage
    under one **cut set** -- the names of its member devices that the
    clock context cuts (:meth:`StageDelayCalculator._cut_set`) -- computed
    lazily and exactly once: resolved member devices, conduction/pass edge
    lists per transition, their adjacency maps (with per-hop device facts
    pre-resolved), the pulled-up node table, and the device-name-to-gate
    map.  The cut is all an extractor learns of the clock context, so a
    stage's arcs are a function of ``(stage, cut)`` and every context with
    the same cut shares one extraction.
    """

    __slots__ = (
        "calc",
        "stage",
        "devices",
        "cut",
        "gate_of",
        "_pass",
        "_cond",
        "_adj",
        "_pulled",
        "_pulled_set",
    )

    def __init__(
        self,
        calc: "StageDelayCalculator",
        stage: Stage,
        cut: frozenset[str],
    ):
        self.calc = calc
        self.stage = stage
        self.devices = calc.graph.devices_of(stage)
        self.cut = cut
        self.gate_of = {dev.name: dev.gate for dev in self.devices}
        self._pass: dict[str, list] = {}
        self._cond: dict[str, list] = {}
        self._adj: dict[tuple[str, str], dict] = {}
        self._pulled: dict[str, float] | None = None
        self._pulled_set = False

    def clock_open(self, dev: Transistor) -> bool:
        """True if the device is cut in this context (see calculator)."""
        return dev.name in self.cut

    def pass_edges(self, transition: str) -> list:
        """Pass-network edges for a transition (computed once)."""
        edges = self._pass.get(transition)
        if edges is None:
            edges = self.calc._pass_edges(
                self.stage, self.devices, transition, self.cut
            )
            self._pass[transition] = edges
        return edges

    def conduction_edges(self, transition: str) -> list:
        """Discharge-path edges for a transition (computed once)."""
        edges = self._cond.get(transition)
        if edges is None:
            edges = self.calc._conduction_edges(
                self.stage, self.devices, transition, self.cut
            )
            self._cond[transition] = edges
        return edges

    def pass_adjacency(self, transition: str) -> dict:
        """Adjacency map of the pass edges (computed once)."""
        key = ("pass", transition)
        adj = self._adj.get(key)
        if adj is None:
            adj = self.calc._build_adjacency(self.pass_edges(transition))
            self._adj[key] = adj
        return adj

    def conduction_adjacency(self, transition: str) -> dict:
        """Adjacency map of the conduction edges (computed once)."""
        key = ("cond", transition)
        adj = self._adj.get(key)
        if adj is None:
            adj = self.calc._build_adjacency(self.conduction_edges(transition))
            self._adj[key] = adj
        return adj

    @property
    def pulled_up(self) -> dict[str, float]:
        """Stage nodes with depletion pull-ups (computed once)."""
        if not self._pulled_set:
            self._pulled = self.calc._pulled_up_nodes(self.stage, self.devices)
            self._pulled_set = True
        return self._pulled


class StageDelayCalculator:
    """Extracts timing arcs from stages of one netlist.

    Parameters
    ----------
    netlist, graph:
        The circuit and its stage decomposition (flow directions should
        already be assigned by :func:`repro.flow.infer_flow`).
    model:
        RC metric: one of :data:`DELAY_MODELS`.
    slope:
        Slope-correction model (used by the analyzer; stored here so all
        timing policy lives in one object).
    max_paths:
        Cap on target hits per path-search walk (see :meth:`_worst_paths`).
    workers:
        Default fan-out width of :meth:`all_arcs`: an int (1 = serial)
        or :data:`WORKERS_AUTO` (``"auto"``) to resolve the width from
        the host CPU count and pick serial vs. parallel per sweep with
        the :func:`parallel_crossover` heuristic.  Pooled sweeps run on
        the module's persistent fork pool (see :func:`shutdown_pool`);
        on a platform without ``fork`` every sweep is serial.
    trace:
        Optional :class:`repro.trace.Trace` receiving the supervision
        counters (``extract_retries``, ``extract_timeouts``,
        ``extract_corrupt_results``, ``extract_fallback_stages``,
        ``extract_pool_failures``).
    on_error:
        Error policy (:data:`repro.robust.ERROR_POLICIES`).  Under
        ``strict`` (default) a stage whose extraction fails raises; under
        ``quarantine``/``best-effort`` the stage is excised
        (:meth:`quarantine_stage`) and :meth:`all_arcs` returns the arcs
        of the surviving stages.

    Supervision knobs (attributes, overridable per instance):
    ``task_timeout`` (seconds one pool task may run before it is treated
    as hung), ``task_retries`` (pool re-submissions after a failed
    attempt), ``retry_backoff`` (initial inter-attempt sleep; doubles per
    retry).  Exhausted retries never lose work: the serial walk in
    :meth:`all_arcs` recomputes whatever the pool did not deliver.
    """

    def __init__(
        self,
        netlist: Netlist,
        graph: StageGraph,
        *,
        model: str = "elmore",
        slope: SlopeModel | None = None,
        max_paths: int = 4096,
        tech: Technology | None = None,
        workers: int | str = 1,
        trace=None,
        on_error: str = robust.STRICT,
    ):
        if model not in DELAY_MODELS:
            raise StageError(
                f"unknown delay model {model!r}; choose from {DELAY_MODELS}"
            )
        self.netlist = netlist
        self.graph = graph
        self.model = model
        self.slope = slope if slope is not None else SlopeModel()
        self.max_paths = max_paths
        self.tech = tech or netlist.tech
        self.workers = _validate_workers(workers)
        #: Persistent-pool binding: identity of this calculator plus an
        #: epoch bumped by :meth:`invalidate_devices`, so a forked worker
        #: snapshot is never reused after a device edit.
        self._pool_token = next(_CALC_TOKENS)
        self._pool_epoch = 0
        self.trace = trace if trace is not None else NULL_TRACE
        self.on_error = robust.validate_policy(on_error)
        #: Stage indices excised from analysis; :meth:`all_arcs` skips them.
        self.quarantined: set[int] = set()
        #: :class:`repro.robust.Diagnostic` records for quarantined stages.
        self.diagnostics: list[robust.Diagnostic] = []
        self.task_timeout = 60.0
        self.task_retries = 2
        self.retry_backoff = 0.05
        #: Optional absolute ``time.monotonic()`` extraction deadline,
        #: armed per run via :meth:`set_deadline`.  Once it passes,
        #: uncached stages raise :class:`~repro.errors.DeadlineError`
        #: under ``strict`` and are skipped (with a ``deadline-exceeded``
        #: diagnostic) under the degraded policies; cached stages are
        #: always served -- a cache hit is free.
        self.deadline: float | None = None
        #: Transient per-run accounting: stages skipped because the
        #: deadline passed, and the diagnostics describing the skips.
        #: Unlike ``quarantined``/``diagnostics`` these never persist --
        #: the next :meth:`set_deadline` clears them, so one run that
        #: timed out cannot poison the next.
        self.deadline_skipped: set[int] = set()
        self.deadline_diagnostics: list[robust.Diagnostic] = []
        self._cap_cache: dict[str, float] = {}
        self._arc_cache: dict[tuple, list[StageArc]] = {}
        # name -> (gate, group, source, out_of_source, out_of_drain,
        #          source_is_boundary, drain_is_boundary); see
        # _device_fact_map.
        self._device_facts: dict[str, tuple] | None = None
        #: When True, extracted ArcTimings carry parametric terms (see
        #: repro.delay.parametric).  Off by default: term building costs
        #: a little per spine, and concrete mode must stay byte-stable.
        self.parametric = False
        #: Symbolic sibling serving term-carrying arcs for this
        #: structure, built lazily by :meth:`parametric_source`.
        self._parametric_source: "StageDelayCalculator | None" = None
        #: When set, :meth:`arcs` evaluates this source's terms at our
        #: tech instead of extracting (see :meth:`_arcs_from_terms`).
        self._term_source: "StageDelayCalculator | None" = None

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------
    def arcs(
        self,
        stage: Stage,
        active_clocks: frozenset[str] | None = None,
        open_gates: frozenset[str] = frozenset(),
    ) -> list[StageArc]:
        """All timing arcs of ``stage`` (deduplicated, worst-case merged).

        ``active_clocks`` selects the clock phase under analysis: devices
        gated by a clock *not* in the set are treated as open (cut), and
        clock-triggered arcs exist only for active clocks.  ``None`` means
        the value-independent worst case: every clocked switch is closed --
        the right view for purely combinational circuits and for a quick
        whole-circuit longest-path estimate.

        ``open_gates`` names additional control nodes that are provably low
        in the scenario under analysis -- qualified clocks derived from the
        phase (e.g. a word line ``dec AND phi2`` during phi1).  Devices they
        gate are cut exactly like inactive clocks.

        The context reaches extraction only as the stage's cut set
        (:meth:`_cut_set`), so contexts that cut the same devices share
        one extraction: the arcs are cached under the context's own key
        and under the stage's signature key (:meth:`_signature_lookup`).
        """
        cache_key = (stage.index, active_clocks, open_gates)
        cached = self._arc_cache.get(cache_key)
        if cached is not None:
            return cached
        cached, cut, signature = self._signature_lookup(stage, cache_key)
        if cached is not None:
            return cached
        merged = None
        if self._term_source is not None:
            merged = self._arcs_from_terms(stage, active_clocks, open_gates)
        if merged is None:
            ctx = StageContext(self, stage, cut)
            raw: list[StageArc] = []
            raw.extend(self._gate_arcs(ctx))
            raw.extend(self._clocked_switch_arcs(ctx))
            raw.extend(self._precharge_arcs(ctx))
            raw.extend(self._follower_arcs(ctx))
            raw.extend(self._channel_arcs(ctx))
            raw.extend(self._select_arcs(ctx))
            merged = _merge_arcs(raw)
        self._arc_cache[cache_key] = merged
        self._arc_cache[signature] = merged
        return merged

    def _signature_lookup(
        self, stage: Stage, cache_key: tuple
    ) -> tuple[list[StageArc] | None, frozenset[str], tuple]:
        """Resolve a context-key miss through the stage's clock signature.

        Returns ``(arcs, cut, signature)``: the stage's cut set in the
        context of ``cache_key``; its signature key, which is the
        transparent key ``(index, None, frozenset())`` when nothing is
        cut and ``(index, cut)`` otherwise; and the arcs cached under
        that key, or None.  A hit is also stored under ``cache_key`` and
        counted as ``arc_signature_hits``.  The transparent context is
        its own signature and looks nothing up.
        """
        index, active_clocks, open_gates = cache_key
        if active_clocks is None and not open_gates:
            return None, frozenset(), cache_key
        cut = self._cut_set(
            self.graph.devices_of(stage), active_clocks, open_gates
        )
        signature = (index, cut) if cut else (index, None, frozenset())
        cached = self._arc_cache.get(signature)
        if cached is not None:
            self._arc_cache[cache_key] = cached
            self.trace.incr("arc_signature_hits")
        return cached, cut, signature

    def _arcs_from_terms(
        self,
        stage: Stage,
        active_clocks: frozenset[str] | None,
        open_gates: frozenset[str],
    ) -> list[StageArc] | None:
        """Evaluate the term source's arcs for ``stage`` at our tech.

        The source extracts (and caches) term-carrying arcs once; this
        calculator instantiates them at its own parameter point -- an
        evaluation pass, no path search.  Returns ``None`` when any
        timing lacks a term, in which case the caller falls back to full
        concrete extraction for the stage.
        """
        from .parametric import evaluate_arcs

        source = self._term_source
        src_arcs = source.arcs(stage, active_clocks, open_gates)
        evaluated = evaluate_arcs(self, stage, src_arcs)
        if evaluated is not None:
            self.trace.incr("parametric_stage_evals")
        return evaluated

    def parametric_source(self) -> "StageDelayCalculator":
        """The memoized symbolic sibling of this calculator.

        A :meth:`retarget` clone at this calculator's own technology
        with ``parametric`` enabled: its extractions emit term-carrying
        arcs that corner clones evaluate instead of re-extracting (see
        ``TimingAnalyzer.analyze_mcmm``).  It shares this calculator's
        pool binding, so pooled symbolic sweeps reuse the same
        persistent pool, and :meth:`invalidate_devices` keeps its caches
        in lockstep with ours.
        """
        source = self._parametric_source
        if source is None:
            source = self.retarget(self.tech)
            source.parametric = True
            self._parametric_source = source
        return source

    def invalidate_devices(self, device_names) -> None:
        """Drop cached results touched by edited devices (e.g. resizing).

        Invalidates the capacitance cache of every terminal node and the
        arc cache of every stage owning one of those nodes -- the exact
        footprint a width change has on the timing model.  Everything else
        stays cached, including the size-independent device-fact map,
        which is what makes the optimizer's re-analysis loop cheap.
        """
        nodes: set[str] = set()
        for name in device_names:
            dev = self.netlist.device(name)
            nodes.update((dev.gate, dev.source, dev.drain))
        for node in nodes:
            self._cap_cache.pop(node, None)
        # The device-fact map (gate, one-hot group, flow legality,
        # boundary) reads no device size, so it stays.  Any forked worker
        # snapshot predates this edit; the persistent pool rebinds
        # (re-forks) on the next pooled sweep.
        self._pool_epoch += 1
        stale = set()
        for node in nodes:
            stage = self.graph.stage_of(node)
            if stage is not None:
                stale.add(stage.index)
        if stale:
            self._arc_cache = {
                key: arcs
                for key, arcs in self._arc_cache.items()
                if key[0] not in stale
            }
        if self._parametric_source is not None:
            # The symbolic sibling shares our pool binding and serves
            # corner clones; its terms predate the edit too.
            self._parametric_source.invalidate_devices(device_names)

    def retarget(self, tech: Technology) -> "StageDelayCalculator":
        """A calculator evaluating the same structure at ``tech``.

        This is the MCMM re-evaluation hook: the clone shares the
        netlist, the stage graph, and the (tech-independent) device-fact
        map, so only the numeric delay terms -- resistances,
        capacitances, k-factors -- are recomputed at the new corner.
        Delay caches (``_cap_cache``/``_arc_cache``) start empty because
        their contents are corner-specific.

        The clone also inherits this calculator's persistent-pool
        binding: the structural snapshot the forked workers hold is
        corner-invariant, so a multi-corner sweep reuses **one** fixed
        pool instead of rebinding per corner -- workers receive the
        corner with each task and retarget their own snapshot
        (see :func:`_pool_extract`).

        Because the clone runs the identical extraction code on the
        identical netlist, its results are byte-identical to a
        calculator built from scratch with ``tech=tech``.
        """
        clone = StageDelayCalculator(
            self.netlist,
            self.graph,
            model=self.model,
            slope=self.slope,
            max_paths=self.max_paths,
            tech=tech,
            workers=self.workers,
            trace=self.trace,
            on_error=self.on_error,
        )
        clone.task_timeout = self.task_timeout
        clone.task_retries = self.task_retries
        clone.retry_backoff = self.retry_backoff
        clone.deadline = self.deadline
        clone.quarantined = set(self.quarantined)
        clone.diagnostics = list(self.diagnostics)
        clone._device_facts = self._device_fact_map()
        clone._pool_token = self._pool_token
        clone._pool_epoch = self._pool_epoch
        clone.parametric = self.parametric
        return clone

    def set_deadline(self, budget: float | None) -> None:
        """Arm (``budget`` seconds from now) or clear the run deadline.

        Always resets the transient deadline accounting of the previous
        run (``deadline_skipped``/``deadline_diagnostics``): deadline
        skips are per-run by design, so a request that ran out of time
        never shrinks the coverage of the next one.
        """
        self.deadline = (
            None if budget is None else time.monotonic() + budget
        )
        self.deadline_skipped.clear()
        self.deadline_diagnostics.clear()

    def _deadline_expired(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline

    def quarantine_stage(
        self,
        index: int,
        *,
        code: str = "extraction-failure",
        severity: str = "error",
        subject: str | None = None,
        message: str = "",
    ) -> robust.Diagnostic:
        """Excise stage ``index`` from analysis and record a diagnostic.

        Quarantined stages are skipped by :meth:`all_arcs`; the recorded
        :class:`~repro.robust.Diagnostic` ends up on the analysis result
        and in the JSON report's ``diagnostics`` section.  Idempotent per
        stage: quarantining an already-quarantined stage still appends the
        new diagnostic (distinct causes are all worth reporting).
        """
        self.quarantined.add(index)
        if subject is None:
            stage = self.graph[index]
            outputs = sorted(stage.outputs) or sorted(stage.nodes)
            subject = outputs[0] if outputs else f"stage-{index}"
        diag = robust.Diagnostic(
            code=code,
            severity=severity,
            subject=subject,
            stage=index,
            action="quarantined",
            message=message,
        )
        self.diagnostics.append(diag)
        return diag

    def all_arcs(
        self,
        active_clocks: frozenset[str] | None = None,
        open_gates: frozenset[str] = frozenset(),
        *,
        parallel: bool | None = None,
        workers: int | str | None = None,
    ) -> list[StageArc]:
        """Timing arcs of every non-quarantined stage in the graph.

        ``parallel``/``workers`` control the fan-out: ``parallel=None``
        (default) consults the :func:`parallel_crossover` heuristic --
        the pool runs only when the resolved width exceeds 1, the host
        has more than one CPU, and the netlist clears the warm or cold
        device floor (:data:`PARALLEL_MIN_DEVICES` /
        :data:`PARALLEL_COLD_MIN_DEVICES`).  ``workers`` may be an int
        or ``"auto"`` (width from :func:`auto_workers`);
        ``parallel=True`` forces the pool (bumping the width to at least
        2); ``parallel=False`` forces the serial path.  A platform without
        ``fork`` always takes the serial path.  The decision is
        visible as the ``extract_parallel_sweeps`` /
        ``extract_serial_sweeps`` trace counters.  Stages are
        channel-connected components, hence independent, and results are
        merged in stage-index order -- the arc list is identical to the
        serial one.

        The pool only *pre-fills* the arc cache; this serial walk is
        authoritative, so quarantine decisions are made here (never in a
        worker) and the result is deterministic regardless of pool
        failures.  A stage whose extraction raises is re-raised as a typed
        :class:`~repro.errors.ReproError` under the ``strict`` policy and
        quarantined (with a diagnostic) under ``quarantine``/
        ``best-effort``.
        """
        spec = self.workers if workers is None else _validate_workers(workers)
        resolved = auto_workers() if spec == WORKERS_AUTO else spec
        if parallel is None:
            use_pool = resolved > 1 and parallel_crossover(
                len(self.netlist.devices), pool_warm=_POOL.warm_for(self)
            )
        else:
            use_pool = bool(parallel)
            if use_pool and resolved < 2:
                resolved = max(2, available_cpus())
        # Pool workers are forked; without fork the sweep stays serial.
        use_pool = use_pool and _fork_available()
        if self._term_source is not None and use_pool:
            # Pooled symbolic sweep: the *source* extracts on the pool
            # (terms travel back over the wire); this calculator then
            # evaluates the terms serially in the walk below -- per-stage
            # evaluation is far too cheap to be worth pool traffic.
            self._term_source.all_arcs(
                active_clocks, open_gates, parallel=parallel, workers=workers
            )
            use_pool = False
        self.trace.incr(
            "extract_parallel_sweeps" if use_pool else "extract_serial_sweeps"
        )
        if use_pool:
            self._extract_parallel(active_clocks, open_gates, resolved)
        result: list[StageArc] = []
        expired = False
        skipped = 0
        for stage in self.graph:
            if (
                stage.index in self.quarantined
                or stage.index in self.deadline_skipped
            ):
                continue
            cached = self._arc_cache.get(
                (stage.index, active_clocks, open_gates)
            )
            if cached is not None:
                # A cache hit costs nothing; serve it even past the
                # deadline so a warm design degrades as little as possible.
                result.extend(cached)
                continue
            if not expired and self._deadline_expired():
                expired = True
            if expired:
                if self.on_error == robust.STRICT:
                    raise DeadlineError(
                        "extraction deadline exceeded at stage "
                        f"{stage.index} of {len(self.graph)}"
                    )
                self.deadline_skipped.add(stage.index)
                skipped += 1
                continue
            try:
                robust.fault_point("stage-arcs", stage.index)
                stage_arcs = self.arcs(stage, active_clocks, open_gates)
            except Exception as exc:
                if self.on_error == robust.STRICT:
                    if isinstance(exc, ReproError):
                        raise
                    raise StageError(
                        f"arc extraction failed for stage {stage.index}: "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
                self.quarantine_stage(
                    stage.index,
                    message=(
                        f"arc extraction failed: {type(exc).__name__}: {exc}"
                    ),
                )
                continue
            result.extend(stage_arcs)
        if skipped:
            self.trace.incr("extract_deadline_skips", skipped)
            self.deadline_diagnostics.append(
                robust.Diagnostic(
                    code="deadline-exceeded",
                    severity="error",
                    subject=self.netlist.name,
                    stage=None,
                    action="skipped",
                    message=(
                        f"extraction deadline passed; {skipped} stage(s) "
                        "left unanalyzed this run"
                    ),
                )
            )
        return result

    # ------------------------------------------------------------------
    # Parallel fan-out.
    # ------------------------------------------------------------------
    def _work_chunks(self, indices: list[int], workers: int) -> list[list[int]]:
        """Batch stage indices into chunks of similar *estimated work*.

        The estimate is the squared member-device count -- path
        enumeration cost grows superlinearly with stage size, and the
        square is enough to give an oversized stage (a shifter matrix, a
        bus) its own chunk instead of letting it serialize a batch of
        small ones.  Chunks keep stage order, so the parent's
        cache-filling decode stays deterministic.
        """
        weights = [
            (index, max(1, len(self.graph[index].device_names)) ** 2)
            for index in indices
        ]
        total = sum(weight for _i, weight in weights)
        budget = max(1.0, total / (workers * _CHUNKS_PER_WORKER))
        chunks: list[list[int]] = []
        current: list[int] = []
        acc = 0.0
        for index, weight in weights:
            current.append(index)
            acc += weight
            if acc >= budget:
                chunks.append(current)
                current = []
                acc = 0.0
        if current:
            chunks.append(current)
        return chunks

    def _extract_parallel(
        self,
        active_clocks: frozenset[str] | None,
        open_gates: frozenset[str],
        workers: int,
    ) -> None:
        """Populate the arc cache for uncached stages using a worker pool.

        Stages whose clock signature is already cached are served from
        it first (:meth:`_signature_lookup`); only the rest are chunked.

        Only fills ``self._arc_cache``; the caller still walks the stages
        in order, so the merged arc list is deterministic and identical to
        serial extraction.  The pool is *supervised*: each task has a
        timeout (``task_timeout``), failed or corrupt chunks are retried
        with exponential backoff (``task_retries``/``retry_backoff``), and
        whatever still failed after the last attempt falls back to the
        serial path simply by leaving the cache unfilled.  A pool that
        cannot start at all (e.g. the OS refuses the fork) degrades the
        same way.  A ``KeyboardInterrupt`` mid-sweep tears the persistent pool
        down (terminating live workers) before propagating, so Ctrl-C
        never leaves orphans.
        """
        signatures: dict[int, tuple] = {}
        for stage in self.graph:
            key = (stage.index, active_clocks, open_gates)
            if stage.index in self.quarantined or key in self._arc_cache:
                continue
            cached, _cut, signature = self._signature_lookup(stage, key)
            if cached is None:
                signatures[stage.index] = signature
        if len(signatures) < 2:
            return
        pending = self._work_chunks(list(signatures), workers)
        backoff = self.retry_backoff
        try:
            for attempt in range(self.task_retries + 1):
                if not pending:
                    return
                if self._deadline_expired():
                    # No time left for another pool attempt; the serial
                    # walk will apply the deadline policy stage by stage.
                    break
                if attempt:
                    self.trace.incr("extract_retries", len(pending))
                    time.sleep(backoff)
                    backoff *= 2
                try:
                    pending = self._run_process_pool(
                        pending, active_clocks, open_gates, signatures,
                        workers,
                    )
                except KeyboardInterrupt:
                    raise
                except Exception:
                    # Pool could not start at all; nothing was extracted
                    # this attempt, so every chunk is still pending.
                    self.trace.incr("extract_pool_failures")
        except KeyboardInterrupt:
            shutdown_pool()
            raise
        if pending:
            # Serial fallback: arcs() computes whatever the pool did not.
            self.trace.incr(
                "extract_fallback_stages", sum(len(c) for c in pending)
            )

    def _run_process_pool(
        self, chunks, active_clocks, open_gates, signatures, workers
    ) -> list[list[int]]:
        """One supervised pool attempt; returns the chunks that failed.

        Runs on the module's **persistent** fork pool: workers inherit
        this calculator by memory copy at pool start (no netlist
        pickling, and the child's str-hash seed -- hence every
        set-iteration order -- matches the parent's, which keeps the
        extracted arc lists bit-identical to serial extraction) and are
        reused across sweeps, corners, and runs of the same calculator.
        Per-task traffic is ``(run token, corner, chunk)`` down and
        compact arc tuples back, decoded into the cache as each future
        completes.  A timeout, a worker crash (``BrokenProcessPool``),
        or a structurally corrupt return value marks the chunk failed
        without touching the cache; a timed-out or broken pool is
        *poisoned* -- terminated and discarded so the next attempt (or
        the next sweep) cold-starts a clean one and no worker is ever
        orphaned.
        """
        pool, warm = _POOL.acquire(self, workers)
        self.trace.incr(
            "extract_pool_reuses" if warm else "extract_pool_cold_starts"
        )
        run_token = _POOL.next_run_token()
        failed: list[list[int]] = []
        poisoned = False
        try:
            futures = [
                (
                    pool.submit(
                        _pool_extract,
                        run_token,
                        self.tech,
                        self.parametric,
                        active_clocks,
                        open_gates,
                        chunk,
                    ),
                    chunk,
                )
                for chunk in chunks
            ]
            for future, chunk in futures:
                timeout = self.task_timeout
                if self.deadline is not None:
                    remaining = self.deadline - time.monotonic()
                    if remaining <= 0:
                        # The request deadline passed mid-sweep: cancel
                        # the pooled extraction instead of waiting it
                        # out.  Unstarted tasks are dropped; a task
                        # already running poisons the pool so its worker
                        # is terminated, never orphaned.
                        if not future.cancel():
                            future.add_done_callback(_swallow_result)
                            poisoned = True
                        failed.append(chunk)
                        continue
                    timeout = min(timeout, remaining)
                try:
                    extracted = future.result(timeout=timeout)
                except concurrent.futures.TimeoutError:
                    self.trace.incr("extract_timeouts")
                    future.add_done_callback(_swallow_result)
                    failed.append(chunk)
                    poisoned = True
                    continue
                except concurrent.futures.process.BrokenProcessPool:
                    failed.append(chunk)
                    poisoned = True
                    continue
                except Exception:
                    # The task raised inside a healthy worker; the pool
                    # stays warm for the retry.
                    failed.append(chunk)
                    continue
                if not _valid_pool_result(extracted, chunk):
                    self.trace.incr("extract_corrupt_results")
                    failed.append(chunk)
                    continue
                for index, wire_arcs in extracted:
                    arcs = _arcs_from_wire(index, wire_arcs)
                    self._arc_cache[(index, active_clocks, open_gates)] = arcs
                    self._arc_cache[signatures[index]] = arcs
        except BaseException:
            _POOL.discard()
            raise
        if poisoned:
            # Hung or crashed workers: terminate them and never reuse
            # this pool.  Retries (and later sweeps) start fresh.
            _POOL.discard()
        return failed

    def _clock_open(
        self,
        dev: Transistor,
        active_clocks: frozenset[str] | None,
        open_gates: frozenset[str] = frozenset(),
    ) -> bool:
        """True if the device is cut: inactive clock or constant-low gate."""
        if dev.gate in open_gates and dev.kind is DeviceKind.ENH:
            return True
        return (
            active_clocks is not None
            and dev.gate not in active_clocks
            and self.netlist.is_clock(dev.gate)
        )

    def _cut_set(
        self,
        devices: list[Transistor],
        active_clocks: frozenset[str] | None,
        open_gates: frozenset[str] = frozenset(),
    ) -> frozenset[str]:
        """Names of the ``devices`` that :meth:`_clock_open` cuts in a
        clock context -- all an extractor ever learns of that context."""
        return frozenset(
            dev.name
            for dev in devices
            if self._clock_open(dev, active_clocks, open_gates)
        )

    # ------------------------------------------------------------------
    # Arc families.
    # ------------------------------------------------------------------
    def _gate_arcs(self, ctx: StageContext):
        """Ordinary logic arcs: a gate input switches, an output moves."""
        stage = ctx.stage
        fall_adjacency = ctx.conduction_adjacency(FALL)

        # Triggers: external gate inputs, plus *stage outputs* gating member
        # devices -- pass networks can merge a gate's input and output into
        # one channel-connected stage (a mux reading two gate outputs), and
        # such internal-but-visible nodes carry their own arrivals.  Purely
        # internal gates (tied load gates, anonymous feedback) stay out.
        triggers = {
            dev.gate: None
            for dev in ctx.devices
            if dev.kind is DeviceKind.ENH
            and (dev.gate not in stage.nodes or dev.gate in stage.outputs)
            and not self._is_precharge(dev)
            and not ctx.clock_open(dev)
        }
        arcs = []
        for output in stage.outputs:
            # One walk serves every trigger: labelled by gate, it keeps
            # the worst discharge path through a device each gate drives.
            fall_by_gate = self._worst_timings(
                output,
                {self.netlist.gnd},
                fall_adjacency,
                FALL,
                labels=ctx.gate_of,
                respect_flow=False,
            )
            rise = self._rise_via_pullup(ctx, output)
            for trigger in triggers:
                fall = fall_by_gate.get(trigger)
                if fall is None:
                    # In ratioed logic a gate input influences an output
                    # only through a discharge path: the same pull-down
                    # whose turn-off lets the load raise the node.  No
                    # discharge path (under one-hot constraints) means no
                    # arc -- attaching the trigger-independent rise here
                    # would fabricate couplings, e.g. between unrelated
                    # register-file cells sharing a bitline.
                    continue
                arcs.append(
                    StageArc(
                        stage_index=stage.index,
                        trigger=trigger,
                        via="gate",
                        output=output,
                        inverting=True,
                        rise=rise,
                        fall=fall,
                    )
                )
        return arcs

    def _clocked_switch_arcs(self, ctx: StageContext):
        """Clock-gated pass switches: clock rise lets data through.

        The arc trigger is the clock; the output follows the data side, so
        both transitions exist and the arc is non-inverting.
        """
        stage = ctx.stage
        arcs = []
        rise_adjacency = ctx.pass_adjacency(RISE)
        fall_adjacency = ctx.pass_adjacency(FALL)
        for dev in ctx.devices:
            if dev.kind is not DeviceKind.ENH:
                continue
            if not self.netlist.is_clock(dev.gate):
                continue
            if self._is_precharge(dev):
                continue
            if ctx.clock_open(dev):
                continue
            source_side = self._driving_terminal(dev)
            if source_side is None:
                continue
            receiving = dev.other_channel(source_side)
            # Only paths through the switch itself count.
            labels = {dev.name: dev.gate}
            for output in stage.outputs | ({receiving} & stage.nodes):
                rise = self._worst_timings(
                    output, {source_side}, rise_adjacency, RISE, labels=labels
                ).get(dev.gate)
                fall = self._worst_timings(
                    output, {source_side}, fall_adjacency, FALL, labels=labels
                ).get(dev.gate)
                if rise is None and fall is None:
                    continue
                arcs.append(
                    StageArc(
                        stage_index=stage.index,
                        trigger=dev.gate,
                        via="gate",
                        output=output,
                        inverting=False,
                        rise=rise,
                        fall=fall,
                    )
                )
        return arcs

    def _precharge_arcs(self, ctx: StageContext):
        """Clock-gated precharge devices: clock rise charges the node.

        Precharge devices sharing one clock conduct *simultaneously*, so a
        node with its own precharger never waits on a neighbour's: cross
        arcs are generated only toward outputs without a same-clock
        precharger, along paths that do not run through other same-clock
        precharged nodes (their own devices shunt any longer path).
        """
        stage = ctx.stage
        vdd = self.netlist.vdd
        arcs = []
        pass_rise = ctx.pass_edges(RISE)
        for dev in ctx.devices:
            if not self._is_precharge(dev):
                continue
            if ctx.clock_open(dev):
                continue
            node = dev.source if dev.drain == vdd else dev.drain
            siblings = {
                (d.source if d.drain == vdd else d.drain)
                for d in ctx.devices
                if self._is_precharge(d)
                and d.gate == dev.gate
                and d.name != dev.name
            }
            if siblings:
                search_adjacency = self._build_adjacency(
                    [
                        e
                        for e in pass_rise
                        if e[0] not in siblings and e[1] not in siblings
                    ]
                )
            else:
                search_adjacency = ctx.pass_adjacency(RISE)
            head = (
                vdd,
                node,
                device_resistance(self.tech, dev, "precharge", RISE),
                dev.name,
            )
            for output in stage.outputs | ({node} & stage.nodes):
                if output != node and output in siblings:
                    continue  # it has its own (parallel) precharger
                timing = self._rise_from_vdd(
                    head,
                    output,
                    search_adjacency,
                    ctx.conduction_adjacency(RISE),
                )
                if timing is None:
                    continue
                arcs.append(
                    StageArc(
                        stage_index=stage.index,
                        trigger=dev.gate,
                        via="gate",
                        output=output,
                        inverting=False,
                        rise=timing,
                        fall=None,
                    )
                )
        return arcs

    def _follower_arcs(self, ctx: StageContext):
        """Gated depletion followers (superbuffer output stages).

        A depletion device with its channel to vdd and its gate driven by a
        signal (not tied) charges its source when the gate rises: a
        non-inverting rise-only arc from the gate.
        """
        stage = ctx.stage
        vdd = self.netlist.vdd
        arcs = []
        rise_adjacency = ctx.pass_adjacency(RISE)
        for dev in ctx.devices:
            if dev.kind is not DeviceKind.DEP or dev.is_load:
                continue
            if vdd not in dev.channel_nodes:
                continue
            node = dev.other_channel(vdd)
            head = (
                vdd,
                node,
                device_resistance(self.tech, dev, "pullup", RISE),
                dev.name,
            )
            for output in stage.outputs | ({node} & stage.nodes):
                timing = self._rise_from_vdd(
                    head, output, rise_adjacency, rise_adjacency
                )
                if timing is None:
                    continue
                arcs.append(
                    StageArc(
                        stage_index=stage.index,
                        trigger=dev.gate,
                        via="gate",
                        output=output,
                        inverting=False,
                        rise=timing,
                        fall=None,
                    )
                )
        return arcs

    def _select_arcs(self, ctx: StageContext):
        """Pass-select arcs: a switch's *gate* re-routes the output.

        When a mux/shifter select rises, the output is newly connected to
        its source and transitions toward the source's value -- a timing
        path triggered by the select, not the source.  The arc's delay is
        the worst transfer from any driving point (boundary injector or
        pulled-up node) to the output through a path that includes a device
        the select gates.  Non-inverting, both transitions (select fall is
        a disconnect and launches nothing; charging it too is a small,
        stated pessimism of the arc model).
        """
        stage = ctx.stage
        vdd = self.netlist.vdd
        gnd = self.netlist.gnd
        # Eligible pass device -> its select: the labels of the walks.
        select_of = {
            d.name: d.gate
            for d in ctx.devices
            if d.kind is DeviceKind.ENH
            and d.source != vdd
            and d.source != gnd
            and d.drain != vdd
            and d.drain != gnd
            and not self.netlist.is_clock(d.gate)
            and not ctx.clock_open(d)
            and (d.gate not in stage.nodes or d.gate in stage.outputs)
        }
        if not select_of:
            return []
        targets = set(ctx.pulled_up)
        for boundary in stage.boundary:
            if not self.netlist.is_rail(boundary):
                targets.add(boundary)
        if not targets:
            return []

        # One labelled walk per (output, transition) serves every select.
        rise_adjacency = ctx.pass_adjacency(RISE)
        fall_adjacency = ctx.pass_adjacency(FALL)
        by_output = {
            output: (
                self._worst_timings(
                    output, targets, rise_adjacency, RISE, labels=select_of
                ),
                self._worst_timings(
                    output, targets, fall_adjacency, FALL, labels=select_of
                ),
            )
            for output in stage.outputs
        }
        arcs = []
        for trigger in dict.fromkeys(select_of.values()):
            for output in stage.outputs:
                if output == trigger:
                    continue
                rise_by_select, fall_by_select = by_output[output]
                rise = rise_by_select.get(trigger)
                fall = fall_by_select.get(trigger)
                if rise is None and fall is None:
                    continue
                arcs.append(
                    StageArc(
                        stage_index=stage.index,
                        trigger=trigger,
                        via="gate",
                        output=output,
                        inverting=False,
                        rise=rise,
                        fall=fall,
                    )
                )
        return arcs

    def _channel_arcs(self, ctx: StageContext):
        """Signal injected at an externally driven boundary channel node."""
        stage = ctx.stage
        arcs = []
        rise_adjacency = ctx.pass_adjacency(RISE)
        fall_adjacency = ctx.pass_adjacency(FALL)
        for boundary in stage.boundary:
            if self.netlist.is_rail(boundary):
                continue
            flows_in = any(
                dev.flows_into(dev.other_channel(boundary))
                or dev.flows_out_of(boundary)
                for dev in self.netlist.channel_devices(boundary)
                if dev.name in set(stage.device_names)
            )
            if not flows_in:
                continue
            for output in stage.outputs:
                rise = self._worst_timings(
                    output, {boundary}, rise_adjacency, RISE
                ).get(None)
                fall = self._worst_timings(
                    output, {boundary}, fall_adjacency, FALL
                ).get(None)
                if rise is None and fall is None:
                    continue
                arcs.append(
                    StageArc(
                        stage_index=stage.index,
                        trigger=boundary,
                        via="channel",
                        output=output,
                        inverting=False,
                        rise=rise,
                        fall=fall,
                    )
                )
        return arcs

    # ------------------------------------------------------------------
    # Conduction-edge construction.
    # ------------------------------------------------------------------
    def _is_precharge(self, dev: Transistor) -> bool:
        vdd = self.netlist.vdd
        return (
            dev.kind is DeviceKind.ENH
            and (dev.source == vdd or dev.drain == vdd)
            and self.netlist.is_clock(dev.gate)
        )

    def _pulled_up_nodes(
        self, stage: Stage, devices: list[Transistor]
    ) -> dict[str, float]:
        """Stage nodes with depletion pull-ups -> combined resistance.

        Includes both tied-gate loads and gated depletion followers
        (superbuffer output stages): for worst-case rise both act as the
        charging resistance from vdd.
        """
        result: dict[str, float] = {}
        for dev in devices:
            if dev.kind is not DeviceKind.DEP:
                continue
            if self.netlist.vdd not in dev.channel_nodes:
                continue
            node = dev.other_channel(self.netlist.vdd)
            if node not in stage.nodes:
                continue
            r = device_resistance(self.tech, dev, "pullup", RISE)
            if node in result:
                # Parallel loads combine.
                result[node] = 1.0 / (1.0 / result[node] + 1.0 / r)
            else:
                result[node] = r
        return result

    def _conduction_edges(
        self,
        stage: Stage,
        devices: list[Transistor],
        transition: str,
        cut: frozenset[str],
    ) -> list[tuple[str, str, float, str]]:
        """Resistive edges usable on a discharge path (pulldowns +
        passes), leaving out the devices in ``cut``."""
        edges = []
        vdd = self.netlist.vdd
        gnd = self.netlist.gnd
        for dev in devices:
            if dev.kind is not DeviceKind.ENH:
                continue
            source = dev.source
            drain = dev.drain
            if source == vdd or drain == vdd:
                continue  # precharge / vdd switches never discharge
            if dev.name in cut:
                continue
            if source == gnd or drain == gnd:
                r = device_resistance(self.tech, dev, "pulldown", transition)
            else:
                r = device_resistance(self.tech, dev, "pass", transition)
            edges.append((source, drain, r, dev.name))
        return edges

    def _pass_edges(
        self,
        stage: Stage,
        devices: list[Transistor],
        transition: str,
        cut: frozenset[str],
    ) -> list[tuple[str, str, float, str]]:
        """Resistive edges of the pass network only (no rail terminals),
        leaving out the devices in ``cut``."""
        edges = []
        vdd = self.netlist.vdd
        gnd = self.netlist.gnd
        for dev in devices:
            if dev.kind is not DeviceKind.ENH:
                continue
            source = dev.source
            drain = dev.drain
            if source == vdd or source == gnd or drain == vdd or drain == gnd:
                continue
            if dev.name in cut:
                continue
            r = device_resistance(self.tech, dev, "pass", transition)
            edges.append((source, drain, r, dev.name))
        return edges

    # ------------------------------------------------------------------
    # Path search and RC evaluation.
    # ------------------------------------------------------------------
    def _device_fact_map(self) -> dict[str, tuple]:
        """Per-device facts needed by adjacency construction, cached.

        Maps each device name to ``(gate, group, source, out_of_source,
        out_of_drain, source_is_boundary, drain_is_boundary)``.  Built once
        per calculator and kept across size edits (no fact depends on
        ``w``/``l``), so the flow/one-hot/boundary lookups run once per
        device instead of once per (stage, transition, edge).
        """
        facts = self._device_facts
        if facts is None:
            netlist = self.netlist
            boundary = {netlist.vdd, netlist.gnd}
            boundary.update(netlist.inputs)
            boundary.update(netlist.clocks)
            exclusive_group_of = netlist.exclusive_group_of
            facts = {}
            for name, dev in netlist.devices.items():
                unknown = dev.flow is FlowDirection.UNKNOWN
                facts[name] = (
                    dev.gate,
                    exclusive_group_of(dev.gate),
                    dev.source,
                    unknown or dev.flows_out_of(dev.source),
                    unknown or dev.flows_out_of(dev.drain),
                    dev.source in boundary,
                    dev.drain in boundary,
                )
            self._device_facts = facts
        return facts

    def _build_adjacency(
        self, edges: list[tuple[str, str, float, str]]
    ) -> dict[str, list[tuple]]:
        """Adjacency map with per-hop device facts pre-resolved.

        Each directed hop ``node -> neighbor`` is an 8-tuple
        ``(neighbor, r, name, gate, group, in_ok, out_ok, neighbor_is_boundary)``
        where ``in_ok`` means the device can carry signal ``neighbor ->
        node`` (the backward path searches) and ``out_ok`` means it can
        carry ``node -> neighbor`` (the branch BFS).  Resolving the device,
        its one-hot group, its flow legality, and the boundary test here --
        once per (stage, transition) -- removes four dict/method lookups
        per visited edge from every DFS/BFS inner loop.

        Every edge tuple is built as ``(source, drain, r, name)``, so the
        cached per-device facts apply directly (swapped when the device is
        walked drain-first).
        """
        facts = self._device_fact_map()
        adjacency: dict[str, list[tuple]] = {}
        for a, b, r, name in edges:
            gate, group, source, out_s, out_d, s_bnd, d_bnd = facts[name]
            if a == source:
                out_of_a, out_of_b = out_s, out_d
                a_boundary, b_boundary = s_bnd, d_bnd
            else:
                out_of_a, out_of_b = out_d, out_s
                a_boundary, b_boundary = d_bnd, s_bnd
            adjacency.setdefault(a, []).append(
                (b, r, name, gate, group, out_of_b, out_of_a, b_boundary)
            )
            adjacency.setdefault(b, []).append(
                (a, r, name, gate, group, out_of_a, out_of_b, a_boundary)
            )
        return adjacency

    def _worst_paths(
        self,
        start: str,
        targets: set[str],
        adjacency: dict,
        *,
        labels: dict[str, str] | None = None,
        respect_flow: bool = True,
    ) -> tuple[dict, bool]:
        """Maximum-resistance simple paths from ``start`` to a target.

        The calculator's one path search.  It walks *backward* from the
        measured output toward the driving point, so with ``respect_flow``
        a hop from ``node`` to ``neighbor`` requires the device to conduct
        signal ``neighbor -> node``; this is what prevents physically
        meaningless paths that snake against the inferred signal flow.  A
        walk never enters a boundary node other than a target, and
        one-hot assertions (:meth:`Netlist.add_exclusive_group`) prune
        paths that would need two mutually exclusive switches closed.  A
        target counts only after at least one hop, so an output that is
        itself a driving point still reaches the others.

        ``labels`` maps device names to labels, and a path carries the
        labels of its devices.  The result maps every carried label to the
        worst path carrying it; without ``labels`` every path carries the
        one label ``None``.  Ties keep the path found first.  Each path is
        an edge list ordered from ``start`` toward the target.  The flag
        is set when the walk stopped at ``max_paths`` target hits.
        """
        best: dict = {}
        if start not in adjacency or targets <= {start}:
            return best, False
        best_r: dict = {}
        examined = 0
        truncated = False
        max_paths = self.max_paths
        path: list[tuple[str, str, float, str]] = []
        visited = {start}
        groups_used: dict[int, str] = {}

        def dfs(node: str, r_sum: float) -> None:
            nonlocal examined, truncated
            if examined >= max_paths:
                truncated = True
                return
            if node in targets and path:
                examined += 1
                if labels is None:
                    carried = (None,)
                else:
                    carried = {labels.get(edge[3]) for edge in path}
                    carried.discard(None)
                hit = None
                for label in carried:
                    if r_sum > best_r.get(label, -1.0):
                        if hit is None:
                            hit = list(path)
                        best_r[label] = r_sum
                        best[label] = hit
                return
            for (
                neighbor,
                r,
                name,
                gate,
                group,
                in_ok,
                _out_ok,
                neighbor_boundary,
            ) in adjacency.get(node, ()):
                if neighbor in visited:
                    continue
                if neighbor_boundary and neighbor not in targets:
                    continue
                if respect_flow and not in_ok:
                    continue
                if group is not None:
                    used = groups_used.get(group)
                    if used is not None and used != gate:
                        continue
                    fresh_group = used is None
                    if fresh_group:
                        groups_used[group] = gate
                else:
                    fresh_group = False
                visited.add(neighbor)
                path.append((node, neighbor, r, name))
                dfs(neighbor, r_sum + r)
                path.pop()
                visited.discard(neighbor)
                if fresh_group:
                    del groups_used[group]

        dfs(start, 0.0)
        return best, truncated

    def _worst_timings(
        self,
        start: str,
        targets: set[str],
        adjacency: dict,
        transition: str,
        *,
        labels: dict[str, str] | None = None,
        respect_flow: bool = True,
    ) -> dict:
        """:meth:`_worst_paths`, each path evaluated as an RC tree.

        The tree root is the reached target (the driving point); the path
        is the spine, and every other edge of ``adjacency`` hangs
        capacitive branches.  Labels sharing a path share its timing.
        """
        best, truncated = self._worst_paths(
            start, targets, adjacency, labels=labels, respect_flow=respect_flow
        )
        timings: dict = {}
        by_path: dict[int, ArcTiming] = {}
        for label, path_edges in best.items():
            timing = by_path.get(id(path_edges))
            if timing is None:
                timing = self._spine_timing(
                    [], path_edges, start, adjacency, transition, truncated
                )
                by_path[id(path_edges)] = timing
            timings[label] = timing
        return timings

    def _rise_from_vdd(
        self,
        head: tuple[str, str, float, str],
        output: str,
        search_adjacency: dict,
        branch_adjacency: dict,
    ) -> ArcTiming | None:
        """Rise of ``output`` charged from vdd through the ``head`` edge.

        ``head`` is ``(vdd, node, r, name)``: a load, precharge device or
        follower charging ``node``.  The rest of the spine is the worst
        path in ``search_adjacency`` from ``output`` back to ``node``
        (none when ``output`` is ``node``); ``branch_adjacency`` hangs the
        branches.  None if ``output`` cannot reach ``node``.
        """
        node = head[1]
        path_edges: list = []
        truncated = False
        if output != node:
            best, truncated = self._worst_paths(
                output, {node}, search_adjacency
            )
            path_edges = best.get(None)
            if path_edges is None:
                return None
        return self._spine_timing(
            [head], path_edges, output, branch_adjacency, RISE, truncated
        )

    def _spine_timing(
        self,
        head: list[tuple[str, str, float, str]],
        path_edges: list[tuple[str, str, float, str]],
        output: str,
        adjacency: dict,
        transition: str,
        truncated: bool,
    ) -> ArcTiming:
        """Time the spine ``head`` + ``path_edges`` reversed, root first.

        ``path_edges`` run from ``output`` toward the driving point, as
        :meth:`_worst_paths` returns them; the spine must run root ->
        ``output``.
        """
        spine = head + [
            (b, a, r, name) for (a, b, r, name) in reversed(path_edges)
        ]
        timing = self._timing_from_spine(spine, output, adjacency, transition)
        return _mark_truncated(timing) if truncated else timing

    def _spine_groups(
        self, spine: list[tuple[str, str, float, str]]
    ) -> dict[int, str]:
        """One-hot groups asserted by the gates of the spine devices."""
        spine_groups: dict[int, str] = {}
        devices = self.netlist.devices
        exclusive_group_of = self.netlist.exclusive_group_of
        for _p, _c, _r, name in spine:
            dev = devices.get(name)
            if dev is not None:
                group = exclusive_group_of(dev.gate)
                if group is not None:
                    spine_groups[group] = dev.gate
        return spine_groups

    def _edge_recipe(
        self, parent: str, child: str, name: str, transition: str
    ) -> tuple:
        """Symbolic atom reproducing one spine edge's resistance.

        Derived structurally, mirroring how the edge builders assign
        roles: a synthetic ``load@node`` head is the pull-up combine; a
        real device from vdd is a follower pull-up (DEP) or precharge
        (ENH); a rail-touching enhancement device is a pulldown; all
        other edges are pass transfers (conduction and pass edge lists
        both exclude the remaining cases).
        """
        dev = self.netlist.devices.get(name)
        if dev is None:
            # _rise_via_pullup's synthetic "load@node" head.
            return ("load", child)
        vdd = self.netlist.vdd
        if parent == vdd:
            if dev.kind is DeviceKind.DEP:
                return ("res", name, "pullup", RISE)
            return ("res", name, "precharge", RISE)
        if self.netlist.gnd in (dev.source, dev.drain):
            return ("res", name, "pulldown", transition)
        return ("res", name, "pass", transition)

    def _timing_from_spine(
        self,
        spine: list[tuple[str, str, float, str]],
        output: str,
        adjacency: dict,
        transition: str,
    ) -> ArcTiming:
        """Evaluate the configured delay metric for a spine's RC tree.

        The spine is the resistive path from the driving point (``root``,
        the first spine node) to ``output``; every other conducting edge
        of ``adjacency`` hangs a capacitive branch.  Branch traversal
        follows signal flow outward from the spine, never crosses rails or
        boundary nodes (incompressible sources), and honours one-hot
        assertions against the gates used on the spine.

        For the default Elmore model the metric is folded into the tree
        walk itself (no tree object): every spine node lies on the
        root-to-``output`` path so it contributes ``r_root * C``, and every
        branch node shares exactly what its attachment point shares.  The
        accumulation visits nodes in the same order as the explicit
        :class:`RCTree` path below, so the two produce bit-identical
        delays.

        With ``self.parametric`` set the walk additionally records a
        replayable term: the spine resistances as symbolic atoms
        (:meth:`_edge_recipe`; ``transition`` is that of the edge set the
        spine came from) and every visited node's prefix index, in visit
        order, so
        :mod:`repro.delay.parametric` can re-run the identical
        arithmetic at any technology point.
        """
        if self.model != "elmore":
            return self._timing_from_spine_tree(spine, output, adjacency)
        build_term = self.parametric
        root = spine[0][0]
        node_cap = self._node_cap
        used_devices = []
        r_root = 0.0
        # shared[k] = resistance common to the root->k and root->output
        # paths; doubles as the visited set.
        shared: dict[str, float] = {root: 0.0}
        tau = 0.0
        if build_term:
            recipes = []
            contribs = []
            # idx_of[k]: index into the replayed prefix-resistance list
            # whose entry equals shared[k] (root is prefix 0).
            idx_of = {root: 0}
        for _parent, child, r, name in spine:
            r_root += r
            shared[child] = r_root
            if build_term:
                recipes.append(
                    self._edge_recipe(_parent, child, name, transition)
                )
                idx_of[child] = len(recipes)
                contribs.append((len(recipes), child))
            cap = node_cap(child)
            if cap != 0.0:
                tau += r_root * cap
            used_devices.append(name)
        r_output = r_root

        spine_groups = self._spine_groups(spine)
        frontier = deque(child for _p, child, _r, _n in spine)
        while frontier:
            current = frontier.popleft()
            current_shared = shared[current]
            for (
                neighbor,
                _r,
                _name,
                gate,
                group,
                _in_ok,
                out_ok,
                neighbor_boundary,
            ) in adjacency.get(current, ()):
                if neighbor in shared or neighbor_boundary:
                    continue
                if not out_ok:
                    continue
                if group is not None and spine_groups.get(group, gate) != gate:
                    continue
                shared[neighbor] = current_shared
                if build_term:
                    idx = idx_of[current]
                    idx_of[neighbor] = idx
                    contribs.append((idx, neighbor))
                cap = node_cap(neighbor)
                if cap != 0.0:
                    tau += current_shared * cap
                frontier.append(neighbor)

        k = self._k_factor(root)
        if root == self.netlist.gnd:
            # Ratioed fight: see _timing_from_spine_tree.
            k *= self._ratio_derate(output, r_output)
        path = tuple(used_devices)
        term = None
        if build_term:
            term = (
                "spine",
                tuple(recipes),
                tuple(contribs),
                root,
                output,
                path,
                False,
            )
        return ArcTiming(delay=k * tau, tau=tau, path=path, term=term)

    def _timing_from_spine_tree(
        self,
        spine: list[tuple[str, str, float, str]],
        output: str,
        adjacency: dict,
    ) -> ArcTiming:
        """General-model path: build the RC tree explicitly, then evaluate."""
        root = spine[0][0]
        tree = RCTree(root)
        used_devices = []
        for parent, child, r, name in spine:
            tree.add_child(parent, child, r, self._node_cap(child))
            used_devices.append(name)

        spine_groups = self._spine_groups(spine)
        frontier = deque(child for _p, child, _r, _n in spine)
        while frontier:
            current = frontier.popleft()
            for (
                neighbor,
                r,
                name,
                gate,
                group,
                _in_ok,
                out_ok,
                neighbor_boundary,
            ) in adjacency.get(current, ()):
                if neighbor in tree or neighbor_boundary:
                    continue
                if not out_ok:
                    continue
                if group is not None and spine_groups.get(group, gate) != gate:
                    continue
                tree.add_child(current, neighbor, r, self._node_cap(neighbor))
                frontier.append(neighbor)

        tau = elmore_delay(tree, output)
        k = self._k_factor(root)
        if root == self.netlist.gnd:
            # Ratioed fight: the depletion pull-up keeps sourcing current
            # while the pull-down path discharges the node, stretching the
            # fall.  First-order factor R_up / (R_up - R_down), clamped --
            # a legal ratio guarantees R_up >> R_down, and ERC catches the
            # rest.
            k *= self._ratio_derate(output, tree.r_root(output))
        if self.model == "elmore":
            delay = k * tau
        elif self.model == "lumped":
            delay = k * lumped_delay(tree, output)
        elif self.model == "pr-min":
            delay = pr_bounds(tree, output, _CROSSING).lower * (
                k / math.log(2.0)
            )
        else:  # pr-max
            delay = pr_bounds(tree, output, _CROSSING).upper * (
                k / math.log(2.0)
            )
        return ArcTiming(delay=delay, tau=tau, path=tuple(used_devices))

    def _ratio_derate(self, output: str, r_down: float) -> float:
        """Fall-delay stretch from the pull-up fighting the discharge."""
        r_up = None
        for dev in self.netlist.channel_devices(output):
            if dev.kind is not DeviceKind.DEP:
                continue
            if dev.other_channel(output) != self.netlist.vdd:
                continue
            r = device_resistance(self.tech, dev, "pullup", RISE)
            r_up = r if r_up is None else 1.0 / (1.0 / r_up + 1.0 / r)
        if r_up is None or r_up <= r_down:
            return 1.5 if r_up is not None else 1.0
        return min(1.5, r_up / (r_up - r_down))

    def _k_factor(self, root: str) -> float:
        """Calibration factor: rising transitions (from vdd) are slower."""
        if root == self.netlist.vdd:
            return self.tech.k_rise
        if root == self.netlist.gnd:
            return self.tech.k_fall
        # Pass transfer from a driven node: between the two; use rise factor
        # (the conservative choice).
        return self.tech.k_rise

    def _node_cap(self, name: str) -> float:
        cached = self._cap_cache.get(name)
        if cached is None:
            if self.netlist.is_rail(name):
                cached = 0.0  # rails are incompressible sources
            else:
                cached = self.netlist.node_capacitance(name, self.tech)
            self._cap_cache[name] = cached
        return cached

    def _rise_via_pullup(
        self, ctx: StageContext, output: str
    ) -> ArcTiming | None:
        """Worst rise of ``output``: vdd -> load -> pass path -> output."""
        adjacency = ctx.pass_adjacency(RISE)
        best: ArcTiming | None = None
        for node, r_load in ctx.pulled_up.items():
            timing = self._rise_from_vdd(
                (self.netlist.vdd, node, r_load, f"load@{node}"),
                output,
                adjacency,
                adjacency,
            )
            if timing is None:
                continue
            # _worse keeps the incumbent on ties, exactly like the
            # strict `>` comparison this replaces, and wraps the terms
            # in a "max" node so corners re-decide the winner.
            best = timing if best is None else _worse(best, timing)
        return best

    def _driving_terminal(self, dev: Transistor) -> str | None:
        """The channel terminal signal flows out of (None if unresolved)."""
        if dev.flows_out_of(dev.source) and not dev.flows_out_of(dev.drain):
            return dev.source
        if dev.flows_out_of(dev.drain) and not dev.flows_out_of(dev.source):
            return dev.drain
        # Bidirectional: pick the terminal that looks driven (pull-up or
        # boundary); fall back to the source.
        for terminal in dev.channel_nodes:
            if self.netlist.is_boundary(terminal) or self.netlist.has_pullup(
                terminal
            ):
                return terminal
        return dev.source


# ----------------------------------------------------------------------
# Persistent process-pool plumbing.  One module-level fork pool is
# lazily started on the first parallel sweep and *reused* across
# ``all_arcs`` calls, clock corners, and repeated runs of the same
# calculator, so fork+import cost is paid once instead of per sweep.
# With a fork start method the initializer's calculator argument is
# inherited by memory copy (never pickled); per-task traffic is only
# the chunk's stage indices down and compact arc tuples back.  The pool
# is keyed on ``(calculator token, invalidation epoch)`` -- a different
# calculator, or a device edit on the same one, rebinds it to a fresh
# snapshot automatically.
# ----------------------------------------------------------------------


class _PersistentPool:
    """Owner of the module's single reusable extraction pool.

    This is a **bounded registry of capacity one**: ``acquire`` hands
    back a live executor bound to the requesting calculator's current
    snapshot, and when a *different* calculator (or a wider width)
    binds, the previous pool is evicted -- shut down and its workers
    terminated -- before the new one starts, so a sweep over many
    calculators can never accumulate one forked pool per calculator
    with only atexit cleanup.  ``discard`` poisons the pool the same
    way, so hung or crashed workers are never reused and never
    orphaned.  ``pools_started``/``pools_evicted`` in
    :meth:`diagnostics` audit this invariant: their difference is the
    number of live pools, which never exceeds one.

    All mutation happens in the owning parent process: a forked child
    inherits the bookkeeping by memory copy but the owner-pid guard
    turns its ``discard`` into a reference drop, so a worker can never
    tear down its parent's executor.
    """

    def __init__(self) -> None:
        self._executor: concurrent.futures.ProcessPoolExecutor | None = None
        self._binding: tuple[int, int] | None = None
        self._max_workers = 0
        self._owner_pid: int | None = None
        self._runs = itertools.count(1)
        self._started = 0
        self._evicted = 0

    def warm_for(self, calc: "StageDelayCalculator") -> bool:
        """True if a sweep for ``calc`` would reuse live workers."""
        return (
            self._executor is not None
            and self._owner_pid == os.getpid()
            and self._binding == (calc._pool_token, calc._pool_epoch)
        )

    def acquire(
        self, calc: "StageDelayCalculator", workers: int
    ) -> tuple[concurrent.futures.ProcessPoolExecutor, bool]:
        """A live executor for ``calc``; second element is ``warm``."""
        if self.warm_for(calc) and self._max_workers >= workers:
            return self._executor, True
        self.discard()
        self._executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_pool_init,
            initargs=(calc,),
        )
        self._binding = (calc._pool_token, calc._pool_epoch)
        self._max_workers = workers
        self._owner_pid = os.getpid()
        self._started += 1
        return self._executor, False

    def next_run_token(self) -> int:
        """Fresh token marking one pooled sweep (workers drop stale
        per-corner arcs when it changes)."""
        return next(self._runs)

    def discard(self) -> None:
        """Terminate and forget the pool.  Idempotent, parent-only.

        Never blocks on a hung worker: outstanding work is abandoned and
        any process still alive is terminated, so injected hangs cannot
        stall interpreter shutdown and no worker outlives the pool.
        """
        executor, self._executor = self._executor, None
        owner, self._owner_pid = self._owner_pid, None
        self._binding = None
        self._max_workers = 0
        if executor is None or owner != os.getpid():
            # A forked child inherits a *reference* to the parent's
            # executor; dropping it is all a child may ever do.
            return
        procs = list((getattr(executor, "_processes", None) or {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        self._evicted += 1

    def diagnostics(self) -> dict:
        """JSON-friendly snapshot of the pool state (tests, bench).

        ``pools_started - pools_evicted`` counts the pools currently
        alive in this process; the capacity-one registry keeps it at 0
        or 1 -- a multi-calculator (e.g. multi-corner) sweep can never
        leave more than one pool behind.
        """
        return {
            "live": self._executor is not None,
            "max_workers": self._max_workers,
            "owner_pid": self._owner_pid,
            "binding": list(self._binding) if self._binding else None,
            "pools_started": self._started,
            "pools_evicted": self._evicted,
        }


_POOL = _PersistentPool()


def shutdown_pool() -> None:
    """Terminate the persistent extraction pool, if any.

    Idempotent and registered with :mod:`atexit`, so interpreter exit --
    including an exit forced by ``KeyboardInterrupt`` -- always reaps
    the workers.  Safe to call at any time; the next parallel sweep
    simply cold-starts a fresh pool.
    """
    _POOL.discard()


atexit.register(shutdown_pool)


def install_sigterm_cleanup() -> bool:
    """Make SIGTERM reap the persistent pool before the process dies.

    atexit covers normal interpreter exit and ``KeyboardInterrupt``, but a
    containerized run is stopped with SIGTERM, whose default disposition
    kills the process *without* running atexit hooks -- leaking fork-pool
    workers as orphans.  This installs a handler that shuts the pool down,
    restores the default disposition, and re-raises the signal against the
    process itself so the observed exit status stays ``128 + SIGTERM``.

    Installed at import time, but only when it cannot stomp on anyone
    else: the handler goes in solely if the current disposition is the
    default one and we are on the main thread (signal handlers cannot be
    set elsewhere).  Returns ``True`` if the handler was installed.
    Applications that set their own SIGTERM handler (e.g. ``repro
    serve``) are responsible for calling :func:`shutdown_pool` in it.
    """
    if threading.current_thread() is not threading.main_thread():
        return False
    try:
        current = signal.getsignal(signal.SIGTERM)
    except (ValueError, AttributeError):  # pragma: no cover - exotic host
        return False
    if current is not signal.SIG_DFL:
        return False

    def _on_sigterm(signum, frame):  # pragma: no cover - exercised in a
        # subprocess by tests/test_serve_faults.py (coverage can't see it)
        shutdown_pool()
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except (ValueError, OSError):  # pragma: no cover - non-main interp
        return False
    return True


install_sigterm_cleanup()


def pool_diagnostics() -> dict:
    """Snapshot of the persistent pool (liveness, width, owner, binding)."""
    return _POOL.diagnostics()


#: Worker-side state: the fork-inherited calculator snapshot, per-corner
#: retargeted views of it, and the run token of the sweep the worker
#: last extracted for.
_POOL_CALC: "StageDelayCalculator | None" = None
_POOL_RETARGETED: "dict[tuple[Technology, bool], StageDelayCalculator]" = {}
_POOL_RUN_TOKEN: int | None = None


def _pool_init(calc: "StageDelayCalculator") -> None:
    """Adopt the fork-inherited calculator snapshot (once per worker).

    The netlist, stage graph, and warm per-device caches arrive by fork
    memory copy -- nothing is pickled -- and because the child shares
    the parent's str-hash seed, every set-iteration order matches the
    parent's, keeping extracted arc lists bit-identical to serial
    extraction.  The inherited pool bookkeeping is dropped so a worker
    can never touch its parent's executor.

    The parent's signal handlers are dropped too.  A worker inherits,
    say, ``repro serve``'s graceful-shutdown handler; run in the worker,
    it would drain a server the worker does not own and leave the worker
    alive after its owner terminates it, stalling the owner's exit while
    the executor joins it.  A worker dies on SIGTERM, and ignores SIGINT
    (a terminal's Ctrl-C reaches the whole process group; the owner
    handles it and reaps its workers).
    """
    global _POOL_CALC, _POOL_RUN_TOKEN
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _POOL_CALC = calc
    _POOL_RETARGETED.clear()
    _POOL_RUN_TOKEN = None
    _POOL.discard()  # child side: reference drop only (owner-pid guard)


def _pool_calc_for(
    tech: Technology, parametric: bool
) -> "StageDelayCalculator":
    """The worker's calculator view for ``(tech, parametric)``.

    An MCMM sweep fans scenarios over one fixed pool; the fork snapshot
    holds the *base* corner, and other corners (or the symbolic flavour
    of the base corner) are served by retargeted views built on first
    use (sharing the snapshot's structural facts) and kept for the rest
    of the pool's life -- each keeps its own corner-specific delay
    caches warm across sweeps.
    """
    calc = _POOL_CALC
    assert calc is not None
    if tech == calc.tech and parametric == calc.parametric:
        return calc
    key = (tech, parametric)
    view = _POOL_RETARGETED.get(key)
    if view is None:
        view = calc.retarget(tech)
        view.parametric = parametric
        _POOL_RETARGETED[key] = view
    return view


def _pool_extract(
    run_token: int,
    tech: Technology,
    parametric: bool,
    active_clocks: frozenset[str] | None,
    open_gates: frozenset[str],
    indices: list[int],
) -> list[tuple[int, list[tuple]]]:
    # The fault points are no-ops in production; the testing harness uses
    # them to crash/hang this worker or corrupt its return value (fork
    # workers inherit the installed handler by memory copy).
    global _POOL_RUN_TOKEN
    if run_token != _POOL_RUN_TOKEN:
        # New sweep: drop arcs cached by earlier sweeps so repeated
        # measurements do honest work.  Device facts and node-cap caches
        # persist -- amortizing those is the pool's entire point.
        assert _POOL_CALC is not None
        _POOL_CALC._arc_cache.clear()
        for view in _POOL_RETARGETED.values():
            view._arc_cache.clear()
        _POOL_RUN_TOKEN = run_token
    calc = _pool_calc_for(tech, parametric)
    out = []
    for index in indices:
        robust.fault_point("worker-task", index)
        arcs = calc.arcs(calc.graph[index], active_clocks, open_gates)
        out.append((index, _arcs_to_wire(arcs)))
    return robust.fault_point("worker-result", out)


def _timing_to_wire(timing: ArcTiming | None) -> tuple | None:
    return (
        None
        if timing is None
        else (
            timing.delay,
            timing.tau,
            timing.path,
            timing.truncated,
            timing.term,
        )
    )


def _timing_from_wire(wire: tuple | None) -> ArcTiming | None:
    if wire is None:
        return None
    delay, tau, path, truncated, term = wire
    return ArcTiming(
        delay=delay, tau=tau, path=path, truncated=truncated, term=term
    )


def _arcs_to_wire(arcs: list[StageArc]) -> list[tuple]:
    """Compact cross-process encoding: plain tuples, no dataclass pickles."""
    return [
        (
            arc.trigger,
            arc.via,
            arc.output,
            arc.inverting,
            _timing_to_wire(arc.rise),
            _timing_to_wire(arc.fall),
        )
        for arc in arcs
    ]


def _arcs_from_wire(index: int, wire_arcs: list[tuple]) -> list[StageArc]:
    return [
        StageArc(
            stage_index=index,
            trigger=trigger,
            via=via,
            output=output,
            inverting=inverting,
            rise=_timing_from_wire(rise),
            fall=_timing_from_wire(fall),
        )
        for trigger, via, output, inverting, rise, fall in wire_arcs
    ]


def _valid_pool_result(extracted, chunk) -> bool:
    """Structural corrupt-return detection for one pool chunk.

    The parent only trusts a worker return that is exactly a list of
    ``(requested stage index, list of 6-tuple wire arcs)`` pairs covering
    the chunk; anything else is discarded (and retried) rather than
    poisoning the arc cache -- the cache must stay bit-identical to
    serial extraction.
    """
    if not isinstance(extracted, list) or len(extracted) != len(chunk):
        return False
    expected = set(chunk)
    for item in extracted:
        if not (isinstance(item, tuple) and len(item) == 2):
            return False
        index, wire_arcs = item
        if index not in expected:
            return False
        if not isinstance(wire_arcs, list):
            return False
        if not all(
            isinstance(wire, tuple) and len(wire) == 6
            for wire in wire_arcs
        ):
            return False
    return True


def _swallow_result(future) -> None:
    """Retrieve an abandoned future's outcome so it is never logged."""
    try:
        future.exception()
    except Exception:
        pass


def _merge_arcs(arcs: list[StageArc]) -> list[StageArc]:
    """Deduplicate arcs by (trigger, output, inverting), keeping worst."""
    merged: dict[tuple[str, str, bool], StageArc] = {}
    for arc in arcs:
        key = (arc.trigger, arc.output, arc.inverting)
        existing = merged.get(key)
        if existing is None:
            merged[key] = arc
            continue
        merged[key] = StageArc(
            stage_index=arc.stage_index,
            trigger=arc.trigger,
            via="gate" if "gate" in (arc.via, existing.via) else arc.via,
            output=arc.output,
            inverting=arc.inverting,
            rise=_worse(existing.rise, arc.rise),
            fall=_worse(existing.fall, arc.fall),
        )
    return list(merged.values())


def _worse(a: ArcTiming | None, b: ArcTiming | None) -> ArcTiming | None:
    if a is None:
        return b
    if b is None:
        return a
    winner = a if a.delay >= b.delay else b
    if a.term is not None and b.term is not None and a.term is not b.term:
        # Parametric mode: record the contest, not just today's winner --
        # another corner may decide it the other way.  The incumbent
        # (a) goes first so evaluation replays the same tie rule.
        return replace(winner, term=("max", a.term, b.term))
    return winner


def _mark_truncated(timing: ArcTiming) -> ArcTiming:
    """Set ``truncated`` on a timing and inside its spine term, if any."""
    term = timing.term
    if term is not None and term[0] == "spine":
        term = term[:6] + (True,)
        return replace(timing, truncated=True, term=term)
    return replace(timing, truncated=True)
