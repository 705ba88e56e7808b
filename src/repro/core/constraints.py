"""Two-phase clock verification.

For a two-phase non-overlapping design, TV answered three questions the
designers could not get from simulation without exhaustive vectors:

1. **How wide must each phase be?**  Everything that moves during phi-k --
   launched by the phase's clock edge or flowing out of the previous
   phase's latches -- must settle before phi-k falls.  The minimum width of
   the phase is the latest arrival at any node captured during the phase.
2. **What is the minimum cycle time?**  Both minimum widths plus the two
   non-overlap gaps.
3. **Are there races?**  A signal must never cross two latches of the *same*
   phase in one traversal (it would race through both while the phase is
   high).  We check this structurally: reachability from a phase's storage
   nodes back into another latch of the same phase, both across stages
   (through the timing graph) and within one stage (through the conduction
   network).

Per-phase analysis re-extracts timing arcs with only that phase's clocks
active, so conduction through the other phase's latches is cut -- this is
what makes a two-phase pipeline acyclic phase by phase.

An :class:`AnalysisMemo` carries what a width/length edit cannot change
from one verification to the next: the clock qualification of each phase,
the latches and storage nodes of each phase, and each phase's race list
(while its timing graph keeps its shape); and each clock context's timing
graph and arrivals, which the next run patches and re-propagates instead
of rebuilding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..clocks import TwoPhaseClock
from ..delay import FALL, RISE, StageArc, StageDelayCalculator
from ..errors import ClockingError
from ..netlist import DeviceKind, Netlist, Transistor
from ..trace import NULL_TRACE, Trace
from .arrival import ArrivalMap, propagate
from .graph import TimingGraph
from .paths import TimingPath, critical_paths

__all__ = [
    "AnalysisMemo",
    "PhaseResult",
    "RaceViolation",
    "ClockVerification",
    "latch_devices",
    "storage_nodes_of_phase",
    "verify_two_phase",
]


@dataclass(frozen=True)
class RaceViolation:
    """Signal can cross two same-phase latches in one phase."""

    phase: str
    from_node: str
    to_node: str
    kind: str  # "cross-stage" or "same-stage"

    def __str__(self) -> str:
        return (
            f"race ({self.kind}): {self.from_node} -> {self.to_node} "
            f"through two {self.phase} latches"
        )


@dataclass
class PhaseResult:
    """Analysis of one clock phase."""

    phase: str
    arrivals: ArrivalMap
    width: float
    storage_written: frozenset[str]
    critical: TimingPath | None
    cut_arc_count: int = 0

    def violations_at_width(self, width: float) -> list[TimingPath]:
        """Capture-set arrivals that do not fit in a given phase width."""
        late = []
        for path in critical_paths(
            self.arrivals, set(self.storage_written) or None, k=10**9
        ):
            if path.arrival > width:
                late.append(path)
        return late


@dataclass
class ClockVerification:
    """Complete two-phase verification outcome.

    ``overlap_margins`` (one per phase direction) give the maximum clock
    overlap the design tolerates before data races through two latches --
    see :mod:`repro.core.mindelay`.
    """

    clock: TwoPhaseClock
    phases: dict[str, PhaseResult] = field(default_factory=dict)
    races: list[RaceViolation] = field(default_factory=list)
    overlap_margins: list = field(default_factory=list)

    @property
    def min_cycle(self) -> float:
        widths = [self.phases[p].width for p in self.clock.phases]
        return self.clock.cycle_time(*widths)

    def summary(self, time_unit: float = 1e-9, unit_name: str = "ns") -> str:
        """Human-readable verification report (widths, cycle, races)."""
        lines = ["two-phase clock verification"]
        for phase in self.clock.phases:
            result = self.phases[phase]
            lines.append(
                f"  min width {phase}: "
                f"{result.width / time_unit:.3f} {unit_name} "
                f"({len(result.storage_written)} capture nodes)"
            )
        lines.append(
            f"  non-overlap gap: "
            f"{self.clock.nonoverlap / time_unit:.3f} {unit_name} (x2)"
        )
        lines.append(
            f"  min cycle time : {self.min_cycle / time_unit:.3f} {unit_name}"
        )
        if self.races:
            lines.append(f"  RACES: {len(self.races)}")
            lines.extend(f"    {race}" for race in self.races)
        else:
            lines.append("  races: none")
        for margin in self.overlap_margins:
            lines.append(f"  {margin.describe()}")
        return "\n".join(lines)


def qualified_low_nodes(
    netlist: Netlist, clock: TwoPhaseClock, phase: str
) -> frozenset[str]:
    """Control nodes provably low while ``phase`` is high.

    TV's *clock qualification* analysis: with the phase's clocks at 1, the
    opposite phase at 0, and every data input unknown, any node that
    settles to a definite 0 is a qualified clock that cannot enable its
    switches during this phase (a read word line ``dec AND phi2`` during
    phi1, for example).  Computed with the three-valued switch-level
    simulator, so only *provable* constants qualify.  Falls back to the
    empty set if the circuit does not settle (oscillating feedback).
    """
    from ..sim.switchsim import SwitchSim  # local import: avoid cycle

    sim = SwitchSim(netlist)
    assignments: dict[str, object] = {}
    for node, node_phase in netlist.clocks.items():
        assignments[node] = 1 if node_phase == phase else 0
    try:
        sim.set_inputs(assignments)
        sim.settle()
    except Exception:
        return frozenset()
    low = frozenset(
        name
        for name in netlist.nodes
        if sim.value(name) == 0
        and netlist.gate_loads(name)
        and not netlist.is_rail(name)
        and name not in netlist.clocks
    )
    return low


class AnalysisMemo:
    """What one analyzer reuses from one analysis to the next.

    These read no device size, so they hold until the topology changes
    (scenario siblings share them, see :meth:`sibling`):

    * ``settled`` -- :func:`qualified_low_nodes` per phase;
    * ``latches`` -- :func:`latch_devices` per clock set;
    * ``storage`` -- the nodes the latches of a clock set write;
    * ``stage_of_device`` -- device name -> stage index.

    Kept per analyzer:

    * ``graphs`` -- the timing graph of each clock context (a phase name,
      or None for the all-transparent view); :meth:`graph` patches it when
      the arcs keep their shape and builds afresh otherwise;
    * ``arrivals`` -- the last map of each propagation run, the ``prior``
      the next run re-propagates from;
    * ``races`` -- each phase's race list with the graph it was found on.
      A patch keeps every arc's trigger and output, hence reachability,
      so the list holds while :meth:`graph` returns that same object.

    Trace counters: ``settle_runs``, ``graph_builds``, ``graph_patches``.
    """

    def __init__(self, trace: Trace = NULL_TRACE):
        self.trace = trace
        self.settled: dict[str, frozenset[str]] = {}
        self.latches: dict[frozenset[str], list[Transistor]] = {}
        self.storage: dict[frozenset[str], frozenset[str]] = {}
        self.stage_of_device: dict[str, int] = {}
        self.graphs: dict[str | None, TimingGraph] = {}
        self.arrivals: dict[tuple, ArrivalMap] = {}
        self.races: dict[str, tuple[TimingGraph, list[RaceViolation]]] = {}

    def sibling(self) -> "AnalysisMemo":
        """A memo for a scenario sibling: it shares the size-independent
        parts with this one and keeps its own graphs, arrivals and
        races."""
        memo = AnalysisMemo(self.trace)
        memo.settled = self.settled
        memo.latches = self.latches
        memo.storage = self.storage
        memo.stage_of_device = self.stage_of_device
        return memo

    def open_gates(
        self, netlist: Netlist, clock: TwoPhaseClock, phase: str
    ) -> frozenset[str]:
        """:func:`qualified_low_nodes` for ``phase``, settled once."""
        low = self.settled.get(phase)
        if low is None:
            low = qualified_low_nodes(netlist, clock, phase)
            self.settled[phase] = low
            self.trace.incr("settle_runs")
        return low

    def latches_of(
        self, netlist: Netlist, clocks: frozenset[str]
    ) -> list[Transistor]:
        """:func:`latch_devices` for ``clocks``, scanned once."""
        latches = self.latches.get(clocks)
        if latches is None:
            latches = latch_devices(netlist, clocks)
            self.latches[clocks] = latches
        return latches

    def storage_of(
        self, netlist: Netlist, clock: TwoPhaseClock, phase: str
    ) -> frozenset[str]:
        """:func:`storage_nodes_of_phase`, found once per clock set."""
        clocks = clock.clock_nodes(netlist, phase)
        storage = self.storage.get(clocks)
        if storage is None:
            storage = _written_nodes(netlist, self.latches_of(netlist, clocks))
            self.storage[clocks] = storage
        return storage

    def stage_map(self, calculator: StageDelayCalculator) -> dict[str, int]:
        """Device name -> index of its stage, built once."""
        if not self.stage_of_device:
            self.stage_of_device.update(
                (name, stage.index)
                for stage in calculator.graph
                for name in stage.device_names
            )
        return self.stage_of_device

    def graph(self, context: str | None, arcs: list[StageArc]) -> TimingGraph:
        """The timing graph of ``context`` over ``arcs``: the kept graph
        patched in place when it can be, else a fresh build."""
        graph = self.graphs.get(context)
        if graph is not None and graph.patch(arcs):
            self.trace.incr("graph_patches")
            return graph
        graph = TimingGraph.build(arcs)
        self.graphs[context] = graph
        self.trace.incr("graph_builds")
        return graph


def latch_devices(netlist: Netlist, phase_clocks: frozenset[str]) -> list[Transistor]:
    """Clock-gated pass switches gated by the given clocks."""
    result = []
    for dev in netlist.devices.values():
        if dev.kind is not DeviceKind.ENH:
            continue
        if dev.gate not in phase_clocks:
            continue
        if netlist.vdd in dev.channel_nodes:
            continue  # precharge device, not a latch
        if netlist.gnd in dev.channel_nodes:
            continue  # qualified pull-down, not a latch
        result.append(dev)
    return result


def _receiving_terminal(netlist: Netlist, dev: Transistor) -> str:
    """The channel terminal a latch writes (data flows into it)."""
    if dev.flows_into(dev.source) and not dev.flows_into(dev.drain):
        return dev.source
    if dev.flows_into(dev.drain) and not dev.flows_into(dev.source):
        return dev.drain
    # Unresolved/bidirectional: the non-boundary, non-driven side.
    for terminal in dev.channel_nodes:
        if not netlist.is_boundary(terminal) and not netlist.has_pullup(terminal):
            return terminal
    return dev.drain


def storage_nodes_of_phase(
    netlist: Netlist, clock: TwoPhaseClock, phase: str
) -> frozenset[str]:
    """Nodes written by the latches of ``phase``."""
    clocks = clock.clock_nodes(netlist, phase)
    return _written_nodes(netlist, latch_devices(netlist, clocks))


def _written_nodes(
    netlist: Netlist, latches: list[Transistor]
) -> frozenset[str]:
    return frozenset(_receiving_terminal(netlist, dev) for dev in latches)


def verify_two_phase(
    netlist: Netlist,
    calculator: StageDelayCalculator,
    clock: TwoPhaseClock,
    *,
    input_arrivals: dict[str, float] | None = None,
    top_k: int = 5,
    memo: AnalysisMemo | None = None,
) -> ClockVerification:
    """Run the full two-phase verification (see module docstring).

    ``memo`` carries settling, graphs and arrivals over from the previous
    call with the same memo; the result is the same either way.
    """
    if memo is None:
        memo = AnalysisMemo()
    clock.check(netlist)
    input_arrivals = input_arrivals or {}
    for name in input_arrivals:
        if name not in netlist.inputs:
            raise ClockingError(
                f"arrival given for {name!r}, which is not a primary input"
            )

    verification = ClockVerification(clock=clock)
    storage = {
        phase: memo.storage_of(netlist, clock, phase)
        for phase in clock.phases
    }

    for phase in clock.phases:
        active = clock.clock_nodes(netlist, phase)
        open_gates = memo.open_gates(netlist, clock, phase)
        arcs = calculator.all_arcs(active_clocks=active, open_gates=open_gates)
        graph = memo.graph(phase, arcs)

        sources: dict[tuple[str, str], float] = {}
        for clk in active:
            sources[(clk, RISE)] = 0.0
        for node in storage[clock.other(phase)]:
            sources.setdefault((node, RISE), 0.0)
            sources.setdefault((node, FALL), 0.0)
        for name in netlist.inputs:
            time = input_arrivals.get(name, 0.0)
            sources.setdefault((name, RISE), time)
            sources.setdefault((name, FALL), time)

        arrivals = propagate(
            graph,
            sources,
            calculator.slope,
            prior=memo.arrivals.get(("max", phase)),
            trace=memo.trace,
        )
        memo.arrivals[("max", phase)] = arrivals

        # Everything launched during the phase must settle before the phase
        # ends -- including nodes written through *qualified* switches
        # (word-line-gated cells), which are not raw clock latches.  The
        # minimum width is therefore the latest arrival anywhere.
        worst = arrivals.max_arrival(None)
        width = worst.time if worst is not None else 0.0
        top = critical_paths(arrivals, None, k=top_k)

        verification.phases[phase] = PhaseResult(
            phase=phase,
            arrivals=arrivals,
            width=width,
            storage_written=storage[phase],
            critical=top[0] if top else None,
            cut_arc_count=len(graph.cut_arcs),
        )
        found = memo.races.get(phase)
        if found is None or found[0] is not graph:
            races = _find_races(
                netlist, calculator, graph, clock, phase, storage[phase], memo
            )
            found = memo.races[phase] = (graph, races)
        verification.races.extend(found[1])

    from .mindelay import cross_phase_margins  # local import: avoid cycle

    verification.overlap_margins = cross_phase_margins(
        netlist, calculator, clock, memo=memo
    )
    return verification


def _find_races(
    netlist: Netlist,
    calculator: StageDelayCalculator,
    graph: TimingGraph,
    clock: TwoPhaseClock,
    phase: str,
    phase_storage: frozenset[str],
    memo: AnalysisMemo,
) -> list[RaceViolation]:
    races: list[RaceViolation] = []
    clocks = clock.clock_nodes(netlist, phase)
    latches = memo.latches_of(netlist, clocks)
    data_sides = {}
    for dev in latches:
        receiving = _receiving_terminal(netlist, dev)
        data_sides[dev.other_channel(receiving)] = receiving

    # Cross-stage: from a freshly written storage node, can the timing
    # graph (with this phase active) reach the data side of another latch
    # of the same phase?
    for start in phase_storage:
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for arc in graph.arcs_from.get(node, ()):
                target = arc.output
                if target in seen:
                    continue
                seen.add(target)
                if target in phase_storage and target != start:
                    races.append(
                        RaceViolation(phase, start, target, "cross-stage")
                    )
                frontier.append(target)

    # Same-stage: two latches of the phase on one conduction path.  The
    # receiving node of one latch reaching the data side of another through
    # the phase-active pass network means both are transparent together.
    stage_of_device = memo.stage_map(calculator)
    latches_of_stage: dict[int | None, list[Transistor]] = {}
    for dev in latches:
        latches_of_stage.setdefault(stage_of_device.get(dev.name), []).append(
            dev
        )
    for stage in calculator.graph:
        member_latches = latches_of_stage.get(stage.index, ())
        if len(member_latches) < 2:
            continue
        devices = calculator.graph.devices_of(stage)
        cut = calculator._cut_set(devices, clocks)
        edges = calculator._pass_edges(stage, devices, RISE, cut)
        adjacency: dict[str, set[str]] = {}
        for a, b, _r, _n in edges:
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        for dev in member_latches:
            start = _receiving_terminal(netlist, dev)
            seen = {start}
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for neighbor in adjacency.get(node, ()):
                    if neighbor in seen:
                        continue
                    seen.add(neighbor)
                    frontier.append(neighbor)
            for other in member_latches:
                if other.name == dev.name:
                    continue
                if _receiving_terminal(netlist, other) in seen - {start}:
                    races.append(
                        RaceViolation(
                            phase,
                            start,
                            _receiving_terminal(netlist, other),
                            "same-stage",
                        )
                    )

    # Deduplicate.
    unique: dict[tuple[str, str, str], RaceViolation] = {}
    for race in races:
        unique.setdefault((race.phase, race.from_node, race.to_node), race)
    return list(unique.values())
