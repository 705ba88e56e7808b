"""Minimum-delay (contamination) analysis and clock-overlap margins.

The worst-case arrivals answer "how slow can the clock be?".  The dual
question -- "how *fast* can a signal get somewhere it shouldn't?" -- needs
earliest arrivals.  Two-phase non-overlapping clocking is race-immune only
while the non-overlap actually holds; with clock skew the phases can
overlap, and data can then shoot through a phi1 latch, the logic between,
and a still-transparent phi2 latch.  The design is safe as long as every
cross-phase latch-to-latch path is *slower* than the worst possible
overlap.

:func:`propagate_min` mirrors the worst-case engine with min-relaxation
and no slope penalty (the fastest corner).  :func:`cross_phase_margins`
reports, per phase, the fastest path from that phase's storage nodes to
the data side of the opposite phase's latches -- the **maximum clock
overlap the design tolerates**.  TV's descendants shipped exactly this
check; the non-overlap generator was trimmed against it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..clocks import TwoPhaseClock
from ..delay import FALL, RISE, StageDelayCalculator
from ..netlist import Netlist
from ..trace import NULL_TRACE, Trace
from .arrival import Arrival, ArrivalMap, repropagate
from .constraints import AnalysisMemo
from .graph import TimingGraph

__all__ = ["propagate_min", "OverlapMargin", "cross_phase_margins"]

#: ``settings`` tag of min-delay maps (see :func:`repro.core.arrival.repropagate`).
_MIN = "min"


def propagate_min(
    graph: TimingGraph,
    sources: dict[tuple[str, str], float],
    *,
    prior: ArrivalMap | None = None,
    trace: Trace = NULL_TRACE,
) -> ArrivalMap:
    """Earliest-arrival propagation (contamination delays).

    Takes the minimum over incoming arcs and uses intrinsic arc delays
    with no slope penalty -- the fastest consistent corner.  ``prior``
    and ``trace`` work as in :func:`repro.core.arrival.propagate`.
    """
    if prior is not None:
        arrivals = repropagate(
            graph,
            sources,
            prior,
            _MIN,
            lambda amap, node: _earliest(graph, amap, sources, node),
            trace,
        )
        if arrivals is not None:
            return arrivals
    arrivals = ArrivalMap()
    for (node, transition), time in sources.items():
        existing = arrivals.get(node, transition)
        if existing is None or time < existing.time:
            arrivals.set(
                Arrival(node=node, transition=transition, time=time, slew=0.0)
            )

    for node in graph.order:
        for transition in (RISE, FALL):
            incoming = arrivals.get(node, transition)
            if incoming is None:
                continue
            for arc in graph.arcs_from.get(node, ()):
                out_transition = (
                    (FALL if transition == RISE else RISE)
                    if arc.inverting
                    else transition
                )
                timing = arc.timing(out_transition)
                if timing is None:
                    continue
                time = incoming.time + timing.delay
                existing = arrivals.get(arc.output, out_transition)
                if existing is not None and existing.time <= time:
                    continue
                arrivals.set(
                    Arrival(
                        node=arc.output,
                        transition=out_transition,
                        time=time,
                        slew=0.0,
                        pred=(node, transition),
                        arc=arc,
                    )
                )
    arrivals._basis = (graph, graph.epoch, tuple(sources.items()), _MIN)
    trace.incr("arrivals_recomputed", len(arrivals))
    return arrivals


def _earliest(graph, amap, sources, node):
    """The rise and fall arrivals a full :func:`propagate_min` sweep
    leaves at ``node``: candidates in sweep order, only a strictly
    earlier one replacing the best so far."""
    best = {}
    for transition in (RISE, FALL):
        time = sources.get((node, transition))
        if time is not None:
            best[transition] = Arrival(
                node=node, transition=transition, time=time, slew=0.0
            )
    arcs_from = graph.arcs_from
    for trigger, start, stop in graph.fan_in().get(node, ()):
        arcs = arcs_from[trigger][start:stop]
        for transition in (RISE, FALL):
            incoming = amap.get((trigger, transition))
            if incoming is None:
                continue
            for arc in arcs:
                out_transition = (
                    (FALL if transition == RISE else RISE)
                    if arc.inverting
                    else transition
                )
                timing = arc.timing(out_transition)
                if timing is None:
                    continue
                time = incoming.time + timing.delay
                existing = best.get(out_transition)
                if existing is not None and existing.time <= time:
                    continue
                best[out_transition] = Arrival(
                    node=node,
                    transition=out_transition,
                    time=time,
                    slew=0.0,
                    pred=(trigger, transition),
                    arc=arc,
                )
    return best


@dataclass(frozen=True)
class OverlapMargin:
    """Fastest cross-phase path launched from one phase's storage.

    ``margin`` is the minimum contamination delay from a ``from_phase``
    storage node to the data side of any ``to_phase`` latch: the maximum
    clock overlap (skew eating into the non-overlap gap) the design
    survives in that direction.  ``None`` path means no cross-phase path
    exists (unbounded margin).
    """

    from_phase: str
    to_phase: str
    margin: float | None
    from_node: str | None = None
    to_node: str | None = None

    def describe(self) -> str:
        """One-line human-readable statement of the margin."""
        if self.margin is None:
            return (
                f"{self.from_phase}->{self.to_phase}: no cross-phase path "
                "(unbounded overlap margin)"
            )
        return (
            f"{self.from_phase}->{self.to_phase}: fastest path "
            f"{self.from_node} -> {self.to_node} = "
            f"{self.margin * 1e9:.3f} ns of tolerated overlap"
        )


def cross_phase_margins(
    netlist: Netlist,
    calculator: StageDelayCalculator,
    clock: TwoPhaseClock,
    *,
    memo: AnalysisMemo | None = None,
) -> list[OverlapMargin]:
    """Per direction, the fastest storage-to-opposite-latch path.

    Computed on the everything-transparent graph (all clocked switches
    closed): during an overlap, both phases' latches conduct, which is
    exactly the hazard scenario.  ``memo`` carries the graph and arrivals
    of the previous run forward (see :class:`AnalysisMemo`).
    """
    if memo is None:
        memo = AnalysisMemo()
    arcs = calculator.all_arcs(active_clocks=None)
    graph = memo.graph(None, arcs)
    margins: list[OverlapMargin] = []
    for phase in clock.phases:
        other = clock.other(phase)
        launch = memo.storage_of(netlist, clock, phase)
        capture_inputs: dict[str, str] = {}
        other_clocks = clock.clock_nodes(netlist, other)
        for dev in memo.latches_of(netlist, other_clocks):
            for terminal in dev.channel_nodes:
                capture_inputs.setdefault(terminal, dev.name)

        if not launch or not capture_inputs:
            margins.append(OverlapMargin(phase, other, None))
            continue

        sources = {}
        for node in launch:
            sources[(node, RISE)] = 0.0
            sources[(node, FALL)] = 0.0
        arrivals = propagate_min(
            graph, sources, prior=memo.arrivals.get(("min", phase)),
            trace=memo.trace,
        )
        memo.arrivals[("min", phase)] = arrivals

        best: Arrival | None = None
        for target in capture_inputs:
            for transition in (RISE, FALL):
                arrival = arrivals.get(target, transition)
                if arrival is None or arrival.pred is None:
                    continue  # sources themselves don't count
                if best is None or arrival.time < best.time:
                    best = arrival
        if best is None:
            margins.append(OverlapMargin(phase, other, None))
        else:
            origin = best
            while origin.pred is not None:
                nxt = arrivals.get(*origin.pred)
                if nxt is None:
                    break
                origin = nxt
            margins.append(
                OverlapMargin(
                    from_phase=phase,
                    to_phase=other,
                    margin=best.time,
                    from_node=origin.node,
                    to_node=best.node,
                )
            )
    return margins
