"""Worst-case arrival-time propagation.

The static analysis itself: given a timing graph and a set of *sources*
(externally driven transitions with known times), compute for every node and
transition the latest possible arrival, the accompanying slew, and the
predecessor pointer for path reconstruction.  One linear sweep in
topological order -- this is what makes TV's whole-chip analysis take
seconds where simulation takes hours (experiment R-T3).

Transitions are propagated separately for rise and fall:

* an inverting arc maps input-rise -> output-fall (using the arc's fall
  timing) and input-fall -> output-rise;
* a non-inverting arc maps rise -> rise and fall -> fall.

Slope handling: each arc's intrinsic delay is corrected by the configured
:class:`~repro.delay.SlopeModel` using the input slew at the trigger, and
the output slew is derived from the arc's time constant.

Re-propagation after an edit: given the map an earlier call returned for
the same graph and sources (``prior``), :func:`propagate` starts from the
nodes a :meth:`~repro.core.graph.TimingGraph.patch` touched and recomputes
arrivals in topological order, stopping wherever time and slew come out
unchanged.  Each recomputed arrival takes its candidates in the order the
full sweep offers them, so the result -- values, tie-broken predecessors
and the map's insertion order -- is identical to a full sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from ..delay import FALL, RISE, SlopeModel, StageArc
from ..errors import TimingError
from ..trace import NULL_TRACE, Trace
from .graph import TimingGraph

__all__ = ["Arrival", "ArrivalMap", "propagate", "DEFAULT_INPUT_SLEW"]

#: Assumed transition time of externally driven sources, seconds.
DEFAULT_INPUT_SLEW = 2e-9


@dataclass(frozen=True)
class Arrival:
    """Worst-case arrival of one transition at one node.

    ``pred`` is the (node, transition) whose change caused this one (None
    for sources); ``arc`` is the stage arc traversed (None for sources).
    """

    node: str
    transition: str
    time: float
    slew: float
    pred: tuple[str, str] | None = None
    arc: StageArc | None = None


class ArrivalMap:
    """Arrivals keyed by (node, transition)."""

    def __init__(self) -> None:
        self._map: dict[tuple[str, str], Arrival] = {}
        #: What the map was propagated from -- ``(graph, graph epoch,
        #: sources, settings)`` -- so a later call can tell whether it
        #: may re-propagate from it (see :func:`repropagate`).
        self._basis: tuple | None = None

    def get(self, node: str, transition: str) -> Arrival | None:
        """The recorded arrival, or None if the transition never occurs."""
        return self._map.get((node, transition))

    def set(self, arrival: Arrival) -> None:
        """Record (or overwrite) one arrival."""
        self._map[(arrival.node, arrival.transition)] = arrival

    def worst(self, node: str) -> Arrival | None:
        """The later of the node's rise/fall arrivals."""
        rise = self.get(node, RISE)
        fall = self.get(node, FALL)
        if rise is None:
            return fall
        if fall is None:
            return rise
        return rise if rise.time >= fall.time else fall

    def items(self) -> list[Arrival]:
        """Every recorded arrival (both transitions, all nodes)."""
        return list(self._map.values())

    def nodes(self) -> set[str]:
        """Nodes with at least one recorded arrival."""
        return {node for node, _t in self._map}

    def max_arrival(self, restrict_to: set[str] | None = None) -> Arrival | None:
        """The globally latest arrival (optionally among given nodes)."""
        best: Arrival | None = None
        for arrival in self._map.values():
            if restrict_to is not None and arrival.node not in restrict_to:
                continue
            if best is None or arrival.time > best.time:
                best = arrival
        return best

    def __len__(self) -> int:
        return len(self._map)


def propagate(
    graph: TimingGraph,
    sources: dict[tuple[str, str], float],
    slope: SlopeModel,
    *,
    source_slew: float = DEFAULT_INPUT_SLEW,
    prior: ArrivalMap | None = None,
    trace: Trace = NULL_TRACE,
) -> ArrivalMap:
    """Propagate worst-case arrivals through the timing graph.

    ``sources`` maps (node, transition) to its externally known time; both
    transitions of a node may be seeded independently (a clock's rise and
    fall differ by the phase width, for example).

    ``prior`` is the map an earlier call returned for this graph.  If the
    graph was patched exactly once since, and sources, slope and source
    slew are the same, only what the patch changed is re-propagated (see
    the module docstring); otherwise the full sweep runs.  The
    ``arrivals_recomputed`` trace counter counts the arrivals computed.
    """
    if not sources:
        raise TimingError("arrival propagation needs at least one source")
    settings = (slope, source_slew)
    if prior is not None:
        arrivals = repropagate(
            graph,
            sources,
            prior,
            settings,
            lambda amap, node: _latest(
                graph, amap, sources, node, slope, source_slew
            ),
            trace,
        )
        if arrivals is not None:
            return arrivals
    arrivals = ArrivalMap()
    for (node, transition), time in sources.items():
        if transition not in (RISE, FALL):
            raise TimingError(f"unknown transition {transition!r}")
        arrivals.set(
            Arrival(node=node, transition=transition, time=time, slew=source_slew)
        )

    # The sweep is the analysis inner loop (every arc, both transitions),
    # so the map and the slope coefficients are accessed directly.  The
    # coefficient fast path applies only to a plain SlopeModel -- a
    # subclass with overridden methods keeps its behaviour.
    amap = arrivals._map
    arcs_from = graph.arcs_from
    plain_slope = type(slope) is SlopeModel
    for node in graph.order:
        arcs = arcs_from.get(node)  # node == arc.trigger
        if not arcs:
            continue
        for transition in (RISE, FALL):
            incoming = amap.get((node, transition))
            if incoming is None:
                continue
            in_time = incoming.time
            in_slew = incoming.slew
            for arc in arcs:
                if arc.inverting:
                    out_transition = FALL if transition == RISE else RISE
                    tracking = False
                else:
                    out_transition = transition
                    tracking = arc.via == "channel"
                timing = arc.rise if out_transition == RISE else arc.fall
                if timing is None:
                    continue
                if plain_slope:
                    alpha = slope.alpha_tracking if tracking else slope.alpha
                    time = in_time + (timing.delay + alpha * in_slew)
                else:
                    time = in_time + slope.delay(
                        timing.delay, in_slew, tracking=tracking
                    )
                existing = amap.get((arc.output, out_transition))
                if existing is not None and existing.time >= time:
                    continue
                if plain_slope:
                    out_slew = slope.gamma * timing.tau + slope.beta * in_slew
                else:
                    out_slew = slope.output_slew(timing.tau, in_slew)
                amap[(arc.output, out_transition)] = Arrival(
                    node=arc.output,
                    transition=out_transition,
                    time=time,
                    slew=out_slew,
                    pred=(node, transition),
                    arc=arc,
                )
    arrivals._basis = (graph, graph.epoch, tuple(sources.items()), settings)
    trace.incr("arrivals_recomputed", len(arrivals))
    return arrivals


def _latest(graph, amap, sources, node, slope, source_slew):
    """The rise and fall arrivals a full :func:`propagate` sweep leaves at
    ``node``, from the final arrivals of its fan-in.

    Candidates come in sweep order (fan-in in topological order, rise
    before fall, arcs in adjacency order) and only a strictly later one
    replaces the best so far -- the sweep's tie-break.  The arithmetic is
    the sweep's, term for term, so the floats are bit-identical.
    """
    best = {}
    for transition in (RISE, FALL):
        time = sources.get((node, transition))
        if time is not None:
            best[transition] = Arrival(
                node=node, transition=transition, time=time, slew=source_slew
            )
    plain_slope = type(slope) is SlopeModel
    arcs_from = graph.arcs_from
    for trigger, start, stop in graph.fan_in().get(node, ()):
        arcs = arcs_from[trigger][start:stop]
        for transition in (RISE, FALL):
            incoming = amap.get((trigger, transition))
            if incoming is None:
                continue
            in_time = incoming.time
            in_slew = incoming.slew
            for arc in arcs:
                if arc.inverting:
                    out_transition = FALL if transition == RISE else RISE
                    tracking = False
                else:
                    out_transition = transition
                    tracking = arc.via == "channel"
                timing = arc.rise if out_transition == RISE else arc.fall
                if timing is None:
                    continue
                if plain_slope:
                    alpha = slope.alpha_tracking if tracking else slope.alpha
                    time = in_time + (timing.delay + alpha * in_slew)
                else:
                    time = in_time + slope.delay(
                        timing.delay, in_slew, tracking=tracking
                    )
                existing = best.get(out_transition)
                if existing is not None and existing.time >= time:
                    continue
                if plain_slope:
                    out_slew = slope.gamma * timing.tau + slope.beta * in_slew
                else:
                    out_slew = slope.output_slew(timing.tau, in_slew)
                best[out_transition] = Arrival(
                    node=node,
                    transition=out_transition,
                    time=time,
                    slew=out_slew,
                    pred=(trigger, transition),
                    arc=arc,
                )
    return best


def repropagate(graph, sources, prior, settings, recompute, trace):
    """Re-propagate ``prior`` over a patched graph, or None if it cannot.

    Shared by the worst-case and min-delay engines.  ``prior`` qualifies
    when it was propagated over this very graph one patch ago, from the
    same ``sources`` (in the same order) and ``settings``.
    ``recompute(amap, node)`` is the engine's exact rule for one node's
    arrivals, returned as ``{transition: Arrival}``.  Affected nodes are
    visited in topological order starting from ``graph.changed``; a node
    whose arrivals keep their time and slew does not disturb its fan-out.
    Returns None -- the caller then runs its full sweep -- if the set of
    recorded arrivals would change, because the full sweep fixes the
    map's insertion order by first arrival.
    """
    basis = prior._basis
    if (
        basis is None
        or basis[0] is not graph
        or basis[1] != graph.epoch - 1
        or basis[3] != settings
        or basis[2] != tuple(sources.items())
    ):
        return None
    amap = dict(prior._map)
    position = graph.position()
    arcs_from = graph.arcs_from
    queued = set(graph.changed)
    heap = [(position[node], node) for node in queued]
    heapify(heap)
    recomputed = 0
    while heap:
        _pos, node = heappop(heap)
        fresh = recompute(amap, node)
        recomputed += len(fresh)
        moved = False
        for transition in (RISE, FALL):
            old = amap.get((node, transition))
            new = fresh.get(transition)
            if old is None or new is None:
                if old is new:
                    continue
                return None
            if old.time != new.time or old.slew != new.slew:
                moved = True
            elif old.pred == new.pred and old.arc is new.arc:
                continue
            amap[(node, transition)] = new
        if moved:
            for arc in arcs_from.get(node, ()):
                if arc.output not in queued:
                    queued.add(arc.output)
                    heappush(heap, (position[arc.output], arc.output))
    arrivals = ArrivalMap()
    arrivals._map = amap
    arrivals._basis = (graph, graph.epoch, basis[2], settings)
    trace.incr("arrivals_recomputed", recomputed)
    return arrivals


def _invert(transition: str) -> str:
    return FALL if transition == RISE else RISE
