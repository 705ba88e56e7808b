"""Timing graph construction.

The timing graph's vertices are circuit nodes and its edges are the stage
timing arcs extracted by :class:`repro.delay.StageDelayCalculator`.  Static
analysis needs a DAG; real nMOS netlists contain structural feedback
(cross-coupled static latches, bus keepers), so construction condenses
strongly connected components and removes a minimal-by-construction set of
feedback edges, which are recorded on the graph for reporting -- TV likewise
reported the feedback paths it cut rather than silently mis-analyzing them.

The graph is a plain insertion-ordered adjacency dict with a Kahn
topological sort: building it is on the analyze() hot path (experiment
R-T3 / the ``repro/bench/perf.py`` harness), so it avoids general-purpose
graph-library overhead.

After a width/length edit only the edited stages' arcs change, and
usually not their shape.  :meth:`TimingGraph.patch` swaps such arcs into
the existing graph in place -- the result is the graph a fresh
:meth:`TimingGraph.build` would give -- and records which nodes' incoming
arcs changed, so arrival propagation can restart from there
(:func:`repro.core.arrival.propagate`'s ``prior``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import compress, count
from operator import is_not

from ..delay import StageArc
from ..errors import TimingError

__all__ = ["TimingGraph"]


@dataclass
class TimingGraph:
    """A leveled timing graph over circuit nodes.

    Attributes
    ----------
    arcs_from:
        Adjacency: node name -> outgoing :class:`StageArc` list (feedback
        arcs removed).
    order:
        Topological order of every node that appears in some arc.
    cut_arcs:
        Arcs removed to break structural feedback loops.
    epoch:
        Number of :meth:`patch` calls applied since the build.
    changed:
        Nodes whose incoming DAG arcs the latest :meth:`patch` replaced.
    """

    arcs_from: dict[str, list[StageArc]] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)
    cut_arcs: list[StageArc] = field(default_factory=list)
    epoch: int = 0
    changed: frozenset[str] = frozenset()
    #: The arc list the graph was built or last patched from.
    _arcs: list[StageArc] = field(default_factory=list, init=False, repr=False)
    #: Lazily built reuse indices (see :meth:`patch`, :meth:`position`,
    #: :meth:`fan_in`); never built on a cold analysis.
    _slots: list | None = field(default=None, init=False, repr=False)
    _position: dict | None = field(default=None, init=False, repr=False)
    _fan_in: dict | None = field(default=None, init=False, repr=False)

    @classmethod
    def build(cls, arcs: list[StageArc]) -> "TimingGraph":
        """Assemble a DAG from timing arcs, cutting feedback edges."""
        # Insertion-ordered adjacency; inner dicts act as ordered edge sets.
        successors: dict[str, dict[str, None]] = {}
        arc_table: dict[tuple[str, str], list[StageArc]] = {}
        for arc in arcs:
            if arc.trigger == arc.output:
                # A self-arc can only arise from degenerate feedback inside
                # one stage; it carries no timing information for a static
                # pass and would break topological ordering.
                continue
            key = (arc.trigger, arc.output)
            existing = arc_table.get(key)
            if existing is None:
                arc_table[key] = [arc]
                successors.setdefault(arc.trigger, {})[arc.output] = None
            else:
                existing.append(arc)
        nodes: dict[str, None] = {}
        for arc in arcs:
            nodes[arc.trigger] = None
            nodes[arc.output] = None

        cut_arcs: list[StageArc] = []
        for edge in _feedback_edges(nodes, successors):
            cut_arcs.extend(arc_table.pop(edge, []))
            successors[edge[0]].pop(edge[1], None)

        graph = cls(cut_arcs=cut_arcs)
        graph._arcs = arcs
        graph.order = _topological_order(nodes, successors)
        for (trigger, _output), arc_list in arc_table.items():
            graph.arcs_from.setdefault(trigger, []).extend(arc_list)
        return graph

    def patch(self, arcs: list[StageArc]) -> bool:
        """Swap re-extracted arcs into the graph in place, if possible.

        ``arcs`` is a new arc list for the same clock context.  Arc caches
        hand back the very same objects for stages they did not
        re-extract, so identity tells which positions changed.  When every
        changed position keeps its arc's shape -- trigger, output,
        inversion and which transitions it times -- the graph ``build``
        would give is this one with the new arc objects in the old
        places; they are put there, ``epoch`` is bumped and ``changed``
        names the outputs of the replaced DAG arcs.  Otherwise nothing is
        touched and False is returned: the caller must build afresh.
        """
        old = self._arcs
        if len(arcs) != len(old):
            return False
        moved = list(compress(count(), map(is_not, arcs, old)))
        if any(_shape(arcs[i]) != _shape(old[i]) for i in moved):
            return False
        slots = self._slot_map()
        changed: set[str] = set()
        for i in moved:
            j = slots[i]
            if j is None:  # a self-arc, which build drops
                continue
            arc = arcs[i]
            if j >= 0:
                self.arcs_from[arc.trigger][j] = arc
                changed.add(arc.output)
            else:
                self.cut_arcs[~j] = arc
        self._arcs = arcs
        self.epoch += 1
        self.changed = frozenset(changed)
        return True

    def _slot_map(self) -> list[int | None]:
        """Where each position of the arc list sits in the graph: ``j``
        for ``arcs_from[trigger][j]``, ``~j`` for ``cut_arcs[j]``, None
        for a dropped self-arc.  Every arc object occurs once in the list
        (each stage contributes its own merged arcs), so identity finds
        it.  Positions stay valid across patches."""
        if self._slots is None:
            where: dict[int, int] = {}
            for arcs in self.arcs_from.values():
                for j, arc in enumerate(arcs):
                    where[id(arc)] = j
            for j, arc in enumerate(self.cut_arcs):
                where[id(arc)] = ~j
            self._slots = [where.get(id(arc)) for arc in self._arcs]
        return self._slots

    def position(self) -> dict[str, int]:
        """Node -> index in :attr:`order` (built on first use)."""
        if self._position is None:
            self._position = {node: i for i, node in enumerate(self.order)}
        return self._position

    def fan_in(self) -> dict[str, list[tuple[str, int, int]]]:
        """Node -> its incoming DAG arcs as ``(trigger, start, stop)``:
        the slice ``arcs_from[trigger][start:stop]`` (``build`` keeps the
        arcs of one edge together).

        Entries follow :attr:`order`; with each slice in index order this
        is the order a full sweep offers the node its candidate arrivals.
        Built on first use; patches keep it valid.
        """
        if self._fan_in is None:
            index: dict[str, list[tuple[str, int, int]]] = {}
            for trigger in self.order:
                arcs = self.arcs_from.get(trigger, ())
                start = 0
                for j in range(1, len(arcs) + 1):
                    if j == len(arcs) or arcs[j].output != arcs[start].output:
                        index.setdefault(arcs[start].output, []).append(
                            (trigger, start, j)
                        )
                        start = j
            self._fan_in = index
        return self._fan_in

    @property
    def nodes(self) -> list[str]:
        return list(self.order)

    def arc_count(self) -> int:
        """Number of arcs surviving in the DAG (cut arcs excluded)."""
        return sum(len(v) for v in self.arcs_from.values())


def _shape(arc: StageArc) -> tuple:
    """What of an arc decides the graph's and the arrival map's layout:
    the edge, and which output transitions it can produce."""
    return (arc.trigger, arc.output, arc.inverting,
            arc.rise is None, arc.fall is None)


def _feedback_edges(
    nodes: dict[str, None], successors: dict[str, dict[str, None]]
) -> list[tuple[str, str]]:
    """Edges whose removal acyclifies the graph (DFS back edges).

    A depth-first search from every root classifies back edges; removing
    exactly those acyclifies the graph.  The set is not guaranteed minimum
    (that problem is NP-hard) but is deterministic and small in practice:
    one edge per cross-coupled latch loop.
    """
    back_edges: list[tuple[str, str]] = []
    visited: set[str] = set()
    on_stack: set[str] = set()

    def visit(start: str) -> None:
        stack: list[tuple[str, iter]] = [
            (start, iter(successors.get(start, ())))
        ]
        visited.add(start)
        on_stack.add(start)
        while stack:
            node, succ_iter = stack[-1]
            advanced = False
            for succ in succ_iter:
                if succ in on_stack:
                    back_edges.append((node, succ))
                elif succ not in visited:
                    visited.add(succ)
                    on_stack.add(succ)
                    stack.append((succ, iter(successors.get(succ, ()))))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                on_stack.discard(node)

    for node in sorted(nodes):
        if node not in visited:
            visit(node)
    return back_edges


def _topological_order(
    nodes: dict[str, None], successors: dict[str, dict[str, None]]
) -> list[str]:
    """Kahn's algorithm over the insertion-ordered adjacency."""
    indegree = dict.fromkeys(nodes, 0)
    for succ_set in successors.values():
        for succ in succ_set:
            indegree[succ] += 1
    ready = deque(name for name in nodes if indegree[name] == 0)
    order: list[str] = []
    while ready:
        node = ready.popleft()
        order.append(node)
        for succ in successors.get(node, ()):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    if len(order) != len(nodes):  # pragma: no cover - cutting guarantees DAG
        raise TimingError("internal error: feedback cutting left a cycle")
    return order
