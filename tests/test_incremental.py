"""Tests for incremental re-analysis after width/length edits.

Two layers of reuse are under test.  The arc cache re-extracts only the
stages an edit touches.  On top of it, the analyzer settles each phase's
clock qualification once, patches its kept timing graphs and
re-propagates arrivals only forward of the re-extracted arcs.  The
oracle for all of it is byte parity: after every edit, ``to_json()`` of
the resident analyzer equals that of a fresh analyzer.  The fresh one
runs on a freshly built copy of the circuit with the same sizes,
because flow inference annotates a netlist in place.
"""

import json
import random

import pytest

from repro import TimingAnalyzer, robust
from repro.bench.perf import parity_circuits
from repro.circuits import mips_like_datapath, register_bit, ripple_adder
from repro.core import TimingGraph, constraints, propagate, propagate_min
from repro.delay import FALL, RISE, ArcTiming, SlopeModel, StageArc, stage_delay
from repro.netlist import sim_dumps
from repro.netlist.validate import check
from repro.serve import DesignSession
from repro.trace import Trace

CIRCUITS = parity_circuits()


def _payload(result) -> str:
    return json.dumps(result.to_json(), sort_keys=True)


def _fresh(make, edited, input_arrivals=None, **options) -> str:
    """The report of a fresh analyzer on a new copy of ``edited``."""
    net = make()
    for dev in edited.devices.values():
        copy = net.device(dev.name)
        copy.w, copy.l = dev.w, dev.l
    return _payload(TimingAnalyzer(net, **options).analyze(input_arrivals))


def _edit(rng, net, names):
    """Scale one device's w or l up or down, keeping ERC clean.

    Returns ``(device, attribute, old value)``, or None when the drawn
    edit would break a ratio rule (it is undone then).
    """
    dev = net.device(rng.choice(names))
    attr = rng.choice(("w", "l"))
    old = getattr(dev, attr)
    setattr(dev, attr, old * rng.choice((0.8, 1.25)))
    if any(v.severity == "error" for v in check(net)):
        setattr(dev, attr, old)
        return None
    return dev, attr, old


def _arc(trigger, output, delay, tau=None, *, stage=0):
    timing = ArcTiming(delay, delay if tau is None else tau)
    return StageArc(stage, trigger, "gate", output, False, timing, timing)


def _arrivals(amap) -> list:
    """Everything about a map a report can see, in insertion order."""
    return [(a.node, a.transition, a.time, a.slew, a.pred, a.arc)
            for a in amap.items()]


class TestEngine:
    """Patch and re-propagate on hand-built graphs, against full runs."""

    SOURCES = {("a", RISE): 0.0, ("a", FALL): 0.0,
               ("b", RISE): 0.0, ("b", FALL): 0.0}

    def test_patch_swaps_arcs_in_place(self):
        arcs = [_arc("a", "c", 1e-9), _arc("c", "d", 1e-9),
                _arc("d", "c", 1e-9)]  # a storage loop: one arc is cut
        graph = TimingGraph.build(arcs)
        edited = [_arc("a", "c", 2e-9), arcs[1], _arc("d", "c", 3e-9)]
        assert graph.patch(edited)
        assert (graph.epoch, graph.changed) == (1, frozenset({"c"}))
        rebuilt = TimingGraph.build(edited)
        assert graph.arcs_from == rebuilt.arcs_from
        assert graph.cut_arcs == rebuilt.cut_arcs
        assert graph.order == rebuilt.order

    @pytest.mark.parametrize("edited", [
        [_arc("a", "c", 1e-9)],  # an arc gone
        [_arc("a", "d", 1e-9), _arc("c", "d", 1e-9)],  # rewired
        [StageArc(0, "a", "gate", "c", True, None, None),
         _arc("c", "d", 1e-9)],  # inverted, untimed
    ])
    def test_patch_refuses_a_new_shape(self, edited):
        graph = TimingGraph.build([_arc("a", "c", 1e-9), _arc("c", "d", 1e-9)])
        assert not graph.patch(edited)
        assert graph.epoch == 0

    def test_slew_change_alone_reaches_the_fan_out(self):
        """Same delay, new time constant: the output's time is unchanged
        but its slew is not, and the slew moves the next arrival."""
        slope = SlopeModel()
        arcs = [_arc("a", "c", 1e-9, 1e-9), _arc("c", "d", 1e-9)]
        graph = TimingGraph.build(arcs)
        prior = propagate(graph, self.SOURCES, slope)
        assert graph.patch([_arc("a", "c", 1e-9, 5e-9), arcs[1]])
        got = propagate(graph, self.SOURCES, slope, prior=prior)
        want = propagate(TimingGraph.build(graph._arcs), self.SOURCES, slope)
        assert got.get("c", RISE).time == prior.get("c", RISE).time
        assert got.get("d", RISE).time != prior.get("d", RISE).time
        assert _arrivals(got) == _arrivals(want)

    @pytest.mark.parametrize("engine", ["max", "min"])
    def test_ties_keep_the_sweep_order(self, engine):
        """Two equal paths into ``c``: the first in sweep order wins, in a
        re-propagation exactly as in a full sweep."""
        arcs = [_arc("a", "c", 1e-9), _arc("b", "c", 1e-9),
                _arc("c", "d", 1e-9)]

        def run(graph, prior=None):
            if engine == "max":
                return propagate(graph, self.SOURCES, SlopeModel(),
                                 prior=prior)
            return propagate_min(graph, self.SOURCES, prior=prior)

        graph = TimingGraph.build(arcs)
        prior = run(graph)
        # Equal values, new objects: both in-arcs of c are recomputed.
        edited = [_arc("a", "c", 1e-9), _arc("b", "c", 1e-9), arcs[2]]
        assert graph.patch(edited)
        got = run(graph, prior)
        want = run(TimingGraph.build(edited))
        assert got.get("c", RISE).pred == want.get("c", RISE).pred
        assert _arrivals(got) == _arrivals(want)

    def test_prior_from_other_sources_is_not_reused(self):
        graph = TimingGraph.build([_arc("a", "c", 1e-9)])
        prior = propagate(graph, {("a", RISE): 0.0}, SlopeModel())
        graph.patch([_arc("a", "c", 2e-9)])
        later = {("a", RISE): 1e-9}
        got = propagate(graph, later, SlopeModel(), prior=prior)
        want = propagate(TimingGraph.build(graph._arcs), later, SlopeModel())
        assert _arrivals(got) == _arrivals(want)


class TestCacheCorrectness:
    def test_second_analyze_uses_cache_and_matches(self):
        net = ripple_adder(6)
        tv = TimingAnalyzer(net)
        first = tv.analyze().max_delay
        assert tv.calculator._arc_cache  # populated
        second = tv.analyze().max_delay
        assert second == first

    def test_incremental_equals_fresh_after_edit(self):
        net, _ = mips_like_datapath(8, 4)
        tv = TimingAnalyzer(net)
        base = tv.analyze()
        path_devices = [
            d
            for s in base.paths[0].steps
            for d in s.devices
            if d in net.devices
        ]
        target = path_devices[len(path_devices) // 2]
        net.device(target).w *= 0.25
        tv.notify_changed([target])
        incremental = tv.analyze().min_cycle
        fresh = TimingAnalyzer(net).analyze().min_cycle
        assert incremental == fresh
        assert incremental > base.min_cycle  # a weaker device slows it

    def test_many_random_edits_stay_exact(self):
        rng = random.Random(5)
        net = ripple_adder(5)
        tv = TimingAnalyzer(net)
        tv.analyze()
        from repro import DeviceKind

        names = sorted(
            n for n, d in net.devices.items() if d.kind is DeviceKind.ENH
        )
        for _round in range(6):
            target = rng.choice(names)
            # Widen enhancement devices only: widening a pull-down improves
            # the ratio, while touching loads can create genuine ratio
            # violations that ERC (correctly) rejects.
            net.device(target).w *= rng.choice([1.25, 1.5, 2.0])
            tv.notify_changed([target])
            incremental = tv.analyze().max_delay
            fresh = TimingAnalyzer(net).analyze().max_delay
            assert incremental == fresh

    def test_unrelated_stage_cache_survives(self):
        net = ripple_adder(6)
        tv = TimingAnalyzer(net)
        tv.analyze()
        populated = len(tv.calculator._arc_cache)
        # Edit one device: only its stage's entries drop.
        target = next(iter(net.devices))
        tv.notify_changed([target])
        remaining = len(tv.calculator._arc_cache)
        assert 0 < remaining < populated + 1
        assert remaining >= populated - 4


class TestByteParity:
    """Seeded edit sequences over the zoo, combinational and two-phase."""

    @pytest.mark.parametrize(
        "name,make", CIRCUITS, ids=[n for n, _ in CIRCUITS]
    )
    def test_edit_sequence_matches_fresh(self, name, make):
        net = make()
        tv = TimingAnalyzer(net)
        tv.analyze()
        rng = random.Random(name)
        names = sorted(net.devices)
        edits = []
        for step in range(6):
            if step % 3 == 2 and edits:
                # Exact restore of an earlier edit.
                dev, attr, old = edits.pop(rng.randrange(len(edits)))
                setattr(dev, attr, old)
            else:
                edit = _edit(rng, net, names)
                if edit is None:
                    continue
                edits.append(edit)
                dev = edit[0]
            tv.notify_changed([dev.name])
            assert _payload(tv.analyze()) == _fresh(make, net), (
                f"{name}: step {step} diverged from a fresh analysis"
            )

    def test_quarantine_switch_between_edits(self, monkeypatch):
        """A policy switch plus a newly failing stage changes the analyzed
        stage set: that run must fall back to a full build, and later
        edits must patch again."""
        net = register_bit()
        trace = Trace(logger=None)
        tv = TimingAnalyzer(net, trace=trace)
        tv.analyze()
        names = sorted(net.devices)
        dev = net.device(names[0])
        dev.w *= 1.25
        tv.notify_changed([dev.name])
        tv.analyze()
        failing = tv.stage_graph.stage_of(dev.drain) or tv.stage_graph.stage_of(
            dev.source
        )

        def handler(site, payload):
            if site == "stage-arcs" and payload == failing.index:
                raise RuntimeError("injected extraction failure")

        robust.install_fault_handler(handler)
        try:
            dev.w *= 1.25
            tv.notify_changed([dev.name])
            tv.on_error = tv.calculator.on_error = robust.QUARANTINE
            builds = trace.counters["graph_builds"]
            got = _payload(tv.analyze())
            assert trace.counters["graph_builds"] > builds
            assert failing.index in tv.calculator.quarantined
            assert got == _fresh(register_bit, net, on_error="quarantine")

            other = net.device(names[-1])
            other.l *= 0.8
            tv.notify_changed([other.name])
            builds = trace.counters["graph_builds"]
            got = _payload(tv.analyze())
            assert trace.counters["graph_builds"] == builds
            assert got == _fresh(register_bit, net, on_error="quarantine")
        finally:
            robust.clear_fault_handler()

    @pytest.mark.parametrize("make", [lambda: ripple_adder(4), register_bit])
    def test_changed_input_arrivals_between_edits(self, make):
        net = make()
        tv = TimingAnalyzer(net)
        tv.analyze()
        late = {sorted(net.inputs)[0]: 1.5e-9}
        names = sorted(net.devices)
        rng = random.Random(3)
        for arrivals in (late, None, late, late):
            edit = None
            while edit is None:
                edit = _edit(rng, net, names)
            tv.notify_changed([edit[0].name])
            assert _payload(tv.analyze(arrivals)) == _fresh(make, net, arrivals)

    def test_corner_sibling_after_edits(self):
        make = lambda: mips_like_datapath(4, 2, n_shifts=2)[0]  # noqa: E731
        net = make()
        tv = TimingAnalyzer(net)
        tv.analyze()
        rng = random.Random(11)
        names = sorted(net.devices)
        for _ in range(3):
            edit = _edit(rng, net, names)
            if edit is not None:
                tv.notify_changed([edit[0].name])
                tv.analyze()
        mcmm = tv.analyze_mcmm(["slow", "fast"])
        for corner in ("slow", "fast"):
            want = _fresh(make, net, tech=net.tech.corner(corner))
            assert _payload(mcmm.result(corner)) == want

    @pytest.mark.parametrize("mode", ["drop", "untime"])
    def test_arc_topology_change_takes_full_build(self, monkeypatch, mode):
        """Arcs that lose their shape (an arc gone, or a transition no
        longer timed) cannot be patched in; the analysis rebuilds."""
        make = lambda: ripple_adder(4)  # noqa: E731
        net = make()
        trace = Trace(logger=None)
        tv = TimingAnalyzer(net, trace=trace)
        tv.analyze()
        victim = next(d for d in sorted(net.devices) if "sum" in
                      net.device(d).drain or "sum" in net.device(d).source)
        dev = net.device(victim)
        outputs = {dev.drain, dev.source}
        merge = stage_delay._merge_arcs

        def reshaped(arcs):
            merged = merge(arcs)
            if mode == "drop":
                return [a for a in merged if a.output not in outputs]
            return [
                a if a.output not in outputs else
                stage_delay.StageArc(a.stage_index, a.trigger, a.via,
                                     a.output, a.inverting, None, a.fall)
                for a in merged
            ]

        monkeypatch.setattr(stage_delay, "_merge_arcs", reshaped)
        tv.notify_changed([victim])
        builds = trace.counters["graph_builds"]
        patches = trace.counters.get("graph_patches", 0)
        got = _payload(tv.analyze())
        assert trace.counters["graph_builds"] == builds + 1
        assert trace.counters.get("graph_patches", 0) == patches
        assert got == _fresh(make, net)


class TestReuseCounters:
    def test_settling_runs_once_per_phase_across_deltas_and_corners(
        self, monkeypatch
    ):
        calls = []
        settle = constraints.qualified_low_nodes

        def counting(netlist, clock, phase):
            calls.append(phase)
            return settle(netlist, clock, phase)

        monkeypatch.setattr(constraints, "qualified_low_nodes", counting)
        net, _ = mips_like_datapath(4, 2, n_shifts=2)
        session = DesignSession("dp", sim_dumps(net))
        session.analyze()
        names = sorted(session.netlist.devices)
        for i in range(4):
            dev = session.netlist.device(names[7 * i])
            session.delta([{"device": dev.name, "w": dev.w * 1.1}])
        session.analyze(corner="slow")
        session.analyze(corner="fast")
        assert sorted(calls) == ["phi1", "phi2"]

    def test_one_device_delta_patches_instead_of_rebuilding(self):
        net, _ = mips_like_datapath(4, 2, n_shifts=2)
        trace = Trace(logger=None)
        tv = TimingAnalyzer(net, trace=trace)
        cold = tv.analyze()
        assert trace.counters["graph_builds"] == 3  # phi1, phi2, transparent
        assert "graph_patches" not in trace.counters
        assert trace.counters["settle_runs"] == 2
        cold_arrivals = trace.counters["arrivals_recomputed"]
        assert cold_arrivals == sum(
            len(p.arrivals) for p in cold.clock_verification.phases.values()
        ) + sum(
            # Min-delay maps of the overlap check.
            len(arrivals)
            for key, arrivals in tv._memo.arrivals.items()
            if key[0] == "min"
        )

        dev = net.device(sorted(net.devices)[10])
        dev.w *= 1.1
        tv.notify_changed([dev.name])
        tv.analyze()
        assert trace.counters["graph_builds"] == 3
        assert trace.counters["graph_patches"] == 3
        assert trace.counters["settle_runs"] == 2
        recomputed = trace.counters["arrivals_recomputed"] - cold_arrivals
        assert 0 < recomputed < cold_arrivals // 4

    def test_combinational_delta_patches(self):
        net = ripple_adder(6)
        trace = Trace(logger=None)
        tv = TimingAnalyzer(net, trace=trace)
        tv.analyze()
        dev = net.device(sorted(net.devices)[3])
        dev.w *= 1.25
        tv.notify_changed([dev.name])
        tv.analyze()
        assert trace.counters["graph_builds"] == 1
        assert trace.counters["graph_patches"] == 1
        assert "settle_runs" not in trace.counters


class TestStalenessContract:
    def test_without_notify_results_are_stale_by_design(self):
        # The documented contract: edits without notify_changed reuse the
        # cache.  This test pins the behaviour so it never becomes an
        # accidental half-invalidation.
        net = ripple_adder(4)
        tv = TimingAnalyzer(net)
        base = tv.analyze().max_delay
        some_device = next(iter(net.devices.values()))
        some_device.w *= 0.25
        stale = tv.analyze().max_delay
        assert stale == base
        tv.notify_changed([some_device.name])
        assert tv.analyze().max_delay != base
