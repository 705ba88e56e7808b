"""Tests for arc sharing by clock signature.

Extraction reads the clock context ``(active_clocks, open_gates)`` only
through ``StageDelayCalculator._clock_open``, so a stage's arcs are a
function of its cut set: the member devices that predicate cuts.  The arc
cache shares one extraction among the contexts with equal cut sets.  The
oracles here compute each context's cut straight from ``_clock_open`` and
compare against a calculator that extracts one context alone.
"""

import json

import pytest

from repro import DeviceKind, Netlist, TimingAnalyzer
from repro.bench.perf import parity_circuits
from repro.circuits import mips_like_datapath, ripple_adder
from repro.circuits.latches import add_half_latch
from repro.core import constraints
from repro.core.mcmm import Scenario
from repro.delay import StageDelayCalculator, stage_delay
from repro.netlist import sim_dumps, sim_loads
from repro.trace import Trace


def _payload(result) -> str:
    return json.dumps(result.to_json(), sort_keys=True)


def _tiny_datapath():
    return mips_like_datapath(4, 2, n_shifts=2)[0]


def _resized(make, edited):
    """A new copy of ``make()`` with the sizes of ``edited``."""
    net = make()
    for name, dev in edited.devices.items():
        net.device(name).w = dev.w
        net.device(name).l = dev.l
    return net


def _serve_design():
    net = mips_like_datapath(16, 8, n_shifts=4)[0]
    return sim_loads(sim_dumps(net), name="dp")


def _contexts(tv):
    """The clock contexts an analysis sweeps, in sweep order: each phase
    with its settled open gates, then the all-transparent view."""
    found = []
    if tv.clock is not None and tv.netlist.clocks:
        for phase in tv.clock.phases:
            found.append(
                (
                    tv.clock.clock_nodes(tv.netlist, phase),
                    tv._memo.settled[phase],
                )
            )
    found.append((None, frozenset()))
    return found


def _cut(calc, stage, active_clocks, open_gates):
    return frozenset(
        dev.name
        for dev in calc.graph.devices_of(stage)
        if calc._clock_open(dev, active_clocks, open_gates)
    )


def _expected_pairs(tv):
    calc = tv.calculator
    return {
        (stage.index, _cut(calc, stage, *context))
        for context in _contexts(tv)
        for stage in calc.graph
    }


@pytest.fixture
def extractions(monkeypatch):
    """Every extraction as ``(stage index, cut)``, in call order."""
    seen = []
    gate_arcs = StageDelayCalculator._gate_arcs

    def recording(self, ctx):
        seen.append((ctx.stage.index, ctx.cut))
        return gate_arcs(self, ctx)

    monkeypatch.setattr(StageDelayCalculator, "_gate_arcs", recording)
    return seen


def _assert_shared_arcs_match_alone(tv):
    calc = tv.calculator
    checked = 0
    for active_clocks, open_gates in _contexts(tv):
        alone = calc.retarget(calc.tech)
        for stage in calc.graph:
            assert calc.arcs(stage, active_clocks, open_gates) == alone.arcs(
                stage, active_clocks, open_gates
            )
            checked += 1
        assert set(alone._arc_cache) >= {
            (stage.index, active_clocks, open_gates) for stage in calc.graph
        }
    return checked


class TestSharedArcsEqualOneContextAlone:
    @pytest.mark.parametrize(
        "name,make", parity_circuits(), ids=[n for n, _ in parity_circuits()]
    )
    def test_zoo(self, name, make):
        tv = TimingAnalyzer(make())
        tv.analyze()
        assert _assert_shared_arcs_match_alone(tv)

    def test_serve_design(self):
        tv = TimingAnalyzer(_serve_design())
        tv.analyze()
        assert len(_contexts(tv)) == 3
        assert _assert_shared_arcs_match_alone(tv) == 3 * len(tv.stage_graph)


class TestExtractionCounters:
    def test_each_stage_and_cut_extracted_once(self, extractions):
        trace = Trace(logger=None)
        tv = TimingAnalyzer(_tiny_datapath(), trace=trace)
        tv.analyze()
        expected = _expected_pairs(tv)
        assert len(extractions) == len(set(extractions))
        assert set(extractions) == expected
        # Something is shared, and something is not.
        stages = len(tv.stage_graph)
        assert stages < len(expected) < 3 * stages
        assert trace.counters["arc_signature_hits"] > 0

        # A second analysis extracts nothing.
        tv.analyze()
        assert len(extractions) == len(expected)

    def test_corner_sibling_evaluates_once_per_signature(self, extractions):
        trace = Trace(logger=None)
        tv = TimingAnalyzer(_tiny_datapath(), trace=trace)
        tv.analyze()
        want = _expected_pairs(tv)
        del extractions[:]
        sibling = tv._scenario_analyzer(
            Scenario(name="slow", tech=tv.tech.corner("slow")),
            term_source=tv.calculator.parametric_source(),
        )
        got = _payload(sibling.analyze())
        # The symbolic source extracts once per signature, the sibling
        # evaluates once per signature.
        assert len(extractions) == len(set(extractions))
        assert set(extractions) == want
        assert trace.counters["parametric_stage_evals"] == len(want)
        fresh = _tiny_datapath()
        assert got == _payload(
            TimingAnalyzer(fresh, tech=fresh.tech.corner("slow")).analyze()
        )

    def test_transparent_design_makes_no_signature_lookups(self, monkeypatch):
        calls = []
        cut_set = StageDelayCalculator._cut_set

        def counting(self, *args):
            calls.append(args)
            return cut_set(self, *args)

        monkeypatch.setattr(StageDelayCalculator, "_cut_set", counting)
        trace = Trace(logger=None)
        tv = TimingAnalyzer(ripple_adder(4), trace=trace)
        tv.analyze()
        assert calls == []
        assert "arc_signature_hits" not in trace.counters


@pytest.mark.skipif(
    not stage_delay._fork_available(), reason="the pool needs fork"
)
def test_pooled_fill_equals_serial_fill(monkeypatch):
    """Pooled sweeps chunk only the stages whose signature is not cached
    yet, and leave the cache a serial analysis leaves."""
    chunked = []
    work_chunks = StageDelayCalculator._work_chunks

    def recording(self, indices, workers):
        chunked.append(list(indices))
        return work_chunks(self, indices, workers)

    monkeypatch.setattr(StageDelayCalculator, "_work_chunks", recording)
    serial = TimingAnalyzer(_tiny_datapath())
    serial.analyze()
    calc = TimingAnalyzer(_tiny_datapath(), workers=2).calculator
    seen = set()
    try:
        for context in _contexts(serial):
            fresh = [
                stage.index
                for stage in calc.graph
                if (stage.index, _cut(calc, stage, *context)) not in seen
            ]
            seen.update(
                (stage.index, _cut(calc, stage, *context))
                for stage in calc.graph
            )
            del chunked[:]
            calc.all_arcs(*context, parallel=True, workers=2)
            assert chunked == [fresh]
    finally:
        stage_delay.shutdown_pool()
    assert calc._arc_cache == serial.calculator._arc_cache


class TestEditOnASharedStage:
    def test_one_reextraction_serves_every_sweep(self, extractions):
        net = _tiny_datapath()
        trace = Trace(logger=None)
        tv = TimingAnalyzer(net, trace=trace)
        tv.analyze()
        calc = tv.calculator
        contexts = _contexts(tv)

        def shared(stage):
            return stage is not None and not any(
                _cut(calc, stage, *context) for context in contexts
            )

        def stale_stages(dev):
            found = {tv.stage_graph.stage_of(n) for n in
                     (dev.gate, dev.source, dev.drain)}
            found.discard(None)
            return found

        dev = next(
            net.device(name)
            for name in sorted(net.devices)
            if all(shared(s) for s in stale_stages(net.device(name)))
            and net.device(name).kind is DeviceKind.ENH
        )
        stale = {stage.index for stage in stale_stages(dev)}
        del extractions[:]
        builds = trace.counters["graph_builds"]
        patches = trace.counters.get("graph_patches", 0)

        dev.w *= 1.25
        tv.notify_changed([dev.name])
        got = _payload(tv.analyze())

        assert sorted(extractions) == sorted(
            (index, frozenset()) for index in stale
        )
        assert trace.counters["graph_builds"] == builds
        assert trace.counters["graph_patches"] == patches + 3
        assert got == _payload(
            TimingAnalyzer(_resized(_tiny_datapath, net)).analyze()
        )


def _racy():
    net = Netlist("racy")
    net.set_input("d")
    net.set_clock("phi1", "phi1")
    net.set_clock("phi2", "phi2")
    add_half_latch(net, "d", "q1", "phi1", tag="l1")
    add_half_latch(net, "q1", "q2", "phi1", tag="l2")
    add_half_latch(net, "q2", "q3", "phi2", tag="l3")
    net.set_output("q3")
    return net


class TestRaceMemo:
    @pytest.fixture
    def searches(self, monkeypatch):
        phases = []
        find = constraints._find_races

        def counting(netlist, calculator, graph, clock, phase, *rest):
            phases.append(phase)
            return find(netlist, calculator, graph, clock, phase, *rest)

        monkeypatch.setattr(constraints, "_find_races", counting)
        return phases

    def test_width_edit_reuses_the_race_list(self, searches):
        net = _racy()
        tv = TimingAnalyzer(net)
        before = tv.analyze().clock_verification.races
        assert before and searches == ["phi1", "phi2"]
        dev = net.device("l1.inv.pd")
        dev.w *= 1.5
        tv.notify_changed([dev.name])
        result = tv.analyze()
        assert searches == ["phi1", "phi2"]
        assert result.clock_verification.races == before
        assert _payload(result) == _payload(
            TimingAnalyzer(_resized(_racy, net)).analyze()
        )

    def test_shape_changing_edit_recomputes_it(self, monkeypatch, searches):
        net = _racy()
        tv = TimingAnalyzer(net)
        assert tv.analyze().clock_verification.races
        merge = stage_delay._merge_arcs

        def without_latch_write(arcs):
            return [a for a in merge(arcs) if a.output != "l2.s2"]

        monkeypatch.setattr(stage_delay, "_merge_arcs", without_latch_write)
        tv.notify_changed(["l2.sw"])
        result = tv.analyze()
        # Only phi1's graph lost an arc: phi2 cuts l2.sw anyway, so its
        # graph patches and its race list stays.
        assert searches == ["phi1", "phi2", "phi1"]
        assert result.clock_verification.races == []
        assert _payload(result) == _payload(TimingAnalyzer(_racy()).analyze())
