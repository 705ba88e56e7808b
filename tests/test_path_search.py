"""Tests for the stage path search behind every arc family.

Every family finds its worst path with one labelled walk
(``StageDelayCalculator._worst_paths``).  These tests pin the search
sites the circuit zoo never reaches (precharge cross arcs, with and
without a same-clock sibling), the select arc into a pulled-up output,
truncation on the vdd-headed families, and the labelling property that
lets one walk stand in for one walk per trigger.
"""

import pytest

from repro import DeviceKind, Netlist, TimingAnalyzer
from repro.bench.perf import parity_circuits
from repro.circuits import add_inverter
from repro.delay import FALL, RISE, StageDelayCalculator
from repro.delay.stage_delay import StageContext
from repro.flow import infer_flow
from repro.stages import decompose

PHI1 = frozenset({"phi1"})


def calculator(net, **kwargs) -> StageDelayCalculator:
    infer_flow(net)
    return StageDelayCalculator(net, decompose(net), **kwargs)


def arc_for(arcs, trigger, output):
    matches = [a for a in arcs if a.trigger == trigger and a.output == output]
    assert len(matches) == 1, f"no single arc {trigger} -> {output}: {arcs}"
    return matches[0]


def precharged_triangle(sibling: bool) -> Netlist:
    """Precharged ``p`` reaching output ``r`` directly and through ``q``.

    With ``sibling`` the middle node ``q`` has its own phi1 precharger,
    so the longer path through it is shunted and must not be searched.
    """
    net = Netlist("precharged_triangle")
    net.set_clock("phi1", "phi1")
    net.set_clock("phi2", "phi2")
    net.set_input("a", "s1", "s2", "s3")
    net.add_enh("phi1", "vdd", "p", name="pre_p")
    net.add_enh("a", "p", "gnd", name="eval_p")
    if sibling:
        net.add_enh("phi1", "vdd", "q", name="pre_q")
    net.add_enh("s1", "p", "q", name="pq")
    net.add_enh("s2", "q", "r", name="qr")
    net.add_enh("s3", "p", "r", name="pr")
    add_inverter(net, "r", "y", tag="inv")
    net.set_output("y")
    return net


class TestPrechargeCrossArcs:
    """Precharge arcs toward an output other than the precharged node."""

    def test_cross_arc_takes_the_worst_pass_path(self):
        calc = calculator(precharged_triangle(sibling=False))
        arcs = calc.arcs(calc.graph.stage_of("r"), active_clocks=PHI1)
        arc = arc_for(arcs, "phi1", "r")
        assert not arc.inverting and arc.fall is None
        assert arc.rise.path == ("pre_p", "pq", "qr")
        assert arc.rise.delay == pytest.approx(1.30752e-9, rel=1e-12)
        assert not arc.rise.truncated

    def test_same_clock_sibling_shunts_the_longer_path(self):
        calc = calculator(precharged_triangle(sibling=True))
        arcs = calc.arcs(calc.graph.stage_of("r"), active_clocks=PHI1)
        arc = arc_for(arcs, "phi1", "r")
        # The worse of pre_p's direct path and pre_q's own path; never
        # a path through the sibling-precharged q.
        assert arc.rise.path == ("pre_p", "pr")
        assert arc.rise.delay == pytest.approx(9.4848e-10, rel=1e-12)
        # Each precharged node keeps its own zero-hop arc.
        assert arc_for(arcs, "phi1", "p").rise.path == ("pre_p",)
        assert arc_for(arcs, "phi1", "q").rise.path == ("pre_q",)

    def test_inactive_clock_has_no_precharge_arc(self):
        calc = calculator(precharged_triangle(sibling=True))
        arcs = calc.arcs(
            calc.graph.stage_of("r"), active_clocks=frozenset({"phi2"})
        )
        assert not [a for a in arcs if a.trigger == "phi1"]


class TestSelectIntoPulledUpOutput:
    """A select arc whose output is itself a pulled-up driving point."""

    @staticmethod
    def net() -> Netlist:
        net = Netlist("select_pulled_up")
        net.set_input("a", "s")
        net.add_pullup("x")
        net.add_enh("s", "a", "x")
        add_inverter(net, "x", "y", tag="inv")
        net.set_output("y")
        return net

    def test_select_arc_found(self):
        calc = calculator(self.net())
        arc = arc_for(calc.arcs(calc.graph.stage_of("x")), "s", "x")
        assert arc.via == "gate" and not arc.inverting
        assert arc.rise is not None and arc.fall is not None

    def test_select_path_is_critical(self):
        result = TimingAnalyzer(self.net()).analyze()
        # The select (s -> x) and the channel (a -> x) arcs time alike;
        # before the fix only the channel arc existed (0.835 ns).
        assert result.max_delay == pytest.approx(1.4351593e-9, rel=1e-6)
        assert result.arrival_of("x") is not None


def parallel_pair(net: Netlist, near: str, far: str) -> None:
    """Two parallel pass devices from ``near`` to ``far``: two paths."""
    net.set_input("s1", "s2")
    net.add_enh("s1", near, far, name="pass1")
    net.add_enh("s2", near, far, name="pass2")


def pullup_rise_net() -> Netlist:
    net = Netlist("pullup_rise")
    net.set_input("a")
    net.add_pullup("x")
    net.add_enh("a", "x", "gnd", name="pd")
    parallel_pair(net, "x", "z")
    add_inverter(net, "z", "y", tag="inv")
    net.set_output("y")
    return net


def follower_net() -> Netlist:
    net = Netlist("follower")
    net.set_input("g")
    net.add_transistor(DeviceKind.DEP, "g", "n", "vdd", name="follow")
    parallel_pair(net, "n", "z")
    add_inverter(net, "z", "y", tag="inv")
    net.set_output("y")
    return net


def precharge_net() -> Netlist:
    net = Netlist("precharge")
    net.set_clock("phi1", "phi1")
    net.set_clock("phi2", "phi2")
    net.add_enh("phi1", "vdd", "p", name="pre")
    parallel_pair(net, "p", "z")
    add_inverter(net, "z", "y", tag="inv")
    net.set_output("y")
    return net


class TestTruncationCarried:
    """The vdd-headed families report a capped search (report schema)."""

    @pytest.mark.parametrize(
        "make,trigger,clocks",
        [
            (pullup_rise_net, "a", None),
            (follower_net, "g", None),
            (precharge_net, "phi1", PHI1),
        ],
        ids=["pullup_rise", "follower", "precharge"],
    )
    def test_rise_marked_truncated_at_the_cap(self, make, trigger, clocks):
        def rise(max_paths):
            calc = calculator(make(), max_paths=max_paths)
            stage = calc.graph.stage_of("z")
            return arc_for(
                calc.arcs(stage, active_clocks=clocks), trigger, "z"
            ).rise

        capped, full = rise(1), rise(4096)
        assert capped.truncated
        assert not full.truncated
        # One of the two equal parallel paths either way.
        assert capped.delay == full.delay


def _walk_sites(calc, stage):
    """Every (start, targets, adjacency, respect_flow) an extractor walks
    with labels: discharge walks to gnd and pass walks to the select
    targets, each from every stage output."""
    ctx = StageContext(calc, stage, frozenset())
    targets = set(ctx.pulled_up)
    targets.update(b for b in stage.boundary if not calc.netlist.is_rail(b))
    for output in stage.outputs:
        yield output, {calc.netlist.gnd}, ctx.conduction_adjacency(FALL), False
        if targets:
            for transition in (RISE, FALL):
                yield output, targets, ctx.pass_adjacency(transition), True


class TestLabelledWalk:
    @pytest.mark.parametrize(
        "name,make", parity_circuits(), ids=[n for n, _ in parity_circuits()]
    )
    def test_one_labelled_walk_equals_a_walk_per_label(self, name, make):
        """A labelled walk's answer for each label is what a walk that
        only knows that label finds, truncation flag included."""
        calc = TimingAnalyzer(make()).calculator
        walks = 0
        for stage in calc.graph:
            gate_of = {
                dev.name: dev.gate for dev in calc.graph.devices_of(stage)
            }
            for start, targets, adjacency, flow in _walk_sites(calc, stage):
                best, truncated = calc._worst_paths(
                    start, targets, adjacency, labels=gate_of,
                    respect_flow=flow,
                )
                walks += 1
                for label in set(gate_of.values()):
                    only = {n: g for n, g in gate_of.items() if g == label}
                    alone, alone_truncated = calc._worst_paths(
                        start, targets, adjacency, labels=only,
                        respect_flow=flow,
                    )
                    assert alone_truncated == truncated
                    if label in best:
                        assert alone == {label: best[label]}
                    else:
                        assert alone == {}
        assert walks
