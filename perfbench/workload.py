"""One benchmark workload, run in its own process by ``run.py``.

Prints one JSON object on its last stdout line: the raw samples, the
end-to-end summary, the correctness tally and, in a traced run, the
per-layer metrics.

Time metrics are host-normalized.  The shared host this benchmark runs
on drifts by a third in speed over minutes, for every process alike, so
raw seconds from two sets of runs cannot be compared.  Between measured
operations the workload has a helper process (``calibrate.py``) time a
fixed pure-Python pass; each compute time is scaled by ``CALIB_REF_S``
over the median time of the passes around it, i.e. reported in seconds
of a host on which that pass takes ``CALIB_REF_S``.  Time a request
spends waiting outside the daemon's handler (socket I/O, TCP stalls) is
not compute and is added unscaled.  Raw medians are printed alongside.

``run.py`` pins ``PYTHONHASHSEED``, ``PYTHONPATH`` and the CPU for it;
run it directly only to debug::

    PYTHONHASHSEED=0 PYTHONPATH=src python3 perfbench/workload.py \
        --workload random_logic_comb --seed 1 --seconds 5 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import http.client
import json
import os
import pathlib
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import oracle
import spans

HERE = pathlib.Path(__file__).resolve().parent
#: Scratch space inside the checkout: journals, daemon stats, spans.
WORKDIR = HERE.parent / ".perfbench_work"

WORKLOADS = ("mips_two_phase", "random_logic_comb", "serve_edit_loop")

#: Analyzer constructions per batch run; setup_s is their median.
SETUP_REPS = 5
#: Cold (construct + analyze) cycles per batch run; analyze_s is their
#: median.  One MIPS two-phase analysis takes ~20 s, so it gets one.
COLD_ANALYSES = {"mips_two_phase": 1, "random_logic_comb": 3}
#: Daemon spawns per serve run; setup_s is the median spawn-to-report.
SERVE_SPAWNS = 3
#: Edit-loop iterations run even when ``--seconds`` is already spent.
MIN_ITERATIONS = 2
#: In-process explain calls after each batch delta.
QUERY_REPS = 10
#: Relative width change of one edit (+ or -, drawn from the seed).
EDIT_STEP = 0.10
#: Name the serve workload loads its design under.
SERVE_DESIGN = "dp"
#: Calibration-pass time of the nominal host normalized times refer to.
CALIB_REF_S = 0.025
#: Least gap between two calibration samples, and samples taken at start.
CALIB_EVERY_S = 0.25
CALIB_WARMUP = 10
#: A measured operation is normalized by the passes taken from this long
#: before it starts to this long after it ends, or by the nearest
#: ``CALIB_LOCAL_MIN`` passes when the window holds fewer.
CALIB_WINDOW_S = 3.0
CALIB_LOCAL_MIN = 6


class Calibrator:
    """Asks the calibration helper (``calibrate.py``) for a timed pass
    between measured operations; the median time of the passes around an
    operation gives the factor that maps its compute time onto the
    nominal host."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.stamps: list[float] = []
        self._last = 0.0
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("calibration helper did not start")
        for _ in range(CALIB_WARMUP):
            self.measure()

    def measure(self) -> None:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        self.samples.append(float(self.proc.stdout.readline()))
        self._last = time.perf_counter()
        self.stamps.append(self._last)

    def tick(self) -> None:
        if time.perf_counter() - self._last >= CALIB_EVERY_S:
            self.measure()

    def factor(self, start: float = float("-inf"),
               end: float = float("inf")) -> float:
        """``CALIB_REF_S`` over the median pass time around the interval
        ``[start, end]`` (the whole run by default)."""
        near = [d for t, d in zip(self.stamps, self.samples)
                if start - CALIB_WINDOW_S <= t <= end + CALIB_WINDOW_S]
        if len(near) < CALIB_LOCAL_MIN:
            by_gap = sorted(zip(self.stamps, self.samples),
                            key=lambda td: max(start - td[0], td[0] - end))
            near = [d for _, d in by_gap[:CALIB_LOCAL_MIN]]
        return CALIB_REF_S / statistics.median(near)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
        self.proc.wait()


def build_design(workload: str, seed: int, size: str):
    """The generated netlist of a workload (``size`` full or tiny)."""
    from repro.circuits import (
        mips_benchmark_datapath,
        mips_like_datapath,
        random_logic,
    )

    tiny = size == "tiny"
    if workload == "mips_two_phase":
        if tiny:
            return mips_like_datapath(4, 2, n_shifts=2)[0]
        return mips_benchmark_datapath()[0]
    if workload == "random_logic_comb":
        return random_logic(400 if tiny else 50_000, seed=seed)
    if workload == "serve_edit_loop":
        if tiny:
            return mips_like_datapath(4, 2, n_shifts=2)[0]
        return mips_like_datapath(16, 8, n_shifts=4)[0]
    raise ValueError(f"unknown workload {workload!r}")


def tail(samples: list) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile with at least ten
    samples beyond it, never below the median."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Tally:
    """Operations attempted and failed (error or wrong output)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool = True, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def timed(samples: list, fn, *args, **kwargs):
    """Run ``fn``; append ``(start, end, compute seconds, wait seconds)``,
    all of an in-process call being compute."""
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    ended = time.perf_counter()
    samples.append((started, ended, ended - started, 0.0))
    return result


def normalized(samples: list, cal: Calibrator | None) -> list[float]:
    """Sample times on the nominal host (raw times without ``cal``)."""
    return [compute * (cal.factor(start, end) if cal else 1.0) + wait
            for start, end, compute, wait in samples]


# ----------------------------------------------------------------------
# Batch workloads: mips_two_phase, random_logic_comb.
# ----------------------------------------------------------------------
def run_batch(args, rec, cal) -> dict:
    from repro import TimingAnalyzer

    net = build_design(args.workload, args.seed, args.size)
    key = args.workload if args.workload == "mips_two_phase" \
        else f"{args.workload}:{args.seed}"
    expected = oracle.reference(key) if args.size == "full" else None
    tally = Tally()
    setup, analyze, delta, query = [], [], [], []
    cold = COLD_ANALYSES[args.workload]
    tv = result = cold_digest = None
    for rep in range(SETUP_REPS):
        tv = result = None
        gc.collect()
        cal.tick()
        rec.phase = "setup"
        tv = timed(setup, TimingAnalyzer, net)
        rec.phase = None
        tally.op()
        if rep < SETUP_REPS - cold:
            continue
        cal.tick()
        rec.phase = "cold"
        result = timed(analyze, tv.analyze)
        rec.phase = None
        cal.measure()
        digest = oracle.result_digest(result)
        ok = (cold_digest in (None, digest)) and expected in (None, digest)
        tally.op(ok, f"cold digest {digest} != reference {expected}")
        cold_digest = digest

    # Edit loop on the resident analyzer: resize one device, re-analyze,
    # query, restore it exactly and re-analyze.  The restored state must
    # reproduce the cold digest.
    rng = random.Random(args.seed)
    names = sorted(net.devices)
    endpoint = result.paths[0].endpoint
    iterations = 0
    rec.phase = "loop"
    started = time.perf_counter()
    while (iterations < MIN_ITERATIONS
           or time.perf_counter() - started < args.seconds):
        cal.tick()
        name = rng.choice(names)
        device = net.device(name)
        nominal = device.w
        device.w = nominal * (1.0 + rng.choice((-EDIT_STEP, EDIT_STEP)))
        edited = timed(delta, _reanalyze, tv, name)
        tally.op()
        for _ in range(QUERY_REPS):
            timed(query, tv.explain, endpoint, result=edited)
            tally.op()
        cal.tick()
        device.w = nominal
        restored = timed(delta, _reanalyze, tv, name)
        for _ in range(QUERY_REPS):
            timed(query, tv.explain, endpoint, result=restored)
            tally.op()
        rec.phase = None
        digest = oracle.result_digest(restored)
        tally.op(digest == cold_digest,
                 f"restored digest {digest} != cold {cold_digest}")
        rec.phase = "loop"
        iterations += 1
    rec.phase = None
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    onehot = len(net.exclusive_groups)
    return {
        "tally": tally,
        "samples": {"setup": setup, "analyze": analyze, "delta": delta,
                    "query": query},
        "peak_rss_mb": rss_kb / 1024.0,
        "onehot": {"generated": onehot, "analyzed": onehot},
        "layer_phase": ("cold", len(analyze), len(setup)),
        "iterations": iterations,
        "reference": expected,
        "digest": cold_digest,
        "spans": rec.spans,
    }


def _reanalyze(tv, name):
    tv.notify_changed([name])
    return tv.analyze()


# ----------------------------------------------------------------------
# Serve workload: one daemon, one closed-loop client connection.
# ----------------------------------------------------------------------
class Daemon:
    """A daemon launched through ``daemon.py`` plus one keep-alive
    connection to it."""

    def __init__(self, workdir: pathlib.Path, index: int, trace: int):
        self.dir = workdir / f"daemon{index}"
        self.dir.mkdir(parents=True)
        self.stats_path = self.dir / "stats.json"
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "daemon.py"),
             "--journal-dir", str(self.dir / "journal"),
             "--stats", str(self.stats_path),
             "--trace", str(trace),
             "--id-base", str((index + 1) * 10**9)],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("port "):
            self.kill()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", int(line.split()[1]), timeout=120
        )

    def post(self, path: str, body: dict) -> tuple[int, dict]:
        self.conn.request("POST", path, body=json.dumps(body),
                          headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def stop(self) -> dict:
        self.conn.close()
        self.proc.send_signal(signal.SIGTERM)
        self.proc.wait(timeout=60)
        return json.loads(self.stats_path.read_text())

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_serve(args, rec, cal) -> dict:
    from repro import TimingAnalyzer
    from repro.netlist import sim_dumps, sim_loads

    net = build_design(args.workload, args.seed, args.size)
    sim_text = sim_dumps(net)
    loaded = sim_loads(sim_text, name=SERVE_DESIGN)
    expected = oracle.reference(args.workload) if args.size == "full" \
        else None
    base = f"/designs/{SERVE_DESIGN}"
    tally = Tally()
    setup, analyze, delta, query = [], [], [], []
    daemon_spans: list = []
    workdir = WORKDIR / f"serve-{os.getpid()}"
    daemon = None
    n_loads = 0
    cold_digests: list[str] = []

    def request(samples, name, path, body, *, check=None):
        started = time.perf_counter()
        status, payload = rec.call(name, daemon.post, (path, body), {})
        ended = time.perf_counter()
        latency = ended - started
        ok = 200 <= status < 300 and payload.get("ok") is True
        if samples is not None:
            # The daemon's handler time is compute; the rest of the
            # latency is HTTP transport and waiting.
            handler = min(payload.get("elapsed_ms", 0.0) / 1e3, latency)
            samples.append((started, ended, handler, latency - handler))
        problem = f"{name} -> HTTP {status}: {payload.get('error')}"
        if ok and check is not None:
            ok, problem = check(payload)
        tally.op(ok, problem)
        return payload

    def cold_check(payload):
        digest = oracle.report_digest(payload["report"])
        cold_digests.append(digest)
        return (expected in (None, digest) and digest == cold_digests[0],
                f"cold report digest {digest} != reference {expected}")

    try:
        for spawn in range(SERVE_SPAWNS):
            cal.tick()
            rec.phase = "setup"
            started = time.perf_counter()
            daemon = Daemon(workdir, spawn, args.trace)
            request(None, "http.load", base, {"sim": sim_text})
            n_loads += 1
            request(None, "http.analyze", base + "/analyze", {},
                    check=cold_check)
            ended = time.perf_counter()
            setup.append((started, ended, ended - started, 0.0))
            rec.phase = None
            if spawn < SERVE_SPAWNS - 1:
                stats = daemon.stop()
                daemon_spans += spans.merge_daemon_spans(rec.spans,
                                                         stats["spans"])
                daemon = None

        # The session's first corner request builds its symbolic source,
        # once; it is timed apart so the loop's corner samples are alike.
        first_corner: list = []
        request(first_corner, "http.corner", base + "/analyze",
                {"corner": "slow"})
        rng = random.Random(args.seed)
        names = sorted(loaded.devices)
        widths: dict[str, float] = {}
        iterations = 0
        rec.phase = "loop"
        started = time.perf_counter()
        while (iterations < MIN_ITERATIONS
               or time.perf_counter() - started < args.seconds):
            cal.tick()
            name = rng.choice(names)
            width = loaded.device(name).w * (
                1.0 + rng.choice((-EDIT_STEP, EDIT_STEP)))
            widths[name] = width
            request(delta, "http.delta", base + "/delta",
                    {"edits": [{"device": name, "w": width}]})
            request(query, "http.analyze", base + "/analyze", {})
            request(query, "http.explain", base + "/explain", {})
            cal.tick()
            request(analyze, "http.corner", base + "/analyze",
                    {"corner": "slow"})
            iterations += 1
        rec.phase = None
        final = request(None, "http.analyze", base + "/analyze", {})
        stats = daemon.stop()
        daemon_spans += spans.merge_daemon_spans(rec.spans, stats["spans"])
        daemon = None
    finally:
        rec.phase = None
        if daemon is not None:
            daemon.kill()
        shutil.rmtree(workdir, ignore_errors=True)

    # Oracle: the same .sim text with the same edits, analyzed in-process.
    for name, width in widths.items():
        loaded.device(name).w = width
    reference = oracle.report_digest(TimingAnalyzer(loaded).analyze().to_json())
    got = oracle.report_digest(final["report"]) if final.get("ok") else None
    tally.op(got == reference,
             f"final reply digest {got} != in-process {reference}")
    tally.op(final.get("epoch") == iterations,
             f"final epoch {final.get('epoch')} != {iterations} deltas")
    return {
        "tally": tally,
        "samples": {"setup": setup, "analyze": analyze, "delta": delta,
                    "query": query},
        "peak_rss_mb": stats["max_rss_kb"] / 1024.0,
        "onehot": {"generated": len(net.exclusive_groups),
                   "analyzed": len(loaded.exclusive_groups)},
        "first_corner_s": first_corner[0][1] - first_corner[0][0],
        "layer_phase": ("loop", iterations, n_loads),
        "iterations": iterations,
        "reference": expected,
        "digest": cold_digests[0],
        "spans": rec.spans + daemon_spans,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    rec = spans.Recorder()
    if args.trace:
        spans.install(rec)
    cal = Calibrator()
    try:
        run = run_serve if args.workload == "serve_edit_loop" else run_batch
        out = run(args, rec, cal)
        for _ in range(CALIB_WARMUP):
            cal.measure()
    finally:
        cal.close()

    factor = cal.factor()
    samples = {name: normalized(pairs, cal)
               for name, pairs in out["samples"].items()}
    raw = {name: statistics.median(normalized(pairs, None))
           for name, pairs in out["samples"].items()}
    delta_tail, tail_pct = tail(samples["delta"])
    e2e = {
        "setup_s": statistics.median(samples["setup"]),
        "analyze_s": statistics.median(samples["analyze"]),
        "peak_rss_mb": out["peak_rss_mb"],
        "delta_p50_s": statistics.median(samples["delta"]),
        "delta_tail_s": delta_tail,
        "query_p50_s": statistics.median(samples["query"]),
    }
    tally = out["tally"]
    report = {
        "e2e": e2e,
        "tail_percentile": tail_pct,
        "counts": {k: len(v) for k, v in samples.items()},
        "raw_p50_s": raw,
        "calibration": {"median_s": statistics.median(cal.samples),
                        "samples": len(cal.samples),
                        "factor": factor},
        "iterations": out["iterations"],
        "onehot": out["onehot"],
        "reference": out["reference"],
        "digest": out["digest"],
        "first_corner_s": out.get("first_corner_s"),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems[:20],
    }
    if args.trace:
        op_phase, n_ops, n_setups = out["layer_phase"]
        spans.finish(out["spans"])
        layers, hot = spans.layer_metrics(out["spans"], op_phase, n_ops,
                                          n_setups)
        layers["netlist.onehot_groups_generated"] = out["onehot"]["generated"]
        layers["netlist.onehot_groups_analyzed"] = out["onehot"]["analyzed"]
        for name in ("setup_s", "analyze_s", "delta_p50_s"):
            layers[f"trace.{name}"] = e2e[name]
        report["per_layer"] = layers
        report["hot10"] = hot
        WORKDIR.mkdir(exist_ok=True)
        spans_file = WORKDIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(out["spans"]))
        report["spans_file"] = str(spans_file.relative_to(HERE.parent))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
