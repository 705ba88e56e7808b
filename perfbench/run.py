"""The repo benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload serve_edit_loop --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout.  The workload runs in its own process
with ``PYTHONPATH=src`` and a pinned ``PYTHONHASHSEED``.  Human-readable
lines (environment, one-hot group counts, sample counts, failure rate,
hot stages) come first; the last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}`` whose metrics are every
``end_to_end`` metric of ``BENCHMARK.json`` (``--trace 0``) or every
``per_layer`` metric (``--trace 1``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
#: Hash seed every workload process (and its daemon) runs under.
PINNED_HASHSEED = "0"
#: A run must end within 180 s; the workload process gets this long.
WORKLOAD_TIMEOUT_S = 170
#: Workloads this command runs besides those of ``BENCHMARK.json``.  The
#: MIPS two-phase run characterizes the paper's headline circuit (layer
#: breakdown, hot stages); its single 17-s cold analysis per run varied
#: by 18-24% between runs on the shared host, too much for a bound.
EXTRA_WORKLOADS = ["mips_two_phase"]


def environment(hashseed: str, cpu: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "pythonhashseed": hashseed,
        "loadavg": list(os.getloadavg()),
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]]
                        + EXTRA_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Self-test knobs; the benchmark proper always runs full size.
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--hashseed", default=PINNED_HASHSEED,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro in this checkout; nothing to measure",
              file=sys.stderr)
        return 2

    # The workload and its daemon share one CPU, so the calibration loop
    # (workload.py) times the CPU that does the measured work.
    cpu = min(os.sched_getaffinity(0))
    env = environment(args.hashseed, cpu)
    os.sched_setaffinity(0, {cpu})
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    child_env = dict(os.environ, PYTHONHASHSEED=args.hashseed,
                     PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workload.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--size", args.size],
        cwd=ROOT, env=child_env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: workload timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not stdout.strip():
        print(f"perfbench: workload exited {proc.returncode}",
              file=sys.stderr)
        return 1
    report = json.loads(stdout.strip().splitlines()[-1])

    onehot = report["onehot"]
    print(f"onehot groups: generated={onehot['generated']} "
          f"analyzed={onehot['analyzed']}")
    print(f"samples: {json.dumps(report['counts'], sort_keys=True)} "
          f"iterations={report['iterations']} "
          f"delta_tail=p{report['tail_percentile']:.1f}")
    calibration = report["calibration"]
    print(f"calibration: median {calibration['median_s'] * 1e3:.3f} ms over "
          f"{calibration['samples']} samples, run-wide time factor "
          f"{calibration['factor']:.4f}")
    print("raw medians (s): " + json.dumps(report["raw_p50_s"],
                                           sort_keys=True))
    print(f"digest: {report['digest']} "
          f"(reference: {report['reference'] or 'none for this seed'})")
    if report["first_corner_s"] is not None:
        print(f"first corner request (builds the symbolic source): "
              f"{report['first_corner_s']:.3f} s")
    failure_rate = report["failed"] / report["attempted"]
    print(f"failure_rate {failure_rate:.6f} "
          f"({report['failed']} of {report['attempted']} operations)")
    for problem in report["problems"]:
        print(f"problem: {problem}")

    if args.trace:
        for row in report["hot10"]:
            print(f"hot stage {row['stage']} ({row['archetype']}): "
                  f"{row['seconds']:.4f} s")
        print(f"spans: {report['spans_file']}")
        values, specs = report["per_layer"], bench["per_layer"]
    else:
        values, specs = report["e2e"], bench["end_to_end"]
    metrics = {}
    for spec in specs:
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']} {value:.6g} {spec['unit']}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
