"""Tiny-size self-test of the benchmark itself (a few minutes).

    python3 perfbench/selftest.py

Checks, for every workload at tiny size (those of ``BENCHMARK.json`` and
``mips_two_phase``):

* every printed metric name and unit matches ``BENCHMARK.json``, with
  ``--trace 0`` (end-to-end) and ``--trace 1`` (per-layer);
* the run is correct (``failed == 0``, ``attempted >= 1``);
* each part of the correctness digest (summary, arrivals) is identical
  under two ``PYTHONHASHSEED`` values.

It also checks that ``run.py`` fails without printing a result in a
directory holding only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

from run import EXTRA_WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int, hashseed: str, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(pathlib.Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--size", "tiny", "--hashseed", hashseed],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []

    def expect(ok: bool, message: str) -> None:
        print(("ok    " if ok else "FAIL  ") + message, flush=True)
        if not ok:
            failures.append(message)

    for workload in [w["name"] for w in bench["workloads"]] + EXTRA_WORKLOADS:
        digests = {}
        for trace, hashseed in ((0, "0"), (0, "1"), (1, "0")):
            proc = run(workload, trace, hashseed)
            label = f"{workload} trace={trace} PYTHONHASHSEED={hashseed}"
            expect(proc.returncode == 0, f"{label}: exit 0")
            if proc.returncode != 0:
                print(proc.stderr[-2000:])
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"], f"{label}: result keys")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1, f"{label}: correct")
            specs = bench["per_layer" if trace else "end_to_end"]
            wanted = {s["name"]: s["unit"] for s in specs}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{label}: metric names and units")
            expect(all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()),
                   f"{label}: numeric values")
            if trace == 0:
                expect(all(v["value"] > 0
                           for v in result["metrics"].values()),
                       f"{label}: end-to-end values are non-zero")
            digests[hashseed] = next(
                line.split()[1] for line in lines
                if line.startswith("digest: ")
            )
        if len(digests) != 2:
            continue
        parts = [d.split(".") for d in digests.values()]
        for label, first, second in zip(("summary", "arrivals"), *parts):
            expect(first == second,
                   f"{workload}: {label} digest identical under "
                   f"PYTHONHASHSEED 0 and 1 ({first} vs {second})")

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bench["workloads"][0]["name"], 0, "0", cwd=bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "bare directory: non-zero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
