"""Host-speed calibration helper for ``workload.py``.

The shared host this benchmark runs on drifts in speed by a third over
minutes, for every process alike.  This helper holds a fixed object graph
of about the size of the analyzer's heap on MIPS and, on each request,
times one pass: pointer-chasing float updates and dict stores over a
slice of the graph, then building and dropping a batch of fresh records
(new heap pages, as the analyzer's allocations take).  That mix of
interpreter work, cache misses and page faults slows down with the host
the way the analyzer does; a tight loop over a small working set does
not (it over-reacts to CPU-bound speed changes).

It runs in its own process, so its heap stays out of the workload's peak
RSS, on the CPU the workload is pinned to.  Protocol: it prints
``ready`` once built; then, for each line read on stdin, it prints the
seconds one pass took.  It exits at end of input.

    python3 perfbench/calibrate.py
"""

from __future__ import annotations

import gc
import random
import sys
import time

#: Graph size, nodes visited and fresh records built per pass (one pass
#: takes ~20 ms).
NODES = 300_000
PASS = 6_000
FRESH = 10_000


class _Node:
    __slots__ = ("value", "succ", "key")


def build() -> tuple[list, list]:
    rng = random.Random(20240601)
    nodes = [_Node() for _ in range(NODES)]
    rng.shuffle(nodes)
    for i, node in enumerate(nodes):
        node.value = 0.0
        node.key = (i % 1000, i)
        node.succ = [nodes[rng.randrange(NODES)], nodes[rng.randrange(NODES)]]
    order = list(range(NODES))
    rng.shuffle(order)
    return nodes, order


def one_pass(nodes: list, order: list, start: int) -> int:
    seen: dict = {}
    for i in order[start:start + PASS]:
        node = nodes[i]
        for succ in node.succ:
            arrival = node.value + 0.5
            if arrival > succ.value:
                succ.value = arrival - 0.5
            seen[succ.key] = arrival
    fresh = [(i, [float(i)], {"w": i * 0.5}) for i in range(FRESH)]
    return len(seen) + len(fresh)


def main() -> int:
    nodes, order = build()
    # The records hold no cycles; without the collector no pass pays for
    # scanning the graph.
    gc.disable()
    print("ready", flush=True)
    start = 0
    for _ in sys.stdin:
        started = time.perf_counter()
        one_pass(nodes, order, start)
        print(repr(time.perf_counter() - started), flush=True)
        start = (start + PASS) % (NODES - PASS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
