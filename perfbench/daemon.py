"""Daemon launcher: a ``repro serve`` daemon with optional span wrappers.

Starts :class:`repro.serve.TimingServer` with the journal on, prints
``port N`` once it accepts connections, serves until SIGTERM, then stops
the server (draining requests) and writes its peak RSS and, in a traced
run, its spans to ``--stats``.  The wrappers are installed before the
server starts, so every request the daemon serves is traced.

    PYTHONPATH=src python3 perfbench/daemon.py --journal-dir DIR --stats FILE
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import threading

import spans


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--journal-dir", required=True)
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--id-base", type=int, default=0)
    args = parser.parse_args()

    recorder = spans.Recorder(id_base=args.id_base)
    if args.trace:
        spans.install(recorder)
        recorder.phase = "daemon"

    from repro.serve import TimingServer

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    server = TimingServer(port=0, workers=1, journal_dir=args.journal_dir)
    server.start()
    print(f"port {server.port}", flush=True)
    while not stop.wait(0.05):
        pass
    server.stop()
    stats = {
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": spans.finish(recorder.spans),
    }
    with open(args.stats, "w") as handle:
        json.dump(stats, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
