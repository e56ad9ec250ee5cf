"""One cold run of a workload in a fresh process.

Usage: worker.py SRC WORKLOAD SEED MODE [SPANS_PATH]

SEED, any string, seeds the op order.

MODE is ``setup`` (import and build inputs only), ``run``, ``trace``
(run with the tracer installed; spans go to SPANS_PATH) or ``record``
(write the digests of a run as JSON to stdout instead of checking them).

Protocol on stdout, one line each, flushed as it happens:
``S <monotonic time when set-up ended> <ops planned>``, then one line per
op (``.`` on success, ``F<tab>key<tab>reason`` on failure), then
``R<tab>{json summary}``.  In ``run`` mode a ``speed.Sampler`` runs
while the ops do; op times exclude its chunks, and the summary gives its
mean rate.  The parent reads the lines back even when it
has to kill this process at its deadline.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _emit(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def main(argv) -> int:
    src, workload, seed, mode = argv[:4]
    sys.path.insert(0, src)
    import hgslab
    if not os.path.abspath(hgslab.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"hgslab was imported from {hgslab.__file__}, not {src}")
    sys.path.insert(0, BENCH_DIR)
    import speed
    import workloads

    inputs = workloads.setup(hgslab, workload)
    t_ready = time.monotonic()
    try:
        with open(os.path.join(BENCH_DIR, "expected.json")) as fh:
            expected = json.load(fh)
    except FileNotFoundError:
        if mode != "record":
            raise
        expected = {"ops": {}, "digests": {}}
    planned = expected["ops"].get(workload, 0)
    _emit(f"S {t_ready!r} {planned}")
    if mode == "setup":
        return 0

    def on_op(key, error, call_s):
        _emit("." if error is None else f"F\t{key}\t{error}")

    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    sampler = speed.Sampler() if mode == "run" else None
    clock = sampler.clock if sampler else time.perf_counter
    record = {} if mode == "record" else None
    run = workloads.Run(expected["digests"], on_op=on_op, tracer=tracer,
                        record=record, clock=clock)
    if sampler is not None:
        sampler.start()
    workloads.WORKLOADS[workload](hgslab, run, random.Random(seed), inputs)
    if sampler is not None:
        sampler.stop()
    if tracer is not None:
        tracer.restore()
        with open(argv[4], "w") as fh:
            json.dump(tracer.dump(), fh, separators=(",", ":"))
    summary = {
        "wall_s": run.call_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if sampler is not None:
        summary["rate"] = sampler.rate()
    if record is not None:
        summary["digests"] = record
    _emit("R\t" + json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
