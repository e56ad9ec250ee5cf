"""hgslab benchmark: cold-process library workloads with per-layer tracing.

Run from the root of a checkout:

    python3 bench/run.py --workload catalog-census --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload s5-abelian --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --record     # rewrite bench/expected.json

Every repetition starts a fresh worker process (cold caches, like one CLI
call), one at a time.  ``--trace 0`` reports the end-to-end metrics as
medians over the run, times scaled to the calibrated core speed (see
speed.py); ``--trace 1`` runs the workload
traced, untraced and traced again, and reports per-layer metrics,
failing the run if a counter differs between the two traced runs.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(BENCH_DIR, "worker.py")
EXPECTED = os.path.join(BENCH_DIR, "expected.json")

sys.path.insert(0, BENCH_DIR)
from tracer import is_count, layer_metrics, metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_BUDGET_S = 170.0     # the whole run, every worker included
WORKER_TIMEOUT_S = 150.0  # one worker; a runaway op list is killed here
SETUP_SAMPLES = 30       # set-up-only workers per untraced run
MIN_REPS = 2             # full workers per untraced run, at least

# Seconds one repetition of the seed code typically takes, its share of the
# set-up samples included (2-vCPU Xeon, Python 3.11).  A run makes
# round(seconds / REP_SECONDS) repetitions, at least MIN_REPS, whatever the
# program's speed, so two versions are measured with as many samples, and
# a run of the seed code takes about ``--seconds``.
REP_SECONDS = {
    "catalog-census": 7.5,
    "filtered-16-24": 14.0,
    "s5-abelian": 13.0,
}

# Workers import byte-compiled sources, as an installed package would; the
# cache lives in the checkout, whatever the caller's environment says.
WORKER_ENV = {k: v for k, v in os.environ.items()
              if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH")}
WORKER_ENV["PYTHONPYCACHEPREFIX"] = os.path.join(OUT_DIR, "pycache")


class Worker:
    """Outcome of one worker process, also when it was killed."""

    def __init__(self, workload, seed, mode, timeout, spans=None):
        cmd = [sys.executable, "-s", WORKER, SRC, workload, str(seed), mode]
        if spans:
            cmd.append(spans)
        t_spawn = time.monotonic()
        self.killed = False
        with subprocess.Popen(cmd, cwd=ROOT, env=WORKER_ENV, text=True,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            try:
                out, err = proc.communicate(timeout=max(timeout, 1.0))
            except subprocess.TimeoutExpired:
                self.killed = True
                proc.kill()
                out, err = proc.communicate()
            except BaseException:
                proc.kill()
                raise
        self.elapsed_s = time.monotonic() - t_spawn
        self.setup_s = None
        planned = 0
        self.finished = 0
        self.failures = []
        self.summary = None
        for line in out.splitlines():
            if line == ".":
                self.finished += 1
            elif line.startswith("F\t"):
                self.finished += 1
                self.failures.append(line[2:])
            elif line.startswith("S "):
                _, t_ready, planned = line.split()
                self.setup_s = float(t_ready) - t_spawn
                planned = int(planned)
            elif line.startswith("R\t"):
                self.summary = json.loads(line[2:])
        if self.setup_s is None:
            # set-up itself failed: there is nothing to measure
            sys.stderr.write(err)
            raise SystemExit(f"{workload}: worker failed before its ops "
                             f"(exit {proc.returncode})")
        if self.summary is None and not self.killed:
            sys.stderr.write(err)
        # ops a killed or crashed worker never reached count as failed
        done = self.finished
        self.attempted = max(planned, done)
        self.failed = len(self.failures) + self.attempted - done
        if self.killed:
            self.failures.append(f"killed after {self.elapsed_s:.1f} s with "
                                 f"{self.attempted - done} ops unfinished")

    @property
    def wall_s(self) -> float:
        return self.summary["wall_s"] if self.summary else self.elapsed_s

    @property
    def scaled_wall_s(self) -> float:
        """``wall_s`` at the calibrated speed of the core (run mode)."""
        return self.wall_s * self.summary["rate"]


def repetitions(workload, seconds) -> int:
    return max(MIN_REPS, round(seconds / REP_SECONDS[workload]))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(workload, seed, seconds, deadline):
    Worker(workload, seed, "setup", deadline - time.monotonic())  # byte-compile
    setups, reps = [], []
    n_reps = repetitions(workload, seconds)
    for k in range(n_reps):
        # set-up samples are spread over the run, like the repetitions
        setups += [Worker(workload, seed, "setup",
                          deadline - time.monotonic()).setup_s
                   for _ in range(-(-SETUP_SAMPLES // n_reps))]
        # each repetition its own op order, as peak memory depends on it
        rep = Worker(workload, f"{seed}/{k}", "run",
                     min(WORKER_TIMEOUT_S, deadline - time.monotonic()))
        reps.append(rep)
        setups.append(rep.setup_s)
        # start no repetition that the run's budget could cut short
        if rep.summary is None or (deadline - time.monotonic()
                                   < 1.5 * rep.elapsed_s + 5):
            break
    done = [r for r in reps if r.summary]
    rss = [r.summary["maxrss_kb"] / 1024 for r in done] or [0.0]
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    # with no finished repetition, the time until the last one was killed
    wall_s = (statistics.median(r.scaled_wall_s for r in done) if done
              else reps[-1].elapsed_s)
    # the set-up samples are spread over the run like the repetitions, so
    # the repetitions' rate is the core's speed while they ran too
    rate = statistics.median(r.summary["rate"] for r in done) if done else 1.0
    metrics = {
        "wall_s": _metric(wall_s, "s"),
        "setup_s": _metric(statistics.median(setups) * rate, "s"),
        "peak_rss_mb": _metric(statistics.median(rss), "MB"),
        "ops_ok_frac": _metric((attempted - failed) / attempted, "frac"),
    }
    sys.stderr.write(f"{workload}: {len(reps)} reps, wall_s "
                     f"{[round(r.wall_s, 3) for r in reps]}, scaled "
                     f"{[round(r.scaled_wall_s, 3) for r in done]}, "
                     f"{len(setups)} set-ups\n")
    return reps, metrics, True


def traced(workload, seed, deadline):
    """A traced worker, an untraced one, then a second traced one."""
    os.makedirs(OUT_DIR, exist_ok=True)
    plain, traced_reps, layers = [], [], []
    for k in range(2):
        spans = os.path.join(OUT_DIR, f"spans-{workload}-{k}.json")
        rep = Worker(workload, seed, "trace",
                     min(WORKER_TIMEOUT_S, deadline - time.monotonic()), spans)
        traced_reps.append(rep)
        if rep.summary is None:
            break
        with open(spans) as fh:
            layers.append(layer_metrics(json.load(fh)))
        if k == 0:
            rep = Worker(workload, seed, "run",
                         min(WORKER_TIMEOUT_S, deadline - time.monotonic()))
            plain.append(rep)
            if rep.summary is None:
                break
    reps = plain + traced_reps
    deterministic = len(layers) == 2
    names = metric_names()
    if deterministic:
        for name in filter(is_count, names):
            if layers[0][name] != layers[1][name]:
                deterministic = False
                sys.stderr.write(f"{workload}: counter {name} differs between "
                                 f"traced runs: {layers[0][name]} vs "
                                 f"{layers[1][name]}\n")
    else:
        sys.stderr.write(f"{workload}: a traced run did not finish\n")
    metrics = {}
    for name in names:
        values = [m[name] for m in layers] or [0]
        unit = "s" if name.endswith("_s") else (
            "frac" if name.endswith("_frac") else "count")
        # counters agree between the traced runs; times are their median
        value = values[0] if is_count(name) else statistics.median(values)
        metrics[name] = _metric(value, unit)
    # the untraced pass ran between the two traced ones, so slow drift of
    # the host weighs on both sides alike
    metrics["trace.overhead_s"] = _metric(
        statistics.mean(r.wall_s for r in traced_reps)
        - statistics.mean(r.wall_s for r in plain or traced_reps), "s")
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    metrics["ops_failed_frac"] = _metric(failed / attempted, "frac")
    return reps, metrics, deterministic


def record() -> None:
    """Rewrite expected.json from the current program's results.

    The digests come from record-mode workers; the planned op counts from
    a checked run of each workload afterwards.
    """
    digests = {}
    for workload in WORKLOADS:
        rep = Worker(workload, 0, "record", WORKER_TIMEOUT_S)
        if rep.summary is None or rep.failed:
            raise SystemExit(f"{workload}: recording failed: {rep.failures[:5]}")
        digests.update(rep.summary["digests"])
    expected = {"ops": {}, "digests": dict(sorted(digests.items()))}
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
    for workload in WORKLOADS:
        rep = Worker(workload, 0, "run", WORKER_TIMEOUT_S)
        if rep.failed:
            raise SystemExit(f"{workload}: check failed: {rep.failures[:5]}")
        expected["ops"][workload] = rep.attempted
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hgslab", "__init__.py")):
        print(f"no hgslab sources under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        record()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    deadline = time.monotonic() + RUN_BUDGET_S
    if args.trace:
        reps, metrics, deterministic = traced(args.workload, args.seed, deadline)
    else:
        reps, metrics, deterministic = untraced(args.workload, args.seed,
                                                args.seconds, deadline)
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    for rep in reps:
        for failure in rep.failures[:10]:
            sys.stderr.write(f"{args.workload}: failed: {failure}\n")
    print(json.dumps({
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
