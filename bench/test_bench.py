"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import inspect
import json
import os
import random
import signal
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import hgslab  # noqa: E402
import run as bench_run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer, layer_metrics, metric_names  # noqa: E402

with open(os.path.join(BENCH_DIR, "expected.json")) as fh:
    EXPECTED = json.load(fh)["digests"]


def _small_catalog():
    groups = workloads.setup(hgslab, "catalog-census")
    return [g for g in groups if g[1].order <= 8]


def _function_bindings():
    return {
        (name, attr): obj
        for name, module in sys.modules.items()
        if name == "hgslab" or name.startswith("hgslab.")
        for attr, obj in vars(module).items()
        if inspect.isfunction(obj)
    }


def test_tampered_digest_is_a_failed_op():
    G = hgslab.build_group("dihedral:3")
    key = "enumerate_hgs/dihedral:3"
    run = workloads.Run(EXPECTED)
    run.op(key, hgslab.enumerate_hgs, G)
    assert run.attempted == 1 and run.failures == []

    tampered = dict(EXPECTED)
    tampered[key] = "0" * len(EXPECTED[key])
    run = workloads.Run(tampered)
    run.op(key, hgslab.enumerate_hgs, G)
    assert run.attempted == 1
    assert [k for k, _ in run.failures] == [key]


def test_raising_op_and_wrong_fact_are_failed_ops():
    run = workloads.Run(EXPECTED)
    assert run.op("enumerate_hgs/bad", hgslab.enumerate_hgs, None) is None
    run.fact("catalog_structures", 375, 376)
    assert run.attempted == 2
    assert [k for k, _ in run.failures] == ["enumerate_hgs/bad",
                                            "fact/catalog_structures"]


def test_self_times_sum_to_at_most_traced_wall():
    tracer = Tracer()
    tracer.install()
    try:
        run = workloads.Run(EXPECTED, tracer=tracer)
        workloads.catalog_census(hgslab, run, random.Random(3), _small_catalog())
    finally:
        tracer.restore()
    metrics = layer_metrics(tracer.dump())
    self_s = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert 0 < self_s <= run.call_s
    assert metrics["hgs.calls"] > 0 and metrics["braces.calls"] > 0
    assert 0 < metrics["groups.are_isomorphic.hit_frac"] <= 1
    assert set(metrics) == set(metric_names())


def test_tracer_restores_every_wrapped_name():
    before = _function_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        # names imported into other modules are wrapped there too
        assert hgslab.rho.certify is not before[("hgslab.rho", "certify")]
        assert hgslab.enumerate_hgs is not before[("hgslab", "enumerate_hgs")]
        assert hgslab.correspondence.rho_conjugate is not before[
            ("hgslab.correspondence", "rho_conjugate")]
    finally:
        tracer.restore()
    assert _function_bindings() == before


def test_untraced_calls_record_no_spans():
    tracer = Tracer()
    tracer.install()
    try:
        hgslab.enumerate_hgs(hgslab.build_group("cyclic:6"))
    finally:
        tracer.restore()
    assert tracer.spans == []


def test_deadline_kills_worker_and_counts_unfinished_ops():
    rep = bench_run.Worker("filtered-16-24", 0, "run", timeout=1.0)
    assert rep.killed and rep.summary is None
    assert rep.attempted == 14
    assert rep.failed == rep.attempted - rep.finished > 0


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == sorted(workloads.WORKLOADS)
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == metric_names() + ["trace.overhead_s", "ops_failed_frac"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_setup_builds_inputs(workload):
    assert workloads.setup(hgslab, workload)


def test_undigestable_result_is_a_failed_op():
    class Bad:
        def to_json(self):
            raise ValueError("no json")

    run = workloads.Run(EXPECTED)
    assert run.op("bad/result", lambda: Bad()) is None
    assert run.attempted == 1
    assert run.failures == [("bad/result", "digest raised ValueError: no json")]


def test_sampler_times_the_core_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler()
    t0, c0 = time.perf_counter(), sampler.clock()
    sampler.start()
    try:
        while time.perf_counter() - t0 < 0.5:
            speed.chunk()
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.chunk_s) >= 5 and sampler.rate() > 0
    # the sampler's own chunks are left out of its clock
    clock_s = sampler.clock() - c0
    assert clock_s < time.perf_counter() - t0 - sampler.inside_s * 0.99
