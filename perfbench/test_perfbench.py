"""Tests of the benchmark's own code: inputs, checks, tracing, load generation."""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import numpy as np

import repro.backends.cpu
import repro.runtime.reduction
from perfbench import adas, loadgen, run, spans
from perfbench.workloads import (AdasAutoExposure, AdasSmallOpen,
                                 _ServiceCounters)


def _requests(workload_cls, seed, count):
    workload = workload_cls(seed)
    return [workload.request(index)[0] for index in range(count)]


def test_same_seed_gives_identical_inputs():
    first = adas.make_frames(7, 32, 8)
    second = adas.make_frames(7, 32, 8)
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    assert adas.exposure_walk(7, 64) == adas.exposure_walk(7, 64)
    for a, b in zip(_requests(AdasAutoExposure, 7, 4),
                    _requests(AdasAutoExposure, 7, 4)):
        assert a.signature() == b.signature()
        assert np.array_equal(a.inputs["image"], b.inputs["image"])


def test_different_seed_gives_different_inputs():
    assert not np.array_equal(adas.make_frames(7, 32, 1)[0],
                              adas.make_frames(8, 32, 1)[0])
    assert adas.exposure_walk(7, 64) != adas.exposure_walk(8, 64)
    signatures = {r.signature() for r in _requests(AdasAutoExposure, 7, 4)}
    assert signatures.isdisjoint(
        r.signature() for r in _requests(AdasAutoExposure, 8, 4))


def test_exposure_walk_retunes_every_frame():
    walk = adas.exposure_walk(1, 256)
    assert len(set(walk)) == len(walk)
    assert all(1.0 <= e <= 4.0 and 1.4 <= g <= 2.2 for e, g in walk)


def test_checks_accept_served_output_and_reject_a_wrong_one():
    frames = adas.make_frames(2, 16, 1)
    expected = adas.Expected(frames, frame_sum=True)
    try:
        out, value, model_ok = expected.get(0, 2.5, 1.7)
        assert model_ok
        good = SimpleNamespace(outputs={"out": out.copy()}, value=value)
        assert expected.check(good, 0, 2.5, 1.7)
        wrong = out.copy()
        wrong[3, 4] += 1.0 / 255.0
        assert not expected.check(
            SimpleNamespace(outputs={"out": wrong}, value=value), 0, 2.5, 1.7)
        assert not adas.agrees_with_model(
            out + 0.01, value, adas.model_adas(frames[0], 2.5, 1.7))
    finally:
        expected.close()


class _Toy:
    def outer(self):
        self.inner()
        return "done"

    def inner(self):
        time.sleep(0.002)


def test_spans_record_parent_thread_and_self_time():
    tracer = spans.Tracer()
    tracer.wrap_method(_Toy, "outer", "toy.outer")
    tracer.wrap_method(_Toy, "inner", "toy.inner")
    try:
        tracer.phase = "measure"
        assert _Toy().outer() == "done"
        worker = threading.Thread(target=_Toy().inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    finally:
        tracer.uninstall()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    outer, = by_name["toy.outer"]
    nested, threaded = sorted(by_name["toy.inner"], key=lambda s: s.start_ns)
    assert nested.parent == outer.id and threaded.parent is None
    assert nested.thread == outer.thread != threaded.thread
    self_ns = tracer.self_times_ns("measure")
    assert self_ns[outer.id] == outer.duration_ns - nested.duration_ns
    table = tracer.by_name("measure")
    assert table["toy.inner"]["calls"] == 2
    assert len(tracer.chrome_trace()["traceEvents"]) == 3


def test_tracing_wrappers_are_fully_removed():
    reduce_fn = repro.runtime.reduction.multipass_reduce
    tracer = spans.Tracer()
    spans.install_layer_spans(tracer)
    patches = list(tracer._patches)
    try:
        assert patches and tracer.installed
        assert repro.backends.cpu.multipass_reduce is not reduce_fn
    finally:
        tracer.uninstall()
    assert not tracer.installed
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, (owner, attr)
    assert repro.backends.cpu.multipass_reduce is reduce_fn


def test_open_loop_counts_queue_wait_spans_once():
    # 10 ms of latency: 4 ms measured as queue wait, which holds the
    # submit and download spans, and a 6 ms launch inside execute_s.
    tracer = spans.Tracer()
    for name, ms in (("service.submit", 1.0), ("runtime.download", 1.0),
                     ("runtime.launch", 6.0)):
        span = spans.Span(len(tracer.spans), name, 0, 1, None, "measure")
        span.end_ns = int(ms * 1e6)
        tracer.spans.append(span)
    plain = SimpleNamespace(e2e={"lat_p50_ms": 10.0})
    traced = SimpleNamespace(e2e={"lat_p50_ms": 10.0}, units=1, layer={},
                             busy_s=0.010, waited_s=0.004,
                             waited_spans=AdasSmallOpen.OUTSIDE_EXECUTE)
    metrics = run.layer_metrics(plain, traced, tracer)
    assert abs(metrics["trace.unexplained_pct"]) < 1e-9


def _hit_ratio(workload, count, concurrent):
    service = workload.start()
    try:
        before = _ServiceCounters(service)
        if concurrent:
            service.map([workload.requests[i % len(workload.requests)]
                         for i in range(count)])
        else:
            for index in range(count):
                service.process(workload.request(index)[0])
        ratio = _ServiceCounters(service).since(before, count)
        return ratio["service.plan_cache_hit_ratio"]
    finally:
        workload.stop(service)
        workload.close()


def test_autoexposure_misses_the_plan_cache():
    assert _hit_ratio(AdasAutoExposure(1), 4, concurrent=False) == 0.0


def test_small_open_requests_share_one_cached_plan():
    workload = AdasSmallOpen(1)
    workload.requests = [adas.adas_request(frame) for frame in workload.frames]
    assert _hit_ratio(workload, 16, concurrent=True) == 1.0


def test_hires_requests_end_in_frame_sum():
    request = adas.adas_request(adas.make_frames(1, 8, 1)[0], frame_sum=True)
    assert request.calls[-1].kernel == "frame_sum"
    assert "reduce void frame_sum" in request.source


class _OneServer:
    """A single-server queue on a virtual clock, standing in for a service."""

    def __init__(self, service_s):
        self.now = 0.0
        self.free_at = 0.0
        self.service_s = service_s

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds

    def submit(self, _index):
        done = max(self.now, self.free_at) + self.service_s
        self.free_at = done
        response = SimpleNamespace(latency_s=done - self.now)
        return SimpleNamespace(result=lambda timeout=None: response)


def test_open_loop_below_capacity_is_sustained():
    server = _OneServer(service_s=0.001)
    step = loadgen.run_rate(server.submit, 500.0, 1.0, server.clock,
                            server.sleep)
    assert step.attempted == 500 and step.failed == 0
    assert np.allclose(step.latency_s, 0.001)
    assert not step.backlog_grows()
    assert loadgen.rate_meets([step], limit_ms=2.0, q=99)


def test_open_loop_above_capacity_grows_a_backlog():
    server = _OneServer(service_s=0.004)
    step = loadgen.run_rate(server.submit, 500.0, 1.0, server.clock,
                            server.sleep)
    # Latency is timed from the due time, so queueing shows in full.
    assert step.latency_ms(99) > 100.0
    assert step.backlog_grows()
    assert not loadgen.rate_meets([step], limit_ms=1000.0, q=99)


def _constant_step(rate, latency_ms, count=300):
    due = np.arange(count) / rate
    latency = np.full(count, latency_ms / 1e3)
    return loadgen.RateStep(rate, due, due.copy(), latency, [None] * count)


def test_median_over_blocks_ignores_one_burst():
    blocks = [_constant_step(400.0, 2.0), _constant_step(400.0, 50.0),
              _constant_step(400.0, 2.0)]
    assert loadgen.median_latency_ms(blocks, 99) == 2.0
    assert loadgen.rate_meets(blocks, 10.0, 99)


def test_sustained_rate_interpolates_between_ladder_rates():
    by_rate = {200.0: [_constant_step(200.0, 2.0)],
               400.0: [_constant_step(400.0, 18.0)],
               800.0: [_constant_step(800.0, 5.0)]}
    # The walk stops at the first failing rate; 800 never counts.
    assert loadgen.sustained_rate(by_rate, 10.0, 99) == 300.0
    assert loadgen.sustained_rate(
        {400.0: [_constant_step(400.0, 18.0)]}, 10.0, 99) is None


def test_setups_are_spread_over_the_measurement():
    started = []

    class Stub:
        def start(self):
            started.append(time.perf_counter())
            return object()

        def stop(self, system):
            pass

        def measure(self, system, seconds, between):
            end = time.perf_counter() + seconds
            while time.perf_counter() < end:
                between()
                time.sleep(0.002)

        def summarize(self, raw):
            return raw

    _, times = run.run_untraced(Stub(), 0.12, 4)
    assert len(times) == len(started) == 4
    gaps = np.diff(started)
    assert np.all(gaps >= 0.03 - 0.005), gaps


def test_setups_the_measurement_missed_are_taken_after_it():
    class Stub:
        def start(self):
            return object()

        def stop(self, system):
            pass

        def measure(self, system, seconds, between):
            between()

        def summarize(self, raw):
            return raw

    _, times = run.run_untraced(Stub(), 10.0, 5)
    assert len(times) == 5
