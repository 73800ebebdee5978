"""The runtime's fusion cache: what it keys on and what it still checks.

``rt.fuse`` caches each fused kernel on the content of its kernel chain
(member programs and kernel names, connections, helpers, execution-path
flags).  A hit must skip the fusion work (no ``fuse_compiled`` call) and
change no result; every binding-level check still runs per call.
"""

import sys
import threading

import numpy as np
import pytest

import repro.runtime.launch as launch
from repro.core.analysis.planner import _legal_fuse_groups
from repro.core.compiler import CompilerOptions, compile_source
from repro.runtime import BrookRuntime
from repro.runtime.runtime import BrookModule
from repro.service import BrookService, KernelCall
from repro.service.bench import ADAS_SERVICE_SOURCE, build_adas_request

SIZE = 16

PIPELINE_SOURCE = """
kernel void scale(float x<>, float a, out float y<>) {
    y = a * x;
}

kernel void offset(float y<>, float b, out float z<>) {
    z = y + b;
}

kernel void blend(float p<>, float q<>, out float r<>) {
    r = 0.5 * (p + q);
}

kernel void probe(float src<>, float table[], out float r<>) {
    float2 pos = indexof(r);
    r = src + table[pos.x];
}

kernel void gate(float x<>, out float tmp<>) {
    if (x < 0.0) {
        return;
    }
    tmp = x * 2.0;
}
"""


@pytest.fixture
def frame():
    return np.random.default_rng(7).uniform(0.0, 255.0, (SIZE, SIZE)) \
        .astype(np.float32)


@pytest.fixture
def fuse_calls(monkeypatch):
    """Counts the ``fuse_compiled`` calls ``rt.fuse`` makes."""
    calls = []
    original = launch.fuse_compiled

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(launch, "fuse_compiled", counting)
    return calls


def _adas_plans(rt, frame, exposure, gamma):
    """The 8-stage ADAS chain with retuned tone-map/gamma scalars."""
    module = rt.compile(ADAS_SERVICE_SOURCE)
    request = build_adas_request(SIZE, frame)
    calls = list(request.calls)
    calls[2] = KernelCall("tone_map", ("s1", exposure, "s2"))
    calls[5] = KernelCall("gamma_px", ("s4", gamma, "s5"))
    streams = {"image": rt.stream_from(frame, name="image")}
    for name in ("s0", "s1", "s2", "s3", "s4", "s5", "s6", "out"):
        streams[name] = rt.stream((SIZE, SIZE), name=name)
    plans = [module.kernel(call.kernel).bind(
        *(streams[arg] if isinstance(arg, str) else arg for arg in call.args))
        for call in calls]
    return plans, streams["out"]


def _fused_adas(rt, frame, exposure, gamma):
    plans, out = _adas_plans(rt, frame, exposure, gamma)
    pipeline = rt.fuse(plans)
    pipeline.launch()
    return pipeline, out.read()


def _bits(array):
    return np.asarray(array, dtype=np.float32).view(np.uint32)


def test_retuned_scalars_hit_and_match_a_fresh_runtime(frame, fuse_calls):
    with BrookRuntime() as rt:
        _fused_adas(rt, frame, 2.2, 1.8)
        assert rt.fusion_cache_info()["misses"] == 1
        assert len(fuse_calls) == 1
        pipeline, served = _fused_adas(rt, frame, 2.6, 1.5)
        info = rt.fusion_cache_info()
        assert (info["hits"], info["misses"], info["entries"]) == (1, 1, 1)
        assert len(fuse_calls) == 1  # the hit did no fusion work
        assert pipeline.pass_count == 1
    with BrookRuntime() as fresh:
        _, expected = _fused_adas(fresh, frame, 2.6, 1.5)
        plans, out = _adas_plans(fresh, frame, 2.6, 1.5)
        for plan in plans:
            plan.launch()
        unfused = out.read()
    assert np.array_equal(_bits(served), _bits(expected))
    assert np.array_equal(_bits(served), _bits(unfused))


def test_changed_connections_and_order_miss(frame):
    with BrookRuntime() as rt:
        module = rt.compile(PIPELINE_SOURCE)
        x, y, z, w, r = (rt.stream((SIZE, SIZE)) for _ in range(5))
        rt.fuse([module.scale.bind(x, 2.0, y), module.blend.bind(y, w, r)])
        # Same kernels, the intermediate now feeds the other input.
        rt.fuse([module.scale.bind(x, 2.0, y), module.blend.bind(w, y, r)])
        assert rt.fusion_cache_info()["misses"] == 2
        rt.fuse([module.scale.bind(x, 2.0, y), module.offset.bind(y, 1.0, z)])
        # Same kernels in the other order.
        rt.fuse([module.offset.bind(x, 1.0, y), module.scale.bind(y, 2.0, z)])
        info = rt.fusion_cache_info()
        assert (info["hits"], info["misses"]) == (0, 4)


def test_disabled_vector_path_misses_and_builds_without_it():
    with BrookRuntime() as rt:
        options = CompilerOptions(enable_vector_path=False,
                                  target=rt.backend.target_limits())
        vector = rt.compile(PIPELINE_SOURCE)
        plain = BrookModule(rt, compile_source(PIPELINE_SOURCE,
                                               options=options))
        x, y, z = (rt.stream((SIZE, SIZE)) for _ in range(3))
        kernels = []
        for module in (vector, plain):
            pipeline = rt.fuse([module.scale.bind(x, 2.0, y),
                                module.offset.bind(y, 1.0, z)])
            kernels.append(pipeline.segments[0][0]._pieces[0][0])
        assert rt.fusion_cache_info()["misses"] == 2
        assert kernels[0].vector_path is not None
        assert kernels[1].vector_path is None
        assert kernels[1].fast_path is not None


def test_intermediate_read_later_splits_a_cached_pair(frame, fuse_calls):
    with BrookRuntime() as rt:
        module = rt.compile(PIPELINE_SOURCE)
        x = rt.stream_from(frame)
        y, z, r = (rt.stream((SIZE, SIZE)) for _ in range(3))
        assert rt.fuse([module.scale.bind(x, 2.0, y),
                        module.offset.bind(y, 1.0, z)]).pass_count == 1
        pipeline = rt.fuse([module.scale.bind(x, 2.0, y),
                            module.offset.bind(y, 1.0, z),
                            module.blend.bind(y, z, r)])
        assert [indices for _, indices in pipeline.segments] == [[0], [1, 2]]
        pipeline.launch()
        np.testing.assert_array_equal(y.read(), 2.0 * frame)


def test_gather_of_the_producer_output_splits_a_cached_pair(frame):
    with BrookRuntime() as rt:
        module = rt.compile(PIPELINE_SOURCE)
        flat = frame.reshape(1, -1)
        x = rt.stream_from(flat)
        y, t, r = (rt.stream(flat.shape) for _ in range(3))
        fused = rt.fuse([module.scale.bind(x, 2.0, y),
                         module.probe.bind(y, t, r)])
        assert fused.pass_count == 1
        # The same chain and connection - now also gathering from y.
        split = rt.fuse([module.scale.bind(x, 2.0, y),
                         module.probe.bind(y, y, r)])
        assert split.pass_count == 2
        split.launch()
        positions = np.arange(flat.size, dtype=np.float32)
        expected = 2.0 * flat + 2.0 * flat[0, positions.astype(int)]
        np.testing.assert_allclose(r.read(), expected, rtol=1e-6)


def test_refused_pair_is_cached_as_refused(fuse_calls):
    with BrookRuntime() as rt:
        module = rt.compile(PIPELINE_SOURCE)
        x, t, y = (rt.stream((SIZE, SIZE)) for _ in range(3))
        for _ in range(3):
            pipeline = rt.fuse([module.gate.bind(x, t),
                                module.offset.bind(t, 1.0, y)])
            assert pipeline.kernels_fused == 0
        info = rt.fusion_cache_info()
        assert (info["hits"], info["misses"], info["entries"]) == (2, 1, 1)
        assert fuse_calls == []  # refused before any kernel was built


def test_clear_compile_cache_and_close_empty_the_fusion_cache(frame):
    rt = BrookRuntime()
    _fused_adas(rt, frame, 2.2, 1.8)
    assert rt.fusion_cache_info()["entries"] == 1
    rt.clear_compile_cache()
    assert rt.fusion_cache_info()["entries"] == 0
    _fused_adas(rt, frame, 2.2, 1.8)
    assert rt.fusion_cache_info()["entries"] == 1
    rt.close()
    info = rt.fusion_cache_info()
    assert info["entries"] == 0
    assert info["misses"] == 2 and info["capacity"] == 64


def test_two_threads_fusing_on_one_runtime_agree_bitwise(frame):
    retunes = [(2.2 + 0.1 * k, 1.8 - 0.05 * k) for k in range(4)]
    with BrookRuntime() as reference:
        expected = {tune: _fused_adas(reference, frame, *tune)[1]
                    for tune in retunes}
    results, errors = [], []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with BrookRuntime() as rt:
            def worker():
                try:
                    for tune in retunes * 2:
                        results.append((tune,
                                        _fused_adas(rt, frame, *tune)[1]))
                except Exception as error:  # reported by the assert below
                    errors.append(error)

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(switch)
    assert errors == []
    assert len(results) == 4 * 2 * len(retunes)
    for tune, served in results:
        assert np.array_equal(_bits(served), _bits(expected[tune]))


def test_planner_dry_run_hits_the_cache_fuse_filled(frame, fuse_calls):
    with BrookRuntime() as rt:
        plans, _ = _adas_plans(rt, frame, 2.2, 1.8)
        rt.fuse(plans)
        before = rt.fusion_cache_info()
        assert _legal_fuse_groups(rt, plans) == (tuple(range(8)),)
        after = rt.fusion_cache_info()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        assert len(fuse_calls) == 1


def test_service_report_lists_each_workers_fusion_cache(frame):
    with BrookService(backend="cpu", pool_size=2) as service:
        service.process(build_adas_request(SIZE, frame))
        rows = service.service_report()["workers"]
    assert [sorted(row["fusion_cache"]) for row in rows] == \
        [["capacity", "entries", "hits", "misses"]] * 2
    assert sum(row["fusion_cache"]["misses"] for row in rows) == 1
