"""Unit tests for BrookSanitizer: the opt-in instrumented execution mode.

Covers the opt-in plumbing (constructor flag, ``BROOKSAN`` environment
variable), every finding kind (uninitialized-read, nan-origin,
gather-oob, double-flush, use-after-release), the no-behaviour-change
guarantee (sanitized runs are bitwise identical and never raise on
recorded findings) and the executor divergence cross-check.
"""

import time

import numpy as np
import pytest

from repro.errors import GatherBoundsError, SanitizerError, StreamError
from repro.runtime import BrookRuntime
from repro.runtime.launch import LaunchPlan

SOURCE = """
kernel void scale(float x<>, float k, out float y<>) {
    y = x * k;
}

kernel void div(float x<>, float k, out float y<>) {
    y = x / k;
}

kernel void lookup(float v<>, float lut[], out float o<>) {
    o = lut[v];
}
"""


@pytest.fixture
def rt():
    runtime = BrookRuntime(backend="cpu", sanitize=True)
    yield runtime
    runtime.close()


@pytest.fixture
def mod(rt):
    return rt.compile(SOURCE)


def _stream(rt, data):
    stream = rt.stream(np.asarray(data).shape)
    stream.write(np.asarray(data, dtype=np.float32))
    return stream


def _kinds(rt):
    return [finding.kind for finding in rt.sanitizer.findings]


# --------------------------------------------------------------------- #
# Opt-in plumbing
# --------------------------------------------------------------------- #
class TestOptIn:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("BROOKSAN", raising=False)
        runtime = BrookRuntime(backend="cpu")
        assert runtime.sanitizer is None
        runtime.close()

    def test_constructor_flag(self):
        runtime = BrookRuntime(backend="cpu", sanitize=True)
        assert runtime.sanitizer is not None
        runtime.close()

    def test_brooksan_env_enables(self, monkeypatch):
        monkeypatch.setenv("BROOKSAN", "1")
        runtime = BrookRuntime(backend="cpu")
        assert runtime.sanitizer is not None
        runtime.close()

    def test_brooksan_env_off_values(self, monkeypatch):
        for value in ("", "0", "false", "off"):
            monkeypatch.setenv("BROOKSAN", value)
            runtime = BrookRuntime(backend="cpu")
            assert runtime.sanitizer is None
            runtime.close()

    def test_explicit_false_overrides_env(self, monkeypatch):
        monkeypatch.setenv("BROOKSAN", "1")
        runtime = BrookRuntime(backend="cpu", sanitize=False)
        assert runtime.sanitizer is None
        runtime.close()


# --------------------------------------------------------------------- #
# Finding kinds
# --------------------------------------------------------------------- #
class TestFindings:
    def test_uninitialized_read(self, rt, mod):
        x = rt.stream((4, 4))          # never written
        y = rt.stream((4, 4))
        mod.scale.bind(x, 2.0, y).launch()
        assert _kinds(rt) == ["uninitialized-read"]
        finding = rt.sanitizer.findings[0]
        assert finding.kernel == "scale"
        assert finding.location is not None

    def test_host_write_suppresses_uninitialized_read(self, rt, mod):
        x = _stream(rt, np.ones((4, 4)))
        y = rt.stream((4, 4))
        mod.scale.bind(x, 2.0, y).launch()
        assert _kinds(rt) == []

    def test_kernel_write_initializes_for_later_reads(self, rt, mod):
        x = _stream(rt, np.ones((4, 4)))
        t, z = rt.stream((4, 4)), rt.stream((4, 4))
        mod.scale.bind(x, 2.0, t).launch()
        mod.scale.bind(t, 3.0, z).launch()
        assert _kinds(rt) == []

    def test_fused_pipeline_leaves_intermediate_uninitialized(self, rt, mod):
        x = _stream(rt, np.ones((4, 4)))
        t, z, w = rt.stream((4, 4)), rt.stream((4, 4)), rt.stream((4, 4))
        pipeline = rt.fuse([mod.scale.bind(x, 2.0, t),
                            mod.scale.bind(t, 3.0, z)])
        assert pipeline.pass_count == 1
        pipeline.launch()
        mod.scale.bind(z, 1.0, w).launch()      # fused output: initialized
        assert _kinds(rt) == []
        mod.scale.bind(t, 1.0, w).launch()      # eliminated intermediate
        assert _kinds(rt) == ["uninitialized-read"]
        np.testing.assert_allclose(z.read(), 6.0)

    def test_nan_origin_blames_first_producer_only(self, rt, mod):
        x = _stream(rt, np.ones((4, 4)))
        y, z = rt.stream((4, 4)), rt.stream((4, 4))
        with np.errstate(divide="ignore", invalid="ignore"):
            mod.div.bind(x, 0.0, y).launch()      # produces inf
            mod.scale.bind(y, 2.0, z).launch()    # merely propagates
        origins = rt.sanitizer.findings_of("nan-origin")
        assert len(origins) == 1
        assert origins[0].kernel == "div"

    def test_finite_overwrite_clears_taint(self, rt, mod):
        x = _stream(rt, np.ones((4, 4)))
        y = rt.stream((4, 4))
        with np.errstate(divide="ignore", invalid="ignore"):
            mod.div.bind(x, 0.0, y).launch()
        mod.scale.bind(x, 2.0, y).launch()        # y finite again
        z = rt.stream((4, 4))
        mod.scale.bind(y, 1.0, z).launch()
        assert len(rt.sanitizer.findings_of("nan-origin")) == 1

    def test_gather_oob_recorded_and_backend_still_raises(self, rt, mod):
        v = _stream(rt, np.full((2, 2), 99.0))    # way past the lut extent
        lut = _stream(rt, np.arange(4.0).reshape(1, 4))
        o = rt.stream((2, 2))
        with pytest.raises(GatherBoundsError):
            mod.lookup.bind(v, lut, o).launch()
        assert rt.sanitizer.findings_of("gather-oob")

    def test_double_flush(self, rt, mod):
        x = _stream(rt, np.ones((4, 4)))
        y = rt.stream((4, 4))
        queue = rt.queue()
        queue.submit(mod.scale.bind(x, 2.0, y))
        queue.flush()
        queue.flush()                              # nothing pending
        assert _kinds(rt) == ["double-flush"]

    def test_with_block_exit_flush_is_exempt(self, rt, mod):
        x = _stream(rt, np.ones((4, 4)))
        y = rt.stream((4, 4))
        with rt.queue() as queue:
            queue.submit(mod.scale.bind(x, 2.0, y))
            queue.flush()
        # The automatic exit flush found nothing pending - not a defect.
        assert _kinds(rt) == []

    def test_use_after_release(self, rt):
        stream = _stream(rt, np.ones((4, 4)))
        stream.release()
        with pytest.raises(StreamError):
            stream.read()
        assert _kinds(rt) == ["use-after-release"]

    def test_report_shape(self, rt, mod):
        x = rt.stream((4, 4))
        y = rt.stream((4, 4))
        mod.scale.bind(x, 2.0, y).launch()
        report = rt.sanitizer.report()
        assert report["launches_checked"] == 1
        assert report["counts"] == {"uninitialized-read": 1}
        assert report["findings"][0]["kind"] == "uninitialized-read"


# --------------------------------------------------------------------- #
# No behaviour change
# --------------------------------------------------------------------- #
class TestTransparency:
    def test_sanitized_results_bitwise_identical(self):
        rng = np.random.default_rng(7)
        data = rng.random((8, 8)).astype(np.float32)
        results = []
        for sanitize in (False, True):
            runtime = BrookRuntime(backend="cpu", sanitize=sanitize)
            module = runtime.compile(SOURCE)
            x = runtime.stream((8, 8))
            x.write(data)
            y = runtime.stream((8, 8))
            module.scale.bind(x, 3.0, y).launch()
            results.append(y.read().copy())
            runtime.close()
        np.testing.assert_array_equal(results[0], results[1])

    def test_findings_are_recorded_not_raised(self, rt, mod):
        x = rt.stream((4, 4))                    # uninitialized: recorded
        y = rt.stream((4, 4))
        mod.scale.bind(x, 2.0, y).launch()       # must not raise
        assert rt.sanitizer.findings


# --------------------------------------------------------------------- #
# Executor divergence cross-check
# --------------------------------------------------------------------- #
class _SlowLaunchPlan(LaunchPlan):
    delay = 0.2

    def launch(self):
        time.sleep(self.delay)
        return super().launch()


class TestExecutorCrossCheck:
    def test_clean_executor_run_has_no_findings(self, rt, mod):
        x = _stream(rt, np.ones((4, 4)))
        t, z = rt.stream((4, 4)), rt.stream((4, 4))
        executor = rt.executor(workers=4)
        for _ in range(5):
            executor.submit(mod.scale.bind(x, 2.0, t))
            executor.submit(mod.scale.bind(t, 3.0, z))
        assert executor.wait_all(timeout=10)
        executor.shutdown()
        assert _kinds(rt) == []
        np.testing.assert_allclose(z.read(), 6.0)

    def test_tracker_blind_overlap_raises_sanitizer_error(self, rt, mod):
        x = _stream(rt, np.ones((4, 4)))
        y1, y2 = rt.stream((4, 4)), rt.stream((4, 4))
        y2.storage.data = y1.storage.data[:]      # view the tracker misses
        slow = mod.scale.bind(x, 2.0, y1)
        slow.__class__ = _SlowLaunchPlan
        fast = mod.scale.bind(x, 3.0, y2)
        executor = rt.executor(workers=2)
        executor.submit(slow)
        executor.submit(fast)
        with pytest.raises(SanitizerError) as excinfo:
            executor.wait_all(timeout=10)
        executor.shutdown(wait=False)
        assert excinfo.value.findings
        assert excinfo.value.findings[0].kind == "hazard-divergence"
        assert rt.sanitizer.findings_of("hazard-divergence")

    def test_service_pool_sanitize_mode(self):
        from repro.service import BrookService
        from repro.service.request import ServiceRequest, call

        data = np.ones((4, 4), dtype=np.float32)
        request = ServiceRequest(
            source=SOURCE,
            calls=(call("scale", "x", 2.0, "out"),),
            inputs={"x": data}, outputs={"out": data.shape})
        service = BrookService(backend="cpu", pool_size=2, sanitize=True)
        try:
            response = service.submit(request).result(timeout=10)
            np.testing.assert_allclose(response.outputs["out"], 2.0)
            section = service.service_report()["sanitizer"]
            assert section["launches_checked"] >= 1
            assert section["counts"] == {}      # clean request: no findings
        finally:
            service.close()

    def test_service_default_has_no_sanitizer_section(self, monkeypatch):
        from repro.service import BrookService

        monkeypatch.delenv("BROOKSAN", raising=False)
        service = BrookService(backend="cpu", pool_size=1)
        try:
            assert service.sanitize is False
            assert "sanitizer" not in service.service_report()
        finally:
            service.close()

    def test_unsanitized_executor_keeps_no_audit_log(self, mod, monkeypatch):
        monkeypatch.delenv("BROOKSAN", raising=False)
        runtime = BrookRuntime(backend="cpu")
        module = runtime.compile(SOURCE)
        x = runtime.stream((4, 4))
        x.write(np.ones((4, 4), dtype=np.float32))
        y = runtime.stream((4, 4))
        executor = runtime.executor(workers=2)
        executor.submit(module.scale.bind(x, 2.0, y))
        assert executor.wait_all(timeout=10)
        executor.shutdown()
        assert executor._audit_plans == []
        assert executor._audit_events == []
        runtime.close()
