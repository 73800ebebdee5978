"""The four benchmark workloads.

Each workload builds its inputs from the seed alone, then offers three
steps to ``run.py``:

* ``start()`` - the set-up a user pays before the first timed request
  (service or runtime construction, compilation, warm-up); timed by
  ``run.py`` as ``setup_s``;
* ``measure(system, seconds, between)`` - the timed part, returning raw
  samples; it keeps the program busy for ``seconds`` and calls
  ``between()`` at points where nothing is being timed (``run.py``
  times its further set-ups there, so they are spread over the run);
* ``summarize(raw)`` - the output checks and the metrics, run after the
  timed part (and after tracing is removed), so reference runs are never
  timed or traced.

The end-to-end metric names are shared by all workloads, so every run
prints the same set; what each means on each workload is listed in
``perfbench/README.md``.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.apps.base import get_application, list_applications
from repro.runtime import BrookRuntime
from repro.service import BrookService

from . import adas
from .loadgen import (RateStep, median_latency_ms, rate_meets, run_rate,
                      sustained_rate)

clock = time.perf_counter

#: Set-ups per run, one before the measurement and the others spread
#: evenly over it; ``setup_s`` is their median.
SETUP_REPS = 9


def no_pause() -> None:
    """The default ``between`` hook: nothing happens between timed steps."""


@dataclass
class Outcome:
    """Checked result of one measurement."""

    attempted: int
    #: Failed, refused or wrong-output units of work.
    failed: int
    #: End-to-end metrics except ``setup_s`` (see ``perfbench/README.md``).
    e2e: Dict[str, float]
    #: The same numbers under the workload's own names, plus sample counts.
    report: Dict[str, object]
    #: Units of work measured (requests, or passes over the app suite);
    #: per-layer numbers are given per unit.
    units: int
    #: Sum of the units' end-to-end latencies, seconds.
    busy_s: float
    #: Per-layer metrics read from the program's own reports.
    layer: Dict[str, float] = field(default_factory=dict)
    #: Part of ``busy_s`` spent waiting in the service's queues or on a
    #: late generator (open loop only).
    waited_s: float = 0.0
    #: Spans whose time lies inside ``waited_s``, so their self time is
    #: not counted a second time.
    waited_spans: Tuple[str, ...] = ()


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: after.get(key, 0) - before.get(key, 0) for key in after}


class _ServiceCounters:
    """Service-report counters, taken after warm-up and at the end."""

    def __init__(self, service: BrookService):
        report = service.service_report()
        self.workers = [(w["requests"], w["plan_cache"]["hits"],
                         w["plan_cache"]["misses"],
                         w["compile_cache"]["hits"],
                         w["compile_cache"]["misses"])
                        for w in report["workers"]]
        self.totals = dict(report["device_totals"])

    def since(self, start: "_ServiceCounters", units: int) -> Dict[str, float]:
        per_worker = [tuple(b - a for a, b in zip(first, last))
                      for first, last in zip(start.workers, self.workers)]
        served = [row[0] for row in per_worker]
        plan_hits, plan_misses = (sum(r[1] for r in per_worker),
                                  sum(r[2] for r in per_worker))
        compile_hits, compile_misses = (sum(r[3] for r in per_worker),
                                        sum(r[4] for r in per_worker))
        totals = _delta(self.totals, start.totals)
        units = max(units, 1)
        return {
            "service.plan_cache_hit_ratio":
                plan_hits / max(plan_hits + plan_misses, 1),
            "service.worker_imbalance": max(served) / max(min(served), 1),
            "runtime.compile_cache_hit_ratio":
                compile_hits / max(compile_hits + compile_misses, 1),
            "backends.passes": totals.get("passes", 0) / units,
            "backends.bytes_up": totals.get("bytes_uploaded", 0) / units,
            "backends.bytes_down": totals.get("bytes_downloaded", 0) / units,
            "backends.flops": totals.get("flops", 0) / units,
        }


def _response_layers(responses) -> Dict[str, float]:
    """Queue wait and execute time from the service's own responses."""
    served = [r for r in responses if r is not None]
    if not served:
        return {}
    wait_ms = [(r.latency_s - r.execute_s) * 1e3 for r in served]
    return {
        "service.queue_wait_ms.p50": percentile(wait_ms, 50),
        "service.queue_wait_ms.p99": percentile(wait_ms, 99),
        "service.execute_ms.p50":
            percentile([r.execute_s * 1e3 for r in served], 50),
    }


class _AdasWorkload:
    """Shared start/stop of the ADAS workloads: the default service."""

    size = 32
    frame_count = 8
    frame_sum = False

    def __init__(self, seed: int):
        self.seed = seed
        self.frames = adas.make_frames(seed, self.size, self.frame_count)
        self.expected = adas.Expected(self.frames, frame_sum=self.frame_sum)

    def start(self) -> BrookService:
        service = BrookService(backend="cpu")
        # Warm every worker: each prepares and fuses the signature once.
        service.map([adas.adas_request(self.frames[0], frame_sum=self.frame_sum,
                                       name="warmup")] * service.pool_size)
        service.reset_service_stats()
        return service

    def stop(self, service: BrookService) -> None:
        service.close()

    def close(self) -> None:
        self.expected.close()


class AdasSmallOpen(_AdasWorkload):
    """32x32 ADAS requests in an open loop over a ladder of fixed rates."""

    name = "adas-small-open"
    R1, R2 = 200.0, 400.0
    #: Offered rates: r1 and r2, two that bracket the rate where the
    #: latency limit is crossed, and one far above capacity, at which the
    #: backlog never empties and completions run at the service's peak.
    LADDER = (200.0, 400.0, 500.0, 600.0, 1000.0)
    SATURATING = 1000.0
    #: The limit is on p95: at ``--seconds 20`` a block lasts 1 s and
    #: holds 200 requests or more, so every block has ten samples or more
    #: beyond p95 (p99 is reported, not limited).
    LIMIT_MS, PERCENTILE = 10.0, 95.0
    #: Every rate runs once per round, in alternating order, so each
    #: rate's blocks are spread over the whole run.
    ROUNDS = 4
    #: Spans a request meets between ``submit`` and its response that
    #: the service leaves out of ``execute_s``: they lie inside the
    #: measured queue wait ``latency_s - execute_s``.
    OUTSIDE_EXECUTE = ("service.submit", "runtime.prepare", "runtime.fuse",
                       "core.fuse_compiled", "runtime.compile",
                       "core.compile", "runtime.download")

    def measure(self, service: BrookService, seconds: float,
                between=no_pause):
        requests = [adas.adas_request(frame, name=f"frame{i}")
                    for i, frame in enumerate(self.frames)]
        before = _ServiceCounters(service)

        def submit(index):
            return service.submit(requests[index % len(requests)])

        block_s = seconds / (self.ROUNDS * len(self.LADDER))
        blocks: Dict[float, List[RateStep]] = {r: [] for r in self.LADDER}
        for round_index in range(self.ROUNDS):
            order = self.LADDER if round_index % 2 == 0 else self.LADDER[::-1]
            for rate in order:
                between()
                gc.collect()
                blocks[rate].append(run_rate(submit, rate, block_s))
        units = sum(b.attempted for bs in blocks.values() for b in bs)
        return blocks, _ServiceCounters(service).since(before, units)

    def summarize(self, raw) -> Outcome:
        blocks, counters = raw
        every = [b for bs in blocks.values() for b in bs]
        wrong = 0
        for block in every:
            for index, response in enumerate(block.responses):
                if response is not None and not self.expected.check(
                        response, index % len(self.frames)):
                    wrong += 1
                    block.failed += 1
        r1, r2 = blocks[self.R1], blocks[self.R2]
        sustained = sustained_rate(blocks, self.LIMIT_MS, self.PERCENTILE)
        capacity = float(np.median(
            [b.achieved_rps() for b in blocks[self.SATURATING]]))
        attempted = sum(b.attempted for b in every)
        failed = sum(b.failed for b in every)
        lags = np.concatenate([b.lag_ms for b in every])
        report = {
            "r1_lat_p50_ms": median_latency_ms(r1, 50),
            "r1_lat_p95_ms": median_latency_ms(r1, 95),
            "r1_lat_p99_ms": median_latency_ms(r1, 99),
            "r2_lat_p50_ms": median_latency_ms(r2, 50),
            "r2_lat_p95_ms": median_latency_ms(r2, 95),
            "r2_lat_p99_ms": median_latency_ms(r2, 99),
            "sustained_rps": sustained,
            "capacity_rps": capacity,
            "fail_frac": failed / attempted,
            "wrong_outputs": wrong,
            "rates": [{"rate_per_s": rate,
                       "blocks": len(bs),
                       "samples_per_block": bs[0].attempted,
                       "lat_p50_ms": median_latency_ms(bs, 50),
                       "lat_p95_ms": median_latency_ms(bs, 95),
                       "lat_p99_ms": median_latency_ms(bs, 99),
                       "gen_lag_ms_max": float(max(b.lag_ms.max() for b in bs)),
                       "backlog_max": int(max(b.backlog().max() for b in bs)),
                       "blocks_with_growing_backlog":
                           sum(b.backlog_grows() for b in bs),
                       "failed": sum(b.failed for b in bs),
                       "meets_limit": rate_meets(bs, self.LIMIT_MS,
                                                 self.PERCENTILE)}
                      for rate, bs in blocks.items()],
        }
        busy = float(sum(np.nansum(b.latency_s) for b in every))
        layer = dict(counters)
        # Service-side times at the two named rates only: the other rates
        # bracket the service's capacity and overload it on purpose.
        layer.update(_response_layers(
            [r for b in r1 + r2 for r in b.responses]))
        layer["load.gen_lag_ms.max"] = float(lags.max())
        served = [r for b in every for r in b.responses if r is not None]
        return Outcome(
            attempted=attempted, failed=failed,
            e2e={"lat_p50_ms": report["r1_lat_p50_ms"],
                 "rate_per_s": capacity},
            report=report, units=attempted, busy_s=busy, layer=layer,
            # Queue wait and generator lag are measured, not traced.
            waited_s=float(lags.sum() / 1e3 + sum(
                r.latency_s - r.execute_s for r in served)),
            waited_spans=self.OUTSIDE_EXECUTE)


class _ClosedLoop(_AdasWorkload):
    """One client sending its next request when the previous one returns.

    ``check_inline`` checks each response as it arrives, between timed
    requests, against references computed before timing (large outputs
    are then not kept); otherwise responses are kept and checked after
    the run, when their references are computed.
    """

    #: Fewest timed requests a run sends, however slow they are.
    MIN_REQUESTS = 20
    #: Untimed requests sent first, to bring the service to steady state.
    WARMUP_REQUESTS = 0

    def request(self, index: int):
        """(request, check key) of the ``index``-th request of the loop."""
        raise NotImplementedError

    def measure(self, service: BrookService, seconds: float,
                between=no_pause):
        for index in range(self.WARMUP_REQUESTS):
            service.submit(self.request(index)[0]).result(timeout=60.0)
        before = _ServiceCounters(service)
        latencies, keys, responses, verdicts = [], [], [], []
        failed = 0
        busy = 0.0
        gc.collect()
        index = self.WARMUP_REQUESTS
        while busy < seconds or len(latencies) < self.MIN_REQUESTS:
            between()
            request, key = self.request(index)
            index += 1
            started = clock()
            try:
                response = service.submit(request).result(timeout=60.0)
            except Exception:  # noqa: BLE001 - a failed request is counted
                response = None
            latencies.append(clock() - started)
            busy += latencies[-1]
            if response is None:
                failed += 1
                continue
            keys.append(key)
            responses.append(response)
            if self.check_inline:
                verdicts.append(self.expected.check(response, *key))
                response.outputs = {}
        counters = _ServiceCounters(service).since(before, len(latencies))
        return latencies, keys, responses, verdicts, failed, counters

    def summarize(self, raw) -> Outcome:
        latencies, keys, responses, verdicts, failed, counters = raw
        if not self.check_inline:
            verdicts = [self.expected.check(response, *key)
                        for response, key in zip(responses, keys)]
        wrong = sum(1 for ok in verdicts if not ok)
        failed += wrong
        attempted = len(latencies)
        lat_ms = np.asarray(latencies) * 1e3
        busy = float(np.sum(latencies))
        report = {
            "lat_p50_ms": percentile(lat_ms, 50),
            "lat_p95_ms": percentile(lat_ms, 95),
            "req_per_s": attempted / busy,
            "fail_frac": failed / attempted,
            "wrong_outputs": wrong,
            "samples": attempted,
        }
        layer = dict(counters)
        layer.update(_response_layers(responses))
        return Outcome(
            attempted=attempted, failed=failed,
            e2e={"lat_p50_ms": report["lat_p50_ms"],
                 "rate_per_s": report["req_per_s"]},
            report=report, units=attempted, busy_s=busy, layer=layer)


class AdasAutoExposure(_ClosedLoop):
    """32x32 requests whose exposure and gamma follow a seeded random walk."""

    name = "adas-autoexposure"
    check_inline = False
    #: Each request has a new signature, so the plan cache (32 entries)
    #: fills, and the heap the garbage collector walks grows, over the
    #: first 32 requests; the timed ones start once both have settled.
    WARMUP_REQUESTS = 40
    #: Longer than any run gets through (a request costs tens of ms).
    WALK_STEPS = 4096

    def __init__(self, seed: int):
        super().__init__(seed)
        self.walk = adas.exposure_walk(seed, self.WALK_STEPS)

    def request(self, index: int):
        exposure, gamma = self.walk[index % len(self.walk)]
        frame_index = index % len(self.frames)
        return (adas.adas_request(self.frames[frame_index], exposure, gamma),
                (frame_index, exposure, gamma))


class AdasHires(_ClosedLoop):
    """512x512 requests ending in the ``frame_sum`` reduction."""

    name = "adas-hires"
    size = 512
    frame_count = 4
    frame_sum = True
    check_inline = True

    def __init__(self, seed: int):
        super().__init__(seed)
        self.requests = [adas.adas_request(frame, frame_sum=True)
                         for frame in self.frames]
        for index in range(len(self.frames)):
            self.expected.get(index)

    def request(self, index: int):
        frame_index = index % len(self.frames)
        return self.requests[frame_index], (frame_index,)


class AppSuite:
    """The paper's reference apps at size 128 on GLES2 / VideoCore IV."""

    name = "app-suite"
    size = 128
    #: Fewest passes a run makes, however slow they are.
    MIN_PASSES = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.apps = {name: get_application(name)
                     for name in list_applications()}
        self.inputs = {name: app.generate_inputs(self.size, seed)
                       for name, app in self.apps.items()}
        self.references = {name: app.cpu_reference(self.size,
                                                   self.inputs[name])
                           for name, app in self.apps.items()}

    def start(self):
        runtime = BrookRuntime(backend="gles2", device="videocore-iv")
        modules = {name: app.compile(runtime)
                   for name, app in self.apps.items()}
        return runtime, modules

    def stop(self, system) -> None:
        system[0].close()

    def close(self) -> None:
        pass

    def measure(self, system, seconds: float, between=no_pause):
        runtime, modules = system
        app_ms: Dict[str, List[float]] = {name: [] for name in self.apps}
        pass_ms: List[float] = []
        invalid: List[str] = []
        before = runtime.statistics.summary()
        compile_before = runtime.compile_cache_info()
        gc.collect()
        while sum(pass_ms) < seconds * 1e3 or len(pass_ms) < self.MIN_PASSES:
            between()
            total = 0.0
            for name, app in self.apps.items():
                started = clock()
                try:
                    outputs = app.run_brook(runtime, modules[name], self.size,
                                            self.inputs[name])
                except Exception:  # noqa: BLE001 - a failed run is counted
                    outputs = None
                elapsed = (clock() - started) * 1e3
                total += elapsed
                app_ms[name].append(elapsed)
                if outputs is None or not app.validate(
                        outputs, self.references[name])[0]:
                    invalid.append(name)
            pass_ms.append(total)
        totals = _delta(runtime.statistics.summary(), before)
        compile_after = runtime.compile_cache_info()
        return app_ms, pass_ms, invalid, totals, compile_before, compile_after

    def summarize(self, raw) -> Outcome:
        app_ms, pass_ms, invalid, totals, compile_before, compile_after = raw
        passes = len(pass_ms)
        busy_s = sum(pass_ms) / 1e3
        p50s = {name: percentile(values, 50) for name, values in app_ms.items()}
        geomean = math.exp(sum(math.log(v) for v in p50s.values()) / len(p50s))
        attempted = passes * len(self.apps)
        report = {
            "suite_s": percentile(pass_ms, 50) / 1e3,
            "app_geomean_ms": geomean,
            "app_p50_ms": p50s,
            "fail_frac": len(invalid) / attempted,
            "invalid_runs": sorted(set(invalid)),
            "samples": passes,
        }
        hits = compile_after["hits"] - compile_before["hits"]
        misses = compile_after["misses"] - compile_before["misses"]
        layer = {
            "runtime.compile_cache_hit_ratio": hits / max(hits + misses, 1),
            "backends.passes": totals["passes"] / passes,
            "backends.bytes_up": totals["bytes_uploaded"] / passes,
            "backends.bytes_down": totals["bytes_downloaded"] / passes,
            "backends.flops": totals["flops"] / passes,
        }
        return Outcome(
            attempted=attempted, failed=len(invalid),
            e2e={"lat_p50_ms": geomean,
                 "rate_per_s": totals["passes"] / busy_s},
            report=report, units=passes, busy_s=busy_s, layer=layer)


WORKLOADS = {cls.name: cls for cls in
             (AdasSmallOpen, AdasAutoExposure, AdasHires, AppSuite)}
