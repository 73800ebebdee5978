"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload adas-hires --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
measures half the time untraced and half with every layer's entry point
wrapped by :mod:`perfbench.spans`, and reports the per-layer metrics, the
tracing overhead and the share of end-to-end time the layers' self times
leave unexplained.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the full report,
with the host and sample counts, and the spans of a traced run are
written under ``.perfbench_out/``.  The exit code is 1 when an output was
wrong and 2 when the program under test cannot be found or the metrics
measured are not the ones ``BENCHMARK.json`` lists, whose units are
printed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SPEC = ROOT / "BENCHMARK.json"


def listed_metrics(trace: int) -> dict:
    """Name -> unit of the metrics ``BENCHMARK.json`` lists for a run."""
    spec = json.loads(SPEC.read_text())
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if trace else "end_to_end"]}


def host_record(seed: int) -> dict:
    """The host and code version behind a result."""
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def git_commit():
    """HEAD's commit id read from ``.git``, or ``None`` outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


class SetupSampler:
    """Times ``reps`` set-ups: the measured system's and further ones.

    The further set-ups are built and torn down at the measurement's
    ``between`` points, one every ``seconds / reps``, so their median
    sees the host as the whole run does rather than as it was in the
    first second.  Every set-up runs with the objects alive before it
    frozen out of the garbage collector, so none pays for collecting
    the heap of the system under measurement, as none would in a fresh
    process.
    """

    def __init__(self, workload, seconds, reps):
        self.workload = workload
        self.interval = seconds / reps
        self.remaining = reps - 1
        self.times = []
        self.due = None

    def start(self):
        gc.collect()
        gc.freeze()
        try:
            started = time.perf_counter()
            system = self.workload.start()
            self.times.append(time.perf_counter() - started)
        finally:
            gc.unfreeze()
        self.due = time.perf_counter() + self.interval
        return system

    def __call__(self):
        if self.remaining and time.perf_counter() >= self.due:
            self.take_one()

    def take_one(self):
        self.remaining -= 1
        self.workload.stop(self.start())

    def finish(self):
        """Take the set-ups the measurement ended too soon to reach."""
        while self.remaining:
            self.take_one()


def run_untraced(workload, seconds, setup_reps):
    setups = SetupSampler(workload, seconds, setup_reps)
    system = setups.start()
    try:
        raw = workload.measure(system, seconds, setups)
    finally:
        workload.stop(system)
    setups.finish()
    return workload.summarize(raw), setups.times


def run_traced(workload, seconds):
    from perfbench.spans import Tracer, install_layer_spans

    tracer = Tracer()
    install_layer_spans(tracer)
    system = None
    try:
        tracer.phase = "setup"
        system = workload.start()
        tracer.phase = "measure"
        raw = workload.measure(system, seconds)
    finally:
        tracer.phase = "teardown"
        if system is not None:
            workload.stop(system)
        tracer.uninstall()
    return workload.summarize(raw), tracer


#: Per-layer metrics that are a span's self time (ms) and call count per
#: unit of work: (metric stem, span name).
SPAN_LAYERS = (
    ("runtime.prepare", "runtime.prepare"),
    ("runtime.fuse", "runtime.fuse"),
    ("runtime.upload", "runtime.upload"),
    ("runtime.launch", "runtime.launch"),
    ("runtime.reduce", "runtime.reduce"),
    ("runtime.download", "runtime.download"),
    ("runtime.direct_call", "runtime.direct_call"),
    ("core.fuse_compiled", "core.fuse_compiled"),
    ("exec.vector", "exec.vector"),
    ("exec.fast", "exec.fast"),
    ("exec.interp", "exec.interp"),
    ("exec.reduce", "exec.reduce"),
    ("gles2.upload", "gles2.upload"),
    ("gles2.download", "gles2.download"),
    ("gles2.launch", "gles2.launch"),
)
#: Layers paid once per set-up: self time (ms) per set-up.
SETUP_LAYERS = (("runtime.compile_ms", "runtime.compile"),
                ("core.compile_ms", "core.compile"))
PROGRAM_LAYERS = ("service.queue_wait_ms.p50", "service.queue_wait_ms.p99",
                  "service.execute_ms.p50", "service.plan_cache_hit_ratio",
                  "service.worker_imbalance", "load.gen_lag_ms.max",
                  "runtime.compile_cache_hit_ratio", "backends.passes",
                  "backends.bytes_up", "backends.bytes_down", "backends.flops")


def layer_metrics(plain, traced, tracer):
    """Per-layer metrics of a traced run (0 where a layer did no work)."""
    measured = tracer.by_name("measure")
    setup = tracer.by_name("setup")
    units = max(traced.units, 1)
    metrics = {name: float(traced.layer.get(name, 0.0))
               for name in PROGRAM_LAYERS}
    for stem, span in SPAN_LAYERS:
        row = measured.get(span, {"calls": 0, "self_ns": 0})
        metrics[f"{stem}_ms"] = row["self_ns"] / 1e6 / units
        metrics[f"{stem}.calls"] = row["calls"] / units
    for metric, span in SETUP_LAYERS:
        metrics[metric] = setup.get(span, {"self_ns": 0})["self_ns"] / 1e6
    submit = measured.get("service.submit")
    metrics["service.submit_us.p50"] = (
        statistics.median(submit["durations_ns"]) / 1e3 if submit else 0.0)
    from repro.apps.base import list_applications

    for name in list_applications():
        row = measured.get(f"apps.{name}")
        metrics[f"apps.{name}.ms"] = (
            statistics.median(row["durations_ns"]) / 1e6 if row else 0.0)
    explained_s = (traced.waited_s + sum(
        row["self_ns"] for name, row in measured.items()
        if name not in traced.waited_spans) / 1e9)
    metrics["trace.unexplained_pct"] = (
        100.0 * (traced.busy_s - explained_s) / traced.busy_s)
    overhead = traced.e2e["lat_p50_ms"] - plain.e2e["lat_p50_ms"]
    metrics["trace.overhead_ms"] = overhead
    metrics["trace.overhead_pct"] = 100.0 * overhead / plain.e2e["lat_p50_ms"]
    metrics["trace.spans"] = float(len(tracer.spans))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program under test is missing "
              f"({SOURCE / 'repro'} not found)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE), str(ROOT)]
    from perfbench.workloads import SETUP_REPS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            plain, _ = run_untraced(workload, args.seconds / 2, 1)
            traced, tracer = run_traced(workload, args.seconds / 2)
            outcomes = (plain, traced)
            metrics = layer_metrics(plain, traced, tracer)
        else:
            plain, setup_times = run_untraced(workload, args.seconds,
                                              SETUP_REPS)
            outcomes = (plain,)
            metrics = dict(plain.e2e, setup_s=statistics.median(setup_times))
    finally:
        workload.close()
    units = listed_metrics(args.trace)
    if set(metrics) != set(units):
        print(f"perfbench: measured {sorted(metrics)} but BENCHMARK.json "
              f"lists {sorted(units)}", file=sys.stderr)
        return 2

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_record(args.seed),
        "metrics": metrics,
        "workload_metrics": [o.report for o in outcomes],
        "attempted": attempted,
        "failed": failed,
    }
    if not args.trace:
        report["setup_s_samples"] = setup_times
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        (OUT_DIR / f"{stem}-spans.json").write_text(
            json.dumps(tracer.chrome_trace()))
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps(report, indent=2, default=float))

    for outcome in outcomes:
        for key, value in outcome.report.items():
            if isinstance(value, float):
                print(f"{args.workload}: {key} = {value:.6g}")
    for name, value in metrics.items():
        print(f"{args.workload}: {name} = {value:.6g} {units[name]}")
    host = report["host"]
    print(f"{args.workload}: host nproc={host['nproc']} "
          f"python={host['python']} numpy={host['numpy']} "
          f"commit={host['git_commit']} seed={args.seed}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
