"""In-memory span tracing around the public entry points of each layer.

The program itself has no tracing facility, so the traced run wraps the
entry points from outside: :meth:`Tracer.install` replaces each listed
function or method with a wrapper that records a span (name, start, end,
thread, parent span) and :meth:`Tracer.uninstall` puts every original
back, so the untraced runs measure unwrapped code.  Spans stay in memory
until :meth:`Tracer.chrome_trace` writes them out at the end.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple, Union

#: A span name, or a function of the wrapped call's arguments returning
#: the name (``None`` skips the span for that call).
SpanName = Union[str, Callable[..., Optional[str]]]


class Span:
    __slots__ = ("id", "name", "start_ns", "end_ns", "thread", "parent",
                 "phase")

    def __init__(self, span_id, name, start_ns, thread, parent, phase):
        self.id = span_id
        self.name = name
        self.start_ns = start_ns
        self.end_ns = start_ns
        self.thread = thread
        self.parent = parent
        self.phase = phase

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self):
        self.spans: List[Span] = []
        #: Label stamped on every span, so set-up and measurement spans
        #: can be told apart afterwards.
        self.phase = ""
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def _wrap(self, original: Callable, name: SpanName) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            if label is None:
                return original(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span = Span(next(tracer._ids), label, time.perf_counter_ns(),
                        threading.get_ident(),
                        stack[-1].id if stack else None, tracer.phase)
            stack.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(span)

        return traced

    def wrap_method(self, cls: type, attr: str, name: SpanName) -> None:
        """Trace ``cls.attr``, a method defined on ``cls`` itself."""
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(original, name))
        self._patches.append((cls, attr, original))

    def wrap_function(self, function: Callable, name: SpanName,
                      package: str = "repro") -> None:
        """Trace a module-level function under every name it is bound to.

        Modules that imported the function by name hold their own
        reference, so each binding inside ``package`` is replaced.
        """
        wrapper = self._wrap(function, name)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == package or
                                      module_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, function))

    def uninstall(self) -> None:
        """Restore every wrapped callable (in reverse order of wrapping)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # ------------------------------------------------------------------ #
    def self_times_ns(self, phase: Optional[str] = None) -> Dict[int, int]:
        """Span id -> duration minus the duration of its child spans."""
        spans = [s for s in self.spans if phase is None or s.phase == phase]
        child_ns: Dict[int, int] = defaultdict(int)
        for span in spans:
            if span.parent is not None:
                child_ns[span.parent] += span.duration_ns
        return {span.id: span.duration_ns - child_ns[span.id]
                for span in spans}

    def by_name(self, phase: Optional[str] = None
                ) -> Dict[str, Dict[str, object]]:
        """Per span name: call count, self time and each call's duration."""
        self_ns = self.self_times_ns(phase)
        table: Dict[str, Dict[str, object]] = {}
        for span in self.spans:
            if phase is not None and span.phase != phase:
                continue
            row = table.setdefault(span.name, {"calls": 0, "self_ns": 0,
                                               "durations_ns": []})
            row["calls"] += 1
            row["self_ns"] += self_ns[span.id]
            row["durations_ns"].append(span.duration_ns)
        return table

    def chrome_trace(self) -> Dict[str, object]:
        """The spans in Chrome trace-event format (chrome://tracing, Perfetto)."""
        return {"traceEvents": [
            {"name": span.name, "ph": "X", "pid": 0, "tid": span.thread,
             "ts": span.start_ns / 1e3, "dur": span.duration_ns / 1e3,
             "args": {"id": span.id, "parent": span.parent,
                      "phase": span.phase}}
            for span in self.spans
        ]}


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer the benchmark reports."""
    from repro.apps.base import get_application, list_applications
    from repro.backends.gles2_backend import GLES2Backend
    from repro.core.compiler import BrookAutoCompiler
    from repro.core.exec.compiled import CompiledKernelProgram
    from repro.core.exec.evaluator import KernelEvaluator
    from repro.core.exec.vectorized import VectorizedKernelProgram
    from repro.core.transforms.fuse import fuse_compiled
    from repro.runtime.kernel import KernelHandle
    from repro.runtime.launch import FusedPipeline, LaunchPlan
    from repro.runtime.reduction import multipass_reduce, partial_reduce
    from repro.runtime.runtime import BrookRuntime
    from repro.runtime.stream import Stream
    from repro.service import BrookService
    from repro.service.service import prepare_request

    tracer.wrap_method(BrookService, "submit", "service.submit")
    tracer.wrap_method(BrookRuntime, "compile", "runtime.compile")
    tracer.wrap_function(prepare_request, "runtime.prepare")
    tracer.wrap_method(BrookRuntime, "fuse", "runtime.fuse")
    tracer.wrap_method(Stream, "write", "runtime.upload")
    tracer.wrap_method(Stream, "read", "runtime.download")
    tracer.wrap_method(FusedPipeline, "launch", "runtime.launch")
    tracer.wrap_method(LaunchPlan, "launch", "runtime.launch")
    # A reduction runs through ``execute`` both alone and as the last
    # segment of a fused pipeline; map plans are covered by ``launch``.
    tracer.wrap_method(
        LaunchPlan, "execute",
        lambda plan, *_a, **_k: "runtime.reduce" if plan.is_reduction else None)
    tracer.wrap_method(KernelHandle, "__call__", "runtime.direct_call")
    tracer.wrap_function(fuse_compiled, "core.fuse_compiled")
    tracer.wrap_method(BrookAutoCompiler, "compile", "core.compile")
    tracer.wrap_method(VectorizedKernelProgram, "run", "exec.vector")
    tracer.wrap_method(CompiledKernelProgram, "run", "exec.fast")
    tracer.wrap_method(KernelEvaluator, "run", "exec.interp")
    tracer.wrap_function(multipass_reduce, "exec.reduce")
    tracer.wrap_function(partial_reduce, "exec.reduce")
    for method in ("upload", "download", "launch"):
        tracer.wrap_method(GLES2Backend, method, f"gles2.{method}")
    for app_name in list_applications():
        app_class = type(get_application(app_name))
        if "run_brook" in app_class.__dict__:
            tracer.wrap_method(app_class, "run_brook", f"apps.{app_name}")
