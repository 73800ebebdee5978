"""Request/response model of the Brook serving layer.

A :class:`ServiceRequest` is a self-contained description of one unit of
work: the Brook source it needs, the kernel calls to run (in order), the
host input arrays and the declared output shapes.  Everything is host
data - requests never reference runtime objects - which is what lets the
service dispatch them to whichever pooled worker runtime is least
loaded, and lets workers cache the prepared launch plans for repeated
request *signatures* (same source, same call chain, same shapes) while
only the input data changes frame to frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import RuntimeBrookError
from ..runtime.executor import LaunchFuture

__all__ = ["KernelCall", "ServiceRequest", "ServiceResponse", "ServiceFuture"]


@dataclass(frozen=True)
class KernelCall:
    """One kernel invocation inside a request.

    ``args`` mirrors the kernel's positional signature: a string names a
    request input or output stream, a number is passed as the scalar
    constant.  Frozen and hashable so a tuple of calls can key the
    worker's prepared-plan cache.
    """

    kernel: str
    args: Tuple[object, ...]

    def __post_init__(self):
        normalized = []
        for arg in self.args:
            if isinstance(arg, str):
                normalized.append(arg)
            elif isinstance(arg, (int, float, np.integer, np.floating)):
                normalized.append(float(arg))
            else:
                raise RuntimeBrookError(
                    f"kernel call {self.kernel!r}: argument {arg!r} must be "
                    "a stream name (str) or a scalar number"
                )
        object.__setattr__(self, "args", tuple(normalized))


def call(kernel: str, *args) -> KernelCall:
    """Convenience constructor: ``call("blur", "image", 0.5, "out")``."""
    return KernelCall(kernel, tuple(args))


@dataclass
class ServiceRequest:
    """A self-contained pipeline request for :class:`BrookService`.

    Args:
        source: Brook ``.br`` source text containing every kernel the
            calls reference (concatenate sources if they span modules).
        calls: The kernel invocations to execute, in order.
        inputs: Host arrays written into input streams (float32).
        outputs: Output stream shapes, ``name -> dims``; every output is
            read back into the response after the calls run.
        scratch: Intermediate stream shapes, ``name -> dims``.  Scratch
            streams carry data between calls but are *not* read back -
            which is what lets the service fuse a producer -> consumer
            chain into a single pass with the intermediates held in
            registers instead of materialised.
        name: Optional label carried through to the response.
        deadline: Optional absolute deadline on the service's modelled
            timeline, in seconds.  Requests with a deadline participate
            in EDF ordering and admission control; ``None`` means
            best-effort (scheduled after every deadline request).
        priority: Tie-breaker between equal deadlines (lower runs
            first); also orders best-effort requests among themselves.
        release: Earliest start time on the modelled timeline, in
            seconds.  Lets benchmark drivers lay out an arrival pattern
            deterministically; defaults to 0 (ready immediately).
    """

    source: str
    calls: Tuple[KernelCall, ...]
    inputs: Dict[str, np.ndarray]
    outputs: Dict[str, Tuple[int, ...]]
    scratch: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    name: str = ""
    deadline: Optional[float] = None
    priority: int = 0
    release: float = 0.0

    def __post_init__(self):
        self.calls = tuple(self.calls)
        if not self.calls:
            raise RuntimeBrookError("a service request needs at least one "
                                    "kernel call")
        if self.deadline is not None:
            deadline = float(self.deadline)
            if not deadline > 0.0:
                raise RuntimeBrookError(
                    f"a service request deadline must be a positive number "
                    f"of seconds, got deadline={self.deadline!r}"
                )
            self.deadline = deadline
        if not isinstance(self.priority, (int, np.integer)):
            raise RuntimeBrookError(
                f"a service request priority must be an integer, "
                f"got priority={self.priority!r}"
            )
        self.priority = int(self.priority)
        release = float(self.release)
        if release < 0.0:
            raise RuntimeBrookError(
                f"a service request release time cannot be negative, "
                f"got release={self.release!r}"
            )
        self.release = release
        self.inputs = {
            str(key): np.asarray(value, dtype=np.float32)
            for key, value in self.inputs.items()
        }
        def _normalize_shapes(mapping):
            return {
                str(key): tuple(int(extent) for extent in
                                (value if isinstance(value, (tuple, list))
                                 else (value,)))
                for key, value in mapping.items()
            }

        self.outputs = _normalize_shapes(self.outputs)
        self.scratch = _normalize_shapes(self.scratch)
        groups = (set(self.inputs), set(self.outputs), set(self.scratch))
        for index, first in enumerate(groups):
            for second in groups[index + 1:]:
                overlap = first & second
                if overlap:
                    raise RuntimeBrookError(
                        f"request stream names {sorted(overlap)} are declared "
                        "in more than one of inputs/outputs/scratch; use "
                        "distinct names"
                    )
        known = set(self.inputs) | set(self.outputs) | set(self.scratch)
        for one_call in self.calls:
            for arg in one_call.args:
                if isinstance(arg, str) and arg not in known:
                    raise RuntimeBrookError(
                        f"kernel call {one_call.kernel!r} references stream "
                        f"{arg!r} which is neither an input nor an output "
                        "of the request"
                    )

    # ------------------------------------------------------------------ #
    def signature(self) -> Tuple:
        """Hashable identity of the request's *shape* (not its data).

        Two requests with equal signatures can reuse the same prepared
        streams and launch plans; only the input arrays are rewritten.
        """
        input_sig = tuple(sorted(
            (name, array.shape) for name, array in self.inputs.items()
        ))
        output_sig = tuple(sorted(self.outputs.items()))
        scratch_sig = tuple(sorted(self.scratch.items()))
        return (self.source, self.calls, input_sig, output_sig, scratch_sig)


@dataclass
class ServiceResponse:
    """Result of one served request."""

    #: The request's optional label.
    name: str
    #: Output arrays read back from the worker runtime, ``name -> data``.
    outputs: Dict[str, np.ndarray]
    #: Return value of the final kernel call (the reduced value when the
    #: request ends in a reduction, ``None`` otherwise).
    value: Optional[float]
    #: Index of the pool worker that served the request.
    worker: int
    #: Seconds from submission to completion (queueing included).
    latency_s: float
    #: Seconds this request's input writes and launches took on the
    #: worker runtime (output reads excluded).
    execute_s: float
    #: Whether the worker reused a prepared plan cache entry.
    cached: bool = field(default=False)
    #: Modelled execution seconds of the work this request actually
    #: recorded (deadline-tracking mode only, else ``None``).
    modelled_s: Optional[float] = None
    #: The request's worst-case execution time bound in modelled seconds
    #: (deadline-tracking mode only).
    wcet_s: Optional[float] = None
    #: Completion time on the service's modelled timeline.
    virtual_finish_s: Optional[float] = None
    #: Whether the modelled completion met the request's deadline
    #: (``None`` when the request had no deadline or tracking is off).
    deadline_met: Optional[bool] = None


class ServiceFuture(LaunchFuture):
    """Completion handle returned by :meth:`BrookService.submit`.

    Same surface as :class:`~repro.runtime.executor.LaunchFuture`;
    ``result()`` returns the :class:`ServiceResponse`.
    """

    def __init__(self, request: ServiceRequest):
        super().__init__(plan=None)
        self.request = request
