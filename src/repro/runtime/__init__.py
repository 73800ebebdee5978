"""Brook Auto runtime: streams, kernel launches, reductions and statistics.

Service-grade surfaces: :class:`BrookRuntime` is a context manager whose
``close`` releases every live stream, :meth:`BrookRuntime.compile` caches
compiled programs, :meth:`KernelHandle.bind` prepares reusable
:class:`LaunchPlan` objects, ``BrookRuntime.queue()`` returns a
:class:`CommandQueue` batching launches, and ``BrookRuntime.fuse()``
merges producer -> consumer plans into :class:`FusedPipeline` objects
that skip materialising the intermediate streams.

Concurrency: a runtime is safe to share between threads (the compile
cache, statistics and storage accounting are lock-protected; command
queues are per-thread), and ``BrookRuntime.executor()`` returns an
:class:`AsyncExecutor` that overlaps independent launches on a worker
pool while stream-level hazard tracking keeps conflicting launches in
submission order - bit-identical to serial execution.  The
:mod:`repro.service` package builds the multi-runtime serving layer on
top.
"""

from .executor import AsyncExecutor, LaunchFuture
from .kernel import KernelHandle
from .launch import (
    CommandQueue,
    FusedPipeline,
    LaunchPlan,
    QueuedLaunch,
)
from .numerics import (
    RELATIVE_PRECISION,
    decode_float_rgba8,
    encode_float_rgba8,
    quantize_roundtrip,
)
from .profiling import KernelLaunchRecord, RunStatistics, TransferRecord, WallClockTimer
from .reduction import ReductionResult, multipass_reduce
from .runtime import BrookModule, BrookRuntime
from .sanitizer import BrookSanitizer, SanitizerFinding
from .shape import StreamShape
from .partition import PartitionedStorage
from .sharding import HaloGatherSource
from .stream import Stream
from .tiling import TilePlan

__all__ = [
    "BrookRuntime",
    "BrookModule",
    "Stream",
    "StreamShape",
    "KernelHandle",
    "LaunchPlan",
    "FusedPipeline",
    "QueuedLaunch",
    "CommandQueue",
    "AsyncExecutor",
    "LaunchFuture",
    "BrookSanitizer",
    "SanitizerFinding",
    "TilePlan",
    "PartitionedStorage",
    "HaloGatherSource",
    "KernelLaunchRecord",
    "TransferRecord",
    "RunStatistics",
    "WallClockTimer",
    "ReductionResult",
    "multipass_reduce",
    "encode_float_rgba8",
    "decode_float_rgba8",
    "quantize_roundtrip",
    "RELATIVE_PRECISION",
]
