"""Prepared kernel launches and deferred command queues.

Calling a :class:`~repro.runtime.kernel.KernelHandle` validates and
classifies its arguments on every call.  For a long-lived service that
launches the same kernel over the same streams thousands of times, that
per-call work is pure overhead, so the handle can *bind* its arguments
once into a :class:`LaunchPlan`:

.. code-block:: python

    plan = module.saxpy.bind(2.0, x, y, out)
    for _ in range(steps):
        plan.launch()              # no re-validation, no re-classification

A :class:`CommandQueue` (obtained from ``rt.queue()``) batches launches:
kernel calls made while the queue is active are recorded instead of
executed, and :meth:`CommandQueue.flush` runs them in submission order in
one pass, recording their statistics in bulk.

**Kernel fusion** builds on prepared launches: :meth:`BrookRuntime.fuse`
takes a list of plans forming a pipeline and merges compatible
producer -> consumer pairs into single fused kernels (see
:mod:`repro.core.transforms.fuse`), eliminating the intermediate
streams' write/read traffic and the per-pass dispatch overhead.  A
fused segment is itself a :class:`LaunchPlan` whose single piece is the
merged kernel, cached per runtime on the content of the kernel chain.
Pairs that cannot be legally fused (reductions, gathers on the
intermediate, mismatched domains, an intermediate that is still needed
afterwards) simply stay separate passes - fusion never changes what a
pipeline computes, only how many passes it takes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from ..core.compiler import CompiledKernel
from ..core.transforms.fuse import fuse_compiled, fuse_definitions
from ..errors import FusionError, KernelLaunchError
from .stream import Stream
from .tiling import launch_tile_plan, launch_tiled

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core import ast_nodes as ast
    from .kernel import KernelHandle
    from .profiling import KernelLaunchRecord
    from .runtime import BrookRuntime
    from .shape import StreamShape

__all__ = ["LaunchPlan", "FusedPipeline", "QueuedLaunch", "CommandQueue",
           "build_fused_pipeline"]


class LaunchPlan:
    """One kernel launch with its arguments validated and classified.

    Created through :meth:`KernelHandle.bind`; the constructor expects
    *already validated* bindings.  The plan resolves the launch domain
    and splits the arguments by parameter kind once, so every subsequent
    :meth:`launch` goes straight to the backend.

    A fused segment of a :class:`FusedPipeline` is a plan of the same
    type (built by :func:`build_fused_pipeline`): its single piece is the
    merged kernel and it has no ``handle``.
    """

    def __init__(self, handle: "KernelHandle", bindings: Dict[str, object]):
        self.handle = handle
        self.runtime: "BrookRuntime" = handle.runtime
        self.kernel_name = handle.original_name
        self.is_reduction = handle.is_reduction
        self._helpers = handle._helpers
        self._bound_streams = [
            value for value in bindings.values() if isinstance(value, Stream)
        ]
        program = handle.program
        pieces = [program.kernel(name) for name in handle.piece_names]
        #: Per piece, the ``(program, kernel)`` pairs of the source
        #: kernels it executes: one pair for an ordinary piece, one per
        #: merged kernel (in pipeline order) for a fused one.
        self._members = [((program, piece),) for piece in pieces]
        if self.is_reduction:
            self._prepare_reduction(bindings)
            return
        self._init_map(handle._output_domain(bindings), [
            (piece, handle._classify(piece.definition, bindings))
            for piece in pieces
        ])

    @classmethod
    def _fused(cls, runtime: "BrookRuntime", kernel: CompiledKernel,
              helpers: Dict[str, "ast.FunctionDef"], domain: "StreamShape",
              args: Tuple[Dict[str, Stream], Dict[str, Stream],
                          Dict[str, float], Dict[str, Stream]],
              members: Tuple[Tuple[object, CompiledKernel], ...]
              ) -> "LaunchPlan":
        """A one-piece map plan running the fused ``kernel`` over ``args``."""
        plan = cls.__new__(cls)
        plan.handle = None
        plan.runtime = runtime
        plan.kernel_name = kernel.name
        plan.is_reduction = False
        plan._helpers = helpers
        stream_args, gather_args, _, out_args = args
        plan._bound_streams = [*stream_args.values(), *gather_args.values(),
                               *out_args.values()]
        plan._members = [members]
        plan._init_map(domain, [(kernel, args)])
        return plan

    def _init_map(self, domain: "StreamShape", pieces) -> None:
        self._domain = domain
        self._pieces = pieces
        # Tiled dispatch keys on the bound storages (the CPU backend
        # never tiles, whatever the domain size); resolved once here
        # so repeated launches skip the lookup.  Every piece of a
        # split kernel shares the domain, hence the plan.
        stream_args, _, _, out_args = pieces[0][1]
        self._tile_plan = launch_tile_plan(stream_args, out_args)

    # ------------------------------------------------------------------ #
    @property
    def fused_kernel_names(self) -> Tuple[str, ...]:
        """Source kernels merged into this launch (empty when unfused)."""
        if self.is_reduction:
            return ()
        return self._pieces[0][0].fused_from

    def launch(self):
        """Execute the plan and record its statistics with the runtime.

        Returns the reduced value for reduction kernels, ``None`` for map
        kernels (outputs land in the bound output streams) - the same
        contract as calling the kernel handle directly.
        """
        records: List["KernelLaunchRecord"] = []
        # Launches that already ran stay recorded even when a later piece
        # of the same plan fails - the statistics feed the performance
        # model and must reflect the work the device actually did.
        try:
            return self.execute(records)
        finally:
            self.runtime.statistics.record_launches(records)

    def execute(self, records: List["KernelLaunchRecord"]):
        """Run the backend work, appending launch records to ``records``.

        Does not register the records with the runtime's statistics -
        :class:`CommandQueue` and :class:`FusedPipeline` use this to
        collect the records of a whole batch and register them in one
        bulk call.  Records are appended as each pass completes, so the
        caller sees the work that ran even when a later pass raises.
        """
        self._require_launchable()
        sanitizer = getattr(self.runtime, "sanitizer", None)
        if sanitizer is not None:
            sanitizer.before_launch(self)
        if self.is_reduction:
            result = self._execute_reduction(records)
        else:
            result = self._execute_map(records)
        if sanitizer is not None:
            sanitizer.after_launch(self)
        return result

    def _require_launchable(self) -> None:
        self.runtime._require_open()
        for stream in self._bound_streams:
            stream._require_live()

    # ------------------------------------------------------------------ #
    def _execute_map(self, records):
        backend = self.runtime.backend
        helpers = self._helpers
        for piece, (stream_args, gather_args, scalar_args, out_args) in self._pieces:
            if self._tile_plan is None:
                records.append(backend.launch(
                    piece, helpers, self._domain,
                    stream_args, gather_args, scalar_args, out_args,
                ))
            else:
                records.append(launch_tiled(
                    backend, piece, helpers, self._domain, self._tile_plan,
                    stream_args, gather_args, scalar_args, out_args,
                ))
        return None

    # ------------------------------------------------------------------ #
    def _prepare_reduction(self, bindings: Dict[str, object]) -> None:
        handle = self.handle
        stream_param = handle.original.stream_params[0]
        input_stream = bindings.get(stream_param.name)
        if not isinstance(input_stream, Stream):
            raise KernelLaunchError(
                f"reduction {handle.original_name!r} needs its input stream "
                f"{stream_param.name!r}"
            )
        self._reduce_input = input_stream
        self._reduce_piece = handle.program.kernel(handle.piece_names[0])

        # Brook distinguishes reductions to a scalar from reductions to a
        # smaller stream (every output element reduces one block of the
        # input); the latter is requested by passing a multi-element stream
        # as the accumulator argument.
        accumulator: Optional[Stream] = None
        for param in handle.original.reduce_params:
            candidate = bindings.get(param.name)
            if isinstance(candidate, Stream):
                accumulator = candidate
        self._accumulator = accumulator

    def _execute_reduction(self, records):
        backend = self.runtime.backend
        helpers = self._helpers
        accumulator = self._accumulator
        if accumulator is not None and accumulator.element_count > 1:
            records.append(backend.reduce_into(
                self._reduce_piece, helpers, self._reduce_input, accumulator
            ))
            return accumulator.read()
        value, record = backend.reduce(
            self._reduce_piece, helpers, self._reduce_input
        )
        records.append(record)
        # If the caller passed a 1-element stream for the accumulator, fill it.
        if accumulator is not None:
            accumulator.write(np.full(accumulator.dims, value, dtype=np.float32))
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "reduce" if self.is_reduction else "kernel"
        return f"<LaunchPlan {kind} {self.kernel_name!r}>"


class FusedPipeline:
    """An ordered sequence of launch segments produced by ``rt.fuse``.

    Each segment is a :class:`LaunchPlan`: either a fused one (several
    source kernels merged into one pass) or an original, unfusable plan
    (reductions, gather consumers, mismatched domains).  ``launch()``
    runs the segments in order, records all statistics in one bulk
    operation and returns the last segment's result (the reduced value
    when the pipeline ends in a reduction, ``None`` otherwise).
    """

    def __init__(self, runtime: "BrookRuntime",
                 segments: List[Tuple[LaunchPlan, List[int]]],
                 source_count: int):
        self.runtime = runtime
        #: ``(plan, source_indices)`` pairs; the indices point into the
        #: original plan list handed to ``rt.fuse``.
        self.segments = segments
        self.source_count = source_count

    # ------------------------------------------------------------------ #
    @property
    def pass_count(self) -> int:
        """Kernel passes the pipeline launches (after fusion)."""
        return len(self.segments)

    @property
    def kernels_fused(self) -> int:
        """How many passes fusion eliminated from the original pipeline."""
        return self.source_count - len(self.segments)

    @property
    def kernel_names(self) -> List[str]:
        return [plan.kernel_name for plan, _ in self.segments]

    def launch(self):
        records: List["KernelLaunchRecord"] = []
        result = None
        try:
            for plan, _ in self.segments:
                result = plan.execute(records)
        finally:
            self.runtime.statistics.record_launches(records)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FusedPipeline {self.pass_count} passes from "
                f"{self.source_count} kernels>")


def _fusable_run(plans: Sequence[LaunchPlan], start: int
                 ) -> Tuple[List[LaunchPlan], List[Dict[str, Tuple[int, str]]]]:
    """The plans from ``start`` on whose bindings let each join the ones before.

    Returns the run and, per plan after the first, its connections: each
    input-stream parameter reading a stream an earlier run member writes
    -> ``(run index, output parameter)`` of that member.  These are the
    binding-level legality checks; they run on every call, cached kernel
    or not.
    """
    def fusable(plan):
        # Reductions, compiler-split multi-piece kernels and already
        # fused segments never fuse.
        return (not plan.is_reduction and len(plan._pieces) == 1
                and len(plan._members[0]) == 1)

    run = [plans[start]]
    connections: List[Dict[str, Tuple[int, str]]] = []
    if not fusable(run[0]):
        return run, connections
    streams, gathers, _, outs = run[0]._pieces[0][1]
    inputs = [*streams.values(), *gathers.values()]
    live = [(0, name, stream) for name, stream in outs.items()]
    helpers = dict(run[0]._helpers)
    for position in range(start + 1, len(plans)):
        nxt = plans[position]
        if not fusable(nxt) or nxt._domain.dims != run[-1]._domain.dims:
            break
        cons_streams, cons_gathers, _, cons_outs = nxt._pieces[0][1]
        edge: Dict[str, Tuple[int, str]] = {}
        intermediates: List[Stream] = []
        for index, out_name, out_stream in live:
            consumed_by = [in_name for in_name, stream in cons_streams.items()
                           if stream is out_stream]
            for in_name in consumed_by:
                edge[in_name] = (index, out_name)
            if consumed_by:
                intermediates.append(out_stream)
        if not edge:
            break
        # Every output must only flow to the consumer positionally.  A
        # consumer that gathers from *any* output (connected or not)
        # would observe the pre-producer snapshot inside the fused pass,
        # and an aliased consumer output would race the producer's
        # write; both require separate passes.
        written = [*cons_gathers.values(), *cons_outs.values()]
        if any(stream is other for _, _, stream in live for other in written):
            break
        # A fully eliminated intermediate must additionally not be read
        # by the run itself (in-place kernels) or by any later plan - it
        # will never be materialised.
        readers = [*inputs, *(stream for later in plans[position + 1:]
                              for stream in later._bound_streams)]
        if any(stream is other for stream in intermediates
               for other in readers):
            break
        # Helper collision across modules: same name must mean the same code.
        if any(helpers.get(name, definition) is not definition
               for name, definition in nxt._helpers.items()):
            break
        helpers.update(nxt._helpers)
        eliminated = set(edge.values())
        live = [out for out in live if out[:2] not in eliminated]
        live += [(len(run), name, stream) for name, stream in cons_outs.items()]
        inputs += [stream for name, stream in cons_streams.items()
                   if name not in edge]
        inputs += cons_gathers.values()
        run.append(nxt)
        connections.append(edge)
    return run, connections


def _merged_helpers(plans: Sequence[LaunchPlan]) -> Dict[str, "ast.FunctionDef"]:
    helpers: Dict[str, "ast.FunctionDef"] = {}
    for plan in plans:
        for name, definition in plan._helpers.items():
            helpers.setdefault(name, definition)
    return helpers


def _execution_paths(plans: Sequence[LaunchPlan]) -> Tuple[bool, bool]:
    """(fast, vector): a fused kernel keeps an execution path only when
    every member kernel was compiled with it."""
    programs = [plan._members[0][0][0] for plan in plans]
    return (all(program.options.enable_fast_path for program in programs),
            all(program.options.vector_enabled for program in programs))


def _fuse_kernels(backend, run: Sequence[LaunchPlan],
                  connections: Sequence[Dict[str, Tuple[int, str]]]):
    """(fused kernel, per-member renames) of the longest fusable prefix
    of ``run`` on ``backend``, or ``None`` when its first pair is refused.

    A member joins while :func:`fuse_definitions` accepts it and the
    merged kernel fits the device; a kernel the backend cannot launch
    gives up its last member.
    """
    kernels = [plan._pieces[0][0] for plan in run]
    count = len(run)
    while count > 1:
        try:
            fusion = fuse_definitions(
                [kernel.definition for kernel in kernels[:count]],
                connections[:count - 1], backend.target_limits())
        except FusionError:
            return None
        count = len(fusion.renames)
        fast, vector = _execution_paths(run[:count])
        kernel = fuse_compiled(kernels[:count], fusion,
                               _merged_helpers(run[:count]),
                               enable_fast_path=fast,
                               enable_vector_path=vector)
        if backend.can_execute(kernel):
            return kernel, fusion.renames
        count -= 1
    return None


def _fused_plan(runtime: "BrookRuntime", run: Sequence[LaunchPlan],
                connections: Sequence[Dict[str, Tuple[int, str]]]
                ) -> Optional[LaunchPlan]:
    """One plan running the longest fusable prefix of ``run``, or ``None``.

    The fused kernel comes from the runtime's fusion cache, keyed on what
    it is a pure function of: the member kernels (their programs'
    compile-cache keys and kernel names), the connections, the helper
    names and the execution-path flags - never scalar values, streams or
    object identities.  A refused chain is cached as ``None``.  The
    device checks and the argument remapping run on every call.
    """
    helpers = _merged_helpers(run)
    key = (tuple((plan._members[0][0][0].key, plan._pieces[0][0].name)
                 for plan in run),
           tuple(tuple(edge.items()) for edge in connections),
           tuple(helpers), _execution_paths(run))
    backend = runtime.backend
    entry = runtime._fusion_cache.lookup(
        key, lambda: _fuse_kernels(backend, run, connections))
    if entry is None:
        return None
    kernel, renames = entry
    if (kernel.resources.fits(backend.target_limits())
            or not backend.can_execute(kernel)):
        return None
    members = run[:len(renames)]
    # Connected inputs and the outputs feeding them are no parameters of
    # the fused kernel; every other binding keeps its value under its
    # fused name, per argument kind (streams, gathers, scalars, outputs).
    edges = connections[:len(members) - 1]
    dropped = {(index, name) for index, edge in enumerate(edges, 1)
               for name in edge}
    dropped.update(out for edge in edges for out in edge.values())
    args = ({}, {}, {}, {})
    for index, (plan, names) in enumerate(zip(members, renames)):
        for kind, bound in zip(args, plan._pieces[0][1]):
            kind.update((names[name], value) for name, value in bound.items()
                        if (index, name) not in dropped)
    return LaunchPlan._fused(
        runtime, kernel, _merged_helpers(members), members[-1]._domain, args,
        tuple(plan._members[0][0] for plan in members),
    )


def build_fused_pipeline(runtime: "BrookRuntime",
                         plans: Sequence[LaunchPlan]) -> FusedPipeline:
    """Greedily merge adjacent compatible plans into fused segments.

    Each segment is the longest run of plans from where the previous one
    ended that a pairwise fold would merge: bindings first
    (:func:`_fusable_run`), then kernel legality and device limits.
    """
    if not plans:
        raise KernelLaunchError("cannot fuse an empty pipeline")
    for plan in plans:
        if not isinstance(plan, LaunchPlan):
            raise KernelLaunchError(
                "rt.fuse expects prepared launch plans "
                "(use kernel.bind(...) to create them)"
            )
        if plan.runtime is not runtime:
            raise KernelLaunchError(
                "cannot fuse launch plans from a different runtime")
    segments: List[Tuple[LaunchPlan, List[int]]] = []
    start = 0
    while start < len(plans):
        run, connections = _fusable_run(plans, start)
        fused = _fused_plan(runtime, run, connections) \
            if len(run) > 1 else None
        if fused is None:
            segment, count = plans[start], 1
        else:
            segment, count = fused, len(fused._members[0])
        segments.append((segment, list(range(start, start + count))))
        start += count
    return FusedPipeline(runtime, segments, len(plans))


class QueuedLaunch:
    """A launch submitted to a :class:`CommandQueue`, resolved at flush.

    ``result`` holds the launch's return value (the reduced value for
    reductions, ``None`` for map kernels) once ``done`` is ``True``.
    """

    __slots__ = ("plan", "result", "done")

    def __init__(self, plan: LaunchPlan):
        self.plan = plan
        self.result: object = None
        self.done = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "pending"
        return f"<QueuedLaunch {self.plan.kernel_name!r} {state}>"


class CommandQueue:
    """Deferred launch queue batching kernel calls on one runtime.

    While the queue is active (inside ``with rt.queue() as q:``), kernel
    calls on that runtime enqueue a :class:`QueuedLaunch` instead of
    executing.  :meth:`flush` - called automatically when the ``with``
    block exits without an exception - runs everything in submission
    order and records the launch statistics in one bulk operation.

    Command queues are **per-thread** objects: the runtime's
    active-queue stack is thread-local, so a queue only captures kernel
    calls made by the thread that activated it - launches issued
    concurrently by other threads sharing the runtime execute
    immediately instead of being silently deferred.  A queue instance
    itself must not be shared between threads; for cross-thread
    asynchronous execution use
    :class:`~repro.runtime.executor.AsyncExecutor`.
    """

    def __init__(self, runtime: "BrookRuntime"):
        self.runtime = runtime
        self._pending: List[QueuedLaunch] = []
        self.flushed_launches = 0
        # Set while the context-manager exit performs its automatic
        # flush, which is unconditional and must not count as a
        # double-flush under the sanitizer.
        self._exit_flush = False

    # ------------------------------------------------------------------ #
    def submit(self, plan: LaunchPlan) -> QueuedLaunch:
        """Enqueue a prepared launch; it runs at the next :meth:`flush`."""
        if plan.runtime is not self.runtime:
            raise KernelLaunchError(
                "cannot enqueue a launch plan from a different runtime"
            )
        queued = QueuedLaunch(plan)
        self._pending.append(queued)
        return queued

    def __len__(self) -> int:
        return len(self._pending)

    def flush(self) -> List[object]:
        """Execute every pending launch; returns their results in order.

        When a launch in the batch raises, everything that already ran
        stays executed and recorded in the statistics; the remaining
        pending launches are discarded with the exception.
        """
        pending, self._pending = self._pending, []
        sanitizer = getattr(self.runtime, "sanitizer", None)
        if (sanitizer is not None and not pending and self.flushed_launches
                and not self._exit_flush):
            sanitizer.note_double_flush(self)
        records: List["KernelLaunchRecord"] = []
        results: List[object] = []
        try:
            for queued in pending:
                result = queued.plan.execute(records)
                queued.result = result
                queued.done = True
                results.append(result)
        finally:
            self.flushed_launches += len(results)
            self.runtime.statistics.record_launches(records)
        return results

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "CommandQueue":
        self.runtime._push_queue(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.runtime._pop_queue(self)
        if exc_type is None:
            self._exit_flush = True
            try:
                self.flush()
            finally:
                self._exit_flush = False
        else:
            self._pending.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<CommandQueue pending={len(self._pending)} "
                f"flushed={self.flushed_launches}>")
