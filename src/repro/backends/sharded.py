"""Sharded backend: one logical device made of ``N`` member devices.

``BrookRuntime(backend=..., devices=N)`` wraps ``N`` independently
constructed backends (simulated OpenGL ES 2 / CAL devices or CPU
executors) in a :class:`ShardedBackend`.  The wrapper implements the
ordinary :class:`~repro.backends.base.Backend` interface, which is what
makes sharding transparent to the rest of the runtime: launch plans,
fused pipelines, command queues, the async executor and the serving
layer all talk to "the backend" exactly as before, and the wrapper

* backs every stream whose :class:`~repro.core.analysis.sharding.ShardPlan`
  is non-trivial with a :class:`~repro.runtime.partition.PartitionedStorage`
  (one per-device storage per band; small streams stay whole on device 0),
* owns shard ``k`` by device ``k`` (:meth:`part_backend`) and runs the
  shards concurrently (:meth:`run_parts`), so the base class's partition
  paths scatter uploads and gather downloads band by band, reporting one
  logical transfer with the per-device driver call count, and reduce
  each band on its device,
* dispatches kernel launches through
  :func:`~repro.runtime.sharding.launch_sharded` (one concurrent pass
  per device).

Everything else - capability questions (target limits, fusion
launchability, gather semantics) and every stream that lives whole on
device 0 - delegates to device 0: the group is homogeneous by
construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core import ast_nodes as ast
from ..core.analysis.resources import TargetLimits
from ..core.analysis.sharding import ShardPlan
from ..core.compiler import CompiledKernel
from ..errors import RuntimeBrookError
from ..runtime.partition import is_sharded, reduce_parts
from ..runtime.profiling import KernelLaunchRecord, TransferRecord
from ..runtime.shape import StreamShape
from ..runtime.sharding import DeviceGroup, launch_sharded
from .base import Backend, StreamStorage

__all__ = ["ShardedBackend"]


class ShardedBackend(Backend):
    """A device group presenting the single-backend interface."""

    def __init__(self, devices: Sequence[Backend]):
        super().__init__()
        devices = list(devices)
        if not devices:
            raise RuntimeBrookError(
                "ShardedBackend needs at least one member device")
        first = type(devices[0])
        if any(type(device) is not first for device in devices):
            raise RuntimeBrookError(
                "ShardedBackend needs a homogeneous device group; got "
                + ", ".join(sorted({type(d).__name__ for d in devices}))
            )
        self.group = DeviceGroup(devices)
        self.devices: List[Backend] = self.group.devices
        self.name = f"{devices[0].name}[x{len(devices)}]"
        self.gather_clamps = devices[0].gather_clamps

    # ------------------------------------------------------------------ #
    @property
    def device_count(self) -> int:
        return len(self.devices)

    def close(self) -> None:
        self.group.shutdown()
        for device in self.devices:
            device.close()

    # ------------------------------------------------------------------ #
    # Capabilities (the group is homogeneous: device 0 answers)
    # ------------------------------------------------------------------ #
    def target_limits(self) -> TargetLimits:
        return self.devices[0].target_limits()

    def can_execute(self, kernel: CompiledKernel) -> bool:
        return self.devices[0].can_execute(kernel)

    def make_gather_source(self, data: np.ndarray):
        return self.devices[0].make_gather_source(data)

    def _reduction_quantize(self):
        return self.devices[0]._reduction_quantize()

    # ------------------------------------------------------------------ #
    # Parts: shard k lives on device k
    # ------------------------------------------------------------------ #
    def part_backend(self, index: int) -> Backend:
        return self.devices[index]

    def run_parts(self, tasks):
        return self.group.run(tasks)

    # ------------------------------------------------------------------ #
    # Storage and transfers: shards take the base class's part paths;
    # every other storage - whole, or tiled on one device - lives on
    # device 0
    # ------------------------------------------------------------------ #
    def create_storage(self, shape: StreamShape, element_width: int,
                       name: str = "") -> StreamStorage:
        plan = ShardPlan(shape.layout_2d, self.device_count)
        if plan.is_trivial:
            # Too small to split: the whole stream lives on device 0.
            return self.devices[0].create_storage(shape, element_width, name)
        return self._create_parts(shape, element_width, name, plan)

    def upload(self, storage: StreamStorage, data: np.ndarray) -> TransferRecord:
        if is_sharded(storage):
            return self._upload_parts(storage, data)
        return self.devices[0].upload(storage, data)

    def download(self, storage: StreamStorage):
        if is_sharded(storage):
            return self._download_parts(storage)
        return self.devices[0].download(storage)

    def device_view(self, storage: StreamStorage) -> np.ndarray:
        if is_sharded(storage):
            return self._view_parts(storage)
        return self.devices[0].device_view(storage)

    def free(self, storage: StreamStorage) -> None:
        if is_sharded(storage):
            self._free_parts(storage)
            return
        self.devices[0].free(storage)

    def _store_reduction(self, storage: StreamStorage,
                         values: np.ndarray) -> None:
        if is_sharded(storage):
            super()._store_reduction(storage, values)
            return
        self.devices[0]._store_reduction(storage, values)

    def device_memory_in_use(self) -> int:
        return sum(device.device_memory_in_use() for device in self.devices)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    # prepare_gathers is inherited: the base hook composes this class's
    # device_view (joined logical data) and make_gather_source
    # (device 0's flavour), which is exactly what sharded gathers need.

    def launch(
        self,
        kernel: CompiledKernel,
        helpers: Dict[str, ast.FunctionDef],
        domain: StreamShape,
        stream_args: Dict[str, object],
        gather_args: Dict[str, object],
        scalar_args: Dict[str, float],
        out_args: Dict[str, object],
        index_map: Optional[np.ndarray] = None,
        gathers=None,
    ) -> KernelLaunchRecord:
        plan = None
        for stream in (*out_args.values(), *stream_args.values()):
            storage = getattr(stream, "storage", None)
            if is_sharded(storage):
                plan = storage.plan
                break
        if plan is None:
            # The whole domain lives on device 0 (small streams);
            # prepare the gathers here so sharded gather arrays still
            # resolve through the joined logical view.
            if gathers is None:
                gathers = self.prepare_gathers(gather_args)
            return self.devices[0].launch(
                kernel, helpers, domain, stream_args, gather_args,
                scalar_args, out_args, index_map=index_map, gathers=gathers)
        return launch_sharded(self, kernel, helpers, domain, plan,
                              stream_args, gather_args, scalar_args, out_args)

    def reduce(
        self,
        kernel: CompiledKernel,
        helpers: Dict[str, ast.FunctionDef],
        input_stream,
    ):
        if is_sharded(input_stream.storage):
            return reduce_parts(self, kernel, helpers, input_stream)
        return self.devices[0].reduce(kernel, helpers, input_stream)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ShardedBackend {self.name!r} devices={self.device_count}>"
