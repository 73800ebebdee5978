"""Tiled execution engine: streams larger than the device texture limit.

An OpenGL ES 2.0 stream occupies one RGBA8 texture, so before this
module a ``(3000, 3000)`` ADAS frame - or even a folded-able ``(4096,)``
signal - could not be *allocated* on a 2048-limit device, let alone
launched.  The engine makes oversized domains a first-class scenario:

* :class:`TilePlan` turns a stream shape plus the backend's
  :class:`~repro.core.analysis.resources.TargetLimits` into a folded
  layout and a grid of device-sized tiles (geometry shared with the
  static memory analysis through :mod:`repro.core.analysis.tiling`).
  It is one of the two :class:`~repro.core.analysis.tiling.PartitionPlan`
  cuts; the other is the device group's shard plan.
* The GLES2 and CAL backends back an oversized stream with a
  :class:`~repro.runtime.partition.PartitionedStorage` holding one
  texture/resource per tile; transfers, views, frees and reductions of
  it are the shared partition paths (:class:`~repro.backends.base.Backend`,
  :func:`~repro.runtime.partition.reduce_parts`).  The CPU backend
  keeps its plain contiguous array because its limit is never exceeded
  in practice.
* :func:`launch_tiled` runs one backend pass per tile, slicing the
  positional stream inputs per tile, passing each tile's *global*
  element positions so ``indexof`` stays correct, and routing gather
  arrays through the existing full-array
  :class:`~repro.core.exec.gather.GatherSource` (joined from the tiles
  by ``device_view``).  The per-tile launch records merge into a single
  record carrying ``tiles=N``, which the
  :class:`~repro.timing.gpu_model.GPUModel` prices with its
  tiling-overhead term.

Integration is transparent: :class:`~repro.runtime.launch.LaunchPlan`
(fused or not) consults the plan at launch time, so direct calls,
prepared launches, command-queue flushes and fused pipelines all tile
without application changes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..core.analysis.resources import TargetLimits
from ..core.analysis.tiling import PartitionPlan, folded_layout, tile_grid
from .partition import PartitionedStorage, merge_part_records, part_views
from .profiling import KernelLaunchRecord
from .shape import StreamShape

__all__ = ["TilePlan", "launch_tiled"]


class TilePlan(PartitionPlan):
    """Fold-and-tile decomposition of one stream shape for one device.

    The plan is a pure function of ``(shape.layout_2d, limits)``: two
    streams of the same shape on the same backend always share the same
    geometry, which is what lets per-tile launches pair the n-th tile of
    every argument.
    """

    part = "tile"
    kind = "tiled"

    def __init__(self, shape: StreamShape, limits: TargetLimits):
        self.layout = shape.layout_2d
        self.folded = folded_layout(self.layout, limits)
        self.parts = tile_grid(self.folded, limits)


def launch_tile_plan(stream_args: Dict[str, object],
                     out_args: Dict[str, object]) -> Optional[TilePlan]:
    """The tile plan a launch must follow, or ``None`` for the ordinary path.

    Dispatch keys on the storages actually being tiled - not on the
    domain size against the backend limits - so backends whose
    ``create_storage`` never tiles (the CPU backend) keep launching any
    domain in one pass.  Outputs are consulted first: they define the
    launch domain, so their plan is authoritative; a tiled input with an
    untiled output (mismatched layouts) is rejected tile-by-tile with a
    clear :class:`~repro.errors.KernelLaunchError` later.  Sharded
    storages are the device group's to launch, so they never match.
    """
    for stream in (*out_args.values(), *stream_args.values()):
        storage = getattr(stream, "storage", None)
        if isinstance(storage, PartitionedStorage) and \
                isinstance(storage.plan, TilePlan):
            return storage.plan
    return None


def launch_tiled(
    backend,
    kernel,
    helpers,
    domain: StreamShape,
    plan: TilePlan,
    stream_args: Dict[str, object],
    gather_args: Dict[str, object],
    scalar_args: Dict[str, float],
    out_args: Dict[str, object],
    gathers=None,
    origin: "tuple[int, int]" = (0, 0),
) -> KernelLaunchRecord:
    """Run one kernel over an oversized domain as one pass per tile.

    Positional stream inputs and outputs are addressed tile-by-tile
    through their partitioned storage; gather arrays are passed whole
    (the backend builds its usual full-array gather source from the
    joined ``device_view``).  Scalars broadcast unchanged.  Returns
    the aggregated launch record (``tiles=N``).

    ``gathers`` optionally supplies prebuilt gather sources so an outer
    engine (the sharded launch path) can share one snapshot across both
    its shards and their tiles.  ``origin`` is an ``(x, y)`` offset
    added to every tile's ``indexof`` positions: a sharded-and-tiled
    launch passes the shard's origin so kernels observe coordinates in
    the full logical stream, not the shard band.
    """
    records: List[KernelLaunchRecord] = []
    # One gather snapshot for the whole logical launch: every tile pass
    # reads the same sources instead of re-decoding the arrays per tile.
    # (Audited: for in-place launches - the gather source also being the
    # output stream - this matches the untiled backends, which likewise
    # snapshot the gather data before any output is written, so a tile
    # pass never observes an earlier tile's writes.  Regression-locked
    # by tests/test_tiled_execution.py::TestGatherSnapshotSemantics.)
    prepared_gathers = gathers if gathers is not None \
        else backend.prepare_gathers(gather_args)
    try:
        for tile in plan.parts:
            tile_shape = plan.part_shape(tile)
            tile_streams = part_views(stream_args, plan, tile, tile_shape)
            tile_outs = part_views(out_args, plan, tile, tile_shape)
            index_map = plan.index_positions(tile)
            if origin != (0, 0):
                index_map = index_map + np.asarray(origin, dtype=np.float32)
            records.append(backend.launch(
                kernel, helpers, tile_shape,
                tile_streams, gather_args, scalar_args, tile_outs,
                index_map=index_map,
                gathers=prepared_gathers,
            ))
    finally:
        # The tile passes wrote the output textures behind the logical
        # storages' backs; drop any memoised joined views.
        for stream in out_args.values():
            storage = getattr(stream, "storage", None)
            if isinstance(storage, PartitionedStorage):
                storage.invalidate_view()
    return merge_part_records(records)
