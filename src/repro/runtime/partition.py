"""Partitioned streams: one storage per tile or per shard.

A logical stream is cut into rectangular parts in two ways, both
described by a :class:`~repro.core.analysis.tiling.PartitionPlan`:

* **tiles** (:class:`~repro.runtime.tiling.TilePlan`) when its layout
  exceeds one device's texture limit - every tile lives on that device;
* **shards** (:class:`~repro.core.analysis.sharding.ShardPlan`) when it
  is spread over a ``BrookRuntime(devices=N)`` group - shard ``k``
  lives on device ``k`` and may itself be tiled there.

Everything that does not depend on how the stream was cut lives here
once: the :class:`PartitionedStorage` itself, the per-part stream view
a partitioned launch or reduction hands to a backend
(:func:`part_views`, with the layout-match check), the merge of
per-part launch records
(:func:`merge_part_records`), reductions (:func:`reduce_parts`:
reduce each part, then fold the partials with the same kernel) and the
leaf-storage walk that the executor's hazard tracking and the dataflow
analysis both key on (:func:`leaf_storages`).  The per-part transfers
live in :class:`~repro.backends.base.Backend`; what really differs -
tile geometry and launches (:mod:`repro.runtime.tiling`), shard geometry,
halo gathers and device concurrency (:mod:`repro.runtime.sharding`) -
stays with each cut.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.analysis.sharding import ShardPlan
from ..core.analysis.tiling import PartitionPlan, PartRect
from ..errors import KernelLaunchError
from .profiling import KernelLaunchRecord
from .reduction import multipass_reduce, reduction_record
from .shape import StreamShape

__all__ = ["PartitionedStorage", "part_views", "merge_part_records",
           "reduce_parts", "leaf_storages", "storage_units", "is_sharded",
           "is_tiled"]


class PartitionedStorage:
    """One logical stream backed by one storage per part of ``plan``.

    Implements the :class:`~repro.backends.base.StreamStorage` protocol
    (``shape`` / ``element_width`` / ``name``) without inheriting from
    it - the backends depend on the runtime layer, not the other way
    round.  ``parts[k]`` is the storage of ``plan.parts[k]`` on the
    part's owning backend: an ordinary single texture/resource/array,
    or, for a shard whose band exceeds its device's limit, a tiled
    :class:`PartitionedStorage` itself.
    """

    def __init__(self, shape: StreamShape, element_width: int, name: str,
                 plan: PartitionPlan, parts: List[object]):
        self.shape = shape
        self.element_width = element_width
        self.name = name
        self.plan = plan
        self.parts = parts
        self._joined_view: Optional[np.ndarray] = None
        self._view_lock = threading.Lock()

    def cached_view(self, build) -> np.ndarray:
        """Memoised joined logical view (see ``Backend.device_view``).

        Joining reads (and on RGBA8 storage decodes) every part; gathers
        during a partitioned launch would otherwise redo that once per
        part pass.  Every write path (upload, part launch outputs,
        reduction stores) calls :meth:`invalidate_view`.  The memo is
        built under a lock so concurrent readers (launches gathering
        from this stream on different executor workers) share one join.
        """
        with self._view_lock:
            if self._joined_view is None:
                self._joined_view = build()
            return self._joined_view

    def invalidate_view(self) -> None:
        with self._view_lock:
            self._joined_view = None

    @property
    def size_bytes(self) -> int:
        return sum(part.size_bytes for part in self.parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<PartitionedStorage {self.name!r} {self.shape} "
                f"{self.plan.part}s={len(self.parts)}>")


class _PartView:
    """Stream-shaped view of one part, handed to the part's backend.

    Quacks like :class:`~repro.runtime.stream.Stream` as far as backends
    care (``storage``, ``shape``, ``element_width``, ``name``), with the
    part's own storage and the part's extent as its shape.
    """

    __slots__ = ("storage", "shape", "element_width", "name")

    def __init__(self, stream, plan: PartitionPlan, part: PartRect,
                 shape: StreamShape):
        storage = getattr(stream, "storage", None)
        if not isinstance(storage, PartitionedStorage) or \
                storage.plan.geometry != plan.geometry:
            raise KernelLaunchError(
                f"stream {stream.name!r} of shape {tuple(stream.shape.dims)} "
                f"does not share the {plan.kind} layout of the launch domain "
                f"{plan.layout}; {plan.kind} launches need every positional "
                "stream argument to have the domain's shape"
            )
        self.storage = storage.parts[part.index]
        self.shape = shape
        self.element_width = stream.element_width
        self.name = f"{stream.name}[{plan.part} {part.index}]"

    @property
    def element_count(self) -> int:
        return self.shape.element_count


def part_views(streams: Dict[str, object], plan: PartitionPlan,
               part: PartRect, shape: StreamShape) -> Dict[str, _PartView]:
    """Views of one part of every positional stream of a launch.

    Raises :class:`~repro.errors.KernelLaunchError` for a stream that is
    not cut exactly like the launch domain.
    """
    return {name: _PartView(stream, plan, part, shape)
            for name, stream in streams.items()}


def merge_part_records(records: List[KernelLaunchRecord], shards: int = 1,
                       halo_bytes: int = 0) -> KernelLaunchRecord:
    """Merge per-part launch records into one logical record.

    ``tiles`` is folded so that the result's ``tiles - 1`` counts the
    *within-device* tile switches (``sum(tiles_k - 1)``): crossing from
    one shard to the next is priced by the sharding overhead
    (``shards``, ``halo_bytes``), not the tiling one.
    """
    return KernelLaunchRecord(
        kernel=records[0].kernel,
        elements=sum(r.elements for r in records),
        flops=sum(r.flops for r in records),
        texture_fetches=sum(r.texture_fetches for r in records),
        passes=sum(r.passes for r in records),
        reduction=any(r.reduction for r in records),
        fused=max(r.fused for r in records),
        saved_intermediate_bytes=sum(r.saved_intermediate_bytes
                                     for r in records),
        tiles=sum(r.tiles for r in records) - (shards - 1),
        shards=shards,
        halo_bytes=halo_bytes,
    )


def reduce_parts(backend, kernel, helpers, stream
                 ) -> Tuple[float, KernelLaunchRecord]:
    """Reduce a partitioned stream: each part, then fold the partials.

    A reduction pass samples 2x2 blocks of one texture, so it cannot
    cross parts.  Each part is reduced by its owning backend's own
    ``reduce`` - serially for tiles, concurrently through
    ``backend.run_parts`` for shards, recursing into a sharded band that
    is itself tiled - under that backend's storage model (RGBA8 round
    trips on OpenGL ES 2), and the partial values are folded with the
    *same* kernel.

    The part-then-combine structure reassociates the operator: exactly
    associative reductions (``min``/``max``, integer-valued sums) are
    bit-identical to one storage; general floating-point sums can differ
    by the usual reassociation ULPs, within the language contract (Brook
    requires reduction operators to be associative).
    """
    plan = stream.storage.plan
    results = backend.run_parts([
        (lambda part=part: backend.part_backend(part.index).reduce(
            kernel, helpers,
            _PartView(stream, plan, part, plan.part_shape(part))))
        for part in plan.parts
    ])
    value = results[0][0]
    records = [record for _, record in results]
    if len(results) > 1:
        combine = multipass_reduce(
            kernel.definition, helpers,
            np.asarray([v for v, _ in results],
                       dtype=np.float32).reshape(1, -1),
            quantize=backend._reduction_quantize(),
        )
        value = combine.value
        # The combine pass runs on one device and adds no tile.
        records.append(reduction_record(kernel.name, combine, tiles=0))
    shards = plan.part_count if isinstance(plan, ShardPlan) else 1
    # The partials travel to one device: one value per remote shard.
    return value, merge_part_records(records, shards, (shards - 1) * 4)


def is_sharded(storage: object) -> bool:
    """Whether ``storage`` is cut into shards across a device group."""
    return isinstance(storage, PartitionedStorage) and \
        isinstance(storage.plan, ShardPlan)


def is_tiled(storage: object) -> bool:
    """Whether ``storage`` is tiled at any level (a tiled stream, or a
    sharded one with a tiled band)."""
    if not isinstance(storage, PartitionedStorage):
        return False
    # A partitioned storage that is not sharded is tiled.
    return not is_sharded(storage) or any(is_tiled(part)
                                          for part in storage.parts)


def leaf_storages(stream: object) -> Tuple[object, ...]:
    """The leaf device storages backing ``stream`` (or a storage).

    A plain stream is backed by one storage; a partitioned stream by
    the leaves of its parts - for a sharded stream of tiled bands, the
    per-tile storages of every band.  This is the ground-truth aliasing
    unit: two launches conflict exactly when their leaf storage sets (or
    the NumPy buffers inside them) intersect.
    """
    storage = getattr(stream, "storage", None)
    if storage is None:
        # Already a storage object (part recursion).
        storage = stream
    if not isinstance(storage, PartitionedStorage):
        return (storage,)
    return tuple(leaf for part in storage.parts
                 for leaf in leaf_storages(part))


def storage_units(stream: object) -> Tuple[int, ...]:
    """Identity keys of ``stream``'s leaf storages (the aliasing units).

    These are the executor's hazard-table keys: storage identities,
    never wrapper identities, so two ``Stream`` handles over one device
    storage - or a plain stream aliasing one band of a sharded stream -
    collide, and a whole-stream launch conflicts on every leaf.
    """
    return tuple(id(storage) for storage in leaf_storages(stream))
