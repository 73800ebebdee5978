"""Partition geometry: the part interface, and tiles for oversized streams.

The runtime cuts one logical stream into rectangular parts in two ways:
into device-sized **tiles** when its layout exceeds the texture limit
(below), and into per-device **shards** when it is spread over a device
group (:class:`~repro.core.analysis.sharding.ShardPlan`).  Both plans
derive from :class:`PartitionPlan`, which owns everything the two cuts
share: the :class:`PartRect` list, splitting data into per-part blocks,
joining blocks back, each part's stream shape and its global ``indexof``
positions.

An OpenGL ES 2.0 stream lives in one 2-D texture, and the texture cannot
exceed ``GL_MAX_TEXTURE_SIZE`` in either dimension.  Real workloads (an
ADAS frame at production resolution, a long 1-D signal) routinely do, so
the runtime decomposes oversized layouts in two steps:

1. **Folding** (1-D streams only): a ``(4096,)`` stream maps to a single
   ``1 x 4096`` row by default, which overflows a 2048-limit device even
   though a ``2 x 2048`` arrangement of the same elements fits in one
   texture.  :func:`folded_layout` re-shapes such rows into the widest
   exactly-dividing multi-row layout before any tiling is considered.

2. **Tiling**: a (possibly folded) layout still exceeding the limit is
   partitioned by :func:`tile_grid` into a grid of device-sized
   rectangular tiles, each small enough to live in its own texture.
   Edge tiles are smaller; power-of-two / square padding is applied per
   tile by the normal allocation path.

This module is pure geometry - it knows nothing about textures or
backends - so both the static memory-usage analysis and the runtime's
partitioned storage (:mod:`repro.runtime.partition`) share one
decomposition and always agree on the allocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .memory_usage import padded_texture_extent
from .resources import TargetLimits

__all__ = ["PartRect", "PartitionPlan", "folded_layout", "tile_grid",
           "tiled_texture_bytes"]


@dataclass(frozen=True)
class PartRect:
    """One rectangular part (a tile or a shard band) of a 2-D layout.

    ``row0``/``col0`` locate the part inside the layout it was cut from;
    ``rows``/``cols`` are its extent (edge tiles and the last bands may
    be smaller than the others).
    """

    index: int
    row0: int
    col0: int
    rows: int
    cols: int

    @property
    def element_count(self) -> int:
        return self.rows * self.cols


class PartitionPlan:
    """A logical 2-D layout cut into rectangular parts.

    Subclasses set ``layout`` (the logical layout), ``folded`` (the
    layout the parts are cut from: ``layout`` itself unless a 1-D stream
    was folded into rows) and ``parts`` (row-major).  A plan is a pure
    function of its inputs, so two streams of one shape share one
    decomposition and per-part launches pair the n-th part of every
    argument.  ``part`` names one part in storage and view names;
    ``kind`` names the decomposition in error messages.
    """

    part = "part"
    kind = "partitioned"

    layout: Tuple[int, int]
    folded: Tuple[int, int]
    parts: List[PartRect]

    @property
    def part_count(self) -> int:
        return len(self.parts)

    @property
    def is_trivial(self) -> bool:
        """Whether the ordinary single-storage path suffices.

        A folded single-part plan is *not* trivial: the data layout in
        the storage differs from the logical one.
        """
        return len(self.parts) == 1 and self.folded == self.layout

    @property
    def geometry(self) -> tuple:
        """Hashable identity of the decomposition (for layout matching)."""
        return (type(self), self.layout, self.folded, tuple(self.parts))

    # ------------------------------------------------------------------ #
    # ndarray helpers (all layouts are row-major, so fold == reshape).  A
    # trailing component axis (vector element types) is preserved.
    # ------------------------------------------------------------------ #
    def split(self, data: np.ndarray) -> List[np.ndarray]:
        """Cut logical-layout data into per-part blocks (views)."""
        data = np.asarray(data)
        folded = data.reshape(self.folded + data.shape[2:])
        return [folded[p.row0:p.row0 + p.rows, p.col0:p.col0 + p.cols]
                for p in self.parts]

    def join(self, blocks) -> np.ndarray:
        """Reassemble per-part blocks into the logical layout."""
        blocks = [np.asarray(block) for block in blocks]
        trailing = blocks[0].shape[2:]
        folded = np.zeros(self.folded + trailing, dtype=np.float32)
        for p, block in zip(self.parts, blocks):
            folded[p.row0:p.row0 + p.rows, p.col0:p.col0 + p.cols] = \
                block.reshape((p.rows, p.cols) + trailing)
        return folded.reshape(self.layout + trailing)

    def part_shape(self, part: PartRect):
        """The stream shape of one part (its launch domain)."""
        from ...runtime.shape import StreamShape

        return StreamShape((part.rows, part.cols))

    def index_positions(self, part: PartRect) -> np.ndarray:
        """Global ``indexof`` positions of one part's elements.

        Kernels observe positions in the *logical* 2-D layout (a 1-D
        stream yields ``(i, 0)`` however it is folded or cut), so a
        partitioned launch is bit-identical to a single-storage one.
        """
        ys, xs = np.mgrid[0:part.rows, 0:part.cols]
        linear = (part.row0 + ys).astype(np.int64) * self.folded[1] \
            + (part.col0 + xs)
        cols = self.layout[1]
        return np.stack([(linear % cols).reshape(-1),
                         (linear // cols).reshape(-1)],
                        axis=1).astype(np.float32)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} layout={self.layout} "
                f"folded={self.folded} parts={self.part_count}>")


def _largest_divisor_up_to(value: int, bound: int) -> int:
    """Largest divisor of ``value`` that is ``<= bound`` (at least 1)."""
    best = 1
    divisor = 1
    while divisor * divisor <= value:
        if value % divisor == 0:
            low, high = divisor, value // divisor
            if low <= bound:
                best = max(best, low)
            if high <= bound:
                best = max(best, high)
        divisor += 1
    return best


def folded_layout(layout: Tuple[int, int], limits: TargetLimits) -> Tuple[int, int]:
    """Fold an overlong single-row layout into multiple rows.

    Only 1-D streams (``rows == 1``) are folded, and only when the fold
    is exact: the chosen width is the largest divisor of the element
    count not exceeding ``limits.max_texture_size``, so no padding
    elements are ever introduced (padding would corrupt reductions).
    Layouts that fit the device, multi-row layouts, and counts with no
    useful divisor (primes) are returned unchanged - the tiler handles
    whatever still overflows.
    """
    rows, cols = layout
    if rows != 1 or cols <= limits.max_texture_size:
        return layout
    width = _largest_divisor_up_to(cols, limits.max_texture_size)
    if width <= 1:
        return layout
    return (cols // width, width)


def tile_grid(layout: Tuple[int, int], limits: TargetLimits) -> List[PartRect]:
    """Partition a (folded) layout into device-sized tiles, row-major.

    Returns a single full-extent tile when the layout already fits the
    device.  Tiles never exceed ``max_texture_size`` in either dimension;
    the per-tile power-of-two / square-texture padding is left to the
    allocation path, exactly as for ordinary streams.
    """
    rows, cols = layout
    step = int(limits.max_texture_size)
    tiles: List[PartRect] = []
    index = 0
    for row0 in range(0, rows, step):
        for col0 in range(0, cols, step):
            tiles.append(PartRect(
                index=index,
                row0=row0,
                col0=col0,
                rows=min(step, rows - row0),
                cols=min(step, cols - col0),
            ))
            index += 1
    return tiles


def tiled_texture_bytes(layout: Tuple[int, int], limits: TargetLimits,
                        texels_per_element: int = 1) -> int:
    """Bytes actually allocated for ``layout`` under ``limits``.

    Sums the padded per-tile texture extents of the folded-and-tiled
    decomposition; for layouts that fit the device this equals the
    single padded texture of the ordinary allocation path.
    """
    folded = folded_layout(layout, limits)
    total = 0
    for tile in tile_grid(folded, limits):
        tex_w, tex_h = padded_texture_extent(tile.cols, tile.rows, limits)
        total += tex_w * tex_h * texels_per_element * 4
    return total
