"""Multipass stream reductions (paper section 5.5).

Brook reductions apply an associative combine operation (written as a
``reduce`` kernel) over a whole stream.  On the GPU backends this is
implemented as a sequence of passes over two intermediate buffer
textures: each pass folds a 2x2 block of the live data into one output
element, halving both dimensions, until a single element remains.  The
live data shrinks every pass while the allocated textures stay the same,
which is why the runtime must track the *actual* data size separately
from the texture size - the exact bookkeeping problem the paper solves
for the normalized-coordinate OpenGL ES 2 backend.

The engine below is backend-agnostic: it performs the per-pass folds with
the kernel evaluator and lets the caller inject a ``quantize`` hook that
models what happens to intermediate values when they are written to an
RGBA8 texture between passes (the OpenGL ES 2 backend supplies the
encode/decode round trip; the CAL and CPU backends store float32 and pass
``None``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from ..core import ast_nodes as ast
from ..core.exec.evaluator import KernelEvaluator
from ..errors import KernelLaunchError
from .profiling import KernelLaunchRecord

__all__ = ["ReductionResult", "multipass_reduce", "partial_reduce",
           "reduction_record"]


@dataclass
class ReductionResult:
    """Outcome of a full multipass reduction."""

    value: float
    passes: int
    elements_processed: int
    flops: int
    texture_fetches: int


def _reduction_params(kernel: ast.FunctionDef):
    stream_params = kernel.stream_params
    reduce_params = kernel.reduce_params
    if len(stream_params) != 1 or len(reduce_params) != 1:
        raise KernelLaunchError(
            f"reduce kernel {kernel.name!r} must have exactly one input stream "
            "and one reduce accumulator"
        )
    return stream_params[0].name, reduce_params[0].name


def multipass_reduce(
    kernel: ast.FunctionDef,
    helpers: Optional[Dict[str, ast.FunctionDef]],
    data: np.ndarray,
    quantize: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    max_passes: int = 64,
) -> ReductionResult:
    """Reduce a 2-D float array to a scalar with the user's reduce kernel.

    Args:
        kernel: The ``reduce`` kernel definition.
        helpers: Helper functions callable from the kernel.
        data: Live data as a 2-D float array (the logical stream contents).
        quantize: Optional per-pass storage model applied to intermediate
            results (RGBA8 round trip on the OpenGL ES 2 backend).
        max_passes: Safety bound.

    Returns:
        :class:`ReductionResult` with the reduced value and work counters.
    """
    stream_name, accumulator_name = _reduction_params(kernel)
    live = np.array(data, dtype=np.float32, copy=True)
    if live.ndim == 1:
        live = live.reshape(1, -1)
    if live.ndim != 2:
        raise KernelLaunchError("reductions operate on 1-D or 2-D streams")

    passes = 0
    elements_processed = 0
    flops = 0
    fetches = 0
    while live.size > 1:
        if passes >= max_passes:
            raise KernelLaunchError("reduction did not converge (too many passes)")
        height, width = live.shape
        out_height = (height + 1) // 2
        out_width = (width + 1) // 2
        out_count = out_height * out_width
        oy, ox = np.mgrid[0:out_height, 0:out_width]

        def fetch(dy: int, dx: int):
            ys = oy * 2 + dy
            xs = ox * 2 + dx
            valid = (ys < height) & (xs < width)
            values = live[np.minimum(ys, height - 1), np.minimum(xs, width - 1)]
            return values, valid

        accumulator, _ = fetch(0, 0)
        accumulator = accumulator.astype(np.float32)
        for dy, dx in ((0, 1), (1, 0), (1, 1)):
            neighbour, valid = fetch(dy, dx)
            if not valid.any():
                continue
            evaluator = KernelEvaluator(kernel, helpers)
            outputs = evaluator.run(
                out_count,
                stream_inputs={stream_name: neighbour.reshape(-1)},
                reduce_inputs={accumulator_name: accumulator.reshape(-1)},
            )
            combined = outputs[accumulator_name].reshape(out_height, out_width)
            accumulator = np.where(valid, combined, accumulator).astype(np.float32)
            flops += evaluator.stats.flops
        # One GPU pass samples the 2x2 block in a single shader invocation.
        fetches += 4 * out_count
        elements_processed += height * width
        passes += 1
        if quantize is not None:
            accumulator = np.asarray(quantize(accumulator), dtype=np.float32)
        live = accumulator

    return ReductionResult(
        value=float(live.reshape(-1)[0]),
        passes=passes,
        elements_processed=elements_processed,
        flops=flops,
        texture_fetches=fetches,
    )


@dataclass
class PartialReductionResult:
    """Outcome of a reduction to a smaller stream (one value per block)."""

    values: np.ndarray
    passes: int
    elements_processed: int
    flops: int
    texture_fetches: int


def partial_reduce(
    kernel: ast.FunctionDef,
    helpers: Optional[Dict[str, ast.FunctionDef]],
    data: np.ndarray,
    output_shape: "tuple[int, int]",
    quantize: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> PartialReductionResult:
    """Reduce a 2-D array to a smaller 2-D array of block reductions.

    Brook allows the reduction target to be a stream whose extents evenly
    divide the input extents: every output element then receives the
    reduction of its block of input elements ("the size of the input is
    constantly reduced until the output contains the desired number of
    elements", section 5.5).

    Args:
        kernel: The ``reduce`` kernel definition.
        helpers: Helper functions callable from the kernel.
        data: Input as a 2-D float array.
        output_shape: Target (rows, cols); both must divide the input.
        quantize: Optional per-pass storage model (RGBA8 round trip on the
            OpenGL ES 2 backend).
    """
    stream_name, accumulator_name = _reduction_params(kernel)
    live = np.array(data, dtype=np.float32, copy=True)
    if live.ndim == 1:
        live = live.reshape(1, -1)
    in_rows, in_cols = live.shape
    out_rows, out_cols = int(output_shape[0]), int(output_shape[1])
    if out_rows <= 0 or out_cols <= 0 or in_rows % out_rows or in_cols % out_cols:
        raise KernelLaunchError(
            f"reduction output shape {(out_rows, out_cols)} must evenly divide "
            f"the input shape {(in_rows, in_cols)}"
        )
    ratio_rows = in_rows // out_rows
    ratio_cols = in_cols // out_cols
    blocks = live.reshape(out_rows, ratio_rows, out_cols, ratio_cols)

    out_count = out_rows * out_cols
    accumulator = blocks[:, 0, :, 0].astype(np.float32)
    flops = 0
    folds = 0
    for row_offset in range(ratio_rows):
        for col_offset in range(ratio_cols):
            if row_offset == 0 and col_offset == 0:
                continue
            neighbour = blocks[:, row_offset, :, col_offset]
            evaluator = KernelEvaluator(kernel, helpers)
            outputs = evaluator.run(
                out_count,
                stream_inputs={stream_name: neighbour.reshape(-1)},
                reduce_inputs={accumulator_name: accumulator.reshape(-1)},
            )
            accumulator = outputs[accumulator_name].reshape(out_rows, out_cols)
            accumulator = np.asarray(accumulator, dtype=np.float32)
            flops += evaluator.stats.flops
            folds += 1
    if quantize is not None:
        accumulator = np.asarray(quantize(accumulator), dtype=np.float32)

    # On the GPU each pass folds a 2x2 block, so the modelled pass count is
    # the number of halvings needed per dimension.
    import math
    passes = max(1, int(math.ceil(math.log2(max(ratio_rows, 1))))
                 + int(math.ceil(math.log2(max(ratio_cols, 1)))))
    return PartialReductionResult(
        values=accumulator,
        passes=passes,
        elements_processed=in_rows * in_cols,
        flops=flops,
        texture_fetches=(folds + 1) * out_count,
    )


def reduction_record(kernel_name: str, result, tiles: int = 1
                     ) -> KernelLaunchRecord:
    """The launch record of one full or partial reduction result."""
    return KernelLaunchRecord(
        kernel=kernel_name,
        elements=result.elements_processed,
        flops=result.flops,
        texture_fetches=result.texture_fetches,
        passes=result.passes,
        reduction=True,
        tiles=tiles,
    )
