"""The partition contract: what a tiled or sharded stream reports.

A stream larger than one device's texture limit is cut into tiles, and a
stream on a ``BrookRuntime(devices=N)`` group is cut into per-device
shards (whose bands may themselves be tiled).  However a stream is cut,
the runtime must report the same logical transfers, the same launch and
reduction statistics, CPU-identical results, and must free every part.
This suite pins those observable values on the acceptance shapes of the
tiling and sharding engines, so a refactoring of the partition machinery
cannot change any of them unnoticed.
"""

import numpy as np
import pytest

from repro.backends.gles2_backend import GLES2Backend
from repro.backends.sharded import ShardedBackend
from repro.errors import KernelLaunchError
from repro.gles2.device import GPUDeviceProfile
from repro.gles2.limits import GLES2Limits
from repro.runtime import BrookRuntime

SOURCE = (
    "kernel void indexed(float x<>, out float r<>) {"
    " float2 p = indexof(r); r = x + p.x * 4.0 + p.y; }\n"
    "reduce void total(float v<>, reduce float acc) { acc += v; }"
)

# (backend, device, devices, shape, reduce_into output shape, expected).
# ``up``/``down`` are the (bytes, elements, calls) of the input upload and
# the mapped output's download; ``stats`` are RunStatistics totals after
# one map, one ``total`` and one ``reduce_into`` plus the three reads.
CASES = [
    pytest.param(
        "gles2", "videocore-iv", 1, (4096,), (64,),
        dict(up=(16384, 4096, 1), down=(16384, 4096, 1),
             stats=dict(bytes_uploaded=16384, bytes_downloaded=16896,
                        passes=18, extra_tiles=0, extra_shards=0,
                        halo_bytes=0)),
        id="gles2-fold-4096"),
    pytest.param(
        "gles2", "videocore-iv", 1, (3000, 3000), (300, 300),
        dict(up=(36000000, 9000000, 4), down=(36000000, 9000000, 4),
             stats=dict(bytes_uploaded=36000000, bytes_downloaded=36720000,
                        passes=57, extra_tiles=6, extra_shards=0,
                        halo_bytes=0)),
        id="gles2-tiles-3000x3000"),
    pytest.param(
        "cal", None, 1, (9000,), (90,),
        dict(up=(36000, 9000, 1), down=(36000, 9000, 1),
             stats=dict(bytes_uploaded=36000, bytes_downloaded=36720,
                        passes=20, extra_tiles=0, extra_shards=0,
                        halo_bytes=0)),
        id="cal-fold-9000"),
    pytest.param(
        "cpu", None, 2, (64, 64), (8, 8),
        dict(up=(16384, 4096, 2), down=(16384, 4096, 2),
             stats=dict(bytes_uploaded=16384, bytes_downloaded=16896,
                        passes=21, extra_tiles=0, extra_shards=2,
                        halo_bytes=4)),
        id="cpu-shards-64x64"),
    pytest.param(
        "gles2", "videocore-iv", 2, (3000, 3000), (300, 300),
        dict(up=(36000000, 9000000, 4), down=(36000000, 9000000, 4),
             stats=dict(bytes_uploaded=36000000, bytes_downloaded=36720000,
                        passes=59, extra_tiles=4, extra_shards=2,
                        halo_bytes=4)),
        id="gles2-sharded-of-tiled-3000x3000"),
    pytest.param(
        "gles2", "videocore-iv", 2, (5000,), (50,),
        dict(up=(20000, 5000, 2), down=(20000, 5000, 2),
             stats=dict(bytes_uploaded=20000, bytes_downloaded=20400,
                        passes=32, extra_tiles=0, extra_shards=2,
                        halo_bytes=4)),
        id="gles2-folded-bands-5000"),
    pytest.param(
        "cal", None, 3, (10000,), (100,),
        dict(up=(40000, 10000, 3), down=(40000, 10000, 3),
             stats=dict(bytes_uploaded=40000, bytes_downloaded=40800,
                        passes=48, extra_tiles=0, extra_shards=4,
                        halo_bytes=8)),
        id="cal-shards-10000"),
]


def _pattern(shape):
    """0/1 data: every partial sum is an exact float32 integer, so the
    part-then-combine reductions are bitwise comparable with the CPU."""
    count = int(np.prod(shape))
    return ((np.arange(count) * 7) % 3 == 0).astype(np.float32).reshape(shape)


def _run(backend, device, devices, shape, acc_shape):
    """Map, total and reduce_into one stream; return what was observed."""
    with BrookRuntime(backend=backend, device=device, devices=devices) as rt:
        module = rt.compile(SOURCE)
        x = rt.stream_from(_pattern(shape))
        up = rt.statistics.transfers[-1]
        out = rt.stream(shape)
        module.indexed(x, out)
        mapped = out.read()
        down = rt.statistics.transfers[-1]
        total = module.total(x)
        acc = rt.stream(acc_shape)
        module.total(x, acc)
        blocks = acc.read()
        summary = rt.statistics.summary()
        devices_used = getattr(rt.backend, "devices", [rt.backend])
        for stream in (x, out, acc):
            stream.release()
        memory = [d.device_memory_in_use() for d in devices_used]
    return dict(up=up, down=down, mapped=mapped, total=total, blocks=blocks,
                summary=summary, memory=memory)


def _bits(values):
    return np.asarray(values, dtype=np.float32).view(np.uint32)


@pytest.mark.parametrize("backend,device,devices,shape,acc_shape,expected",
                         CASES)
def test_partition_contract(backend, device, devices, shape, acc_shape,
                            expected):
    seen = _run(backend, device, devices, shape, acc_shape)
    reference = _run("cpu", None, 1, shape, acc_shape)

    assert (seen["up"].bytes, seen["up"].elements, seen["up"].calls) \
        == expected["up"]
    assert (seen["down"].bytes, seen["down"].elements, seen["down"].calls) \
        == expected["down"]
    assert seen["up"].direction == "upload"
    assert seen["down"].direction == "download"

    np.testing.assert_array_equal(_bits(seen["mapped"]),
                                  _bits(reference["mapped"]))
    np.testing.assert_array_equal(_bits(seen["total"]),
                                  _bits(reference["total"]))
    np.testing.assert_array_equal(_bits(seen["blocks"]),
                                  _bits(reference["blocks"]))

    for key, value in expected["stats"].items():
        assert seen["summary"][key] == value, key

    assert seen["memory"] == [0] * devices


def _tiny_gles2(max_texture_size=16):
    """A GL ES 2 device that tiles at a toy texture limit."""
    return GLES2Backend(GPUDeviceProfile(
        name=f"tiny-{max_texture_size}",
        limits=GLES2Limits(name=f"tiny-{max_texture_size}",
                           max_texture_size=max_texture_size),
        effective_gflops=1.0, transfer_gib_per_s=1.0, pass_overhead_us=100.0,
        texture_fetch_ns=2.0, fill_rate_mpixels=100.0))


@pytest.mark.parametrize("make,tiled", [
    (lambda: BrookRuntime(backend=_tiny_gles2()), True),
    (lambda: BrookRuntime(backend="cpu", devices=2), False),
    (lambda: BrookRuntime(backend=ShardedBackend([_tiny_gles2(),
                                                  _tiny_gles2()])), True),
], ids=["tiled", "sharded", "sharded-of-tiled"])
def test_malformed_partition_input_is_rejected(make, tiled):
    saxpy = ("kernel void saxpy(float a, float x<>, float y<>, out float r<>)"
             " { r = a * x + y; }")
    with make() as rt:
        stream = rt.stream((40, 40))
        with pytest.raises(KernelLaunchError):
            rt.backend.upload(stream.storage,
                              np.zeros((40, 41), dtype=np.float32))
        module = rt.compile(saxpy)
        with pytest.raises(KernelLaunchError):
            module.saxpy(1.0, stream, rt.stream((20, 80)), rt.stream((40, 40)))
        # A block reduction writes one render target per pass, so an
        # output that is tiled (as a whole or in a device band) is refused.
        reduce_total = rt.compile(SOURCE).total
        big, acc = rt.stream((64, 64)), rt.stream((32, 32))
        if tiled:
            with pytest.raises(KernelLaunchError):
                reduce_total(big, acc)
        else:
            reduce_total(big, acc)


def test_one_device_group_keeps_tiles_on_its_device():
    """A one-device group tiles an oversized stream on that device: the
    group must hand the tiled storage to the device whole, not read its
    tiles as shards."""
    def run(backend):
        with BrookRuntime(backend=backend) as rt:
            module = rt.compile(SOURCE)
            x = rt.stream_from(_pattern((40, 40)))
            up = rt.statistics.transfers[-1]
            out = rt.stream((40, 40))
            module.indexed(x, out)
            mapped = out.read()
            down = rt.statistics.transfers[-1]
            total = module.total(x)
            summary = rt.statistics.summary()
            devices_used = getattr(rt.backend, "devices", [rt.backend])
            for stream in (x, out):
                stream.release()
            memory = [d.device_memory_in_use() for d in devices_used]
        return ((up.bytes, up.elements, up.calls),
                (down.bytes, down.elements, down.calls),
                _bits(mapped).tolist(), _bits(total).tolist(),
                summary["passes"], summary["extra_tiles"], memory)

    seen = run(ShardedBackend([_tiny_gles2()]))
    assert seen == run(_tiny_gles2())
    assert seen[0] == (6400, 1600, 9)
    assert seen[-1] == [0]
