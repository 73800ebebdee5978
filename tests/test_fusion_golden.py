"""Golden pin of what ``rt.fuse`` builds.

The fused kernels of a set of pipelines - the 8-stage ADAS chain on the
CPU and OpenGL ES 2 backends, the ``tests/test_fusion.py`` pipelines and
a few multi-output / non-adjacent connection shapes - are compared with
``data/fusion_golden.json``: segment boundaries, fused name,
``fused_from``, ``fused_saved_components``, the fused definition's
parameter names and the generated GLSL ES / desktop GLSL / C text.

Regenerate the file (only when a change to the fused output is
intended) with::

    PYTHONPATH=src python tests/test_fusion_golden.py --write
"""

import json
import pathlib
import sys

import numpy as np

from repro.runtime import BrookRuntime

GOLDEN = pathlib.Path(__file__).parent / "data" / "fusion_golden.json"

PIPELINE_SOURCE = """
kernel void scale(float x<>, float a, out float y<>) {
    y = a * x;
}

kernel void offset(float y<>, float b, out float z<>) {
    z = y + b;
}

kernel void blend(float p<>, float q<>, out float r<>) {
    r = 0.5 * (p + q);
}

kernel void probe(float src<>, float table[], out float r<>) {
    float2 pos = indexof(r);
    r = src + table[pos.x];
}

kernel void gate(float x<>, out float tmp<>) {
    if (x < 0.0) {
        return;
    }
    tmp = x * 2.0;
}

kernel void twin(float x<>, out float a<>, out float b<>) {
    a = x + 1.0;
    b = x * 2.0;
}

reduce void total(float v<>, reduce float acc) {
    acc += v;
}
"""

POST_SOURCE = """
kernel void normalize_px(float v<>, float inv_range, out float n<>) {
    n = clamp(v * inv_range, 0.0, 1.0);
}

kernel void gamma_px(float n<>, out float g<>) {
    g = n * n;
}
"""

SIZE = 16


def _pipelines(rt):
    """(name, plans) for every pinned pipeline on ``rt``."""
    from repro.apps.image_filter import BROOK_SOURCE, FILTER_3X3
    from repro.service.bench import build_adas_request
    from repro.service.service import prepare_request

    frame = np.zeros((SIZE, SIZE), dtype=np.float32)
    _, _, adas = prepare_request(rt, build_adas_request(SIZE, frame))
    module = rt.compile(PIPELINE_SOURCE)
    shape = (SIZE, SIZE)
    x, y, z, w, r = (rt.stream(shape) for _ in range(5))
    a, b = rt.stream(shape), rt.stream(shape)
    # A blend chain taking a fresh input per stage outgrows the device's
    # texture units part-way through.
    chain = [rt.stream(shape) for _ in range(13)]
    fresh = [rt.stream(shape) for _ in range(12)]
    filt, post = rt.compile(BROOK_SOURCE), rt.compile(POST_SOURCE)
    weights = [float(v) for v in FILTER_3X3.reshape(-1)]
    return [
        ("adas", adas),
        ("scale_offset", [module.scale.bind(x, 2.0, y),
                          module.offset.bind(y, 0.25, z)]),
        ("three_stage", [module.scale.bind(x, 2.0, y),
                         module.offset.bind(y, 0.25, z),
                         module.scale.bind(z, 0.5, w)]),
        ("intermediate_read_later", [module.scale.bind(x, 2.0, y),
                                     module.offset.bind(y, 0.25, z),
                                     module.blend.bind(y, z, r)]),
        ("gather_consumer", [module.scale.bind(x, 2.0, y),
                             module.probe.bind(z, y, r)]),
        ("early_return", [module.gate.bind(x, y),
                          module.offset.bind(y, 1.0, z)]),
        ("reduction_tail", [module.scale.bind(x, 2.0, y),
                            module.offset.bind(y, 0.25, z),
                            module.total.bind(z)]),
        ("both_outputs", [module.twin.bind(x, a, b),
                          module.blend.bind(a, b, r)]),
        ("non_adjacent", [module.twin.bind(x, a, b),
                          module.offset.bind(a, 0.5, z),
                          module.blend.bind(z, b, r)]),
        ("live_output", [module.twin.bind(x, a, b),
                         module.offset.bind(a, 0.5, z),
                         module.scale.bind(z, 3.0, w)]),
        ("return_mid_chain", [module.scale.bind(x, 2.0, y),
                              module.offset.bind(y, 0.25, z),
                              module.gate.bind(z, w),
                              module.offset.bind(w, 1.0, r)]),
        ("input_limit", [module.blend.bind(chain[k], fresh[k], chain[k + 1])
                         for k in range(len(fresh))]),
        ("image_filter", [filt.filter3x3.bind(x, float(SIZE), float(SIZE),
                                              *weights, y),
                          post.normalize_px.bind(y, 1.0 / 255.0, z),
                          post.gamma_px.bind(z, w)]),
    ]


def capture():
    """The pinned description of every pipeline on every backend."""
    pinned = {}
    for backend, device in (("cpu", None), ("gles2", "videocore-iv")):
        with BrookRuntime(backend=backend, device=device) as rt:
            for name, plans in _pipelines(rt):
                segments = []
                for plan, indices in rt.fuse(plans).segments:
                    kernel = plan._pieces[0][0] if not plan.is_reduction \
                        else None
                    entry = {"indices": list(indices),
                             "kernel_name": plan.kernel_name}
                    if kernel is not None and kernel.fused_from:
                        entry.update(
                            params=[p.name for p in kernel.definition.params],
                            fused_from=list(kernel.fused_from),
                            fused_saved_components=(
                                kernel.fused_saved_components),
                            glsl_es=kernel.glsl_es,
                            desktop_glsl=kernel.desktop_glsl,
                            c_source=kernel.c_source,
                            source=kernel.definition.to_source(),
                        )
                    segments.append(entry)
                pinned[f"{backend}/{name}"] = segments
    return pinned


def test_fused_kernels_match_the_golden_pin():
    expected = json.loads(GOLDEN.read_text())
    actual = capture()
    assert sorted(actual) == sorted(expected)
    for key in expected:
        assert actual[key] == expected[key], key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_fusion_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
