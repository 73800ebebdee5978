"""Seeded ADAS inputs, the reference runs and an independent NumPy model.

Every workload input derives from the ``--seed`` argument alone, so the
same seed reproduces the same frames, requests and scalar walk.  Outputs
are checked twice, outside every timed region:

* bitwise against a serial, unfused run on the reference interpreter
  (``CompilerOptions(enable_fast_path=False, enable_vector_path=False)``);
* within a tolerance against :func:`model_adas`, a float64 NumPy model
  of the eight stages and ``frame_sum`` written independently of the
  compiler.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.apps.image_filter import FILTER_3X3
from repro.core.compiler import CompilerOptions
from repro.runtime import BrookRuntime
from repro.service import KernelCall, ServiceRequest
from repro.service.bench import ADAS_SERVICE_SOURCE, build_adas_request
from repro.service.service import prepare_request

#: The ADAS chain plus the frame statistic auto-exposure control needs.
HIRES_SOURCE = ADAS_SERVICE_SOURCE + """
reduce void frame_sum(float x<>, reduce float s) {
    s += x;
}
"""

#: Position of the retuned scalars in ``build_adas_request``'s calls.
TONE_MAP_CALL, GAMMA_CALL = 2, 5
#: Stage scalars fixed by ``build_adas_request`` (the model mirrors them).
INV_RANGE, CONTRAST, VIGNETTE = 1.0 / 255.0, 0.6, 0.8
THRESHOLD, BOOST, LEVELS = 0.7, 0.5, 255.0
DEFAULT_EXPOSURE, DEFAULT_GAMMA = 2.2, 1.8

#: Model tolerance: float32 rounding may move a pixel across one
#: quantisation step of ``quantize_px``, never further, and only rarely.
MODEL_ATOL = 1.0 / LEVELS + 1e-5
MODEL_MAX_STEP_SHARE = 0.01
MODEL_SUM_RTOL = 1e-3


def make_frames(seed: int, size: int, count: int) -> List[np.ndarray]:
    """``count`` pseudo camera frames of ``size`` x ``size`` pixels."""
    rng = np.random.default_rng([int(seed), size, count])
    return [rng.uniform(0.0, 255.0, (size, size)).astype(np.float32)
            for _ in range(count)]


def exposure_walk(seed: int, steps: int) -> List[Tuple[float, float]]:
    """(exposure, gamma) per frame from a seeded auto-exposure random walk.

    Exposure moves multiplicatively and gamma additively, each clipped to
    a plausible camera range, the way an auto-exposure controller retunes
    both scalars a little on every frame.
    """
    rng = np.random.default_rng([int(seed), 0xAE])
    exposure, gamma = DEFAULT_EXPOSURE, DEFAULT_GAMMA
    walk = []
    for _ in range(steps):
        exposure = float(np.clip(exposure * np.exp(0.03 * rng.standard_normal()),
                                 1.0, 4.0))
        gamma = float(np.clip(gamma + 0.01 * rng.standard_normal(), 1.4, 2.2))
        walk.append((exposure, gamma))
    return walk


def adas_request(frame: np.ndarray, exposure: float = DEFAULT_EXPOSURE,
                 gamma: float = DEFAULT_GAMMA, frame_sum: bool = False,
                 name: str = "") -> ServiceRequest:
    """The 8-stage ADAS request, optionally retuned and ending in ``frame_sum``."""
    request = build_adas_request(frame.shape[0], frame, name=name)
    calls = list(request.calls)
    if (exposure, gamma) != (DEFAULT_EXPOSURE, DEFAULT_GAMMA):
        calls[TONE_MAP_CALL] = KernelCall("tone_map", ("s1", exposure, "s2"))
        calls[GAMMA_CALL] = KernelCall("gamma_px", ("s4", gamma, "s5"))
    source = request.source
    if frame_sum:
        calls.append(KernelCall("frame_sum", ("out",)))
        source = HIRES_SOURCE
    return dataclasses.replace(request, source=source, calls=tuple(calls))


class ReferenceRunner:
    """Serial, unfused execution on the reference interpreter (CPU)."""

    def __init__(self):
        self.runtime = BrookRuntime(
            backend="cpu",
            compiler_options=CompilerOptions(enable_fast_path=False,
                                             enable_vector_path=False))

    def run(self, request: ServiceRequest) -> Tuple[np.ndarray, Optional[float]]:
        """(``out`` array, value of the last call) for ``request``."""
        _module, streams, plans = prepare_request(self.runtime, request)
        try:
            for name, array in request.inputs.items():
                streams[name].write(array)
            value = None
            for plan in plans:
                value = plan.launch()
            return streams["out"].read(), value
        finally:
            for stream in streams.values():
                stream.release()

    def close(self) -> None:
        self.runtime.close()


def model_adas(frame: np.ndarray, exposure: float = DEFAULT_EXPOSURE,
               gamma: float = DEFAULT_GAMMA) -> Tuple[np.ndarray, float]:
    """Float64 model of the eight stages: (``out`` image, its sum)."""
    image = np.asarray(frame, dtype=np.float64)
    height, width = image.shape
    padded = np.pad(image, 1, mode="edge")
    weights = FILTER_3X3.astype(np.float64)
    filtered = sum(weights[dy, dx] * padded[dy:dy + height, dx:dx + width]
                   for dy in range(3) for dx in range(3))
    n = np.clip(filtered * INV_RANGE, 0.0, 1.0)
    t = 1.0 - np.exp(-exposure * n)
    luma = np.clip(t, 0.0, 1.0)
    c = t + CONTRAST * (luma * luma * (3.0 - 2.0 * luma) - t)
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    dx = xs / width - 0.5
    dy = ys / height - 0.5
    v = c * np.clip(1.0 - VIGNETTE * (dx * dx + dy * dy), 0.0, 1.0)
    o = np.power(v, gamma)
    over = np.maximum(o - THRESHOLD, 0.0)
    h = o + BOOST * over * over
    q = np.floor(h * LEVELS + 0.5) / LEVELS
    return q, float(q.sum())


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    return a.shape == b.shape and bool(
        np.array_equal(a.view(np.uint32), b.view(np.uint32)))


def agrees_with_model(out: np.ndarray, value: Optional[float],
                      model: Tuple[np.ndarray, float]) -> bool:
    """Whether a served output matches the float64 model within tolerance."""
    expected, expected_sum = model
    diff = np.abs(np.asarray(out, dtype=np.float64) - expected)
    if diff.shape != expected.shape or not np.all(diff <= MODEL_ATOL):
        return False
    if np.mean(diff > 1e-5) > MODEL_MAX_STEP_SHARE:
        return False
    if value is not None:
        return abs(value - expected_sum) <= MODEL_SUM_RTOL * max(
            abs(expected_sum), 1.0)
    return True


class Expected:
    """Reference outputs keyed by (frame index, exposure, gamma).

    Filled outside timing; each key runs the reference interpreter once
    and is checked against the NumPy model once, so a served response
    that is bitwise equal to the reference is also within the model's
    tolerance.
    """

    def __init__(self, frames: List[np.ndarray], frame_sum: bool = False):
        self.frames = frames
        self.frame_sum = frame_sum
        self._runner: Optional[ReferenceRunner] = None
        self._cache: Dict[Tuple[int, float, float],
                          Tuple[np.ndarray, Optional[float], bool]] = {}

    def get(self, frame_index: int, exposure: float = DEFAULT_EXPOSURE,
            gamma: float = DEFAULT_GAMMA):
        """(reference out, reference value, reference agrees with model)."""
        key = (frame_index, exposure, gamma)
        if key not in self._cache:
            if self._runner is None:
                self._runner = ReferenceRunner()
            frame = self.frames[frame_index]
            out, value = self._runner.run(adas_request(
                frame, exposure, gamma, frame_sum=self.frame_sum))
            model_ok = agrees_with_model(
                out, value if self.frame_sum else None,
                model_adas(frame, exposure, gamma))
            self._cache[key] = (out, value, model_ok)
        return self._cache[key]

    def check(self, response, frame_index: int,
              exposure: float = DEFAULT_EXPOSURE,
              gamma: float = DEFAULT_GAMMA) -> bool:
        """Whether ``response`` is bitwise the reference and the model agrees."""
        out, value, model_ok = self.get(frame_index, exposure, gamma)
        if not model_ok or not bitwise_equal(response.outputs["out"], out):
            return False
        if self.frame_sum:
            return bitwise_equal(np.float32(response.value), np.float32(value))
        return True

    def close(self) -> None:
        if self._runner is not None:
            self._runner.close()
            self._runner = None
