"""Helpers shared by the workloads: inputs, timing, host context, checks."""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

#: Tolerance of logit checks.  Approximate outputs are integer sums followed
#: by elementwise float maths, so they repeat exactly; the final dense
#: layer's BLAS call may differ in the last bit when rows move.
LOGIT_ATOL = 1e-9


def synthetic_images(rng: np.random.Generator, count: int, size: int
                     ) -> np.ndarray:
    """CIFAR-shaped NHWC images with pixel values in [0, 1)."""
    return rng.random((count, size, size, 3))


def normalize(images: np.ndarray) -> np.ndarray:
    """The CIFAR normalisation the trainer and the service apply."""
    return (images - 0.5) / 0.25


def op_span(tracer, name: str):
    """A span around one benchmark call into the program (no-op untraced)."""
    return tracer.span(name) if tracer is not None else nullcontext()


def set_phase(tracer, phase: str) -> None:
    if tracer is not None:
        tracer.phase = phase


def check_logits(got: np.ndarray, want: np.ndarray) -> bool:
    """Same argmax and equal within :data:`LOGIT_ATOL`."""
    got = np.asarray(got)
    return (got.shape == want.shape
            and bool(np.all(np.isfinite(got)))
            and bool(np.array_equal(got.argmax(axis=-1), want.argmax(axis=-1)))
            and bool(np.allclose(got, want, rtol=0.0, atol=LOGIT_ATOL)))


def load_reference(name: str) -> dict[str, np.ndarray]:
    """Arrays stored by ``make_reference.py`` for one workload."""
    with np.load(REFERENCE_DIR / f"{name}.npz") as data:
        return {key: data[key] for key in data.files}


def digest(array: np.ndarray) -> str:
    """Short content hash used to detect drift of generated inputs."""
    return hashlib.sha1(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_context() -> dict:
    """Host facts stored with every result, so a throttled run is visible."""
    src = np.ones(4 * 1024 * 1024)          # 32 MiB, larger than the caches
    dst = np.empty_like(src)
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - start)
    return {
        "copy_gb_per_s": 2 * src.nbytes / best / 1e9,
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
    }


def time_setup(setup, reps: int):
    """Run ``setup`` ``reps`` times; returns (median seconds, last state).

    Each call starts from cleared caches and ends at its first checked
    result, so the median is the set-up time a user pays.
    """
    times, state = [], None
    for _ in range(reps):
        start = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - start)
    return median(times), times, state


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)     # name -> value
    counters: dict = field(default_factory=dict)    # exact-repeat counters
    info: dict = field(default_factory=dict)        # sample counts etc.
    notes: list = field(default_factory=list)       # failure descriptions

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(message)
