"""Request traces: JSONL persistence, synthesis and replay reports.

Offline mode replays a recorded (or synthesised) request trace through the
service as fast as it drains, which is how the serving benchmarks compare
coalesced against uncoalesced execution on *identical* traffic.  A trace
line carries no tensors — inputs are regenerated deterministically from the
request's seed — so traces are tiny, diffable and seed-reproducible.

Trace line schema (one JSON object per line)::

    {"model": "simple_cnn", "multiplier": "mul8s_mitchell",
     "samples": 1, "seed": 17, "request_id": "r0017"}

``multiplier`` may also be a per-layer object
(``{"conv1": "mul8s_exact", ...}``); ``request_id`` defaults to ``r<index>``
at load time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..errors import ServeError
from ..evaluation.latency import LatencyStats


@dataclass(frozen=True)
class TraceRequest:
    """One trace line: traffic shape, not payload.

    >>> TraceRequest(model="simple_cnn", multiplier="mul8s_exact").samples
    1
    """

    model: str
    multiplier: object = "mul8s_exact"
    samples: int = 1
    seed: int = 0
    request_id: str = ""

    def __post_init__(self) -> None:
        if self.samples <= 0:
            raise ServeError("a trace request must carry at least one sample")
        if not isinstance(self.multiplier, (str, dict)):
            raise ServeError(
                "trace multiplier must be a library name or a layer→name "
                f"dict, got {type(self.multiplier).__name__}"
            )

    def materialize(self, input_shape: tuple[int, int, int]) -> np.ndarray:
        """Deterministic input batch of this request (values in [0, 1))."""
        rng = np.random.default_rng(self.seed)
        return rng.random(size=(self.samples, *input_shape))

    def to_json(self) -> dict:
        """The JSONL object of this request."""
        document = {
            "model": self.model,
            "multiplier": self.multiplier,
            "samples": self.samples,
            "seed": self.seed,
        }
        if self.request_id:
            document["request_id"] = self.request_id
        return document


def synthetic_trace(model: str, *, requests: int, samples: int = 1,
                    multipliers: tuple[str, ...] = ("mul8s_mitchell",),
                    seed: int = 0) -> list[TraceRequest]:
    """Deterministic trace: ``requests`` requests cycling over ``multipliers``.

    Each request gets its own derived input seed, so two requests never
    carry identical samples; the same arguments always produce the same
    trace.
    """
    if requests <= 0:
        raise ServeError("a synthetic trace needs at least one request")
    if not multipliers:
        raise ServeError("synthetic_trace needs at least one multiplier")
    return [
        TraceRequest(
            model=model,
            multiplier=multipliers[index % len(multipliers)],
            samples=samples,
            seed=seed * 1_000_003 + index,
            request_id=f"r{index:04d}",
        )
        for index in range(requests)
    ]


def load_trace(path) -> list[TraceRequest]:
    """Read a JSONL trace file; missing request ids default to ``r<index>``."""
    requests: list[TraceRequest] = []
    with open(path, "r", encoding="utf-8") as handle:
        for index, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            try:
                document = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ServeError(
                    f"trace line {index + 1} is not valid JSON: {exc}"
                ) from exc
            if not isinstance(document, dict) or "model" not in document:
                raise ServeError(
                    f"trace line {index + 1} must be an object with a "
                    "'model' field"
                )
            requests.append(TraceRequest(
                model=document["model"],
                multiplier=document.get("multiplier", "mul8s_exact"),
                samples=int(document.get("samples", 1)),
                seed=int(document.get("seed", 0)),
                request_id=str(document.get("request_id", f"r{index:04d}")),
            ))
    if not requests:
        raise ServeError(f"trace file {path} contains no requests")
    return requests


def save_trace(path, requests: list[TraceRequest]) -> None:
    """Write a trace as JSONL (one request per line)."""
    with open(path, "w", encoding="utf-8") as handle:
        for request in requests:
            handle.write(json.dumps(request.to_json(), sort_keys=True) + "\n")


@dataclass
class ReplayReport:
    """Outcome of one offline trace replay.

    Throughput counts *requests* (the service-level unit) and *samples*
    (the emulation-level unit) separately: coalescing changes the former's
    relationship to the latter, which is the whole point of measuring it.
    """

    requests: int = 0
    samples: int = 0
    batches: int = 0
    wall_time_s: float = 0.0
    max_batch_samples: int = 0
    workers: int = 0
    latency: LatencyStats | None = None
    occupancy: dict[int, int] = field(default_factory=dict)
    telemetry: dict = field(default_factory=dict)

    @property
    def requests_per_s(self) -> float:
        """Completed requests per wall-clock second."""
        return self.requests / self.wall_time_s if self.wall_time_s > 0 else 0.0

    @property
    def samples_per_s(self) -> float:
        """Emulated samples per wall-clock second."""
        return self.samples / self.wall_time_s if self.wall_time_s > 0 else 0.0

    @property
    def mean_occupancy(self) -> float:
        """Average samples per executed batch."""
        total = sum(size * count for size, count in self.occupancy.items())
        batches = sum(self.occupancy.values())
        return total / batches if batches else 0.0

    def to_json(self) -> dict:
        """Plain-data representation (archived by the CLI's ``--json``)."""
        return {
            "requests": self.requests,
            "samples": self.samples,
            "batches": self.batches,
            "wall_time_s": self.wall_time_s,
            "requests_per_s": self.requests_per_s,
            "samples_per_s": self.samples_per_s,
            "max_batch_samples": self.max_batch_samples,
            "workers": self.workers,
            "mean_occupancy": self.mean_occupancy,
            "occupancy": {str(k): v for k, v in sorted(self.occupancy.items())},
            "latency": self.latency.to_json() if self.latency else None,
            "telemetry": self.telemetry,
        }

    def summary(self) -> str:
        """Multi-line human-readable digest (CLI output)."""
        lines = [
            f"replayed {self.requests} request(s) / {self.samples} sample(s) "
            f"in {self.wall_time_s:.3f} s",
            f"throughput: {self.requests_per_s:.1f} requests/s "
            f"({self.samples_per_s:.1f} samples/s)",
            f"batches: {self.batches} (cap {self.max_batch_samples}, "
            f"mean occupancy {self.mean_occupancy:.1f})",
        ]
        if self.latency is not None:
            lines.append(f"latency: {self.latency.summary()}")
        return "\n".join(lines)
