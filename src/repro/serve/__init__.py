"""Micro-batching emulation service: the library as shared infrastructure.

TFApprox makes a *single* emulation fast by amortising LUT and filter-bank
setup over big GEMMs; a serving workload arrives as many small concurrent
requests, so the amortisation has to be rebuilt at the traffic level.  This
package does that:

* :class:`Batcher` — hands an idle worker the oldest queued requests at
  once, coalesced into one batch of up to the batch-size cap (nothing waits
  for more traffic, and no configuration starves another);
* config-keyed **admission** — requests carry a model name plus a
  multiplier/quantisation configuration, and only requests with identical
  configurations (same :func:`~repro.graph.assignment_key`) may share a
  batch;
* :class:`ModelSession` — the per-configuration transformed graph with
  *frozen* quantisation ranges (:func:`repro.graph.freeze_ranges`), so a
  sample's output never depends on its batch neighbours, executed on
  deterministic replicas by the worker pool;
* :class:`EmulationService` — the facade: registration, :meth:`~EmulationService.warmup`
  (pre-populates the process-wide LUT/filter-bank caches), submit/infer,
  offline trace :meth:`~EmulationService.replay` and service telemetry
  (queue depth, batch-occupancy histogram, latency percentiles, cache
  hit-rates);
* the ``tfapprox-serve`` CLI (:func:`repro.serve.cli.main_serve`) replaying
  JSONL request traces.
"""

from .batcher import Batch, BatchEntry, Batcher
from .request import (
    InferenceRequest,
    RequestResult,
    ResultHandle,
    admission_key,
    normalize_assignment,
)
from .service import EmulationService, ServiceConfig
from .session import ModelSession, ModelSpec, build_session
from .telemetry import (
    BatchRecord,
    ServiceTelemetry,
    TelemetrySnapshot,
)
from .trace import (
    ReplayReport,
    TraceRequest,
    load_trace,
    save_trace,
    synthetic_trace,
)

__all__ = [
    "EmulationService",
    "ServiceConfig",
    "Batcher",
    "Batch",
    "BatchEntry",
    "InferenceRequest",
    "RequestResult",
    "ResultHandle",
    "admission_key",
    "normalize_assignment",
    "ModelSession",
    "ModelSpec",
    "build_session",
    "ServiceTelemetry",
    "TelemetrySnapshot",
    "BatchRecord",
    "TraceRequest",
    "ReplayReport",
    "synthetic_trace",
    "load_trace",
    "save_trace",
]
