"""The :class:`EmulationService` facade: admission, workers, lifecycle.

The service turns the library's one-shot APIs into a shared process:
requests tagged with a model and a multiplier configuration are admitted
into per-configuration queues, handed to an idle worker at once by the
work-conserving :class:`~repro.serve.batcher.Batcher` (as much of the oldest
queue as the batch-size cap allows), executed through per-configuration
:class:`~repro.serve.session.ModelSession` replicas (which route every
convolution through the shared :class:`~repro.backends.InferencePipeline`
machinery and its process-wide LUT/filter-bank caches), and demuxed back
into per-request results.

Determinism: a sample's output never depends on its batch neighbours
(sessions freeze quantisation ranges at build time), and in offline replay
— every request enqueued before the workers start — the batch sequence
itself is a pure function of the trace, so replaying the same trace yields
bit-identical per-request outputs at any worker count.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import ServeError, TFApproxError
from ..evaluation.latency import LatencyStats
from .batcher import Batch, Batcher
from .request import (
    AdmissionKey,
    InferenceRequest,
    RequestResult,
    ResultHandle,
    admission_key,
    normalize_assignment,
)
from .session import (
    ModelSession,
    ModelSpec,
    build_session,
    static_input_shape,
)
from .telemetry import BatchRecord, ServiceTelemetry, TelemetrySnapshot
from .trace import ReplayReport, TraceRequest


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`EmulationService` instance.

    ``max_batch_samples`` caps how many queued samples one batch takes:
    bigger caps amortise per-batch setup over more samples when requests
    pile up under load.  No request ever waits for traffic to coalesce
    with.  ``workers`` bounds concurrent batch execution (and each
    session's replica count).
    """

    max_batch_samples: int = 32
    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ServeError("workers must be positive")


@dataclass
class _Pending:
    """A queued request plus everything needed to resolve it."""

    request: InferenceRequest
    handle: ResultHandle
    submitted_at: float = field(default_factory=time.monotonic)


class EmulationService:
    """Micro-batching facade over the emulation library.

    Typical lifecycle::

        service = EmulationService(ServiceConfig(workers=2))
        service.register_model("simple_cnn",
                               lambda: build_simple_cnn(input_size=16, seed=0))
        service.warmup("simple_cnn", ["mul8s_mitchell"])
        with service:                       # starts/stops the worker pool
            handle = service.submit("simple_cnn", images, "mul8s_mitchell")
            result = handle.result(timeout=5.0)

    Models must be registered before traffic references them; sessions (one
    per distinct multiplier configuration) are built lazily on first use or
    eagerly through :meth:`warmup`.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self._specs: dict[str, ModelSpec] = {}
        self._sessions: dict[AdmissionKey, ModelSession] = {}
        self._sessions_lock = threading.Lock()
        self._session_builds: dict[AdmissionKey, threading.Lock] = {}
        self._batcher = Batcher(
            max_batch_samples=self.config.max_batch_samples)
        self._telemetry = ServiceTelemetry()
        self._workers: list[threading.Thread] = []
        self._started = False
        self._stopped = False
        self._lifecycle_lock = threading.Lock()
        self._request_counter = itertools.count()

    # -- registration ----------------------------------------------------
    def register_model(self, name: str, builder, *,
                       calibration: np.ndarray | None = None,
                       calibration_samples: int = 32,
                       calibration_seed: int = 0,
                       normalize_inputs: bool = True) -> ModelSpec:
        """Register a deterministic model builder under ``name``.

        ``builder`` must return a fresh model with identical weights on
        every call (the same contract the DSE evaluator imposes) — session
        replicas rely on it.  Without an explicit ``calibration`` batch a
        synthetic CIFAR-like one is generated to match the model's input
        geometry (3-channel square inputs only; other geometries must bring
        their own calibration data).
        """
        if name in self._specs:
            raise ServeError(f"model {name!r} is already registered")
        probe = builder()
        if calibration is None:
            shape = static_input_shape(name, probe)
            height, width, channels = shape[1], shape[2], shape[3]
            if height != width or channels != 3:
                raise ServeError(
                    f"cannot synthesise calibration data for input shape "
                    f"{shape}; pass an explicit calibration batch"
                )
            from ..datasets.cifar import generate_cifar_like
            calibration = generate_cifar_like(
                calibration_samples, seed=calibration_seed,
                image_size=height).images
        spec = ModelSpec.probe(
            name, builder, calibration=calibration,
            normalize_inputs=normalize_inputs, model=probe,
        )
        self._specs[name] = spec
        return spec

    def models(self) -> list[str]:
        """Names of the registered models."""
        return sorted(self._specs)

    def spec(self, model: str) -> ModelSpec:
        """The :class:`ModelSpec` registered under ``model``."""
        try:
            return self._specs[model]
        except KeyError:
            raise ServeError(
                f"model {model!r} is not registered "
                f"(registered: {', '.join(sorted(self._specs)) or 'none'})"
            ) from None

    # -- sessions ---------------------------------------------------------
    def session(self, model: str,
                multiplier: "str | dict[str, str]") -> ModelSession:
        """Get or build the session for one (model, configuration) pair.

        Builds are expensive (model construction plus a calibration run for
        the range freeze), so they serialise per *key* only: concurrent
        first requests for different configurations build in parallel, and
        the global dict lock is held just for lookups and inserts.
        """
        spec = self.spec(model)
        assignment = normalize_assignment(multiplier, spec.conv_layers)
        key = admission_key(model, assignment)
        with self._sessions_lock:
            session = self._sessions.get(key)
            if session is not None:
                return session
            build_lock = self._session_builds.setdefault(
                key, threading.Lock())
        with build_lock:
            with self._sessions_lock:
                session = self._sessions.get(key)
                if session is not None:
                    return session
            session = build_session(
                spec, multiplier, max_replicas=self.config.workers)
            with self._sessions_lock:
                self._sessions[key] = session
        return session

    def warmup(self, model: str | None = None,
               multipliers: "list[str | dict[str, str]] | None" = None,
               ) -> None:
        """Pre-build sessions and pre-populate the LUT/filter-bank caches.

        ``model=None`` warms every registered model.  Each named
        configuration gets its session built (resolving every multiplier's
        lookup table) and one small calibration batch executed (quantising
        every approximated layer's filter bank), so the first real request
        finds both caches hot; :func:`~repro.backends.cache.cache_stats`
        shows what the warm-up built.
        """
        if multipliers is None:
            raise ServeError("warmup needs the multiplier configurations "
                             "traffic will use")
        names = self.models() if model is None else [model]
        for name in names:
            for multiplier in multipliers:
                self.session(name, multiplier).warmup()

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "EmulationService":
        """Start the worker pool (idempotent until :meth:`stop`)."""
        with self._lifecycle_lock:
            if self._stopped:
                raise ServeError("a stopped service cannot be restarted")
            if self._started:
                return self
            self._started = True
            for index in range(self.config.workers):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"tfapprox-serve-worker-{index}", daemon=True)
                thread.start()
                self._workers.append(thread)
        return self

    def stop(self) -> None:
        """Drain the queues, retire the workers (idempotent)."""
        with self._lifecycle_lock:
            if self._stopped:
                return
            self._stopped = True
            self._batcher.close()
            workers = list(self._workers)
        for thread in workers:
            thread.join()

    def __enter__(self) -> "EmulationService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- traffic -----------------------------------------------------------
    def submit(self, model: str, inputs: np.ndarray,
               multiplier: "str | dict[str, str]" = "mul8s_exact", *,
               request_id: str | None = None) -> ResultHandle:
        """Admit one request; returns a handle resolving to its result.

        Validation (model registered, input geometry, multiplier known) and
        session construction happen here on the caller's thread, so a bad
        request fails fast instead of poisoning a worker's batch.
        """
        spec = self.spec(model)
        inputs = spec.check_inputs(np.asarray(inputs, dtype=np.float64))
        session = self.session(model, multiplier)
        if request_id is None:
            request_id = f"q{next(self._request_counter):06d}"
        request = InferenceRequest(
            model=model, inputs=inputs, multiplier=multiplier,
            request_id=request_id)
        handle = ResultHandle(request_id)
        pending = _Pending(request=request, handle=handle)
        # Count the submit before the batcher can hand the request to a
        # worker, so a concurrent telemetry() never observes
        # completed > submitted; undo on a rejected enqueue.
        self._telemetry.record_submit()
        try:
            self._batcher.submit(session.key, pending, samples=request.samples)
        except BaseException:
            self._telemetry.record_submit(-1)
            raise
        return handle

    def infer(self, model: str, inputs: np.ndarray,
              multiplier: "str | dict[str, str]" = "mul8s_exact", *,
              timeout: float | None = None) -> RequestResult:
        """Synchronous :meth:`submit` — blocks until the result is ready."""
        if not self._started:
            raise ServeError("the service is not started; call start() or "
                             "use it as a context manager")
        return self.submit(model, inputs, multiplier).result(timeout)

    def replay(self, trace: list[TraceRequest], *,
               timeout_per_request: float = 30.0) -> ReplayReport:
        """Offline mode: drain a whole request trace, report the outcome.

        The entire trace is enqueued *before* the workers start whenever the
        service has not been started yet — that makes the batch sequence
        (and therefore every per-request output) a deterministic function of
        the trace, independent of worker count.  On an already-running
        service the replay still completes but interleaves with live
        traffic.
        """
        if not trace:
            raise ServeError("cannot replay an empty trace")
        before = self.telemetry()
        start_wall = time.perf_counter()
        handles: list[ResultHandle] = []
        for request in trace:
            spec = self.spec(request.model)
            handles.append(self.submit(
                request.model, request.materialize(spec.input_shape),
                request.multiplier, request_id=request.request_id or None,
            ))
        self.start()
        results = [handle.result(timeout_per_request) for handle in handles]
        wall = time.perf_counter() - start_wall

        # Report this replay's own numbers, not service-lifetime totals:
        # latency comes from the replay's results, batches/occupancy are
        # deltas over the replay window (exact unless live traffic
        # interleaves, in which case its batches are indistinguishable from
        # the replay's by construction).
        snapshot = self.telemetry()
        occupancy = {
            size: count - before.occupancy.get(size, 0)
            for size, count in snapshot.occupancy.items()
            if count - before.occupancy.get(size, 0) > 0
        }
        return ReplayReport(
            requests=len(results),
            samples=sum(result.samples for result in results),
            batches=snapshot.batches - before.batches,
            wall_time_s=wall,
            max_batch_samples=self.config.max_batch_samples,
            workers=self.config.workers,
            latency=LatencyStats.from_samples(
                [result.latency_s for result in results]),
            occupancy=occupancy,
            telemetry=snapshot.to_json(),
        )

    # -- observation -------------------------------------------------------
    def telemetry(self) -> TelemetrySnapshot:
        """Point-in-time service counters (queue depth, occupancy, latency)."""
        return self._telemetry.snapshot(
            queue_depth=self._batcher.pending_requests())

    def batch_log(self):
        """Recent executed batches (see :meth:`ServiceTelemetry.batch_log`)."""
        return self._telemetry.batch_log()

    # -- worker internals ---------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            batch = self._batcher.next_batch()
            if batch is None:
                return
            self._execute(batch)

    def _execute(self, batch: Batch) -> None:
        pendings: list[_Pending] = [entry.item for entry in batch.entries]
        try:
            session = self._sessions[batch.key]
            inputs = np.concatenate(
                [p.request.inputs for p in pendings], axis=0)
            start = time.perf_counter()
            outputs, _ = session.run(inputs)
            wall = time.perf_counter() - start
        except BaseException as exc:  # noqa: BLE001 - forwarded to callers
            error = exc
            if not isinstance(exc, TFApproxError):
                # Callers catch the library's typed errors only.
                error = ServeError(
                    f"batch of {len(pendings)} request(s) failed: {exc!r}")
                error.__cause__ = exc
            self._telemetry.record_failure(len(pendings))
            for pending in pendings:
                pending.handle._fail(error)
            return

        now = time.monotonic()
        total = int(inputs.shape[0])
        latencies = []
        offset = 0
        for pending in pendings:
            rows = pending.request.samples
            latency = now - pending.submitted_at
            latencies.append(latency)
            pending.handle._resolve(RequestResult(
                request_id=pending.request.request_id,
                outputs=outputs[offset:offset + rows],
                latency_s=latency,
                batch_samples=total,
            ))
            offset += rows
        self._telemetry.record_batch(
            BatchRecord(
                key=batch.key,
                request_ids=tuple(
                    p.request.request_id for p in pendings),
                samples=total,
                wall_time_s=wall,
            ),
            latencies,
        )
