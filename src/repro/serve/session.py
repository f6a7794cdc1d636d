"""Model registration and per-configuration execution sessions.

A :class:`ModelSpec` is what :meth:`EmulationService.register_model` stores:
the deterministic builder, the input geometry probed from it once, and the
calibration batch used to freeze quantisation ranges.  A
:class:`ModelSession` is one *configuration* of a registered model — the
graph transformed for one per-layer multiplier assignment, with its range
probes frozen so a sample's output no longer depends on which micro-batch it
shares (see :func:`repro.graph.freeze_ranges`).

Sessions are built once per admission key and reused for every later
request with that configuration; so that no graph is ever executed by two
threads at once, a session keeps a pool of independently built *replicas* —
the builder's determinism contract (same weights on every call, the same
contract the DSE evaluator relies on) makes all replicas bit-identical, so
which replica serves a batch never changes the result.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass

import numpy as np

from ..backends.pipeline import RunReport, collect_reports
from ..datasets.cifar import normalize
from ..errors import ServeError, TFApproxError
from ..graph.executor import Executor
from ..graph.ops.conv import Conv2D
from ..graph.transform import approximate_graph_layerwise, freeze_ranges
from .request import AdmissionKey, admission_key, normalize_assignment

#: Calibration samples a warm-up run executes.
WARMUP_SAMPLES = 4


def static_input_shape(name: str, model) -> tuple:
    """``model``'s declared ``(None, H, W, C)`` input shape.

    A served model needs static spatial dimensions and channels; anything
    else raises :class:`~repro.errors.ServeError`.
    """
    shape = getattr(model.input_node, "shape", None)
    if shape is None or len(shape) != 4 or any(s is None for s in shape[1:]):
        raise ServeError(
            f"model {name!r} must declare a static (None, H, W, C) "
            f"input shape, got {shape}"
        )
    return tuple(shape)


@dataclass(frozen=True)
class ModelSpec:
    """One registered model: builder, probed geometry, calibration batch."""

    name: str
    builder: object
    input_shape: tuple[int, int, int]
    conv_layers: tuple[str, ...]
    calibration: np.ndarray
    normalize_inputs: bool = True

    @staticmethod
    def probe(name: str, builder, *, calibration: np.ndarray,
              normalize_inputs: bool = True, model=None) -> "ModelSpec":
        """Build the model once to read its input geometry and conv layers.

        ``model`` lets a caller that already built one instance (e.g. to
        synthesise calibration data matched to the input geometry) pass it
        in instead of paying a second construction.
        """
        if model is None:
            model = builder()
        shape = static_input_shape(name, model)
        conv_layers = tuple(
            node.name for node in model.graph.nodes_by_type(Conv2D.op_type))
        if not conv_layers:
            raise ServeError(
                f"model {name!r} has no Conv2D layers to emulate")
        calibration = np.asarray(calibration, dtype=np.float64)
        if calibration.ndim != 4 or calibration.shape[1:] != tuple(shape[1:]):
            raise ServeError(
                f"calibration batch shape {calibration.shape} does not match "
                f"model input shape (N,{shape[1]},{shape[2]},{shape[3]})"
            )
        return ModelSpec(
            name=name, builder=builder, input_shape=tuple(shape[1:]),
            conv_layers=conv_layers, calibration=calibration,
            normalize_inputs=normalize_inputs,
        )

    def check_inputs(self, inputs: np.ndarray) -> np.ndarray:
        """Validate one request's input array against the model geometry."""
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 4 or inputs.shape[1:] != self.input_shape:
            raise ServeError(
                f"inputs of shape {inputs.shape} do not match model "
                f"{self.name!r} (N,{','.join(map(str, self.input_shape))})"
            )
        if inputs.shape[0] == 0:
            raise ServeError("a request must carry at least one sample")
        return inputs


@dataclass
class _Replica:
    """One independently built copy of a session's transformed model."""

    model: object
    executor: Executor


class ModelSession:
    """One (model, multiplier-assignment) configuration, ready to execute.

    Parameters
    ----------
    spec:
        The registered model.
    assignment:
        Full layer→library-name assignment (already normalised).
    max_replicas:
        Upper bound on concurrently executing batches of this session —
        normally the service's worker count.
    """

    def __init__(self, spec: ModelSpec, assignment: dict[str, str], *,
                 max_replicas: int = 1) -> None:
        if max_replicas <= 0:
            raise ServeError("max_replicas must be positive")
        self.spec = spec
        self.assignment = dict(assignment)
        self.key: AdmissionKey = admission_key(spec.name, self.assignment)
        self.max_replicas = int(max_replicas)
        self._idle: "queue.LifoQueue[_Replica]" = queue.LifoQueue()
        self._built = 0
        self._build_lock = threading.Lock()
        # Build the first replica eagerly so configuration errors (unknown
        # multiplier name, bad assignment) surface at session creation, not
        # on some worker thread mid-batch.
        self._idle.put(self._build_replica())
        self._built = 1

    # -- replica management ---------------------------------------------
    def _calibration_feed(self) -> np.ndarray:
        feed = self.spec.calibration
        return normalize(feed) if self.spec.normalize_inputs else feed

    def _build_replica(self) -> _Replica:
        model = self.spec.builder()
        approximate_graph_layerwise(model.graph, dict(self.assignment))
        freeze_ranges(
            model.graph, {model.input_node: self._calibration_feed()})
        return _Replica(model=model, executor=Executor(model.graph))

    def _acquire(self) -> _Replica:
        try:
            return self._idle.get_nowait()
        except queue.Empty:
            pass
        with self._build_lock:
            if self._built < self.max_replicas:
                self._built += 1
                return self._build_replica()
        return self._idle.get()

    # -- execution -------------------------------------------------------
    def run(self, inputs: np.ndarray) -> tuple[np.ndarray, RunReport]:
        """Execute one coalesced batch; returns (logits, batch report).

        The report totals every approximate convolution of the batch (the
        pipeline runs merged by :func:`~repro.backends.collect_reports`),
        with the batch's own size.  Thread-safe up to ``max_replicas``
        concurrent calls; outputs are bit-identical no matter which replica
        serves the batch.
        """
        inputs = self.spec.check_inputs(inputs)
        feed = normalize(inputs) if self.spec.normalize_inputs else inputs
        replica = self._acquire()
        try:
            with collect_reports() as report:
                logits = replica.executor.run(
                    replica.model.logits, {replica.model.input_node: feed})
            # A model run's batch is its input batch, not the sum of its
            # layers' batches.
            report.batch = int(inputs.shape[0])
        finally:
            self._idle.put(replica)
        return logits, report

    def warmup(self) -> None:
        """Run a small calibration slice to pre-populate the shared caches.

        Session construction already resolves every assigned multiplier's
        lookup table through the process-wide
        :class:`~repro.backends.cache.LUTCache`; this warm run of
        :data:`WARMUP_SAMPLES` calibration samples additionally quantises
        each approximated layer's filter bank into the
        :class:`~repro.backends.cache.FilterBankCache`, so the first real
        request pays no setup at all.
        """
        self.run(self.spec.calibration[:WARMUP_SAMPLES])


def build_session(spec: ModelSpec, multiplier: "str | dict[str, str]", *,
                  max_replicas: int = 1) -> ModelSession:
    """Normalise ``multiplier`` against ``spec`` and build the session."""
    assignment = normalize_assignment(multiplier, spec.conv_layers)
    try:
        return ModelSession(spec, assignment, max_replicas=max_replicas)
    except ServeError:
        raise
    except TFApproxError as exc:
        raise ServeError(
            f"cannot build session for model {spec.name!r}: {exc}"
        ) from exc
