"""Request/result types of the emulation service.

A request names a *registered model*, carries its own input samples and the
multiplier configuration the accelerator should emulate for them.  The
multiplier configuration — not the payload — decides batching compatibility:
two requests may share a micro-batch exactly when they resolve to the same
admission key (same model, same per-layer multiplier assignment), because a
coalesced batch runs through one transformed graph.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..errors import ServeError
from ..graph.layerwise import assignment_key

#: Admission-key type: (model name, canonical layer→multiplier tuple).
AdmissionKey = tuple[str, tuple[tuple[str, str], ...]]


def normalize_assignment(multiplier: "str | dict[str, str]",
                         conv_layers: tuple[str, ...]) -> dict[str, str]:
    """Expand a request's multiplier configuration to a full assignment.

    A bare library name means "this multiplier in every convolution layer"
    (the paper's homogeneous accelerator); a dict is a per-layer ALWANN-style
    assignment and must only name layers the model has.  Unlisted layers stay
    accurate, matching :func:`repro.graph.approximate_graph_layerwise`.
    """
    if isinstance(multiplier, str):
        return {layer: multiplier for layer in conv_layers}
    if isinstance(multiplier, dict):
        unknown = sorted(set(multiplier) - set(conv_layers))
        if unknown:
            raise ServeError(
                "assignment names layer(s) the model does not have: "
                f"{', '.join(unknown)}"
            )
        return {str(layer): str(name) for layer, name in multiplier.items()}
    raise ServeError(
        "multiplier must be a library name or a layer→name dict, got "
        f"{type(multiplier).__name__}"
    )


def admission_key(model: str, assignment: dict[str, str]) -> AdmissionKey:
    """The batching-compatibility key of one (model, assignment) pair."""
    return (model, assignment_key(assignment))


@dataclass
class InferenceRequest:
    """One unit of service traffic: samples + the accelerator to emulate.

    ``inputs`` is an NHWC float array with at least one sample; ``multiplier``
    is a library name (uniform) or a layer→name dict (heterogeneous).
    """

    model: str
    inputs: np.ndarray
    multiplier: "str | dict[str, str]" = "mul8s_exact"
    request_id: str = ""

    @property
    def samples(self) -> int:
        """Number of samples this request carries."""
        return int(np.shape(self.inputs)[0])


@dataclass
class RequestResult:
    """Per-request outcome handed back by the service.

    ``outputs`` holds exactly the request's own rows of the coalesced batch
    (deterministic demux), ``latency_s`` the submit→completion wall time
    (queueing delay included) and ``batch_samples`` the size of the batch
    the request rode in.  The batch's accounting is the
    :class:`~repro.backends.pipeline.RunReport` that
    :meth:`~repro.serve.session.ModelSession.run` returns.
    """

    request_id: str
    outputs: np.ndarray
    latency_s: float = 0.0
    batch_samples: int = 0

    @property
    def samples(self) -> int:
        """Number of samples in this result."""
        return int(np.shape(self.outputs)[0])


class ResultHandle:
    """Future-like handle for one submitted request.

    The service resolves it from a worker thread; callers block on
    :meth:`result` (with an optional timeout) or poll :meth:`done`.
    """

    def __init__(self, request_id: str) -> None:
        self.request_id = request_id
        self._event = threading.Event()
        self._result: RequestResult | None = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        """True once a result or an error has been delivered."""
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> RequestResult:
        """Block until the request completes; re-raises its failure."""
        if not self._event.wait(timeout):
            raise ServeError(
                f"request {self.request_id!r} did not complete within "
                f"{timeout} s"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    # -- resolution (service-internal) ----------------------------------
    def _resolve(self, result: RequestResult) -> None:
        self._result = result
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()
