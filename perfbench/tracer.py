"""Span tracer that instruments the program from outside.

The benchmark never edits ``src/``: it replaces public functions of the
``repro`` package with timing wrappers while tracing is on and restores
them afterwards.  Each call becomes a :class:`Span` (name, start, end,
parent span, thread, serve request ids).  Parent stacks are per thread, so
spans recorded on the serve worker thread nest under that thread's own
``serve.session_run`` span.  Spans stay in memory until :meth:`Tracer.write`
dumps them as Chrome trace-event JSON (opens in Perfetto).
"""

from __future__ import annotations

import gzip
import json
import sys
import threading
import time
from contextlib import contextmanager


class Span:
    """One timed call."""

    __slots__ = ("name", "start", "end", "parent", "thread", "requests",
                 "phase", "attrs", "child_s")

    def __init__(self, name, parent, thread, requests, phase, attrs):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.requests = requests
        self.phase = phase
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the part its child spans cover."""
        return self.duration - self.child_s


def _gemm_shape(args, kwargs):
    patches, filters = args[0], args[1]
    return {"P": int(patches.shape[0]), "K": int(patches.shape[1]),
            "F": int(filters.shape[1])}


class Tracer:
    """Records spans around the public layer functions of ``repro``.

    ``phase`` is stamped on every span at creation; the workloads set it to
    ``"setup"``, ``"window"`` and so on, so metrics can be computed per phase.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = ""
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.pickups: dict[str, float] = {}

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, attrs) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, threading.get_ident(),
                    getattr(self._local, "requests", None), self.phase, attrs)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_s += span.end - span.start
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        """Record a span around the benchmark's own call into the program."""
        span = self._open(name, None)
        try:
            yield span
        finally:
            self._close(span)

    def wrapped(self, fn, name: str, attrs_of=None):
        """``fn`` wrapped so that each call records a span called ``name``."""
        def wrapper(*args, **kwargs):
            span = self._open(
                name, attrs_of(args, kwargs) if attrs_of is not None else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, attrs_of=None) -> None:
        """Replace ``owner.attr`` (module function or class method)."""
        raw = (owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr))
        if isinstance(raw, classmethod):
            replacement = classmethod(
                self.wrapped(raw.__func__, name, attrs_of))
        else:
            replacement = self.wrapped(raw, name, attrs_of)
        self._patch(owner, attr, replacement)

    def _hook_next_batch(self, batcher_cls) -> None:
        """Tag the serve worker thread with the request ids of its batch."""
        original = batcher_cls.next_batch
        tracer = self

        def next_batch(self, *args, **kwargs):
            batch = original(self, *args, **kwargs)
            now = time.perf_counter()
            ids = None
            if batch is not None:
                ids = tuple(entry.item.request.request_id
                            for entry in batch.entries)
                for request_id in ids:
                    tracer.pickups[request_id] = now
            tracer._local.requests = ids
            return batch
        self._patch(batcher_cls, "next_batch", next_batch)

    def install(self) -> None:
        """Wrap every instrumented layer function of ``repro``."""
        import repro.conv.approx_conv2d  # noqa: F401  (module, not function)
        from repro.backends import pipeline as pipeline_mod
        from repro.backends.pipeline import InferencePipeline
        from repro.conv import gemm as gemm_mod
        from repro.conv import reference as reference_mod
        from repro.graph.executor import Executor
        from repro.graph.ops import conv as graph_conv_mod
        from repro.lut.table import LookupTable
        from repro.serve.batcher import Batcher
        from repro.serve.service import EmulationService
        from repro.serve.session import ModelSession
        from repro.train.optim import Optimizer
        from repro.train.trainer import Trainer

        # ``repro.conv.approx_conv2d`` is shadowed by the function of the
        # same name in the package namespace.
        approx_mod = sys.modules["repro.conv.approx_conv2d"]
        self.wrap(Executor, "run", "graph.forward")
        self.wrap(Executor, "record", "graph.forward")
        self.wrap(Executor, "backward", "graph.backward")
        self.wrap(InferencePipeline, "run", "backends.run")
        self.wrap(InferencePipeline, "prepare", "backends.prepare")
        self.wrap(approx_mod, "im2col_quantized", "conv.im2col")
        self.wrap(approx_mod, "approx_gemm", "conv.approx_gemm")
        self.wrap(gemm_mod, "lut_matmul", "conv.lut_gemm", _gemm_shape)
        self.wrap(gemm_mod, "dequantize_gemm", "conv.dequant")
        self.wrap(pipeline_mod, "quantize_filter_bank",
                  "quantization.filter_bank")
        self.wrap(LookupTable, "from_multiplier", "lut.build")
        self.wrap(graph_conv_mod, "conv2d_float_backward", "conv.backward")
        self.wrap(reference_mod, "col2im", "conv.col2im")
        self.wrap(Trainer, "train_step", "train.step")
        self.wrap(Optimizer, "step", "train.update")
        self.wrap(ModelSession, "run", "serve.session_run")
        self.wrap(EmulationService, "submit", "serve.submit",
                  lambda args, kwargs: {"request": kwargs.get("request_id")})
        self._hook_next_batch(Batcher)

    def uninstall(self) -> None:
        """Restore every replaced function."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- cost and export -----------------------------------------------------
    def span_cost_s(self, calls: int = 20000) -> float:
        """Measured cost of one traced call over an untraced one."""
        def noop():
            return None
        probe = Tracer()
        traced = probe.wrapped(noop, "probe")
        best_plain = best_traced = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(calls):
                noop()
            best_plain = min(best_plain, time.perf_counter() - start)
            start = time.perf_counter()
            for _ in range(calls):
                traced()
            best_traced = min(best_traced, time.perf_counter() - start)
            probe.spans.clear()
        return max(best_traced - best_plain, 0.0) / calls

    def write(self, path) -> None:
        """Dump the spans as gzipped Chrome trace-event JSON."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        origin = min((span.start for span in self.spans), default=0.0)
        events = []
        for index, span in enumerate(self.spans):
            args = {"id": index, "phase": span.phase}
            if span.parent is not None:
                args["parent"] = ids.get(id(span.parent))
            if span.requests:
                args["requests"] = list(span.requests)
            if span.attrs:
                args.update(span.attrs)
            events.append({
                "name": span.name, "ph": "X", "pid": 1, "tid": span.thread,
                "ts": (span.start - origin) * 1e6,
                "dur": (span.end - span.start) * 1e6, "args": args,
            })
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
