"""Deadline-based micro-batch coalescing.

The paper's speedup comes from amortising per-call setup over large GEMMs;
a serving workload arrives as a trickle of small requests, so something has
to rebuild the large batches.  :class:`Batcher` is that something: requests
are queued per *admission key* (requests with different keys can never mix
— they would need different transformed graphs), and a queue is flushed as
one batch when it either

* reaches the batch-size cap (``max_batch_samples``), or
* has held its oldest request for the latency deadline (``max_delay_s``),
  so a trickle load is never starved waiting for a batch that will not fill.

Worker threads pull flushed batches with :meth:`next_batch`; entries inside
a batch keep FIFO submission order, which is what makes the result demux
deterministic.  When every request is enqueued before the first
:meth:`next_batch` call (the offline replay mode), the sequence of batches
is a pure function of the submission order — independent of worker count
and timing — which is the service's determinism guarantee.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Hashable

from ..errors import ServeError


@dataclass(frozen=True)
class BatchEntry:
    """One queued request: opaque payload plus its sample count and age."""

    item: object
    samples: int
    enqueued_at: float


@dataclass(frozen=True)
class Batch:
    """A flushed micro-batch: compatible entries in FIFO submission order."""

    key: Hashable
    entries: tuple[BatchEntry, ...]

    @property
    def samples(self) -> int:
        """Total samples coalesced into this batch."""
        return sum(entry.samples for entry in self.entries)

    @property
    def requests(self) -> int:
        """Number of coalesced requests."""
        return len(self.entries)


class Batcher:
    """Coalesces compatible requests under a deadline and a size cap.

    Parameters
    ----------
    max_batch_samples:
        Flush a queue once it holds this many samples; a single request
        larger than the cap still forms its own (oversized) batch rather
        than being rejected.
    max_delay_s:
        Maximum time a request may wait for co-batchable traffic.  A queue
        whose oldest entry reaches this age is flushed no matter how empty
        the batch is — the no-starvation guarantee.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(self, *, max_batch_samples: int = 32,
                 max_delay_s: float = 0.005,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if max_batch_samples <= 0:
            raise ServeError("max_batch_samples must be positive")
        if max_delay_s < 0:
            raise ServeError("max_delay_s must be non-negative")
        self.max_batch_samples = int(max_batch_samples)
        self.max_delay_s = float(max_delay_s)
        self._clock = clock
        self._queues: "OrderedDict[Hashable, deque[BatchEntry]]" = OrderedDict()
        self._cond = threading.Condition()
        self._closed = False

    # -- producer side ---------------------------------------------------
    def submit(self, key: Hashable, item: object, samples: int = 1) -> None:
        """Queue one request under its admission key."""
        if samples <= 0:
            raise ServeError("a request must carry at least one sample")
        with self._cond:
            if self._closed:
                raise ServeError("cannot submit to a closed batcher")
            self._queues.setdefault(key, deque()).append(
                BatchEntry(item=item, samples=int(samples),
                           enqueued_at=self._clock()))
            self._cond.notify_all()

    def close(self) -> None:
        """Stop accepting requests; queued entries remain consumable.

        After closing, :meth:`next_batch` drains the remaining queues
        immediately (no deadline waiting) and then returns ``None`` to every
        caller — the worker-shutdown signal.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # -- introspection ---------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        with self._cond:
            return self._closed

    def pending_requests(self) -> int:
        """Queued requests not yet handed out in a batch."""
        with self._cond:
            return sum(len(q) for q in self._queues.values())

    # -- consumer side ---------------------------------------------------
    def next_batch(self, timeout: float | None = None) -> Batch | None:
        """Block until a batch is ready; ``None`` on timeout or drained close.

        Readiness is defined by the cap and the deadline above.  With
        ``timeout=None`` the call waits indefinitely (until the batcher is
        closed and empty).
        """
        give_up = None if timeout is None else self._clock() + timeout
        with self._cond:
            while True:
                batch = self._pop_ready_locked()
                if batch is not None:
                    return batch
                if self._closed and not self._queues:
                    return None
                wait = self._next_flush_in_locked()
                if give_up is not None:
                    remaining = give_up - self._clock()
                    if remaining <= 0:
                        return None
                    wait = remaining if wait is None else min(wait, remaining)
                self._cond.wait(wait)

    def _next_flush_in_locked(self) -> float | None:
        """Seconds until the earliest queue deadline (None = no queue)."""
        now = self._clock()
        deadlines = [
            queue[0].enqueued_at + self.max_delay_s
            for queue in self._queues.values() if queue
        ]
        if not deadlines:
            return None
        return max(min(deadlines) - now, 0.0)

    def _pop_ready_locked(self) -> Batch | None:
        """Flush the first queue that is full, expired or force-drained."""
        now = self._clock()
        for key in list(self._queues):
            queue = self._queues[key]
            if not queue:
                del self._queues[key]
                continue
            total = sum(entry.samples for entry in queue)
            expired = now - queue[0].enqueued_at >= self.max_delay_s
            if total >= self.max_batch_samples or expired or self._closed:
                return self._take_locked(key, queue)
        return None

    def _take_locked(self, key: Hashable,
                     queue: "deque[BatchEntry]") -> Batch:
        entries: list[BatchEntry] = []
        samples = 0
        while queue:
            entry = queue[0]
            if entries and samples + entry.samples > self.max_batch_samples:
                break
            entries.append(queue.popleft())
            samples += entry.samples
            if samples >= self.max_batch_samples:
                break
        if not queue:
            del self._queues[key]
        return Batch(key=key, entries=tuple(entries))
