"""Work-conserving micro-batch coalescing.

The paper's speedup comes from handing the accelerator one large batch of
work that is already there; a serving workload arrives as a trickle of
small requests, so something has to rebuild the large batches.
:class:`Batcher` is that something: requests are queued per *admission key*
(requests with different keys can never mix — they would need different
transformed graphs), and a consumer asking for work gets it at once
whenever any queue is non-empty.  It takes the queue whose head request was
submitted first, up to the batch-size cap (``max_batch_samples``).  Nothing
is held back waiting for more traffic: batches form under load because
requests pile up while the workers are busy, and an idle worker never sits
next to a queued request.  Serving the oldest head first also means no key
can starve another.

Worker threads pull batches with :meth:`next_batch`; entries inside a batch
keep FIFO submission order, which is what makes the result demux
deterministic.  When every request is enqueued before the first
:meth:`next_batch` call (the offline replay mode), the sequence of batches
is a pure function of the submission order — independent of worker count
and timing — which is the service's determinism guarantee.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable

from ..errors import ServeError


@dataclass(frozen=True)
class BatchEntry:
    """One queued request: opaque payload, sample count, submission order."""

    item: object
    samples: int
    seq: int


@dataclass(frozen=True)
class Batch:
    """A micro-batch: compatible entries in FIFO submission order."""

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
    """Hands out the oldest queued work at once, under a size cap.

    Parameters
    ----------
    max_batch_samples:
        Most samples one batch may take from a queue; a single request
        larger than the cap still forms its own (oversized) batch rather
        than being rejected.
    clock:
        Monotonic time source of :meth:`next_batch`'s timeout (injectable
        for tests).
    """

    def __init__(self, *, max_batch_samples: int = 32,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if max_batch_samples <= 0:
            raise ServeError("max_batch_samples must be positive")
        self.max_batch_samples = int(max_batch_samples)
        self._clock = clock
        # Only non-empty queues are kept: a drained queue is deleted.
        self._queues: "dict[Hashable, deque[BatchEntry]]" = {}
        self._seq = itertools.count()
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
                           seq=next(self._seq)))
            self._cond.notify_all()

    def close(self) -> None:
        """Stop accepting requests; queued entries remain consumable.

        After closing, :meth:`next_batch` keeps handing out the remaining
        queues and then returns ``None`` to every caller — the
        worker-shutdown signal.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # -- introspection ---------------------------------------------------

    def pending_requests(self) -> int:
        """Queued requests not yet handed out in a batch."""
        with self._cond:
            return sum(len(q) for q in self._queues.values())

    # -- consumer side ---------------------------------------------------
    def next_batch(self, timeout: float | None = None) -> Batch | None:
        """The oldest queued work; ``None`` on timeout or drained close.

        Returns at once whenever any queue is non-empty and waits only
        while every queue is empty.  With ``timeout=None`` the call waits
        indefinitely (until the batcher is closed and empty).
        """
        give_up = None if timeout is None else self._clock() + timeout
        with self._cond:
            while not self._queues:
                if self._closed:
                    return None
                wait = None
                if give_up is not None:
                    wait = give_up - self._clock()
                    if wait <= 0:
                        return None
                self._cond.wait(wait)
            key = min(self._queues, key=lambda k: self._queues[k][0].seq)
            return self._take_locked(key, self._queues[key])

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
