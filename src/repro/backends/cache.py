"""Process-wide caches amortising per-call setup of the emulation.

The paper's CUDA implementation pays its setup costs (building the 256x256
product table, quantising the filter bank) once per session; an uncached
driver would pay them on *every* convolution call.  Two caches restore the
amortisation:

* :class:`LUTCache` memoises constructed :class:`~repro.lut.table.LookupTable`
  objects keyed by ``(multiplier name, bit width, signedness)`` -- the three
  attributes that determine the table contents for the deterministic
  multiplier models in :mod:`repro.multipliers`;
* :class:`FilterBankCache` memoises the quantised flattened filter matrix and
  the per-filter sums ``Sf`` keyed by the filter tensor's content digest plus
  the quantisation configuration (the table's integer range and the explicit
  filter range) that determines the quantised values.  It is also the one
  place that decides when a bank gets a prebuilt LUT-GEMM operand (a
  ``rowgather`` row table or ``factored`` right-hand sides) and builds it,
  and it keeps the plans of bound (frozen) ``AxConv2D`` nodes, the one
  identity-keyed shortcut: TFApprox's quantise-the-filters-once set-up.

Both caches are thread-safe (one :class:`~repro.backends.InferencePipeline`
serves concurrent calls, e.g. from serve workers) and bounded; eviction is
true LRU (a hit moves the entry to the back of the eviction queue), which
matters for training workloads where the same few layers are exercised every
step while a stream of stale, superseded filter banks passes through.  The
trainer in :mod:`repro.train` additionally drops superseded banks eagerly
through :meth:`FilterBankCache.invalidate` after every weight update.
Module-level default instances are shared by
:func:`repro.backends.emulate_conv2d` and every pipeline that does not bring
its own.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from ..conv import gemm
from ..conv.gemm import FactoredFilters, RowTable, choose_gemm_kernel
from ..errors import ConfigurationError
from ..lut.table import LookupTable
from ..multipliers import library
from ..multipliers.base import Multiplier
from ..quantization.affine import IntegerRange, QuantParams
from ..quantization.ranges import TensorRange


@dataclass
class CacheStats:
    """Hit/miss counters of one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        """Plain copy of the counters (see ``_BoundedCache.stats_snapshot``
        for the lock-consistent way to take one from a live cache)."""
        return CacheStats(self.hits, self.misses, self.evictions,
                          self.invalidations)


class _BoundedCache:
    """Thread-safe LRU cache with a maximum entry count."""

    def __init__(self, max_entries: int) -> None:
        if max_entries <= 0:
            raise ConfigurationError("max_entries must be positive")
        self._max_entries = max_entries
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        # Invalidation tombstones: builds run outside the lock, so an
        # ``invalidate`` can land between a miss and its insert.  While any
        # build is in flight, invalidated tokens are recorded here and the
        # late insert is suppressed -- otherwise a pipeline thread could
        # re-insert a bank the trainer just declared superseded (stale-entry
        # race).  The set is cleared once no builds are in flight, so it
        # never grows beyond the invalidations of one concurrent window.
        self._inflight_builds = 0
        self._tombstones: set = set()
        # clear() epoch: a build that began before a clear() must not
        # repopulate the emptied cache (a cold benchmark phase would see
        # spurious warm hits), and wiping the tombstone set at clear() must
        # not un-suppress an invalidated in-flight build -- the epoch check
        # covers both.
        self._clear_epoch = 0
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def stats_snapshot(self) -> CacheStats:
        """Consistent copy of the hit/miss counters, taken under the lock.

        ``self.stats`` is mutated while the cache lock is held, so readers in
        other threads (the serving telemetry, a DSE search's counts) must not
        read its fields directly -- a read interleaved with an update can see
        a half-applied state (e.g. a build's miss counted but its eviction
        not yet).  This method is the race-free spelling: every counter in
        the returned copy comes from the same locked instant.
        """
        with self._lock:
            return self.stats.snapshot()

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self._tombstones.clear()
            self._clear_epoch += 1
            self.stats = CacheStats()

    def _dropped_locked(self, key) -> None:
        """Called under the lock when ``key``'s entry is evicted or
        invalidated; subclasses drop state derived from it."""

    def _finish_build_locked(self) -> None:
        self._inflight_builds -= 1
        if self._inflight_builds == 0:
            self._tombstones.clear()

    def _get_or_build(self, key, build, *, token=None):
        with self._lock:
            if key in self._entries:
                self.stats.hits += 1
                # True LRU: a hit refreshes the entry's position in the
                # eviction queue, so hot entries (a training loop hitting the
                # same layers every step) survive a stream of one-shot keys.
                self._entries.move_to_end(key)
                return self._entries[key]
            self._inflight_builds += 1
            epoch = self._clear_epoch
        # Build outside the lock: table construction can be expensive and
        # must not serialise unrelated lookups.  A racing duplicate build is
        # harmless (last writer wins; values for equal keys are equal).
        try:
            value = build()
        except BaseException:
            with self._lock:
                self._finish_build_locked()
            raise
        with self._lock:
            # The lookup missed regardless of whether a racing thread
            # inserted the key meanwhile -- this caller paid for a build.
            self.stats.misses += 1
            invalidated = token is not None and token in self._tombstones
            cleared = self._clear_epoch != epoch
            self._finish_build_locked()
            if invalidated:
                # The entry was invalidated while this build was in flight:
                # hand the value to the caller (it is correct for the bytes
                # that were hashed) but do not cache it, and evict any racing
                # duplicate insert of the same superseded key.
                if self._entries.pop(key, None) is not None:
                    self._dropped_locked(key)
                return value
            if cleared:
                # clear() ran mid-build: return the value without inserting,
                # and leave any post-clear re-insert by a newer build alone
                # (equal keys imply equal values).
                return value
            if key not in self._entries:
                self._entries[key] = value
                while len(self._entries) > self._max_entries:
                    evicted, _ = self._entries.popitem(last=False)
                    self._dropped_locked(evicted)
                    self.stats.evictions += 1
            else:
                self._entries.move_to_end(key)
            return self._entries[key]

    def _invalidate_where(self, predicate, *, token=None) -> int:
        """Drop every entry whose key satisfies ``predicate``; returns count.

        ``token`` identifies the invalidated entries to builds currently in
        flight (see ``_get_or_build``), so a build racing this call cannot
        re-insert a just-invalidated entry.
        """
        with self._lock:
            stale = [key for key in self._entries if predicate(key)]
            for key in stale:
                del self._entries[key]
                self._dropped_locked(key)
            self.stats.invalidations += len(stale)
            if token is not None and self._inflight_builds:
                self._tombstones.add(token)
        return len(stale)


class LUTCache(_BoundedCache):
    """Cache of materialised multiplier lookup tables.

    ``resolve`` accepts the three spellings user code refers to a multiplier
    by -- a library name, a :class:`~repro.multipliers.base.Multiplier`
    behavioural model or an already-built
    :class:`~repro.lut.table.LookupTable` -- and returns a table, building it
    at most once per ``(name, bit_width, signed)`` configuration.
    """

    def __init__(self, max_entries: int = 64) -> None:
        super().__init__(max_entries)

    def resolve(self, multiplier: str | Multiplier | LookupTable) -> LookupTable:
        """Return the lookup table for ``multiplier``, building it on a miss."""
        if isinstance(multiplier, LookupTable):
            # Already materialised: nothing to amortise, pass through.
            return multiplier
        if isinstance(multiplier, Multiplier):
            # Key on the instance, not on (name, bit_width, signed): two
            # behavioural models may share all three (e.g. TableMultipliers
            # with different tables) and keying on metadata would silently
            # serve one multiplier's products for the other.  The entry
            # keeps the instance alive, so identity stays unambiguous.
            key = ("instance", id(multiplier))
            _, lut = self._get_or_build(
                key,
                lambda: (multiplier, LookupTable.from_multiplier(multiplier)),
            )
            return lut
        if isinstance(multiplier, str):
            def build() -> LookupTable:
                return LookupTable.from_multiplier(library.create(multiplier))
            return self._get_or_build(("library", multiplier), build)
        raise ConfigurationError(
            "multiplier must be a library name, a Multiplier or a "
            f"LookupTable, got {type(multiplier).__name__}"
        )


def _range_key(value_range: TensorRange | tuple[float, float] | None):
    if value_range is None:
        return None
    if isinstance(value_range, TensorRange):
        return value_range.as_tuple()
    return (float(value_range[0]), float(value_range[1]))


@dataclass(frozen=True)
class PreparedFilterBank:
    """Cached filter-side state: coefficients, flat quantised bank and ``Sf``.

    ``key`` is the :class:`FilterBankCache` key the bank is stored under
    (empty for a bank built outside a cache).
    """

    filter_q: QuantParams
    flat_filters: np.ndarray
    filter_sums: np.ndarray
    key: tuple = field(default=(), compare=False, repr=False)


def is_immutable(array) -> bool:
    """Whether ``array``'s bytes can never change.

    That holds only for a chain of read-only arrays over an immutable
    ``bytes`` object.  A read-only view of a writeable array sees every
    write made through the owner, and an array that owns its memory (base
    ``None``) can be made writeable again with ``setflags``; a chain that
    ends in another buffer (``bytearray``, ``mmap``) does not count either.
    """
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        array = array.base
    return isinstance(array, bytes)


class FilterBankCache(_BoundedCache):
    """Cache of quantised, flattened filter banks keyed by content digest.

    The key combines a SHA-1 digest of the filter tensor's bytes with its
    shape and the full quantisation configuration, so two float banks that
    quantise differently never collide.  Hashing costs one linear pass over
    the bank -- orders of magnitude cheaper than quantise + flatten + sum,
    and it is safe for mutable arrays (unlike keying on ``id``).  Every
    :meth:`resolve` hashes; a caller that holds set-up for arrays that can
    never change keeps it with :meth:`bind` instead.

    This cache is also the one owner of the banks' prebuilt LUT-GEMM
    operands: each (bank, lookup table) slot holds at most one, a
    :class:`~repro.conv.gemm.RowTable` for a ``rowgather`` table or a
    :class:`~repro.conv.gemm.FactoredFilters` for a ``factored`` one
    (:func:`~repro.conv.gemm.choose_gemm_kernel`).  :meth:`prebuilt` gives
    a bank's ``rowgather`` slot its row table on the second short call,
    and :meth:`bind` builds the slot's operand at once.  Together they take
    at most :data:`~repro.conv.gemm.ROW_TABLE_CACHE_BYTES`.  They are
    dropped with their bank -- eviction, :meth:`invalidate`, :meth:`clear`
    -- and evicted least-recently-used over the byte budget.  The plans
    that frozen :class:`~repro.graph.ops.AxConv2D` nodes bind are kept here
    too, and go with the bank or operand they were derived from.
    """

    def __init__(self, max_entries: int = 128) -> None:
        super().__init__(max_entries)
        # (bank key, LookupTable) -> RowTable or FactoredFilters, or None
        # after a first short call; least recently used first.
        self._operands: OrderedDict = OrderedDict()
        self._operand_bytes = 0
        # owner -> (operand slot, plan): set-up kept by :meth:`bind`,
        # dropped with the bank or operand it was derived from.
        self._plans: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @staticmethod
    def content_digest(filters: np.ndarray) -> str:
        """Digest identifying a filter tensor's contents in the cache keys.

        The trainer records this before an optimiser step so it can
        :meth:`invalidate` every bank derived from the superseded weights.
        """
        data = np.ascontiguousarray(filters)
        return hashlib.sha1(data.tobytes()).hexdigest()

    def resolve(self, filters: np.ndarray, *,
                qrange: IntegerRange,
                filter_range: TensorRange | tuple[float, float] | None,
                build) -> PreparedFilterBank:
        """Return the prepared bank for ``filters``, building it on a miss."""
        data = np.ascontiguousarray(filters)
        key = (
            self.content_digest(data), data.shape, str(data.dtype),
            (qrange.qmin, qrange.qmax), _range_key(filter_range),
        )
        return self._get_or_build(
            key, lambda: replace(build(), key=key), token=key[0])

    def prebuilt(self, bank: PreparedFilterBank, lut: LookupTable,
                 rows: int) -> RowTable | FactoredFilters | None:
        """``bank``'s prebuilt operand through ``lut``, if it has one.

        ``rows`` is the patch-row count ``P`` of the call.  A short
        ``rowgather`` call (no exact factors for the depth, ``P <``
        :data:`~repro.conv.gemm.ROW_TABLE_ROWS_PER_LEVEL` ``* 2**n``)
        counts a use of the (bank, table) slot; the second such use builds
        the slot's :class:`~repro.conv.gemm.RowTable`.  Every later call of
        any size gets what the slot holds, a row table or the
        :class:`~repro.conv.gemm.FactoredFilters` that :meth:`bind` built.
        Returns ``None`` on a first use, for ``factored`` slots nothing
        bound, for banks no longer in the cache and for operands larger
        than the whole byte budget.
        """
        slot = (bank.key, lut)
        short = (choose_gemm_kernel(lut, bank.flat_filters.shape[0])
                 == "rowgather"
                 and rows < gemm.ROW_TABLE_ROWS_PER_LEVEL << lut.bit_width)
        with self._lock:
            if self._entries.get(bank.key) is not bank:
                return None
            operand = self._operands.get(slot)
            if slot in self._operands:
                self._operands.move_to_end(slot)
            elif short:
                self._operands[slot] = None
                self._trim_operands_locked()
                return None
            if operand is not None or not short:
                return operand
        return self._build_operand(slot, bank.flat_filters)

    def _build_operand(self, slot, flat_filters: np.ndarray):
        """Build ``slot``'s operand for the bank's ``flat_filters`` and keep
        it while that bank is cached; ``None`` over the byte budget."""
        lut = slot[1]
        depth, count = flat_filters.shape
        kind = (RowTable if choose_gemm_kernel(lut, depth) == "rowgather"
                else FactoredFilters)
        if kind.nbytes_for(depth, count, lut) > gemm.ROW_TABLE_CACHE_BYTES:
            return None
        # Build outside the lock, like a bank.
        operand = kind(flat_filters, lut)
        with self._lock:
            bank = self._entries.get(slot[0])
            if bank is None or bank.flat_filters is not flat_filters:
                return operand
            kept = self._operands.get(slot)
            if kept is not None:
                return kept
            self._operands[slot] = operand
            self._operands.move_to_end(slot)
            self._operand_bytes += operand.nbytes
            self._trim_operands_locked()
        return operand

    @property
    def table_bytes(self) -> int:
        """Bytes held by the cached prebuilt operands."""
        with self._lock:
            return self._operand_bytes

    def _trim_operands_locked(self) -> None:
        """Evict the oldest operand slots over the byte or count bound."""
        while self._operands and (
                self._operand_bytes > gemm.ROW_TABLE_CACHE_BYTES
                or len(self._operands) > self._max_entries):
            slot, operand = self._operands.popitem(last=False)
            if operand is not None:
                self._operand_bytes -= operand.nbytes
            self._unbind_locked(lambda bound: bound == slot)

    def _dropped_locked(self, key) -> None:
        for slot in [slot for slot in self._operands if slot[0] == key]:
            operand = self._operands.pop(slot)
            if operand is not None:
                self._operand_bytes -= operand.nbytes
        self._unbind_locked(lambda bound: bound[0] == key)

    def _unbind_locked(self, predicate) -> None:
        """Drop the plans whose operand slot satisfies ``predicate``."""
        for owner in [owner for owner, (slot, _) in self._plans.items()
                      if predicate(slot)]:
            del self._plans[owner]

    def bind(self, owner, plan):
        """Keep ``plan``, ``owner``'s set-up, and return it with its operand.

        ``plan`` is a dataclass record whose ``prepared`` field is a
        :meth:`~repro.backends.InferencePipeline.prepare` result through
        this cache.  A bound bank is reused by definition, so its slot's
        prebuilt operand is built now, within the byte budget, and the
        returned plan's ``prepared`` holds it.  :meth:`bound` returns that
        plan until the bank or operand leaves the cache (eviction,
        :meth:`invalidate`, :meth:`clear`) or ``owner`` binds another, so a
        plan never keeps alive what the cache has let go.  Nothing is kept
        when the bank is already gone.  The cache holds ``owner`` weakly.
        """
        prepared = plan.prepared
        slot = (prepared.bank_key, prepared.lut)
        operand = prepared.prebuilt or self._build_operand(
            slot, prepared.flat_filters)
        if operand is not None:
            plan = replace(plan, prepared=replace(prepared, prebuilt=operand))
        with self._lock:
            bank = self._entries.get(prepared.bank_key)
            if (bank is None or bank.flat_filters is not prepared.flat_filters
                    or (operand is not None
                        and self._operands.get(slot) is not operand)):
                self._plans.pop(owner, None)
            else:
                self._plans[owner] = (slot, plan)
        return plan

    def bound(self, owner):
        """The plan :meth:`bind` keeps for ``owner``, or ``None``."""
        with self._lock:
            entry = self._plans.get(owner)
        return None if entry is None else entry[1]

    def clear(self) -> None:
        """Drop every bank, prebuilt operand and plan; reset counters."""
        super().clear()
        with self._lock:
            self._operands.clear()
            self._plans.clear()
            self._operand_bytes = 0

    def invalidate(self, digest: str) -> int:
        """Drop every cached bank derived from the tensor with ``digest``.

        Called by :class:`repro.train.Trainer` after a weight update: the
        superseded banks can never be requested again (their content digest
        no longer matches any live tensor), so dropping them eagerly keeps
        the cache from filling up with dead entries and guarantees a stale
        quantised bank is never served for recycled storage.  The banks'
        prebuilt operands and plans go too.  Returns the number of banks
        removed.
        """
        return self._invalidate_where(
            lambda key: key[0] == digest, token=digest)


#: Default process-wide caches shared by :func:`repro.backends.emulate_conv2d`
#: and every :class:`~repro.backends.InferencePipeline` constructed without
#: explicit cache instances.
DEFAULT_LUT_CACHE = LUTCache()
DEFAULT_FILTER_CACHE = FilterBankCache()


def clear_caches() -> None:
    """Empty the default LUT and filter-bank caches (used by tests/benchmarks)."""
    DEFAULT_LUT_CACHE.clear()
    DEFAULT_FILTER_CACHE.clear()


def cache_stats() -> dict[str, CacheStats]:
    """Snapshot the default caches' hit/miss counters (lock-consistent)."""
    return {
        "lut": DEFAULT_LUT_CACHE.stats_snapshot(),
        "filters": DEFAULT_FILTER_CACHE.stats_snapshot(),
    }
