"""Refcounted snapshot generations behind one long-lived engine.

The daemon serves every request through the *same* :class:`~repro.XRefine`
across snapshot reloads; what changes underneath is the
:class:`~repro.index.builder.DocumentIndex` generation.  This module
owns that lifetime:

* a :class:`SnapshotHandle` wraps one loaded generation with a
  reference count — every request acquires the current handle for the
  duration of its evaluation, and a swapped-out generation's resources
  (the frozen snapshot's mmap) are released only when the **last**
  such reader exits, never while a request may still be decoding
  posting lists out of the mapped file;
* a :class:`SnapshotManager` owns the engine plus the current handle
  and implements the two halves of a hot swap — :meth:`~SnapshotManager.load`
  (slow, runs on a background thread while serving continues) and
  :meth:`~SnapshotManager.flip` (fast, runs on the query thread so it
  is serialized behind every in-flight evaluation — the drain — and
  calls :meth:`repro.XRefine.swap_index` for the atomic pointer flip).
"""

from __future__ import annotations

import threading
import time

from ..core.engine import XRefine
from ..index.persist import open_index_source
from ..perf.result_cache import DEFAULT_CAPACITY


class SnapshotHandle:
    """One loaded index generation with a reader refcount.

    The manager holds one owning reference (dropped by :meth:`retire`
    when the generation is swapped out); every request holds one for
    the duration of its evaluation (:meth:`acquire` / :meth:`release`).
    When the count reaches zero the generation's frozen mmap is
    closed.  All transitions are lock-protected and idempotent.
    """

    __slots__ = ("index", "source", "generation", "_refs", "_lock",
                 "_disposed")

    def __init__(self, index, source, generation):
        self.index = index
        self.source = source
        self.generation = generation
        self._refs = 1  # the manager's owning reference
        self._lock = threading.Lock()
        self._disposed = False

    @property
    def refs(self):
        return self._refs

    @property
    def disposed(self):
        return self._disposed

    def acquire(self):
        """Register a reader; returns ``self`` for chaining."""
        with self._lock:
            if self._disposed:
                raise RuntimeError(
                    f"snapshot generation {self.generation} is disposed"
                )
            self._refs += 1
        return self

    def release(self):
        """Drop a reader reference; disposes on the last one."""
        self._drop()

    def retire(self):
        """Drop the manager's owning reference (the swap-out)."""
        self._drop()

    def _drop(self):
        with self._lock:
            if self._disposed:
                return
            self._refs -= 1
            if self._refs > 0:
                return
            self._disposed = True
        snapshot = getattr(self.index, "frozen_snapshot", None)
        if snapshot is not None:
            snapshot.close()

    def __repr__(self):
        state = "disposed" if self._disposed else f"refs={self._refs}"
        return (
            f"SnapshotHandle(gen={self.generation}, "
            f"{self.source!r}, {state})"
        )


class SnapshotManager:
    """The engine plus its current (and draining) snapshot generations."""

    def __init__(self, source, model=None, cache_size=DEFAULT_CAPACITY,
                 subresult_size=None):
        index = open_index_source(source)
        self.engine = XRefine(
            index, model=model, cache_size=cache_size,
            subresult_size=subresult_size,
        )
        self._lock = threading.Lock()
        self._current = SnapshotHandle(index, source, generation=0)
        #: Completed swaps (monitoring).
        self.swaps = 0

    # ------------------------------------------------------------------
    @property
    def generation(self):
        return self._current.generation

    @property
    def current_source(self):
        return self._current.source

    def current(self):
        """Acquire the serving generation for one request's lifetime."""
        with self._lock:
            return self._current.acquire()

    # ------------------------------------------------------------------
    # Hot swap
    # ------------------------------------------------------------------
    def load(self, source, pause_seconds=None):
        """Load a new generation from disk (slow half; any thread).

        Raises :class:`~repro.errors.IndexingError` on a missing or
        corrupt snapshot — in which case nothing has changed and the
        old generation keeps serving.

        ``pause_seconds`` makes the load cooperative: the CPU-bound
        tree decode sleeps that long between chunks, yielding the
        interpreter to the query thread so a reload on a busy host
        does not inflate serving tail latency.
        """
        pause = None
        if pause_seconds:
            pause = lambda: time.sleep(pause_seconds)  # noqa: E731
        return open_index_source(source, pause=pause)

    def prepare(self, new_index, queries=(), seed=None):
        """Pre-warm the pending generation for hot queries (slow half).

        The second slow half of a reload (any thread, like
        :meth:`load`): the first post-flip evaluation of a query pays
        the new generation's cold costs — rule mining against the
        fresh vocabulary, posting-list decode, search-for inference —
        so the daemon builds that state for its recently served query
        signatures here, off the serving path, in ``new_index.derived``
        (:meth:`repro.XRefine.prepare_swap`), which :meth:`flip` then
        serves from.  Call it again to warm more queries.  ``seed`` is
        an earlier generation's miner, adopted when its vocabulary
        matches (cycling back to a recently served snapshot).  Returns
        how many queries were warmed.
        """
        return self.engine.prepare_swap(new_index, queries, seed=seed)

    def flip(self, new_index, source, prewarmed=0):
        """Swap the engine onto ``new_index`` (fast half; query thread).

        Must run where no evaluation can be concurrently executing —
        the daemon queues it on its one query thread, which runs it
        after every evaluation queued before it (that *is* the
        drain).  The old generation is retired; its mmap closes when
        the last already-admitted reader releases it.  ``prewarmed``
        is the sum of :meth:`prepare`'s counts, reported back.
        """
        with self._lock:
            old = self._current
            self.engine.swap_index(new_index)
            self._current = SnapshotHandle(
                new_index, source, old.generation + 1
            )
            self.swaps += 1
        old.retire()
        return {
            "generation": self._current.generation,
            "source": source,
            "index_version": getattr(new_index, "version", 0),
            "prewarmed": prewarmed,
        }

    def close(self):
        """Release the current generation."""
        with self._lock:
            self._current.retire()

    def __repr__(self):
        return (
            f"SnapshotManager(gen={self._current.generation}, "
            f"{self._current.source!r}, swaps={self.swaps})"
        )
