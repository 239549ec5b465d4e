"""Discrete-event simulation engine.

The engine is a classic calendar queue built on :mod:`heapq`.  Every heap
entry is a plain list ``[time, sequence, callback, args]`` so that heap sift
operations compare ``(time, sequence)`` at C speed instead of calling back
into Python; the sequence number breaks ties so that events scheduled for
the same instant run in FIFO order and the simulation stays deterministic.

Two scheduling APIs are offered:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return an
  :class:`Event` handle that supports cancellation (retransmission timers).
  Cancelled entries are drained by the run loop into a reusable-entry free
  list that feeds subsequent ``schedule`` calls, so a timer that is re-armed
  on every ACK recycles one heap entry instead of allocating a new one.
* :meth:`Simulator.schedule_fast` / :meth:`Simulator.schedule_fast_at` are
  the allocation-light fast path for fire-and-forget callbacks (per-packet
  link events): no cancellation handle is created at all.

Typical use::

    sim = Simulator()
    sim.schedule(1.0, print, "one second elapsed")
    sim.run(until=10.0)
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from typing import Any, Callable, Optional

from ..errors import SimulationError

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Upper bound on the reusable-entry free list; the pool deque self-evicts
#: its oldest entry beyond this, so recycle sites never pay a length check.
_POOL_LIMIT = 4096

# NOTE: the heap entry layout [time, seq, callback, args] is mirrored by the
# inlined fast-path pushes in netsim/link.py (send/_serve_queue); keep the
# two in sync when changing it.


def _bad_time(value: float, now: Optional[float]) -> str:
    """Why a ``schedule*`` call refused ``value`` (a delay when ``now`` is None).

    A NaN would sit in the heap comparing false against everything, so
    events around it fire out of time order; ``inf`` is legal and parks the
    event.  The compiled kernel raises the same messages.
    """
    if value != value:
        return f"cannot schedule an event at a NaN time (got {value})"
    if now is None:
        return f"cannot schedule an event {value} seconds in the past"
    return f"cannot schedule an event at t={value} before the current time t={now}"


class Event:
    """A cancellation handle for a scheduled callback.

    Events are returned by :meth:`Simulator.schedule` so callers can cancel
    them later (e.g. a retransmission timer that is re-armed on every ACK).
    Cancellation is lazy: the underlying heap entry stays in the heap but is
    skipped (and recycled) when it reaches the head.
    """

    __slots__ = ("_entry", "_seq", "_cancelled")

    def __init__(self, entry: list):
        self._entry = entry
        self._seq = entry[1]
        self._cancelled = False

    @property
    def time(self) -> float:
        return self._entry[0] if self._entry[1] == self._seq else 0.0

    @property
    def seq(self) -> int:
        return self._seq

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Mark the event as cancelled; it will not run."""
        self._cancelled = True
        entry = self._entry
        # The entry may have been recycled for a different event after this
        # one fired; the sequence number acts as a generation check.
        if entry[1] == self._seq:
            entry[2] = None
            entry[3] = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self._cancelled else "pending"
        return f"Event(t={self._entry[0]:.6f}, {self._entry[2]!r}, {state})"


class Simulator:
    """Deterministic discrete-event simulator.

    Attributes
    ----------
    now:
        Current simulation time in seconds.
    events_processed:
        Number of callbacks executed by completed :meth:`run` calls (useful
        for micro-benchmarks).  The counter is accumulated locally inside the
        run loop and flushed when :meth:`run` returns, so a callback reading
        it *during* a run sees the value from before that run started.
    """

    __slots__ = ("now", "events_processed", "_heap", "_seq", "_pool", "_running", "_stopped")

    def __init__(self) -> None:
        self.now: float = 0.0
        self.events_processed: int = 0
        self._heap: list[list] = []
        self._seq: int = 0
        self._pool: deque = deque(maxlen=_POOL_LIMIT)
        self._running: bool = False
        self._stopped: bool = False

    # ------------------------------------------------------------------ API
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # negative, or NaN (which no ordering test catches)
            raise SimulationError(_bad_time(delay, None))
        pool = self._pool
        if pool:
            entry = pool.pop()
            entry[0] = self.now + delay
            entry[1] = self._seq
            entry[2] = callback
            entry[3] = args
        else:
            entry = [self.now + delay, self._seq, callback, args]
        self._seq += 1
        _heappush(self._heap, entry)
        return Event(entry)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run at absolute simulation ``time``."""
        if not time >= self.now:  # in the past, or NaN
            raise SimulationError(_bad_time(time, self.now))
        pool = self._pool
        if pool:
            entry = pool.pop()
            entry[0] = time
            entry[1] = self._seq
            entry[2] = callback
            entry[3] = args
        else:
            entry = [time, self._seq, callback, args]
        self._seq += 1
        _heappush(self._heap, entry)
        return Event(entry)

    def schedule_fast(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget fast path: no :class:`Event` handle is created.

        Use for callbacks that are never cancelled (per-packet link events).
        """
        if not delay >= 0:  # negative, or NaN (which no ordering test catches)
            raise SimulationError(_bad_time(delay, None))
        pool = self._pool
        if pool:
            entry = pool.pop()
            entry[0] = self.now + delay
            entry[1] = self._seq
            entry[2] = callback
            entry[3] = args
        else:
            entry = [self.now + delay, self._seq, callback, args]
        self._seq += 1
        _heappush(self._heap, entry)

    def schedule_fast_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Absolute-time variant of :meth:`schedule_fast`."""
        if not time >= self.now:  # in the past, or NaN
            raise SimulationError(_bad_time(time, self.now))
        pool = self._pool
        if pool:
            entry = pool.pop()
            entry[0] = time
            entry[1] = self._seq
            entry[2] = callback
            entry[3] = args
        else:
            entry = [time, self._seq, callback, args]
        self._seq += 1
        _heappush(self._heap, entry)

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel ``event`` if it is not ``None`` and has not yet fired."""
        if event is not None:
            event.cancel()

    def stop(self) -> None:
        """Stop the run loop after the current event finishes."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        """Number of events still in the heap (including cancelled ones)."""
        return len(self._heap)

    @property
    def free_list_size(self) -> int:
        """Number of recycled heap entries currently pooled."""
        return len(self._pool)

    # ------------------------------------------------------------------ run
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the next event would be later than this time.  The clock
            is advanced to ``until`` when the loop drains or stops early.
        max_events:
            Optional safety valve on the number of events to process.

        Returns
        -------
        float
            The simulation time when the loop stopped.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._stopped = False
        # Cyclic GC is paused for the duration of the loop: the entry and
        # packet pools keep the per-event allocation rate near zero, but the
        # surviving pools/heap form a large object graph that generation-0
        # collections would otherwise rescan thousands of times per simulated
        # second.  The simulation allocates no reference cycles, so deferring
        # collection until the run returns is safe; the previous GC state is
        # always restored.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        # Hoisted locals: the loop body must not touch ``self`` beyond the
        # clock store and the stop-flag check it cannot avoid.
        heap = self._heap
        pool = self._pool
        heappop = _heappop
        processed = 0
        try:
            if until is None and max_events is None:
                # Batched fast loop: no bound checks; the stop flag can only
                # flip inside a callback, so it is tested after the call.
                # Unlike the until-bounded loop below, fired entries are NOT
                # recycled here: with the collector paused, a fresh 4-element
                # list costs less than the reuse dance, and this loop is the
                # schedule_fast micro-benchmark path.
                while heap:
                    entry = heappop(heap)
                    callback = entry[2]
                    if callback is None:
                        # Cancelled: drain into the free list, no re-heapify.
                        pool.append(entry)
                        continue
                    self.now = entry[0]
                    callback(*entry[3])
                    processed += 1
                    if self._stopped:
                        break
            elif max_events is None:
                # Until-bounded loop (Network.run): the horizon is a local
                # float, no other bound checks.  Pop-first beats peek-then-pop
                # -- the horizon is crossed once per run, so the single
                # push-back is cheaper than indexing heap[0] on every event.
                while heap:
                    entry = heappop(heap)
                    callback = entry[2]
                    if callback is None:  # cancelled: drain without running
                        pool.append(entry)
                        continue
                    time = entry[0]
                    if time > until:
                        _heappush(heap, entry)
                        break
                    self.now = time
                    callback(*entry[3])
                    processed += 1
                    # Fired entries are recycled exactly like cancelled ones
                    # (stale Event handles are generation-checked by their
                    # sequence number); the per-packet link pushes feed off
                    # this free list, so network runs allocate no entries in
                    # steady state.
                    pool.append(entry)
                    if self._stopped:
                        break
            else:
                while heap:
                    entry = heap[0]
                    if entry[2] is None:  # cancelled: drain without running
                        heappop(heap)
                        pool.append(entry)
                        continue
                    if until is not None and entry[0] > until:
                        break
                    heappop(heap)
                    self.now = entry[0]
                    entry[2](*entry[3])
                    processed += 1
                    pool.append(entry)
                    if self._stopped:
                        break
                    if processed >= max_events:
                        break
        finally:
            self._running = False
            self.events_processed += processed
            if gc_was_enabled:
                gc.enable()
        if until is not None and not self._stopped and self.now < until:
            self.now = until
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulator(now={self.now:.6f}, pending={self.pending_events})"


def make_simulator() -> "Simulator":
    """Simulator honouring the active kernel selection.

    Returns the compiled drop-in event loop (``KernelSim``) when the
    compiled kernel is active and the pure-Python :class:`Simulator`
    otherwise.  Both expose the same API and identical semantics; use this
    instead of ``Simulator()`` wherever the caller has no reason to pin the
    Python implementation.
    """
    from ..kernel import compiled_module  # lazy: kernel builds on first use

    ext = compiled_module()
    if ext is not None:
        return ext.KernelSim()
    return Simulator()
