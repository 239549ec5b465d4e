"""Discrete-event simulation engine.

The engine is a classic calendar queue built on :mod:`heapq`.  Every heap
entry is a plain list ``[time, sequence, callback, args]`` so that heap sift
operations compare ``(time, sequence)`` at C speed instead of calling back
into Python; the sequence number breaks ties so that events scheduled for
the same instant run in FIFO order and the simulation stays deterministic.

Two scheduling APIs are offered:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return an
  :class:`Event` handle that supports cancellation (retransmission timers).
  Cancellation is lazy: the run loop drops a cancelled entry when it
  reaches the head of the heap.
* :meth:`Simulator.schedule_fast` / :meth:`Simulator.schedule_fast_at` are
  for fire-and-forget callbacks (per-packet link events): no cancellation
  handle is created.

Typical use::

    sim = Simulator()
    sim.schedule(1.0, print, "one second elapsed")
    sim.run(until=10.0)
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable, Optional

from ..errors import SimulationError

_INF = float("inf")

#: The callback slot of an entry that fired or that
#: :meth:`Simulator._clear_pending` dropped: not ``None``, so the event reads as
#: ended rather than cancelled, as a ``KernelSim`` handle does, and holds
#: nothing of the graph.
_DROPPED = object()


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
    Cancellation is lazy: the underlying heap entry stays in the heap with
    its callback cleared and is skipped when it reaches the head.
    """

    __slots__ = ("_entry",)

    def __init__(self, entry: list):
        self._entry = entry

    @property
    def time(self) -> float:
        return self._entry[0]

    @property
    def seq(self) -> int:
        return self._entry[1]

    @property
    def cancelled(self) -> bool:
        return self._entry[2] is None

    def cancel(self) -> None:
        """Mark the event as cancelled; it will not run."""
        entry = self._entry
        entry[2] = None
        entry[3] = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
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

    __slots__ = ("now", "events_processed", "_heap", "_seq", "_running", "_stopped")

    def __init__(self) -> None:
        self.now: float = 0.0
        self.events_processed: int = 0
        self._heap: list[list] = []
        self._seq: int = 0
        self._running: bool = False
        self._stopped: bool = False

    # ------------------------------------------------------------------ API
    def _push(self, time: float, callback: Callable[..., Any], args: tuple) -> list:
        """Push ``[time, seq, callback, args]``, consuming one sequence number."""
        entry = [time, self._seq, callback, args]
        self._seq += 1
        heapq.heappush(self._heap, entry)
        return entry

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # negative, or NaN (which no ordering test catches)
            raise SimulationError(_bad_time(delay, None))
        return Event(self._push(self.now + delay, callback, args))

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run at absolute simulation ``time``."""
        if not time >= self.now:  # in the past, or NaN
            raise SimulationError(_bad_time(time, self.now))
        return Event(self._push(time, callback, args))

    def schedule_fast(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Like :meth:`schedule`, without the :class:`Event` handle.

        Use for callbacks that are never cancelled (per-packet link events).
        """
        if not delay >= 0:  # negative, or NaN (which no ordering test catches)
            raise SimulationError(_bad_time(delay, None))
        self._push(self.now + delay, callback, args)

    def schedule_fast_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Absolute-time variant of :meth:`schedule_fast`."""
        if not time >= self.now:  # in the past, or NaN
            raise SimulationError(_bad_time(time, self.now))
        self._push(time, callback, args)

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

    def _clear_pending(self) -> None:
        """Drop every pending event: :meth:`~repro.netsim.network.Network.close`.

        Each entry also loses its callback and arguments, because an
        :class:`Event` handle an agent still holds (``TcpSender._rto_event``)
        keeps its entry alive after the heap lets go of it.  A dropped
        handle reads as ``KernelSim._clear_pending`` leaves one: its
        ``time``, and ``cancelled`` only if it was cancelled before.
        """
        for entry in self._heap:
            if entry[2] is not None:
                entry[2] = _DROPPED
            entry[3] = ()
        self._heap.clear()

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
        # Cyclic GC is paused for the duration of the loop: a run allocates
        # a heap entry per event and a packet per segment, and generation-0
        # collections would otherwise rescan the large live graph (heap,
        # links, agents) thousands of times per simulated second.  That graph
        # is cyclic -- pending entries hold bound methods of links and agents,
        # which hold the simulator.  The packet front doors (run_experiment,
        # run_multiflow, run_workload) close it with Network.close once their
        # result is built, so reference counting frees it when they return;
        # a network nobody closes is still left to the collector.  The
        # previous GC state is always restored.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        horizon = _INF if until is None else until
        heap = self._heap
        processed = 0
        try:
            while heap:
                entry = heap[0]
                callback = entry[2]
                if callback is None:  # cancelled: drop without running
                    heapq.heappop(heap)
                    continue
                if entry[0] > horizon:
                    break
                heapq.heappop(heap)
                self.now = entry[0]
                args = entry[3]
                # A fired handle keeps its time and reads as not cancelled, as
                # on ``KernelSim``, but no longer holds the callback's owner.
                entry[2] = _DROPPED
                entry[3] = ()
                callback(*args)
                processed += 1
                if self._stopped:
                    break
                if max_events is not None and processed >= max_events:
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
