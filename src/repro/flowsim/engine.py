"""The flow-level event loop: advance between rate changes, never per packet.

:class:`FlowLevelSim` models each flow as a fluid transfer over one or more
:class:`~repro.netsim.topology.Topology` paths.  Flows with the same route,
weight and cap are aggregated into *rate classes*; the allocator
(:mod:`repro.flowsim.allocator`) assigns every class a per-flow rate, and the
engine only wakes up when those rates can change:

* a flow **arrives** (scheduled up front),
* a flow **completes** (earliest predicted finish given the current rates),
* a greedy flow **departs** (its stop time), or
* a **network dynamics** event fires (link rate change / down / up / loss
  burst translated to a capacity scale).

Completion tracking uses the classic processor-sharing *virtual service*
trick: every class accumulates cumulative per-flow service ``S(t)`` (bytes);
a flow of size ``s`` joining at service level ``S0`` finishes exactly when
``S`` reaches ``S0 + s``.  Within a class all flows share one rate, so the
next finisher is simply the smallest target in a per-class heap -- one heap
operation per completion, never a re-sort.  The allocation itself is
memoised on (capacity version, per-class populations): in birth-death churn
the same population vector recurs constantly, so most events skip the solver
entirely.

Multi-path flows (an MPTCP connection at flow-level fidelity) place one unit
per path; coupled connections give each unit weight ``1/n_paths`` so the
whole connection claims a single fair share on a shared bottleneck.  Sized
multi-path flows are tracked explicitly (their finish depends on the sum of
several class rates), which stays cheap while such flows are few.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError
from ..measure.sampling import TimeSeries
from ..netsim.topology import Topology
from .allocator import ClassDemand, RateAllocator, make_allocator

#: Mbps -> bytes per second.
MBPS_TO_BYTES_PER_S = 1e6 / 8.0

_INF = math.inf


@dataclass(frozen=True)
class FlowDescriptor:
    """One flow offered to the flow-level engine.

    Parameters
    ----------
    name:
        Unique flow name (results are keyed by it).
    routes:
        One node path per unit; multi-route flows model MPTCP connections.
    start:
        Arrival time (flows arriving after the run's end never start).
    size_bytes:
        Transfer size; ``None`` makes the flow greedy (it stays until
        ``stop`` or the end of the run).
    stop:
        Departure time for greedy flows (ignored for sized flows).
    cap_mbps:
        Per-unit rate cap (CBR sources, application-limited flows).
    coupled:
        Weight each unit ``1/len(routes)`` (coupled MPTCP) instead of 1.
    responsive:
        False for constant-bit-rate traffic that does not back off; such
        flows are allocated before the fair sharing of the remainder.
    tags:
        Optional per-route tag carried through to results (path tagging).
    kind:
        Free-form label carried through to results.
    """

    name: str
    routes: Tuple[Tuple[str, ...], ...]
    start: float = 0.0
    size_bytes: Optional[int] = None
    stop: Optional[float] = None
    cap_mbps: Optional[float] = None
    coupled: bool = False
    responsive: bool = True
    tags: Optional[Tuple[int, ...]] = None
    kind: str = "flow"

    def __post_init__(self) -> None:
        if not self.routes:
            raise ConfigurationError(f"flow {self.name!r} needs at least one route")
        if self.size_bytes is not None and self.size_bytes <= 0:
            raise ConfigurationError(f"flow {self.name!r} size must be positive")
        if self.start < 0:
            raise ConfigurationError(f"flow {self.name!r} cannot start at t={self.start}")


@dataclass
class FlowCompletion:
    """One finished transfer."""

    name: str
    start: float
    finish: float
    size_bytes: int
    kind: str = "flow"

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass
class FlowOutcome:
    """Final per-flow accounting (completed or still active at the end)."""

    name: str
    kind: str
    start: float
    end: float
    bytes_delivered: int
    completed: bool
    #: Per-unit piecewise-constant rate segments ``(t0, t1, mbps)``; only
    #: populated when the engine records time series.
    segments: List[List[Tuple[float, float, float]]] = field(default_factory=list)
    tags: Tuple[int, ...] = ()

    def unit_series(
        self, unit: int, interval: float, *, start: float, end: float, label: str = ""
    ) -> TimeSeries:
        return segments_to_timeseries(
            self.segments[unit], interval, start=start, end=end, label=label
        )

    def series(
        self, interval: float, *, start: float, end: float, label: str = ""
    ) -> TimeSeries:
        merged = [segment for unit in self.segments for segment in unit]
        return segments_to_timeseries(merged, interval, start=start, end=end, label=label)


@dataclass
class FlowLevelResult:
    """Everything a flow-level run produces."""

    duration: float
    transitions: int
    completions: List[FlowCompletion]
    flows: Dict[str, FlowOutcome]
    max_concurrent: int

    def completion_times(self) -> List[float]:
        return [c.duration for c in self.completions]

    def summary(self) -> dict:
        durations = sorted(self.completion_times())

        def _pct(p: float) -> Optional[float]:
            if not durations:
                return None
            return durations[min(int(p * len(durations)), len(durations) - 1)]

        return {
            "duration_s": self.duration,
            "transitions": self.transitions,
            "flows": len(self.flows),
            "completed": len(self.completions),
            "max_concurrent": self.max_concurrent,
            "fct_p50_s": _pct(0.50),
            "fct_p90_s": _pct(0.90),
            "fct_p99_s": _pct(0.99),
        }


def segments_to_timeseries(
    segments: Sequence[Tuple[float, float, float]],
    interval: float,
    *,
    start: float = 0.0,
    end: float,
    label: str = "",
) -> TimeSeries:
    """Bin piecewise-constant rate segments the way the capture binning does.

    Each segment contributes ``rate * overlap`` worth of traffic to every
    sampling bin it overlaps; bin values are mean Mbps over the bin, and bin
    timestamps are interval *ends* -- the exact convention of
    :func:`repro.measure.sampling.throughput_timeseries`.
    """
    if interval <= 0:
        raise ConfigurationError("sampling interval must be positive")
    bins = int(round((end - start) / interval))
    if bins <= 0:
        return TimeSeries(label=label, interval=interval)
    values = [0.0] * bins
    for seg_start, seg_end, rate_mbps in segments:
        if rate_mbps <= 0.0 or seg_end <= seg_start:
            continue
        lo = max(seg_start, start)
        hi = min(seg_end, end)
        if hi <= lo:
            continue
        first = max(int((lo - start) / interval), 0)
        last = min(int(math.ceil((hi - start) / interval)), bins)
        for index in range(first, last):
            bin_lo = start + index * interval
            bin_hi = bin_lo + interval
            overlap = min(hi, bin_hi) - max(lo, bin_lo)
            if overlap > 0:
                values[index] += rate_mbps * overlap / interval
    times = [start + (index + 1) * interval for index in range(bins)]
    return TimeSeries(times=times, values=values, label=label, interval=interval)


class _RateClass:
    """All flows sharing one (route, weight, cap, responsiveness) tuple."""

    __slots__ = (
        "links",
        "weight",
        "cap",
        "responsive",
        "count",
        "rate",
        "byte_rate",
        "service",
        "heap",
        "members",
    )

    def __init__(
        self,
        links: Tuple[int, ...],
        weight: float,
        cap: Optional[float],
        responsive: bool,
    ) -> None:
        self.links = links
        self.weight = weight
        self.cap = cap
        self.responsive = responsive
        self.count = 0
        self.rate = 0.0  # per-flow Mbps
        self.byte_rate = 0.0  # per-flow bytes/s
        self.service = 0.0  # cumulative per-flow service, bytes
        self.heap: List[Tuple[float, int, "_Flow"]] = []
        self.members: List["_Unit"] = []


class _Unit:
    """One flow's presence in one rate class."""

    __slots__ = ("cls", "join_service", "segments", "segment_start", "segment_rate")

    def __init__(self, cls: _RateClass, now: float) -> None:
        self.cls = cls
        self.join_service = cls.service
        self.segments: List[Tuple[float, float, float]] = []
        self.segment_start = now
        self.segment_rate = cls.rate

    def delivered(self) -> float:
        return self.cls.service - self.join_service

    def flush_segment(self, now: float) -> None:
        if now > self.segment_start and self.segment_rate > 0.0:
            self.segments.append((self.segment_start, now, self.segment_rate))
        self.segment_start = now
        self.segment_rate = self.cls.rate


class _Flow:
    __slots__ = ("descriptor", "units", "active", "end", "delivered_final", "completed")

    def __init__(self, descriptor: FlowDescriptor) -> None:
        self.descriptor = descriptor
        self.units: List[_Unit] = []
        self.active = False
        self.end = descriptor.start
        self.delivered_final = 0
        self.completed = False

    def delivered(self) -> float:
        if not self.active:
            return float(self.delivered_final)
        return sum(unit.delivered() for unit in self.units)


# Event actions, ordered: simultaneous departures fire before arrivals so a
# stop-and-restart (on-off bursts) at the same instant stays consistent.
_DEPART, _ARRIVE, _DYNAMICS = 0, 1, 2


class FlowLevelSim:
    """Flow-level simulator over one topology.

    Parameters
    ----------
    topology:
        Link capacities (Mbps) come from here; delays are irrelevant at this
        fidelity.
    allocator:
        An allocator name from :data:`repro.flowsim.allocator.ALLOCATORS`
        or a ready instance.
    record_timeseries:
        Keep per-flow piecewise-rate segments for throughput time series.
        Costs O(flows touched) per rate change -- leave off for 10k-flow
        runs, on for validation-scale scenarios.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        allocator: Union[str, RateAllocator] = "maxmin",
        record_timeseries: bool = False,
    ) -> None:
        self.topology = topology
        self.allocator = make_allocator(allocator)
        self.record_timeseries = record_timeseries

        self._link_index: Dict[Tuple[str, str], int] = {}
        self._nominal: List[float] = []
        self._factor: List[float] = []
        self._down: List[bool] = []
        self._capacity: List[float] = []
        for spec in topology.links:
            self._link_index[(spec.src, spec.dst)] = len(self._nominal)
            self._nominal.append(float(spec.capacity_mbps))
            self._factor.append(1.0)
            self._down.append(False)
            self._capacity.append(float(spec.capacity_mbps))

        self._classes: List[_RateClass] = []
        self._class_by_key: Dict[Tuple, _RateClass] = {}
        self._route_cache: Dict[Tuple[str, ...], Tuple[int, ...]] = {}
        self._compound: List[_Flow] = []  # sized flows spanning several classes
        self._events: List[Tuple[float, int, int, object]] = []
        self._seq = 0
        self._capacity_version = 0
        self._allocation_cache: Dict[Tuple, Tuple[float, ...]] = {}
        self._dirty = True

        self.now = 0.0
        self.transitions = 0
        self.completions: List[FlowCompletion] = []
        self.flows: Dict[str, _Flow] = {}
        self._active_count = 0
        self.max_concurrent = 0
        self._running = False
        #: flow name -> one-shot callback fired when that flow completes.
        self._on_complete: Dict[str, object] = {}

    # ------------------------------------------------------------------ input
    def add_flow(self, descriptor: FlowDescriptor) -> None:
        """Register one flow; its arrival is scheduled at ``descriptor.start``.

        May also be called *mid-run* from a dynamics or completion callback
        (dependent transfers in a workload), as long as the flow does not
        start in the past.
        """
        if descriptor.name in self.flows:
            raise ConfigurationError(f"duplicate flow name {descriptor.name!r}")
        if self._running and descriptor.start < self.now:
            raise ConfigurationError(
                f"flow {descriptor.name!r} cannot start at t={descriptor.start} "
                f"(simulation is already at t={self.now})"
            )
        flow = _Flow(descriptor)
        self.flows[descriptor.name] = flow
        self._push_event(descriptor.start, _ARRIVE, flow)
        if descriptor.size_bytes is None and descriptor.stop is not None:
            self._push_event(descriptor.stop, _DEPART, flow)

    def add_flows(self, descriptors: Sequence[FlowDescriptor]) -> None:
        for descriptor in descriptors:
            self.add_flow(descriptor)

    def schedule(self, time: float, action, *args, **kwargs) -> None:
        """Schedule a dynamics callback ``action(*args, **kwargs)`` at ``time``."""
        self._push_event(time, _DYNAMICS, (functools.partial(action, **kwargs), args))

    def on_flow_complete(self, name: str, callback) -> None:
        """Register a one-shot ``callback(completion)`` for flow ``name``.

        Fired synchronously when the flow completes; the callback may add
        new flows (:meth:`add_flow`) or schedule further work -- this is how
        the workload layer realises dependency edges (a transfer that starts
        only after its parent finishes).  Flows that never complete never
        fire their callback.
        """
        if name not in self.flows:
            raise ConfigurationError(f"unknown flow {name!r}")
        self._on_complete[name] = callback

    # ------------------------------------------------------------- link state
    def _edge(self, a: str, b: str) -> int:
        try:
            return self._link_index[(a, b)]
        except KeyError:
            raise ConfigurationError(f"unknown link {a!r}->{b!r}") from None

    def _refresh_capacity(self, index: int) -> None:
        self._capacity[index] = (
            0.0 if self._down[index] else self._nominal[index] * self._factor[index]
        )
        self._capacity_version += 1
        self._dirty = True

    def set_link_rate(self, a: str, b: str, mbps: float, *, bidirectional: bool = False) -> None:
        for edge in ((a, b), (b, a)) if bidirectional else ((a, b),):
            index = self._edge(*edge)
            self._nominal[index] = float(mbps)
            self._refresh_capacity(index)

    def set_link_down(self, a: str, b: str, *, bidirectional: bool = True) -> None:
        for edge in ((a, b), (b, a)) if bidirectional else ((a, b),):
            index = self._edge(*edge)
            self._down[index] = True
            self._refresh_capacity(index)

    def set_link_up(self, a: str, b: str, *, bidirectional: bool = True) -> None:
        for edge in ((a, b), (b, a)) if bidirectional else ((a, b),):
            index = self._edge(*edge)
            self._down[index] = False
            self._refresh_capacity(index)

    def scale_link(self, a: str, b: str, factor: float, *, bidirectional: bool = False) -> None:
        """Scale effective capacity (a fluid loss burst keeps ``1 - loss_rate``)."""
        for edge in ((a, b), (b, a)) if bidirectional else ((a, b),):
            index = self._edge(*edge)
            self._factor[index] = max(float(factor), 0.0)
            self._refresh_capacity(index)

    # ------------------------------------------------------------------- run
    def run(self, duration: float) -> FlowLevelResult:
        """Advance the simulation to ``duration`` and return the results."""
        if not 0 < duration < _INF:  # NaN too
            raise ConfigurationError("duration must be positive and finite")
        heapq.heapify(self._events)
        self._running = True
        while True:
            event_time = self._events[0][0] if self._events else _INF
            completion_time, source = self._next_completion()
            next_time = min(event_time, completion_time)
            if next_time > duration:
                break
            self._advance(next_time)
            if completion_time <= event_time:
                self._complete(source)
            else:
                _, action, _, payload = heapq.heappop(self._events)
                if action == _ARRIVE:
                    self._arrive(payload)
                elif action == _DEPART:
                    self._depart(payload)
                else:
                    callback, args = payload
                    callback(*args)
            self.transitions += 1
            self._resolve()
        self._running = False
        self._advance(duration)
        for flow in self.flows.values():
            if flow.active:
                self._leave(flow, completed=False)
        return FlowLevelResult(
            duration=duration,
            transitions=self.transitions,
            completions=list(self.completions),
            flows={name: self._outcome(flow) for name, flow in self.flows.items()},
            max_concurrent=self.max_concurrent,
        )

    # ------------------------------------------------------------- internals
    def _push_event(self, time: float, action: int, payload: object) -> None:
        # Before run(): plain append, heapified once -- O(n) total instead
        # of O(n log n) pushes.  Mid-run (dependent workload transfers,
        # dynamics callbacks scheduling more work) the heap invariant must
        # be preserved, so those pushes pay the log.
        self._seq += 1
        entry = (float(time), action, self._seq, payload)
        if self._running:
            heapq.heappush(self._events, entry)
        else:
            self._events.append(entry)

    def _route_links(self, route: Tuple[str, ...]) -> Tuple[int, ...]:
        links = self._route_cache.get(route)
        if links is None:
            if len(route) < 2:
                raise ConfigurationError(f"route {route!r} needs at least two nodes")
            links = tuple(self._edge(a, b) for a, b in zip(route, route[1:]))
            self._route_cache[route] = links
        return links

    def _class_for(
        self, links: Tuple[int, ...], weight: float, cap: Optional[float], responsive: bool
    ) -> _RateClass:
        key = (links, weight, cap, responsive)
        cls = self._class_by_key.get(key)
        if cls is None:
            cls = _RateClass(links, weight, cap, responsive)
            self._class_by_key[key] = cls
            self._classes.append(cls)
        return cls

    def _arrive(self, flow: _Flow) -> None:
        descriptor = flow.descriptor
        weight = 1.0 / len(descriptor.routes) if descriptor.coupled else 1.0
        flow.active = True
        for route in descriptor.routes:
            links = self._route_links(route)
            cls = self._class_for(links, weight, descriptor.cap_mbps, descriptor.responsive)
            cls.count += 1
            unit = _Unit(cls, self.now)
            flow.units.append(unit)
            if self.record_timeseries:
                cls.members.append(unit)
        if descriptor.size_bytes is not None:
            if len(flow.units) == 1:
                cls = flow.units[0].cls
                self._seq += 1
                heapq.heappush(
                    cls.heap, (cls.service + descriptor.size_bytes, self._seq, flow)
                )
            else:
                self._compound.append(flow)
        self._active_count += 1
        self.max_concurrent = max(self.max_concurrent, self._active_count)
        self._dirty = True

    def _leave(self, flow: _Flow, *, completed: bool) -> None:
        flow.delivered_final = (
            flow.descriptor.size_bytes
            if completed
            else int(round(sum(unit.delivered() for unit in flow.units)))
        )
        if self.record_timeseries:
            for unit in flow.units:
                unit.flush_segment(self.now)
                unit.cls.count -= 1
                unit.cls.members.remove(unit)
        else:
            for unit in flow.units:
                unit.cls.count -= 1
        flow.active = False
        flow.completed = completed
        flow.end = self.now
        self._active_count -= 1
        self._dirty = True

    def _depart(self, flow: _Flow) -> None:
        if flow.active:
            self._leave(flow, completed=False)

    def _complete(self, source) -> None:
        kind, target = source
        if kind == "class":
            _, _, flow = heapq.heappop(target.heap)
        else:
            flow = target
            self._compound.remove(flow)
        self._leave(flow, completed=True)
        descriptor = flow.descriptor
        completion = FlowCompletion(
            name=descriptor.name,
            start=descriptor.start,
            finish=self.now,
            size_bytes=descriptor.size_bytes or 0,
            kind=descriptor.kind,
        )
        self.completions.append(completion)
        # Cheap falsy check first: runs without listeners pay one dict test.
        if self._on_complete:
            callback = self._on_complete.pop(descriptor.name, None)
            if callback is not None:
                callback(completion)

    def _advance(self, time: float) -> None:
        dt = time - self.now
        if dt > 0.0:
            for cls in self._classes:
                if cls.count > 0 and cls.byte_rate > 0.0:
                    cls.service += cls.byte_rate * dt
        self.now = time

    def _next_completion(self) -> Tuple[float, Optional[Tuple[str, object]]]:
        best = _INF
        source: Optional[Tuple[str, object]] = None
        now = self.now
        for cls in self._classes:
            heap = cls.heap
            if not heap or cls.byte_rate <= 0.0:
                continue
            candidate = now + (heap[0][0] - cls.service) / cls.byte_rate
            if candidate < best:
                best = candidate
                source = ("class", cls)
        for flow in self._compound:
            total_rate = sum(unit.cls.byte_rate for unit in flow.units)
            if total_rate <= 0.0:
                continue
            remaining = flow.descriptor.size_bytes - flow.delivered()
            candidate = now + max(remaining, 0.0) / total_rate
            if candidate < best:
                best = candidate
                source = ("compound", flow)
        return max(best, now) if source is not None else best, source

    def _resolve(self) -> None:
        if not self._dirty:
            return
        self._dirty = False
        counts = tuple(cls.count for cls in self._classes)
        key = (self._capacity_version, counts)
        rates = self._allocation_cache.get(key)
        if rates is None:
            demands = [
                ClassDemand(
                    links=cls.links,
                    count=cls.count,
                    weight=cls.weight,
                    cap=cls.cap,
                    responsive=cls.responsive,
                )
                for cls in self._classes
            ]
            rates = tuple(self.allocator.solve(demands, self._capacity))
            if len(self._allocation_cache) >= 8192:
                self._allocation_cache.clear()
            self._allocation_cache[key] = rates
        for cls, rate in zip(self._classes, rates):
            if rate != cls.rate:
                if self.record_timeseries:
                    for unit in cls.members:
                        unit.flush_segment(self.now)
                cls.rate = rate
                cls.byte_rate = rate * MBPS_TO_BYTES_PER_S
                if self.record_timeseries:
                    for unit in cls.members:
                        unit.segment_rate = rate

    def _outcome(self, flow: _Flow) -> FlowOutcome:
        descriptor = flow.descriptor
        return FlowOutcome(
            name=descriptor.name,
            kind=descriptor.kind,
            start=descriptor.start,
            end=flow.end,
            bytes_delivered=flow.delivered_final,
            completed=flow.completed,
            segments=(
                [list(unit.segments) for unit in flow.units]
                if self.record_timeseries
                else []
            ),
            tags=descriptor.tags or tuple(range(1, len(descriptor.routes) + 1)),
        )
