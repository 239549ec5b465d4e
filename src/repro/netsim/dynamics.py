"""Network dynamics: timed link events applied to a built network.

Every scenario used to be frozen at t=0: link rates, delays and the set of
usable paths never changed after :class:`~repro.netsim.network.Network` was
built.  The coupled controllers this repository reproduces (LIA/OLIA/BALIA/
wVegas) were designed for *shifting* path conditions, so this module provides
the missing vocabulary: declarative events that change a link mid-run, and a
composable :class:`Schedule` that fires them at simulation times.

Event classes (all plain frozen dataclasses, picklable for the parallel
sweep harness):

* :class:`LinkRateChange` -- change a link's transmission rate, re-planning
  the packet currently being serialised;
* :class:`LinkDelayChange` -- change the propagation delay of subsequently
  transmitted packets;
* :class:`LinkDown` / :class:`LinkUp` -- fail and restore a link (queued
  packets are dropped or parked, offered packets are dropped while down);
* :class:`LossBurst` -- a transient random-loss episode (deterministic,
  seeded).

A :class:`Schedule` is a list of ``(time, event)`` pairs built with
:meth:`Schedule.at` and applied to a network with :meth:`Schedule.apply`.
An **empty schedule is free**: nothing is registered on the event loop and
the static fast paths of :mod:`repro.netsim.link` stay byte-identical.

:class:`DynamicsSpec` bundles a schedule with the measurement metadata the
experiment layer needs (event epochs for re-convergence metrics and an
optional piecewise capacity profile for tracking error); it is the value
carried by ``ExperimentConfig.dynamics`` / ``MultiFlowConfig.dynamics``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from .network import Network


class DynamicsEvent:
    """Base class for timed network events (a tagging/type-check anchor)."""

    def apply(self, network: "Network") -> None:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class LinkRateChange(DynamicsEvent):
    """Change the transmission rate of the directed link ``src -> dst``.

    The packet being serialised when the event fires is re-planned: its
    remaining bits finish at the new rate, exactly as a ``tc`` rate change
    re-times the in-service packet of an htb shaper.
    """

    src: str
    dst: str
    rate_mbps: float
    bidirectional: bool = False

    def apply(self, network: "Network") -> None:
        network.set_link_rate(
            self.src, self.dst, self.rate_mbps, bidirectional=self.bidirectional
        )


@dataclass(frozen=True)
class LinkDelayChange(DynamicsEvent):
    """Change the propagation delay of the directed link ``src -> dst``.

    Applies to packets that *start* serialising after the event; packets
    already on the wire keep their original delivery time (the link never
    reorders).
    """

    src: str
    dst: str
    delay: float
    bidirectional: bool = False

    def apply(self, network: "Network") -> None:
        network.set_link_delay(
            self.src, self.dst, self.delay, bidirectional=self.bidirectional
        )


@dataclass(frozen=True)
class LinkDown(DynamicsEvent):
    """Fail the link between ``src`` and ``dst`` (both directions by default).

    Packets offered while the link is down are dropped (counted in
    ``LinkStats.packets_dropped``).  ``flush="drop"`` (default) also discards
    the packets queued behind the transmitter; ``flush="park"`` keeps them
    queued so :class:`LinkUp` resumes where the outage interrupted.  Packets
    already serialised onto the wire are delivered (their bits left before
    the cut).
    """

    src: str
    dst: str
    bidirectional: bool = True
    flush: str = "drop"

    def apply(self, network: "Network") -> None:
        network.set_link_down(
            self.src, self.dst, bidirectional=self.bidirectional, flush=self.flush
        )


@dataclass(frozen=True)
class LinkUp(DynamicsEvent):
    """Restore a previously failed link (both directions by default)."""

    src: str
    dst: str
    bidirectional: bool = True

    def apply(self, network: "Network") -> None:
        network.set_link_up(self.src, self.dst, bidirectional=self.bidirectional)


@dataclass(frozen=True)
class LossBurst(DynamicsEvent):
    """Drop packets offered to ``src -> dst`` for ``duration`` seconds.

    Each offered packet is dropped with probability ``loss_rate`` using a
    deterministic per-link RNG seeded with ``seed``, so runs remain exactly
    reproducible.
    """

    src: str
    dst: str
    duration: float
    loss_rate: float = 1.0
    seed: int = 0
    bidirectional: bool = False

    def apply(self, network: "Network") -> None:
        network.start_loss_burst(
            self.src,
            self.dst,
            self.duration,
            loss_rate=self.loss_rate,
            seed=self.seed,
            bidirectional=self.bidirectional,
        )


class Schedule:
    """An ordered list of ``(time, event)`` pairs applied to one network.

    Built fluently::

        schedule = (
            Schedule()
            .at(1.5, LinkDown("client", "wifi_ap"))
            .at(3.0, LinkUp("client", "wifi_ap"))
            .at(4.0, LossBurst("agg", "core", 0.1, loss_rate=0.2))
        )
        schedule.apply(network)   # before network.run()

    ``apply`` registers one simulator event per entry; an empty schedule
    registers nothing and therefore costs nothing.
    """

    def __init__(self, entries: Sequence[Tuple[float, DynamicsEvent]] = ()) -> None:
        self._entries: List[Tuple[float, DynamicsEvent]] = list(entries)

    # ------------------------------------------------------------------ build
    def at(self, time: float, *events: DynamicsEvent) -> "Schedule":
        """Add ``events`` at absolute simulation ``time``; returns self."""
        if time < 0:
            raise ConfigurationError(f"cannot schedule a dynamics event at t={time}")
        if not events:
            raise ConfigurationError("Schedule.at needs at least one event")
        for event in events:
            self._entries.append((float(time), event))
        return self

    # ------------------------------------------------------------------ views
    @property
    def entries(self) -> List[Tuple[float, DynamicsEvent]]:
        """The schedule's entries in firing order (stable for equal times)."""
        return sorted(self._entries, key=lambda entry: entry[0])

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[float, DynamicsEvent]]:
        return iter(self.entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    # ------------------------------------------------------------------ apply
    def apply(self, network: "Network") -> None:
        """Register every entry on the network's simulator (no-op when empty)."""
        if not self._entries:
            return
        sim = network.sim
        for time, event in self.entries:
            sim.schedule_at(time, event.apply, network)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Schedule({len(self._entries)} entries)"


@dataclass
class DynamicsSpec:
    """A schedule plus the metadata the measurement layer needs.

    Parameters
    ----------
    schedule:
        The timed events to apply to the network before the run.
    epochs:
        Simulation times to measure failover gap / re-convergence from;
        defaults to the schedule's event times.
    capacity_profile:
        Optional piecewise-constant expected capacity ``[(time, mbps), ...]``
        (sorted, first entry at or before t=0) used by the capacity-tracking
        error metric.
    description:
        Human-readable summary shown by the CLI.
    """

    schedule: Schedule = field(default_factory=Schedule)
    epochs: Sequence[float] = ()
    capacity_profile: Optional[Sequence[Tuple[float, float]]] = None
    description: str = ""

    def measurement_epochs(self) -> List[float]:
        """The epochs to measure from (explicit ones, else the event times)."""
        if self.epochs:
            return sorted(self.epochs)
        return sorted({time for time, _ in self.schedule.entries})

    def apply(self, network: "Network") -> None:
        self.schedule.apply(network)

    def __bool__(self) -> bool:
        return bool(self.schedule)
