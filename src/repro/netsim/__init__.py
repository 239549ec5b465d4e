"""Discrete-event, packet-level network substrate (the Mininet substitute).

Public surface:

* :class:`Simulator` / :class:`Event` -- the event loop
* :class:`Packet` -- the wire unit
* :class:`Topology` / :class:`LinkSpec` -- declarative topology
* :class:`Network` -- instantiated topology (nodes, links, captures)
* :class:`Host`, :class:`Router`, :class:`Link` -- simulation objects
* queues -- :class:`DropTailQueue`, :class:`REDQueue`
* routing -- :class:`TagRoutingTable`, :class:`StaticRoutingTable`, :class:`EcmpRoutingTable`
* :class:`PacketCapture` -- the tshark substitute
* dynamics -- :class:`Schedule`, :class:`DynamicsSpec` and the timed link
  events (:class:`LinkRateChange`, :class:`LinkDown`, ...)
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".capture": ("CaptureRecord", "PacketCapture"),
        ".dynamics": (
            "DynamicsEvent", "DynamicsSpec", "LinkDelayChange", "LinkDown", "LinkRateChange",
            "LinkUp", "LossBurst", "Schedule",
        ),
        ".engine": ("Event", "Simulator"),
        ".link": ("Link",),
        ".network": ("Network",),
        ".node": ("Host", "Node", "Router"),
        ".packet": ("Packet",),
        ".queues": ("DropTailQueue", "Queue", "REDQueue", "make_queue"),
        ".routing": ("EcmpRoutingTable", "RoutingTable", "StaticRoutingTable", "TagRoutingTable"),
        ".topology": ("LinkSpec", "NodeSpec", "Topology"),
    },
)
