"""Kernel selection facade.

The simulator has two interchangeable kernels:

``python``
    The pure-Python event loop and transport stack -- always available,
    the reference implementation.
``compiled``
    A hand-written C extension (:mod:`repro.kernel._ckernel`) built lazily
    with the system compiler.  It provides ``KernelSim`` (a drop-in
    :class:`~repro.netsim.engine.Simulator`), the link type every link on a
    ``KernelSim`` is built as (``KernelSim.link_type``: forwarding,
    drop-tail queueing and host dispatch run in C for every scene, calling
    Python for taps, AQM verdicts and overrides), the agent types every
    ``TcpSender`` / ``TcpReceiver`` on a ``KernelSim`` is built as
    (``KernelSim.sender_type`` / ``receiver_type``: ACK clocking, the SACK
    scoreboard, recovery, the retransmission timer, RTT estimation and packet
    build/recycle run in C over the Python objects' slots, calling Python
    for the congestion controller, the data provider and the connection
    sink), the packet type those agents build (``KernelSim.packet_type``,
    its numbers C fields; any other packet runs the Python bodies), stats
    types whose counters are C fields (``link_stats_type``,
    ``queue_stats_type`` and siblings; :class:`~repro.netsim.link.LinkStats`),
    the stock capture tap
    (``PacketCapture.on_packet`` of an exact ``PacketCapture``, run where a
    ``KernelSim`` host fans a delivery out to its taps), the fluid
    integrator (``fluid_run``, the loop of
    :meth:`repro.model.fluid.FluidModel.run`, in ``_fluid.h``) and a
    whole-window native bypass for :meth:`Network.run` that quiescent
    single-path TCP scenes take (see :mod:`repro.kernel.pipeline`).
    The transport exists once in C (``_transport.h``), instantiated for the
    agent types and for the bypass.  Results are byte-identical to the
    Python kernel.

Selection is controlled by the ``REPRO_KERNEL`` environment variable:

``auto`` (default)
    Use the compiled kernel when it builds/loads, silently fall back to
    Python otherwise.
``compiled``
    Require the compiled kernel; raise at first use if it is unavailable.
``python``
    Never build or load the extension.

:func:`override` swaps the mode for a ``with`` block (used by the test
suite to pin both kernels against the same golden files).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional, Tuple

__all__ = [
    "KERNEL_ENV",
    "active_kernel",
    "compiled_available",
    "compiled_module",
    "kernel_info",
    "maybe_run_network",
    "override",
]

KERNEL_ENV = "REPRO_KERNEL"
_MODES = ("auto", "compiled", "python")

#: Lazily-populated load result: (module_or_None, reason).  The build is
#: attempted at most once per process.
_load_result: Optional[Tuple[Optional[object], str]] = None
_override_mode: Optional[str] = None


def _mode() -> str:
    if _override_mode is not None:
        return _override_mode
    mode = os.environ.get(KERNEL_ENV, "auto").strip().lower() or "auto"
    if mode not in _MODES:
        raise ValueError(
            f"{KERNEL_ENV}={mode!r} is not one of {'|'.join(_MODES)}"
        )
    return mode


def _load() -> Tuple[Optional[object], str]:
    global _load_result
    if _load_result is None:
        from .build import load_extension

        _load_result = load_extension()
    return _load_result


def compiled_available() -> Tuple[bool, str]:
    """Whether the compiled kernel can be used, and why not if not."""
    module, reason = _load()
    return module is not None, reason


def compiled_module():
    """The loaded extension module for the current mode, or ``None``.

    In ``compiled`` mode an unavailable extension raises so that a
    hard-pinned run can never silently fall back.
    """
    mode = _mode()
    if mode == "python":
        return None
    module, reason = _load()
    if module is None and mode == "compiled":
        raise RuntimeError(
            f"{KERNEL_ENV}=compiled but the compiled kernel is unavailable: {reason}"
        )
    return module


def active_kernel() -> str:
    """``"compiled"`` or ``"python"`` -- the kernel in effect right now."""
    return "compiled" if compiled_module() is not None else "python"


#: Bodies with a C twin, and what "native" means for each (``kernel_info``).
_NATIVE_BODIES = (
    # Which bodies of Link.send/_serve_queue/_deliver a new scene runs.
    ("link_handlers", "every Link on a KernelSim is KernelSim.link_type, whose handlers are C"),
    # Which bodies of TcpSender/TcpReceiver.handle_packet a new scene runs.
    (
        "transport_handlers",
        "every TcpSender/TcpReceiver on a KernelSim is KernelSim.sender_type/"
        "receiver_type, whose ACK clocking is C (Python subclasses keep their bodies)",
    ),
    # Which body of PacketCapture.on_packet writes a new scene's rows.
    (
        "capture_tap",
        "a KernelSim host runs the stock PacketCapture.on_packet in C "
        "(a subclass's or any other tap is called)",
    ),
    # Which body of FluidModel.run's loop produces a fluid prediction.
    ("fluid_integrator", "FluidModel.run hands its loop to the extension's fluid_run"),
    # What a new scene's link/node/agent counters and link clocks are.
    (
        "counters",
        "on a KernelSim, stats counters, link clocks and the numbers of the packets "
        "the native agents build are C int64/double fields",
    ),
)


def kernel_info() -> dict:
    """Diagnostic snapshot for ``repro.cli info`` and test reports."""
    mode = _mode()
    if mode == "python":
        module, reason = None, "disabled by REPRO_KERNEL=python"
    else:
        module, reason = _load()
    compiled = module is not None
    info = {
        "mode": mode,
        "kernel": "compiled" if compiled else "python",
        "compiled_reason": reason,
        "extension": getattr(module, "__file__", None),
    }
    for body, native_reason in _NATIVE_BODIES:
        info[body] = "native" if compiled else "python"
        info[body + "_reason"] = native_reason if compiled else f"no compiled kernel: {reason}"
    return info


@contextmanager
def override(mode: str):
    """Force the kernel mode within a ``with`` block (tests/benchmarks)."""
    if mode not in _MODES:
        raise ValueError(f"unknown kernel mode {mode!r}")
    global _override_mode
    previous = _override_mode
    _override_mode = mode
    try:
        yield
    finally:
        _override_mode = previous


def maybe_run_network(network, until: float) -> Optional[float]:
    """Native whole-window run of ``network``; None means "use Python".

    On a non-None return the network's observable state matches what the
    Python event loop would have produced (the contract is spelled out in
    :mod:`repro.kernel.pipeline`).  Either way ``network.bypass_outcome``
    is set to ``"native"`` or to the reason the bypass declined.
    """
    ext = compiled_module()
    if ext is None:
        network.bypass_outcome = "python kernel is active"
        return None
    from .pipeline import run_network

    return run_network(network, until, ext)
