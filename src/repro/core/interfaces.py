"""Typed seam contract between the protocols and the daemon hosting them.

The reproduction is layered — ``simulator`` (engine, network), ``core``
(protocols, determinant structures), ``runtime`` (daemon, cluster).
``core`` is hosted by a ``runtime`` object it must not import: this
module states what it may assume about that host as a structural
:class:`typing.Protocol`, so ``mypy --strict`` checks ``core`` against
the *contract* (the compiled-core roadmap item wants
``core``/``simulator`` compilable without importing ``runtime``) and the
contract is written down in one place.  ``Vdaemon`` satisfies it without
inheriting from it.
"""

from __future__ import annotations

from typing import Protocol


class DaemonHost(Protocol):
    """Daemon seam: what a :class:`~repro.core.protocol_base.VProtocol`
    may assume about the daemon hosting it.

    Satisfied by :class:`repro.runtime.daemon.Vdaemon`.  Protocols store
    the handle at :meth:`~repro.core.protocol_base.VProtocol.bind` time;
    the attributes below are the whole contract — anything further a
    protocol wants from its daemon must be added here first.
    """

    rank: int
    alive: bool
    clock: int


__all__ = ["DaemonHost"]
