"""The paper's contribution: causal message logging protocols + Event Logger.

Modules
-------
* :mod:`~repro.core.events` — determinants, the determinant store, window tables.
* :mod:`~repro.core.piggyback` — exact wire formats and byte accounting.
* :mod:`~repro.core.protocol_base` — the V-protocol hook API and Vdummy.
* :mod:`~repro.core.sender_log` — sender-based payload logging.
* :mod:`~repro.core.vcausal` — Vcausal piggyback reduction.
* :mod:`~repro.core.antecedence` — antecedence graph shared by the two
  graph protocols.
* :mod:`~repro.core.graph_protocol` — the state and piggyback path the two
  share.
* :mod:`~repro.core.manetho` — Manetho piggyback reduction.
* :mod:`~repro.core.logon` — LogOn piggyback reduction (SRDS'98).
* :mod:`~repro.core.event_logger` — the Event Logger stable server.
* :mod:`~repro.core.pessimistic` — pessimistic logging baseline (MPICH-V2).
* :mod:`~repro.core.coordinated` — Chandy-Lamport coordinated checkpointing.
"""

from repro.core.events import Determinant, WindowTable
from repro.core.protocol_base import VProtocol, NoFaultTolerance, make_protocol
from repro.core.vcausal import VcausalProtocol
from repro.core.manetho import ManethoProtocol
from repro.core.logon import LogOnProtocol
from repro.core.pessimistic import PessimisticProtocol
from repro.core.coordinated import CoordinatedProtocol

__all__ = [
    "Determinant",
    "WindowTable",
    "VProtocol",
    "NoFaultTolerance",
    "make_protocol",
    "VcausalProtocol",
    "ManethoProtocol",
    "LogOnProtocol",
    "PessimisticProtocol",
    "CoordinatedProtocol",
]
