"""Pessimistic sender-based message logging (MPICH-V2 baseline).

Pessimistic protocols ensure that every event of a process P is safely
logged on stable storage **before P can impact the system** (i.e. send a
message).  In MPICH-V2 the payload stays on the sender (sender-based) and
the determinant goes to the Event Logger synchronously: a send blocks until
the EL has acknowledged all of the sender's prior reception events.

No causality is ever piggybacked — the cost moved from piggybacks to
synchronous waits.  Used as the baseline of Fig. 1 (fault resilience) and
as a comparison point in the examples.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.events import Determinant, DeterminantStore, WindowTable
from repro.core.piggyback import Piggyback
from repro.core.protocol_base import VProtocol
from repro.metrics.probes import ProcessProbes
from repro.runtime.config import ClusterConfig


class PessimisticProtocol(VProtocol):
    """Synchronous determinant logging; empty piggybacks."""

    __slots__ = ("own",)

    uses_event_logger = True
    blocking_on_stability = True
    name = "pessimistic"

    def __init__(
        self,
        rank: int,
        nprocs: int,
        config: ClusterConfig,
        probes: ProcessProbes,
        store: Optional[DeterminantStore] = None,
    ) -> None:
        super().__init__(rank, nprocs, config, probes, store)
        #: own events not yet acknowledged by the EL (one window)
        self.own = WindowTable(self.store)
        self.own.open(rank)

    def build_piggyback(self, dst: int) -> Piggyback:
        # nothing rides on messages; stability gating happens in the daemon
        return Piggyback()

    def on_local_event(self, det: Determinant) -> None:
        self.own.append(self.rank, det)
        self.probes.note_events_held(self.own.held)

    def _fold_vector(self, vector: dict[int, int]) -> None:
        super()._fold_vector(vector)
        self.own.prune_upto(self.rank, self._sv.get(self.rank, 0))

    def stability_gap(self) -> int:
        """Own events still unacknowledged (sends must wait for zero)."""
        return self.own.held

    def events_created_by(self, creator: int) -> list[Determinant]:
        return self.own.dets(creator)

    def events_held(self) -> int:
        return self.own.held

    def export_state(self) -> dict[str, Any]:
        return {"own": self.own.dets(self.rank), "stable": self._stable_list()}

    def restore_state(self, state: dict[str, Any]) -> None:
        self.own = WindowTable(self.store)
        self.own.load({self.rank: state["own"]})
        self._restore_stable(state["stable"])
