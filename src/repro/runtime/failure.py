"""Fault-injection plans.

Plans reproducing the paper's experiments:

* :class:`OneShotFaults` — kill specific ranks at specific times.  Fig. 10
  kills rank 0 "at the middle of its correct execution time".
* :class:`PeriodicFaults` — a fixed fault *frequency* (faults per minute),
  one process killed per period, as in the Fig. 1 resilience sweep.

Plans modelling the grid reality beyond independent single-rank deaths —
nodes share power supplies and switches, so failures correlate:

* :class:`FailureDomains` — ranks grouped into ``ClusterConfig.fault_domains``
  contiguous balanced blocks (one node / switch group each);
* :class:`CorrelatedFaults` — kill one whole domain at once, optionally
  *cascading*: each restart inside the domain re-triggers the underlying
  fault with a configurable probability (a flapping power feed);
* :class:`StormFaults` — a burst of domain kills inside a time window;
* :class:`InfraFaults` — infrastructure faults: Event Logger shard
  crashes and checkpoint-server outage windows;
* :class:`CompositeFaults` — several plans installed together.

Plans only decide *who dies when*; the dispatcher owns detection and
restart.  Every rank kill goes through the same eligibility check
(:func:`_killable`): a victim that is already dead, mid-restart, or
finished is skipped and counted in ``ClusterProbes.faults_skipped``
instead of double-killing an episode in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from repro.simulator.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.cluster import Cluster


class FaultPlan:
    """Base: installs kill events on the simulator."""

    def install(self, sim: Simulator, cluster: "Cluster") -> None:
        raise NotImplementedError

    @property
    def description(self) -> str:
        return type(self).__name__


@dataclass
class OneShotFaults(FaultPlan):
    """Kill (time_s, rank) pairs exactly once each.

    A fault scheduled against a rank that is no longer a steady victim at
    fire time (dead, mid-restart, or finished) is dropped and counted in
    ``ClusterProbes.faults_skipped`` — the same eligibility rule
    :class:`PeriodicFaults` applies when probing for a victim.
    """

    faults: list[tuple[float, int]] = field(default_factory=list)

    def install(self, sim: Simulator, cluster: "Cluster") -> None:
        for time_s, rank in self.faults:
            sim.at(time_s, _fire_fault, cluster, rank)

    @property
    def description(self) -> str:
        return f"one-shot faults at {self.faults}"


def _fire_fault(cluster: "Cluster", rank: int) -> None:
    """Inject a fault if ``rank`` is a steady victim, else count the skip."""
    if cluster.finished:
        return
    if _killable(cluster, rank):
        cluster.inject_fault(rank)
    else:
        cluster.probes.faults_skipped += 1


def _killable(cluster: "Cluster", rank: int) -> bool:
    """True when ``rank`` is steady enough to be a fault victim.

    A rank that is dead, mid-recovery, or replaying is still being handled
    by the dispatcher from the *previous* fault: killing it again would
    double-kill an episode in flight (and a dead rank would silently eat
    the period's fault).  Ranks that already finished are not running
    application code, so the paper's "kill during execution" rule skips
    them too.
    """
    if rank in cluster.finished_ranks:
        return False
    daemon = cluster.daemons[rank]
    return daemon.alive and not daemon.recovering and not daemon.in_replay


@dataclass
class PeriodicFaults(FaultPlan):
    """One fault every ``1/per_minute`` minutes until the run completes.

    ``victim`` selects the policy: "round-robin" cycles ranks (the paper
    kills whichever node the dispatcher restarts next), "random" draws
    uniformly, or a fixed integer rank.  Whatever the policy, a rank that
    is dead or still mid-restart from the previous fault is skipped (the
    next eligible rank is probed cyclically); if no rank is eligible the
    period's fault is dropped and the plan rearms.
    """

    per_minute: float = 1.0
    start_s: float = 30.0
    victim: str | int = "round-robin"
    seed: int = 0
    #: stop after this many injected faults (None: until the run completes);
    #: bounds fault storms whose period is shorter than a recovery episode
    max_faults: Optional[int] = None

    def install(self, sim: Simulator, cluster: "Cluster") -> None:
        if self.per_minute <= 0:
            return
        period = 60.0 / self.per_minute
        rng = np.random.default_rng(self.seed)
        state = {"next": 0, "fired": 0}

        def pick() -> Optional[int]:
            n = cluster.nprocs
            if isinstance(self.victim, int):
                return self.victim if _killable(cluster, self.victim) else None
            if self.victim == "random":
                first = int(rng.integers(n))
            else:
                first = state["next"] % n
            for probe in range(n):
                rank = (first + probe) % n
                if _killable(cluster, rank):
                    if self.victim != "random":
                        state["next"] = rank + 1
                    return rank
            return None

        def fire() -> None:
            if cluster.finished:
                return
            if self.max_faults is not None and state["fired"] >= self.max_faults:
                return
            rank = pick()
            if rank is not None:
                cluster.inject_fault(rank)
                state["fired"] += 1
            else:
                cluster.probes.faults_skipped += 1
            sim.schedule(period, fire)

        sim.schedule(self.start_s, fire)

    @property
    def description(self) -> str:
        return f"{self.per_minute}/min faults ({self.victim})"


class FailureDomains:
    """Ranks grouped into contiguous, balanced failure domains.

    A domain models the ranks sharing one physical node or switch group:
    when the hardware underneath fails, the whole domain dies together.
    ``count <= 0`` degenerates to one domain per rank (every fault stays
    independent, the historical behaviour); ``count > nprocs`` is clamped.
    With ``nprocs = q*count + r`` the first ``r`` domains hold ``q + 1``
    ranks and the rest hold ``q`` — contiguous blocks, matching the
    block-wise way real schedulers place ranks on nodes.
    """

    def __init__(self, nprocs: int, count: int = 0):
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if count <= 0 or count > nprocs:
            count = nprocs
        self.nprocs = nprocs
        self.count = count
        base, extra = divmod(nprocs, count)
        self._bounds: list[int] = [0]
        for d in range(count):
            self._bounds.append(self._bounds[-1] + base + (1 if d < extra else 0))
        self._domain_of = [0] * nprocs
        for d in range(count):
            for r in range(self._bounds[d], self._bounds[d + 1]):
                self._domain_of[r] = d

    @classmethod
    def from_cluster(cls, cluster: "Cluster") -> "FailureDomains":
        return cls(cluster.nprocs, cluster.config.fault_domains)

    @property
    def ndomains(self) -> int:
        return self.count

    def domain_of(self, rank: int) -> int:
        return self._domain_of[rank]

    def members(self, domain: int) -> list[int]:
        return list(range(self._bounds[domain], self._bounds[domain + 1]))


def _kill_domain(cluster: "Cluster", ranks: Iterable[int]) -> None:
    for rank in ranks:
        _fire_fault(cluster, rank)


def _install_cascade(
    sim: Simulator,
    cluster: "Cluster",
    members: set,
    rng: np.random.Generator,
    cascade_p: float,
    cascade_delay_s: float,
    max_cascades: int,
) -> None:
    """Restart-triggered re-kills: each restart of a domain member draws
    against ``cascade_p`` and, bounded by ``max_cascades``, re-kills the
    restarted rank after ``cascade_delay_s`` (the underlying hardware
    fault is still live when the dispatcher brings the rank back)."""
    if cascade_p <= 0:
        return
    state = {"cascades": 0}

    def on_restart(rank: int) -> None:
        if rank not in members or state["cascades"] >= max_cascades:
            return
        if float(rng.random()) >= cascade_p:
            return
        state["cascades"] += 1
        sim.schedule(cascade_delay_s, _fire_fault, cluster, rank)

    cluster.add_restart_listener(on_restart)


@dataclass
class CorrelatedFaults(FaultPlan):
    """Kill one whole failure domain at ``at_s``, optionally cascading.

    The domain layout comes from ``ClusterConfig.fault_domains`` (via
    :class:`FailureDomains`); with the default of one domain per rank
    this degenerates to a one-shot single-rank fault.
    """

    at_s: float = 1.0
    domain: int = 0
    cascade_p: float = 0.0
    cascade_delay_s: float = 0.25
    max_cascades: int = 2
    seed: int = 0

    def install(self, sim: Simulator, cluster: "Cluster") -> None:
        domains = FailureDomains.from_cluster(cluster)
        members = domains.members(self.domain % domains.ndomains)
        sim.at(self.at_s, _kill_domain, cluster, members)
        _install_cascade(
            sim,
            cluster,
            set(members),
            np.random.default_rng(self.seed),
            self.cascade_p,
            self.cascade_delay_s,
            self.max_cascades,
        )

    @property
    def description(self) -> str:
        return f"correlated kill of domain {self.domain} at {self.at_s}s"


@dataclass
class StormFaults(FaultPlan):
    """A burst of domain kills inside ``[start_s, start_s + window_s]``.

    ``kills`` distinct domains (seeded draw, clamped to the domain count)
    die at seeded times inside the window; cascades, when enabled, apply
    to every rank of every struck domain.
    """

    start_s: float = 1.0
    window_s: float = 0.5
    kills: int = 2
    cascade_p: float = 0.0
    cascade_delay_s: float = 0.25
    max_cascades: int = 2
    seed: int = 0

    def install(self, sim: Simulator, cluster: "Cluster") -> None:
        domains = FailureDomains.from_cluster(cluster)
        rng = np.random.default_rng(self.seed)
        kills = min(self.kills, domains.ndomains)
        victims = rng.choice(domains.ndomains, size=kills, replace=False)
        times = sorted(
            self.start_s + self.window_s * float(rng.random()) for _ in range(kills)
        )
        struck: set = set()
        for time_s, domain in zip(times, victims):
            members = domains.members(int(domain))
            struck.update(members)
            sim.at(time_s, _kill_domain, cluster, members)
        _install_cascade(
            sim,
            cluster,
            struck,
            rng,
            self.cascade_p,
            self.cascade_delay_s,
            self.max_cascades,
        )

    @property
    def description(self) -> str:
        return (
            f"storm: {self.kills} domain kills in "
            f"[{self.start_s}, {self.start_s + self.window_s}]s"
        )


@dataclass
class InfraFaults(FaultPlan):
    """Infrastructure faults: EL shard crashes and checkpoint outages.

    ``el_shard_kills`` holds ``(time_s, shard_index)`` pairs; failover —
    when ``ClusterConfig.el_failover`` is on — is handled by the
    :class:`~repro.core.distributed_el.EventLoggerGroup` itself.
    ``ckpt_outages`` holds ``(fail_s, restore_s)`` windows for the
    checkpoint server (``restore_s = None`` leaves it down for good).
    """

    el_shard_kills: list[tuple[float, int]] = field(default_factory=list)
    ckpt_outages: list[tuple[float, Optional[float]]] = field(default_factory=list)

    def install(self, sim: Simulator, cluster: "Cluster") -> None:
        # reject an impossible kill now, not mid-run when it fires
        for _, index in self.el_shard_kills:
            if cluster.event_logger is None:
                raise ValueError("EL shard kills need a stack with an Event Logger")
            cluster.event_logger.shard_at(index)
        for time_s, index in self.el_shard_kills:
            sim.at(time_s, cluster.kill_el_shard, index)
        for fail_s, restore_s in self.ckpt_outages:
            sim.at(fail_s, cluster.checkpoint_server.fail)
            if restore_s is not None:
                sim.at(restore_s, cluster.checkpoint_server.restore)

    @property
    def description(self) -> str:
        return (
            f"infra faults: {len(self.el_shard_kills)} EL shard kills, "
            f"{len(self.ckpt_outages)} checkpoint outages"
        )


@dataclass
class CompositeFaults(FaultPlan):
    """Install several plans together (e.g. an outage plus a rank kill)."""

    plans: list[FaultPlan] = field(default_factory=list)

    def install(self, sim: Simulator, cluster: "Cluster") -> None:
        for plan in self.plans:
            plan.install(sim, cluster)

    @property
    def description(self) -> str:
        return " + ".join(p.description for p in self.plans) or "no faults"
