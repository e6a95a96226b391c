"""Heartbeat failure detector.

Each member beacons **one** unreliable :class:`~repro.gcs.messages.Heartbeat`
frame per ``heartbeat_interval``, addressed to the group of all monitored
peers (link-level multicast, see :meth:`repro.net.network.Network.send`: one
frame on the wire however many peers hear it, so beacon bytes are linear in
group size), and suspects any peer silent for longer than
``suspect_timeout``. Monitoring stays all-to-all and each receiver hears or
loses its copy on its own. Suspicion is *sticky* per incarnation:
once suspected, a peer stays suspected until explicitly forgiven (the
membership layer forgives on view change or when the peer re-joins), which
prevents flapping from repeatedly aborting flush rounds.

This is an eventually-perfect-style detector under the fail-stop model: a
crashed peer is eventually suspected by every live peer (completeness), and
a live, connected peer is not suspected once message delays stabilise below
the timeout (accuracy). Both properties are exercised in the tests.
"""

from __future__ import annotations

from typing import Callable

from repro.gcs.messages import Heartbeat
from repro.net.address import Address
from repro.net.transport import Transport
from repro.obs.collector import collector_of

__all__ = ["FailureDetector"]


class FailureDetector:
    """Monitors a set of peers over an existing transport.

    Parameters
    ----------
    transport:
        The member's transport (heartbeats use its raw datagram path).
    heartbeat_interval / suspect_timeout:
        Timing; see :class:`~repro.gcs.config.GroupConfig`.
    beacon:
        ``callback() -> Heartbeat`` building each live tick's beacon, also
        when there is no peer to send it to (the member piggybacks its last
        stability ack on it, and repairs its own copy of that ack).
    on_suspect:
        ``callback(peer: Address)`` invoked once per new suspicion.
    """

    def __init__(
        self,
        transport: Transport,
        *,
        heartbeat_interval: float,
        suspect_timeout: float,
        beacon: Callable[[], Heartbeat],
        on_suspect: Callable[[Address], None] | None = None,
    ):
        self.transport = transport
        self.kernel = transport.kernel
        self.heartbeat_interval = heartbeat_interval
        self.suspect_timeout = suspect_timeout
        self.beacon = beacon
        self.on_suspect = on_suspect
        self._peers: set[Address] = set()
        self._last_heard: dict[Address, float] = {}
        self._suspected: set[Address] = set()
        self._stopped = False
        self._dormant = False
        #: Shard label for observability spans (set by the owning
        #: GroupMember in a sharded deployment; None = unlabelled).
        self._obs_shard: int | None = None
        self._loop = self.kernel.spawn(self._run(), name=f"fd@{transport.address}")

    def _observe(self, transition: str, peer: Address | None = None) -> None:
        """Report a detector state transition to an attached trace collector
        (observation only — no-op when the simulation is unobserved)."""
        collector = collector_of(self.transport.endpoint.network)
        if collector is not None:
            collector.gcs_fd(
                self.transport.address.node,
                str(peer) if peer is not None else None,
                transition,
                shard=self._obs_shard,
            )

    # -- peer management -----------------------------------------------------

    def monitor(self, peers) -> None:
        """Replace the monitored peer set (self is filtered out)."""
        new_peers = {p for p in peers if p != self.transport.address}
        now = self.kernel.now
        for peer in sorted(new_peers - self._peers):
            self._last_heard[peer] = now
        for peer in sorted(self._peers - new_peers):
            self._last_heard.pop(peer, None)
            self._suspected.discard(peer)
        self._peers = new_peers

    def forgive(self, peer: Address) -> None:
        """Clear a suspicion (peer re-admitted by the membership layer)."""
        if peer in self._suspected:
            self._suspected.discard(peer)
            self._observe("forgive", peer)
        self._last_heard[peer] = self.kernel.now

    @property
    def suspected(self) -> set[Address]:
        return set(self._suspected)

    def heard_from(self, peer: Address) -> None:
        """Record liveness evidence (heartbeat *or* any protocol message)."""
        if peer in self._peers:
            self._last_heard[peer] = self.kernel.now

    def stop(self) -> None:
        if not self._stopped:
            self._stopped = True
            self._loop.interrupt("failure detector stopped")

    # -- main loop ----------------------------------------------------------------

    def _run(self):
        while True:
            yield self.kernel.timeout(self.heartbeat_interval)
            if self._stopped or self.transport.endpoint.closed:
                return
            if not self.transport.endpoint.network.node_is_up(self.transport.address.node):
                # The node is down (or its network is blacked out) but we were
                # not torn down: go dormant rather than exiting, so the
                # detector beacons and suspects again once the node recovers.
                if not self._dormant:
                    self._dormant = True
                    self._observe("dormant")
                continue
            if self._dormant:
                # Re-arming after an outage: count peer silence from now, or
                # every peer would be suspected for our own downtime.
                self._dormant = False
                self._observe("rearm")
                now = self.kernel.now
                for peer in sorted(self._peers):
                    self._last_heard[peer] = now
            now = self.kernel.now
            # Sorted: the group is seen by spies and hooks, and must not
            # depend on the hash seed of the peer set (the determinism
            # sanitizer's digest diverges across PYTHONHASHSEED values
            # otherwise).
            peers = sorted(self._peers)
            # Built every live tick, alone in the view or not: the member
            # repairs its own copy of a lost stability ack as it builds it.
            beacon = self.beacon()
            if peers:
                # One beacon, one frame, every peer.
                self.transport.send_raw(tuple(peers), beacon)
            for peer in peers:
                if peer in self._suspected:
                    continue
                if now - self._last_heard.get(peer, now) > self.suspect_timeout:
                    self._suspected.add(peer)
                    self._observe("suspect", peer)
                    if self.on_suspect is not None:
                        self.on_suspect(peer)
