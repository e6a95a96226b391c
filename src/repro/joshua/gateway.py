"""Client gateway: spread command sessions across the active heads.

The paper runs every JOSHUA command against a preferred head with linear
failover — fine for one interactive user, but a thousand-client front-end
pointed at ``head0`` turns the symmetric active/active group into a
primary/backup one: one head pays every client RPC while its peers idle.
The gateway restores the symmetry *client-side*, with no new wire
protocol:

* each client session is pinned to a head by stable hash
  (``crc32(client_id) % live_heads``), so the session population spreads
  evenly and a given client keeps talking to the same head — which is
  what makes the local read path (PROTOCOLS.md §12) effective: the head
  answering your ``jstat`` is the head that stamped your writes;
* sessions read in the gateway's mode, read-your-writes by default (and
  so track their writes) — the contract the local read path was built
  for;
* when a session's calls fail over away from its pinned head, the gateway
  marks that head dead, re-pins every session assigned to it, and
  forgives the head after a grace period (crash-restarted heads return to
  the rotation without an operator poke).

The gateway is pure client-side bookkeeping: it never touches the wire
format, never spawns a process, and draws no randomness — session
placement is a content hash, so any run is reproducible from its inputs.
"""

from __future__ import annotations

import zlib
from typing import Generator

from repro.joshua.commands import JoshuaClient
from repro.joshua.wire import JStatResp
from repro.net.network import Network
from repro.pbs.job import JobSpec
from repro.pbs.service_times import ERA_2006, ServiceTimes
from repro.util.errors import NoActiveHeadError

__all__ = ["GatewaySession", "JoshuaGateway"]


class JoshuaGateway:
    """Head-affinity manager for a population of client sessions.

    Parameters
    ----------
    network:
        The simulated network (sessions build their clients on it).
    heads:
        All head names, live or not — liveness is learned from failovers.
    service_times / timeout:
        Forwarded to each session's :class:`JoshuaClient`.
    consistency:
        Default read mode for sessions (``"ryw"`` — the gateway exists to
        make read-your-writes cheap; pass ``"ordered"`` to reproduce the
        historical behaviour exactly).
    """

    #: Seconds a failed-over head stays out of the placement rotation
    #: before it is retried (covers a crash + restart + rejoin).
    forgive_after = 10.0

    def __init__(
        self,
        network: Network,
        heads: list[str],
        *,
        service_times: ServiceTimes = ERA_2006,
        timeout: float = 5.0,
        consistency: str = "ryw",
    ):
        if not heads:
            raise NoActiveHeadError("no head nodes configured")
        self.network = network
        self.heads = list(heads)
        self.times = service_times
        self.timeout = timeout
        self.consistency = consistency
        #: head -> simulation time it was marked dead.
        self._dead: dict[str, float] = {}
        self.sessions: list["GatewaySession"] = []
        self.stats = {
            "sessions": 0,
            "reassignments": 0,
            "failovers": 0,
            "writes": 0,
            "reads": 0,
            "reads_local": 0,
            "reads_fallback": 0,
        }

    # -- placement -----------------------------------------------------------

    def live_heads(self) -> list[str]:
        """Heads currently in the placement rotation (dead ones forgiven
        after the grace period; all-dead degrades to the full list so
        placement always has a target and failover does the rest)."""
        now = self.network.kernel.now
        for head in sorted(self._dead):
            if now - self._dead[head] >= self.forgive_after:
                del self._dead[head]
        live = [h for h in self.heads if h not in self._dead]
        return live if live else list(self.heads)

    def assign(self, client_id: str) -> str:
        """The pinned head for *client_id*: stable content hash over the
        live rotation."""
        live = self.live_heads()
        return live[zlib.crc32(client_id.encode()) % len(live)]

    def session(
        self, node: str, client_id: str | None = None
    ) -> "GatewaySession":
        """Open a session for *client_id* (default: the node name) running
        its commands on *node*, reading in the gateway's consistency
        mode."""
        client_id = client_id if client_id is not None else node
        head = self.assign(client_id)
        client = JoshuaClient(
            self.network, node, self.heads,
            service_times=self.times, timeout=self.timeout,
            prefer=head, consistency=self.consistency,
        )
        session = GatewaySession(self, node, client_id, head, client)
        self.sessions.append(session)
        self.stats["sessions"] += 1
        return session

    # -- failure handling ----------------------------------------------------

    def note_failover(self, session: "GatewaySession", count: int) -> None:
        """A session's call failed over away from its pinned head: take the
        head out of the rotation and re-pin everyone parked on it."""
        self.stats["failovers"] += count
        self.mark_dead(session.head)

    def mark_dead(self, head: str) -> None:
        if head not in self.heads:
            return
        self._dead[head] = self.network.kernel.now
        for session in self.sessions:
            if session.head == head:
                self._repin(session)

    def _repin(self, session: "GatewaySession") -> None:
        head = self.assign(session.client_id)
        if head == session.head:
            return
        session.head = head
        session.client.prefer = head
        self.stats["reassignments"] += 1


class GatewaySession:
    """One client's command channel through the gateway.

    Thin delegation over a :class:`JoshuaClient` pinned to the assigned
    head; every call reports observed failovers back to the gateway so
    placement tracks reality.
    """

    def __init__(
        self,
        gateway: JoshuaGateway,
        node: str,
        client_id: str,
        head: str,
        client: JoshuaClient,
    ):
        self.gateway = gateway
        self.node = node
        self.client_id = client_id
        self.head = head
        self.client = client

    def _watched(self, call) -> Generator:
        before = self.client.stats["failovers"]
        try:
            result = yield from call
        finally:
            moved = self.client.stats["failovers"] - before
            if moved > 0:
                self.gateway.note_failover(self, moved)
        return result

    def jsub(self, spec: JobSpec | None = None, **spec_kwargs) -> Generator:
        self.gateway.stats["writes"] += 1
        result = yield from self._watched(self.client.jsub(spec, **spec_kwargs))
        return result

    def jdel(self, job_id: str) -> Generator:
        self.gateway.stats["writes"] += 1
        result = yield from self._watched(self.client.jdel(job_id))
        return result

    def jstat(self, job_id: str | None = None) -> Generator:
        self.gateway.stats["reads"] += 1
        rows = yield from self._watched(self.client.jstat(job_id))
        if isinstance(self.client.last_stat_response, JStatResp):
            self.gateway.stats["reads_local"] += 1
        else:
            self.gateway.stats["reads_fallback"] += 1
        return rows
