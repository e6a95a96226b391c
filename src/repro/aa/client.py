"""The failover-retry client core of every replicated service.

One client-side rule set for the engine's protocol, whatever the service
(the generic :class:`ReplRequest` conversation here, JOSHUA's
``jsub``/``jdel``/``jstat`` in :mod:`repro.joshua.commands`): a replica list
tried in ``prefer``-first order, request identities from the per-simulation
allocator (so back-to-back simulations in one interpreter put identical
uuid strings on the wire, where they are charged by size), a replica
answering ``"joining"`` passed over like a silent one, and every replica
passed over counted in ``stats["failovers"]``.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.aa.wire import ReplRequest, ReplResult
from repro.net.address import Address
from repro.net.network import Network
from repro.rpc import failover_call, rpc_state
from repro.util.errors import NoActiveHeadError, ReproError

__all__ = ["ReplicatedClient", "ServiceError"]


class ServiceError(ReproError):
    """The replicated backend rejected the request (deterministically —
    every replica produced the same error)."""


class ReplicatedClient:
    """Issues exactly-once requests against any replica of a service.
    *prefer* names the node whose replica is asked first (an unknown name
    changes nothing); the rest follow in list order."""

    #: Allocator family the request identities are drawn from.
    uuid_family = "aa-uuid"

    def __init__(
        self,
        network: Network,
        node: str,
        replicas: list[Address],
        *,
        timeout: float = 3.0,
        prefer: str | None = None,
    ):
        if not replicas:
            raise NoActiveHeadError("no replicas configured")
        self.network = network
        self.node = node
        self.replicas = list(replicas)
        self.timeout = timeout
        self.prefer = prefer
        self.stats = {"failovers": 0}

    def _uuid(self, kind: str) -> str:
        return f"{kind}-{self.node}-{rpc_state(self.network).next_id(self.uuid_family)}"

    def _targets(self) -> list[Address]:
        return sorted(self.replicas, key=lambda r: r.node != self.prefer)

    def _failover(self, request: Any, what: str) -> Generator:
        """*request* against each replica, preferred first, until one
        answers. A down node is skipped (its TCP stack refuses at once, vs.
        a full RPC timeout); a replica answering ``"joining"`` cannot serve
        yet — not an error of the request, just the wrong replica to ask."""
        response = yield from failover_call(
            self.network, self.node, self._targets(), request,
            timeout=self.timeout,
            retry_error=lambda exc: exc.kind == "joining",
            stats=self.stats,
            what=what,
        )
        return response

    def call(self, payload: Any) -> Generator:
        """One request; returns the backend result value."""
        result: ReplResult = yield from self._failover(
            ReplRequest(self._uuid("req"), payload), "no replica answered"
        )
        if result.error is not None:
            raise ServiceError(result.error)
        return result.value
