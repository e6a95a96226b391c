"""Client for generic replicated services: UUID retries + replica failover."""

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
    """Issues exactly-once requests against any replica of a service."""

    def __init__(
        self,
        network: Network,
        node: str,
        replicas: list[Address],
        *,
        timeout: float = 3.0,
        prefer: Address | None = None,
    ):
        if not replicas:
            raise NoActiveHeadError("no replicas configured")
        self.network = network
        self.node = node
        self.replicas = list(replicas)
        self.timeout = timeout
        self.prefer = prefer
        self.stats = {"failovers": 0}

    def _ordered(self) -> list[Address]:
        replicas = list(self.replicas)
        if self.prefer in replicas:
            replicas.remove(self.prefer)
            replicas.insert(0, self.prefer)
        return replicas

    def call(self, payload: Any) -> Generator:
        """One request; returns the backend result value."""
        request = ReplRequest(
            f"req-{self.node}-{rpc_state(self.network).next_id('aa-uuid')}",
            payload,
        )
        # A replica still mid-join answers "joining": not an application
        # error, just the wrong replica to ask — reject and fail over.
        result: ReplResult = yield from failover_call(
            self.network, self.node, self._ordered(), request,
            timeout=self.timeout,
            reject=lambda r: r.error == "joining",
            stats=self.stats,
            what="no replica answered",
        )
        if result.error is not None:
            raise ServiceError(result.error)
        return result.value
