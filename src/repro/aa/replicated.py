"""The universal external-replication wrapper (paper §3, Figures 5/7).

:class:`ReplicatedService` turns any *deterministic* backend into a
symmetric active/active service. The backend is supplied as a
:class:`BackendDriver` with three coroutines:

``execute(payload) -> result``
    Apply one state-changing (or read-only) request. Must be
    deterministic: same request sequence ⇒ same state and same results at
    every replica.
``snapshot() -> state``
    Capture the full backend state (for join-time transfer).
``restore(state)``
    Replace the backend state with a snapshot.

Everything else — SAFE-multicast ordering, serial execution, exactly-once
output (UUID-keyed reply caching across client retries/failovers, carried
to joiners), and the marker-cut join with its recut and partition-merge
resync paths — is the shared
:class:`~repro.aa.engine.ReplicationEngine` in its
:class:`~repro.aa.engine.ReplicaDaemon` shell, the same pair JOSHUA
(:mod:`repro.joshua`) runs with its PBS driver. The daemon here only
speaks the generic client protocol and adapts the payload-level
:class:`BackendDriver` to the engine's command-level seam.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Protocol

from repro.aa.engine import ReplicaDaemon, ReplicationEngine
from repro.aa.wire import Command, ReplRequest, ReplResult, StateXferResp
from repro.gcs.config import GroupConfig
from repro.net.address import Address

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node

__all__ = ["BackendDriver", "ReplicatedService", "ReplRequest", "ReplResult"]


class BackendDriver(Protocol):
    """What a service must provide to be replicated."""

    def execute(self, payload: Any) -> Generator:  # pragma: no cover - protocol
        ...

    def snapshot(self) -> Generator:  # pragma: no cover - protocol
        ...

    def restore(self, state: Any) -> Generator:  # pragma: no cover - protocol
        ...


class ReplicatedService(ReplicaDaemon):
    """One replica of a generic active/active service.

    Parameters
    ----------
    node:
        Hosting node.
    name:
        Service name (log tag / daemon key).
    driver:
        The deterministic backend driver.
    port / gcs_port:
        Client-facing RPC port and the group-communication port.
    heads:
        Node names of every replica of the service (see
        :class:`~repro.aa.engine.ReplicaDaemon`).
    group_config:
        Group communication tuning.
    """

    #: A :class:`BackendDriver` keeps its state in memory (``snapshot`` /
    #: ``restore`` only), so the group cannot recover it from the replicas'
    #: disks after a whole-group failure: returners wait for a running group.
    durable = False

    def __init__(
        self,
        node: "Node",
        name: str,
        driver: BackendDriver,
        *,
        port: int,
        gcs_port: int,
        heads: list[str],
        group_config: GroupConfig | None = None,
    ):
        super().__init__(
            node, name, port, gcs_port,
            heads=heads, group_config=group_config or GroupConfig(),
        )
        self.driver = driver
        self.rpc.register(ReplRequest, self._handle_request)

    def make_engine(self, index: int, group_config: GroupConfig, gcs_port: int):
        return ReplicationEngine(self, self, group_config, gcs_port)

    # -- client protocol ------------------------------------------------------

    def _handle_request(self, src: Address, request_id: int, request: ReplRequest):
        return self.shards[0].submit(
            src, request_id, Command(request.uuid, "call", request.payload)
        )

    # -- engine seam, adapted to the payload-level BackendDriver --------------

    def execute_command(self, command: Command):
        try:
            value = yield from self.driver.execute(command.payload)
        except Exception as exc:  # deterministic application errors
            return ReplResult(command.uuid, None, f"{type(exc).__name__}: {exc}")
        return ReplResult(command.uuid, value)

    def capture_state(self, marker_uuid: str):
        state = yield from self.driver.snapshot()
        return StateXferResp(marker_uuid, (state,), 0, ())

    def install_state(self, response: StateXferResp):
        yield from self.driver.restore(response.items[0])
