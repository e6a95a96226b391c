"""The ``joshua`` server daemon: one per active head node.

Replication model (paper §4): the daemon accepts ``jsub``/``jdel``/``jstat``
from clients, multicasts each command through the group communication
system with SAFE service (totally ordered *and* stable — the delivered-once
output guarantee rides on stability), and a strictly serial executor applies
delivered commands to the **local** TORQUE server through the ordinary PBS
wire protocol. Identical command order + deterministic server/scheduler =
identical replica state.

The daemon is a thin **front-end router** over one or more
:class:`~repro.joshua.shard.ShardReplica` units (PROTOCOLS.md §10). Each
replica is a complete :class:`~repro.aa.engine.ReplicationEngine` — GCS
membership on its own per-shard port, serial apply loop, reply cache and
marker-cut join — driving the local PBS through a
:class:`~repro.joshua.executor.SerialExecutor`, plus a
:class:`~repro.joshua.mutex.MutexArbiter`; the façade owns the one
client-facing endpoint and the typed RPC dispatcher (the
:class:`~repro.aa.engine.ReplicaDaemon` shell, which also routes
state-transfer pushes and owns the "joining" refusal), and routes each
request to the owning shard:

* ``jsub`` — by PBS queue name (falling back to the job owner), hashed
  with CRC-32 so the mapping is stable across runs and processes;
* anything keyed by job id (``jdel``, ``jstat <id>``, the jmutex/jdone
  traffic) — by the id stripe ``(seq-1) % nshards``
  (see :mod:`repro.joshua.shard`);
* ``jstat`` with no id — shard 0. The local PBS holds every shard's jobs,
  so the listing is complete; it is only *ordered* against shard 0's
  command stream (cross-shard queries have no global order — the
  documented cost of sharding).

With ``shards=1`` (default) every request routes to the one shard, the
stripe of width 1 (``tests/integration/test_wire_baseline.py`` pins that
deployment's wire traffic).
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING

from repro.aa.engine import ReplicaDaemon
from repro.gcs.config import GroupConfig
from repro.joshua.config import ERA_2006_JOSHUA, JOSHUA_GROUP_CONFIG
from repro.joshua.shard import ShardReplica
from repro.joshua.wire import (
    Command,
    Done,
    JDelReq,
    JDoneReq,
    JMutexReq,
    JMutexResp,
    JOSHUA_PORT,
    JStartedReq,
    JStatReq,
    JStatResp,
    JSubReq,
    Started,
)
from repro.net.address import Address
from repro.obs.collector import collector_of
from repro.pbs.job import JobSpec
from repro.pbs.server import PBS_SERVER_PORT
from repro.pbs.wire import StatReq
from repro.rpc.wire import ErrorResp, relay_error
from repro.util.errors import PBSError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node

__all__ = ["JoshuaServer", "JOSHUA_PORT", "JOSHUA_GCS_PORT", "REPLICA_SERVER_NAME"]

JOSHUA_GCS_PORT = 4413

#: The daemon's name — and the one logical server name every replicated
#: ``pbs_server`` runs under, so replayed submissions yield identical job
#: ids on every head (see DESIGN.md).
REPLICA_SERVER_NAME = "joshua"


class JoshuaServer(ReplicaDaemon):
    """The joshua daemon on one head node.

    Parameters
    ----------
    node:
        Hosting head node (must also run a PBS server + scheduler).
    initial_heads:
        Names of the founding head nodes (including this one) — the static
        bootstrap group. Mutually exclusive with *contacts*.
    contacts:
        For a later-joining head: names of head nodes to join through.
    group_config:
        Protocol calibration (the daemon's own CPU costs are the class
        constant :attr:`times`). The config's ``group_id`` is overridden per
        shard (shard *k* runs with ``group_id=k`` on GCS port
        ``JOSHUA_GCS_PORT + k``).
    moms:
        Mom addresses, for post-view-change server-list announcements.
    shards:
        Number of independent ordering groups hosted on this head set.
    """

    #: CPU costs of the daemon itself (the one calibration in use).
    times = ERA_2006_JOSHUA
    reply_delay = times.cmd_reply

    def __init__(
        self,
        node: "Node",
        *,
        initial_heads: list[str] | None = None,
        contacts: list[str] | None = None,
        group_config: GroupConfig = JOSHUA_GROUP_CONFIG,
        moms: list[Address] | None = None,
        shards: int = 1,
    ):
        super().__init__(
            node, REPLICA_SERVER_NAME, JOSHUA_PORT, JOSHUA_GCS_PORT,
            founders=initial_heads, contacts=contacts,
            group_config=group_config, nshards=shards,
        )
        self.moms = list(moms or [])
        self.local_pbs = Address(node.name, PBS_SERVER_PORT)

        #: When the head is busy answering local reads until (simulation
        #: time): the daemon and its local PBS are single-threaded, so one
        #: status answer occupies the head at a time — per-head read
        #: capacity is ``1 / times.read_service`` (the scaling the
        #: read-path bench measures). Only the read path reserves it; the
        #: ordered paths keep their historical timing untouched.
        self._read_busy_until = 0.0

        t = self.times
        reg = self.rpc.register
        reg((JSubReq, JDelReq, JStatReq), self._handle_command, delay=t.cmd_receive)
        reg(JMutexReq, self._handle_jmutex, delay=t.mutex_process)
        reg(JStartedReq, self._handle_started, delay=t.mutex_process)
        reg(JDoneReq, self._handle_done, delay=t.mutex_process)

    def make_engine(self, index: int, group_config: GroupConfig, gcs_port: int):
        return ShardReplica(self, index, group_config, gcs_port)

    # -- merged read views ----------------------------------------------------
    #
    # With one shard these are the real per-replica objects (tests mutate
    # them); with several they are merged read views — per-shard state lives
    # on ``self.shards[k]``. ``active`` and ``stats`` come from the shell.

    @property
    def group(self):
        """Shard 0's GCS membership (the historical single-group handle)."""
        return self.shards[0].group

    @property
    def groups(self) -> list:
        """Every shard's GCS membership, in shard order."""
        return [replica.group for replica in self.shards]

    @property
    def results(self) -> dict[str, object]:
        """uuid -> cached local result (output dedup across retries)."""
        if self.nshards == 1:
            return self.shards[0].results
        merged: dict[str, object] = {}
        for replica in self.shards:
            merged.update(replica.results)
        return merged

    @property
    def command_log(self) -> list[Command]:
        """Replicated command log in delivered order (concatenated by shard
        when sharded — there is no global order across shards)."""
        if self.nshards == 1:
            return self.shards[0].command_log
        log: list[Command] = []
        for replica in self.shards:
            log.extend(replica.command_log)
        return log

    # ------------------------------------------------------------------
    # request routing
    # ------------------------------------------------------------------

    def shard_for_queue(self, spec: JobSpec) -> ShardReplica:
        """The shard owning *spec*'s namespace slice: CRC-32 of the PBS
        queue name (falling back to the owner for unqueued specs) — stable
        across runs, processes and hash seeds."""
        key = spec.queue or spec.owner
        return self.shards[zlib.crc32(key.encode()) % self.nshards]

    def shard_for_job(self, job_id: str) -> ShardReplica:
        """The shard owning *job_id*, from the id stripe ``(seq-1) % N``."""
        head = str(job_id).split(".", 1)[0]
        if not head.isdigit():
            return self.shards[0]
        return self.shards[(int(head) - 1) % self.nshards]

    def _route_command(self, payload) -> ShardReplica:
        if isinstance(payload, JSubReq):
            return self.shard_for_queue(payload.spec)
        if payload.job_id is None:  # jstat with no id: complete but only
            return self.shards[0]  # shard-0-ordered (see module docstring)
        return self.shard_for_job(payload.job_id)

    # ------------------------------------------------------------------
    # client / mom RPC handling
    # ------------------------------------------------------------------

    def _handle_command(self, src: Address, request_id: int, payload):
        refusal = _refusal(payload)
        if refusal is not None:
            return ErrorResp("bad-request", refusal)
        if isinstance(payload, JStatReq) and payload.consistency != "ordered":
            return self._read_locally(src, request_id, payload)
        replica = self._route_command(payload)
        return replica.driver.submit(src, request_id, payload)

    # ------------------------------------------------------------------
    # read path (PROTOCOLS.md §12)
    # ------------------------------------------------------------------

    def _read_locally(self, src: Address, request_id: int, req: JStatReq):
        """Answer a read-path (``ryw``) ``jstat`` from the local PBS replica.

        It first waits (bounded by ``times.read_catchup_timeout``) for every
        gated shard's applied position to reach the client's floor, then
        falls back to the ordered path. An id-less query gates on — and
        reports — **every** shard's position: all replicas on a head apply
        to the same local PBS, so one local stat *is* the per-shard
        fan-out, merged.
        """
        t0 = self.kernel.now
        if req.consistency != "ryw":
            return ErrorResp(
                "bad-request", f"unknown consistency {req.consistency!r}"
            )
        gating = (
            self.shards if req.job_id is None
            else [self.shard_for_job(req.job_id)]
        )
        if not all(replica.active for replica in gating):
            return self.JOINING
        floors = dict(req.min_seq)
        unmet = []
        for replica in gating:
            floor = floors.get(replica.index, 0)
            if replica.applied_seq < floor:
                unmet.append((floor, replica))
        if unmet:
            deadline_at = self.kernel.now + self.times.read_catchup_timeout
            waiters = [(r, r.waiter_for_seq(floor)) for floor, r in unmet]
            for replica, waiter in waiters:
                if waiter.triggered:
                    continue
                remaining = deadline_at - self.kernel.now
                if remaining > 0:
                    yield self.kernel.any_of(
                        [waiter, self.kernel.timeout(remaining)]
                    )
                if not waiter.triggered:
                    for other, pending in waiters:
                        other.forget_waiter(pending)
                    return self._read_fallback(
                        src, request_id, req, floors, self.kernel.now - t0
                    )
            if not all(replica.active for replica in gating):
                # Demoted (view change / resync) while we waited.
                return self.JOINING
        # Reserve this head's serial read occupancy (floor-waiting above
        # costs none — a blocked read burns no CPU).
        start = max(self.kernel.now, self._read_busy_until)
        self._read_busy_until = start + self.times.read_service
        if start > self.kernel.now:
            yield self.kernel.timeout(start - self.kernel.now)
        try:
            stat = yield from gating[0].driver.local_rpc(StatReq(req.job_id))
        except PBSError as exc:
            result = relay_error(exc)
        else:
            as_of = tuple(sorted((r.index, r.applied_seq) for r in gating))
            result = JStatResp(tuple(stat.rows), as_of, self.node.name)
        self._observe_read(req, "local", self.kernel.now - t0, gating)
        yield self.kernel.timeout(self.times.cmd_reply)
        return result

    def _read_fallback(
        self, src: Address, request_id: int, req: JStatReq,
        floors: dict, waited: float,
    ):
        """Route a read the local replica cannot serve in time into the
        ordered stream. An ordered command on shard *k* executes after all
        committed shard-*k* writes, so id-less queries go to the shard with
        the largest unmet floor — the one the client is actually waiting
        on. (Simultaneously lagging *several* shards of an id-less query
        is the documented cross-shard limitation, PROTOCOLS.md §12.)"""
        replica = self._route_command(req)
        if req.job_id is None and floors:
            best_lag = 0
            for candidate in self.shards:
                floor = floors.get(candidate.index, 0)
                lag = floor - candidate.applied_seq
                if lag > best_lag:
                    best_lag, replica = lag, candidate
        self._observe_read(req, "fallback", waited, [replica])
        return replica.driver.submit(src, request_id, req)

    def _observe_read(
        self, req: JStatReq, outcome: str, waited: float, shards: list,
    ) -> None:
        collector = collector_of(self.node.network)
        if collector is None:
            return
        lag = sum(r.delivered_commands - r.drained_commands for r in shards)
        collector.joshua_read(
            self.node.name, trace_id=req.uuid, mode=req.consistency,
            outcome=outcome, wait_s=waited, lag=lag,
            shard=(
                shards[0].index
                if self.nshards > 1 and len(shards) == 1 else None
            ),
        )

    def _handle_jmutex(self, src: Address, request_id: int, req: JMutexReq) -> None:
        self.shard_for_job(req.job_id).arbiter.handle_jmutex(src, request_id, req)

    def _handle_started(self, src: Address, request_id: int, payload: JStartedReq):
        return self._order_for_job(payload.job_id, Started(payload.job_id))

    def _handle_done(self, src: Address, request_id: int, payload: JDoneReq):
        return self._order_for_job(payload.job_id, Done(payload.job_id))

    def _order_for_job(self, job_id: str, record):
        replica = self.shard_for_job(job_id)
        if replica.can_order:
            replica.group.multicast(record)
            return JMutexResp("ok")
        # Refuse rather than ack-and-drop: the mom's notifier must
        # move on to a head that can actually record the event.
        return self.JOINING


def _refusal(payload) -> str | None:
    """Why a client command cannot be routed, or ``None``. The front door
    checks the three fields routing, the reply cache and the read path
    trust: outside input gets ``bad-request`` instead of crashing the
    daemon, and a command without its own uuid never shares another's
    cached reply."""
    name = type(payload).__name__
    if type(payload.uuid) is not str or not payload.uuid:
        return f"{name} needs a non-empty uuid string"
    if isinstance(payload, JSubReq) and not (
            isinstance(payload.spec, JobSpec)
            and type(payload.spec.queue or payload.spec.owner) is str):
        return f"{name} needs a JobSpec with a queue or owner"
    if isinstance(payload, JStatReq) and not (
            type(payload.min_seq) is tuple and all(
                type(pair) is tuple and len(pair) == 2
                and all(type(part) is int for part in pair)
                for pair in payload.min_seq)):
        return f"{name} min_seq must be (shard, seq) integer pairs"
    return None
