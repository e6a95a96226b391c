"""The replication engine: one ordered-apply / reply-cache / marker-join core.

External symmetric active/active replication (paper §3) is service-agnostic:
intercept the service's interface, totally order the requests through the
group communication system, apply them at every replica, deliver the output
exactly once, and bring a joining replica up from a consistent cut. This
module is that machinery, once, for every replicated service in the tree:

* :class:`ReplicationEngine` — one ordering group's worth of it: client
  intake with uuid dedup and a single SAFE multicast per command, the
  strictly serial apply loop, the reply cache and pending-reply table, the
  applied-sequence surface local reads gate on, the whole marker-cut
  join (drop what was ordered before our own marker, capture at the cut,
  push, fresh cut when no push arrives, demote-and-resync after a lost
  partition merge), and the one start decision, read from the node's
  ``Disk``: a fresh deployment boots its static view, every other start
  joins, and returners that find no group re-form their last view once
  all of its members are back, taking the highest applied position among
  them (Skeen's "last process to fail");
* :class:`EngineDriver` — the seam to the replicated service: execute one
  ordered command against the local backend, capture its state at a cut,
  install a capture. A driver must be **deterministic**: the same command
  sequence leaves the same state and returns the same results at every
  replica (no local clocks, RNG draws or unordered iteration in anything
  that reaches state or results);
* :class:`ReplicaDaemon` — the daemon shell: one client-facing endpoint and
  typed RPC dispatcher in front of one engine per ordering shard. It
  routes a sponsor's capture push to its shard and owns the one refusal
  (:attr:`ReplicaDaemon.JOINING`) every host gives while it cannot serve.

JOSHUA (:mod:`repro.joshua`) is this engine with the PBS driver, plus the
launch mutex and mom announcements it adds through the two subclass hooks
(:meth:`ReplicationEngine.on_ordered`, :meth:`ReplicationEngine._on_view`);
:class:`~repro.aa.replicated.ReplicatedService` hosts the same engine around
any :class:`~repro.aa.replicated.BackendDriver`.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Generator, Protocol

from repro.aa.wire import Command, SeqStampedResp, StateXferResp, XferMarker
from repro.cluster.daemon import Daemon
from repro.gcs.member import GroupMember
from repro.gcs.messages import SAFE, DeliveredMessage
from repro.gcs.view import View
from repro.net.address import Address
from repro.obs.collector import collector_of
from repro.rpc import RpcDispatcher, rpc_state
from repro.rpc.wire import ErrorResp, bad_request
from repro.sim.resources import Store
from repro.util.errors import JoshuaError

if TYPE_CHECKING:  # pragma: no cover
    from repro.gcs.config import GroupConfig

__all__ = ["EngineDriver", "ReplicationEngine", "ReplicaDaemon", "record_founding_view"]


def _view_key(gcs_port: int) -> str:
    return f"aa.view.{gcs_port}"


def record_founding_view(disk, heads: list[str], gcs_port: int, nshards: int = 1) -> None:
    """Record a fresh deployment's static view on a founder's *disk*, for
    each of the *nshards* groups from base port *gcs_port*: the start
    decision's degenerate case, every member starting with nothing applied
    anywhere, which boots that view at once (:meth:`ReplicationEngine.start`)."""
    for k in range(nshards):
        disk.write(_view_key(gcs_port + k), (0, tuple(heads)))


class EngineDriver(Protocol):
    """What the engine needs from the service it replicates."""

    def execute_command(self, command: Command) -> Generator:  # pragma: no cover
        """Apply *command* to the local backend; return the reply record to
        cache and relay (deterministic failures are replies too)."""

    def capture_state(self, marker_uuid: str) -> Generator:  # pragma: no cover
        """The backend's state right now, as a :class:`StateXferResp` for
        *marker_uuid* (the engine fills in ``results``/``applied_seq``)."""

    def install_state(self, response: StateXferResp) -> Generator:  # pragma: no cover
        """Replace the local backend's state with a sponsor's capture."""


class ReplicationEngine:
    """One ordering group's replica: intake, serial apply, cache, join.

    Parameters
    ----------
    host:
        The :class:`ReplicaDaemon` whose endpoint clients and joiners talk
        to; the engine learns its client-facing address, log identity,
        head list, shard count, reply path and reply cost from it.
    driver:
        The :class:`EngineDriver` for the replicated service.
    group_config / gcs_port:
        Group-communication tuning and the *base* GCS port: shard *k*
        runs ``group_id=k`` on ``gcs_port + k``, so frames of different
        shards can never cross-deliver.
    index:
        Which of the host's ordering shards this engine is.
    """

    def __init__(
        self,
        host: "ReplicaDaemon",
        driver: EngineDriver,
        group_config: "GroupConfig",
        gcs_port: int,
        index: int = 0,
    ):
        self.host = host
        self.driver = driver
        self.index = index
        self.nshards = nshards = host.nshards
        self.gcs_port = gcs_port + index
        self.node = host.node
        self.kernel = host.kernel
        self.log = host.log
        #: The *client-facing* address (the host daemon's endpoint) —
        #: markers carry it, and it is shard-unambiguous because markers
        #: are multicast within one shard's own group.
        self.address = host.address
        self.tag = host.tag if nshards == 1 else f"{host.tag}[s{index}]"
        #: Trace-event label naming the owning shard — only when sharding
        #: is actually on, so single-shard event payloads stay identical to
        #: the historical stream.
        self._labels = {} if nshards == 1 else {"shard": index}

        #: Fully in service (joined + state transferred) — per shard: one
        #: shard can be mid-resync while its siblings keep executing.
        self.active = False
        #: ``state_transfers_pulled`` is always 0 (there is no pull any
        #: more); it stays because the benchmark's ledger reads it.
        self.stats = {"commands": 0, "executed": 0,
                      "state_transfers_served": 0, "state_transfers_pulled": 0}

        # -- serial apply loop and reply cache --------------------------------
        self.queue: Store = Store(self.kernel)
        #: uuid -> cached local result (output dedup across retries).
        self.results: dict[str, object] = {}
        #: uuid -> applied_seq the command executed at on this replica since
        #: its last installed capture (feeds SeqStampedResp).
        self.results_seq: dict[str, int] = {}
        #: uuid -> [(client src, rpc id, stamp seq?)], from the uuid's one
        #: multicast until :meth:`answer`.
        self._pending_replies: dict[str, list[tuple[Address, int, bool]]] = {}
        #: Replicated command log (delivered order) — used by tests and the
        #: chaos invariants; state transfer captures the backend rather
        #: than replaying from time zero.
        self.command_log: list[Command] = []

        # -- applied-sequence surface (local reads, PROTOCOLS.md §12) ---------
        #: Commands this replica has actually applied to its backend
        #: (dedup-skipped re-deliveries do not count, so every replica of a
        #: shard computes the identical sequence) — the staleness position
        #: the read path reports and the RYW catch-up gate waits on.
        #: Every capture carries it, so it is exact on every active replica.
        self.applied_seq = 0
        #: ``applied_seq`` at the cut of the last capture installed: the
        #: stamp of a uuid known only from that capture's reply cache (it
        #: overstates, which is safe for a read floor; understating is not).
        self.cut_seq = 0
        #: Commands delivered by the group to this replica (applied or not)
        #: and commands its loop has drained — their difference is the
        #: read path's staleness-lag gauge (the local apply backlog).
        self.delivered_commands = 0
        self.drained_commands = 0
        #: RYW catch-up waiters: ``(floor, event)`` pairs; the loop
        #: succeeds the event once ``applied_seq`` reaches the floor.
        self._seq_waiters: list = []

        # -- marker-cut join ---------------------------------------------------
        #: While syncing: drop deliveries ordered before our own marker.
        self.syncing_marker: str | None = None
        self.marker_seen = False
        #: The capture for the *current* ``syncing_marker`` (last push wins;
        #: empty whenever no cut is pinned or a fresh one is), and the event
        #: :meth:`_receive_state` waits on for it.
        self._response: StateXferResp | None = None
        self._push_waiter = None
        self._seen_rejoins = 0
        #: The next view that contains us must pin a transfer marker: we
        #: joined a running group, or a partition re-merge demoted us.
        self.needs_resync = False
        #: While a recovery round decides (the view was re-formed by
        #: returners): the other members' nodes, whose captures we await.
        self._recovering: set[str] | None = None
        self._pushes: dict[str, StateXferResp] = {}
        #: ... and whose markers we have delivered (see :meth:`_have_state`).
        self._round_markers: set[str] = set()

        # What outlives the process on the node's disk, beside the boot
        # counter of this GCS address (the member numbers its multicasts
        # apart from its predecessors'): the last view this replica
        # installed in service, and its applied position. start() decides
        # from them.
        disk = self.node.disk
        boots_key = f"gcs.boots.{self.gcs_port}"
        self.incarnation = disk.read(boots_key, 0)
        disk.write(boots_key, self.incarnation + 1)
        self._view_key = _view_key(self.gcs_port)
        self._applied_key = f"aa.applied.{self.gcs_port}"
        self.group = GroupMember(
            self.node.network.bind(self.node.name, self.gcs_port),
            dataclasses.replace(group_config, group_id=index, shard_count=nshards),
            on_deliver=self._on_deliver,
            on_view=self._on_view,
            incarnation=self.incarnation,
        )

    def start(self) -> None:
        """Boot, join or recover this shard's group (from the daemon's
        on_start), deciding from the node's disk alone.

        The founding view (id 0) is a fresh deployment: every member starts
        with nothing applied anywhere, so the view boots at once (booting
        installs view 1, so no later start reads view 0). Every other start
        joins through the host's heads and receives state transfer: a head
        added live, a wiped disk, and a returner whose group ran on without
        it. A returner with a durable backend also waits for the members of
        its last view: if they all return and find no group within one
        ``flush_timeout``, they re-form it and each takes the highest
        applied position among them (:meth:`_receive_state`). Until then it
        refuses, as every joiner does. The reply cache is not on disk: a
        retry of a command answered before a whole-group failure executes
        again.
        """
        host = self.host
        disk = self.node.disk
        record = disk.read(self._view_key)
        if record is not None and record[0] == 0:
            self.active = True
            self.group.boot([Address(n, self.gcs_port) for n in record[1]])
            return
        self.needs_resync = True
        if record is None or not host.durable:
            self.group.join([Address(n, self.gcs_port) for n in host.heads])
            return
        self.cut_seq = self.applied_seq = disk.read(self._applied_key, 0)
        self._recover()

    def _recover(self) -> None:
        """Join through the heads, and wait for the members of the last
        view on disk (not rewritten until this replica is in service)."""
        view_id, names = self.node.disk.read(self._view_key)
        self.group.recover(
            view_id, [Address(n, self.gcs_port) for n in names],
            [Address(n, self.gcs_port) for n in self.host.heads],
        )

    # ------------------------------------------------------------------
    # client command intake
    # ------------------------------------------------------------------

    @property
    def can_order(self) -> bool:
        """Whether this replica can multicast right now. False while
        inactive (state transfer in progress) or mid-(re)join after an
        exclusion: the client must be sent to another replica rather than
        the daemon crash on the multicast."""
        return self.active and self.group.can_multicast

    def submit(self, src: Address, request_id: int, command: Command,
               track: bool = False):
        """Dedup an incoming client command by uuid and multicast it once.

        Returns the host's refusal while this replica cannot order, the
        cached reply for an already-executed uuid, else ``None`` (the RPC
        stays open; :meth:`answer` replies after local execution). *track*
        asks for the reply to carry its commit position."""
        if not self.can_order:
            return self.host.JOINING
        uuid = command.uuid
        if uuid in self.results:
            return self._stamped(uuid, track)
        waiting = self._pending_replies.setdefault(uuid, [])
        waiting.append((src, request_id, track))
        if len(waiting) > 1:
            return None  # already in flight; the delivery will answer
        self.stats["commands"] += 1
        self._trace("job.received", uuid, command=command.kind)
        self.group.multicast(command, service=SAFE)
        return None

    def _trace(self, kind: str, uuid: str, **fields) -> None:
        collector = collector_of(self.node.network)
        if collector is not None:
            collector.job_event(self.node.name, kind, trace_id=uuid,
                                **fields, **self._labels)

    def answer(self, uuid: str) -> None:
        for src, request_id, track in self._pending_replies.pop(uuid, []):
            self.host._reply(src, request_id, self._stamped(uuid, track))

    def _stamped(self, uuid: str, track: bool):
        """The cached reply for *uuid*, wrapped in a :class:`SeqStampedResp`
        when the writer asked for its commit position — never for an error
        relay (it must reach the client unwrapped to re-raise). The stamp
        is exact for a command applied here since the last install, that
        install's cut for one that arrived in its reply cache."""
        result = self.results.get(uuid)
        if not track or isinstance(result, ErrorResp):
            return result
        seq = self.results_seq.get(uuid, self.cut_seq)
        return SeqStampedResp(result, self.index, seq)

    # ------------------------------------------------------------------
    # serial apply loop
    # ------------------------------------------------------------------

    def serialise(self, work: Callable[[], Generator]) -> None:
        """Run *work* (a generator function) in the serial loop, after
        everything already queued — for driver-side work that must not
        interleave with command execution."""
        self.queue.put_nowait(work)

    def loop(self):
        while True:
            item = yield self.queue.get()
            if not isinstance(item, DeliveredMessage):
                yield from item()
                continue
            payload = item.payload
            if isinstance(payload, XferMarker):
                if payload.joiner == self.address:
                    yield from self._receive_state(payload)
                else:
                    yield from self._serve_state(payload)
                continue
            self.drained_commands += 1
            self._trace("job.ordered", payload.uuid,
                        seq=item.seq, view=item.view_id)
            if not self.active and self.syncing_marker is not None:
                # Commands queued between an abandoned marker and its
                # replacement are covered by the fresh capture.
                continue
            yield from self._apply(payload)

    def _apply(self, command: Command):
        uuid = command.uuid
        if uuid in self.results:
            self.answer(uuid)
            return
        self.command_log.append(command)
        result = yield from self.driver.execute_command(command)
        self.results[uuid] = result
        self._set_applied(self.applied_seq + 1)
        self.results_seq[uuid] = self.applied_seq
        self.stats["executed"] += 1
        self._trace("job.executed", uuid, command=command.kind,
                    result=type(result).__name__)
        if self.host.reply_delay is not None:
            yield self.kernel.timeout(self.host.reply_delay)
        self.answer(uuid)

    # ------------------------------------------------------------------
    # applied-sequence surface
    # ------------------------------------------------------------------

    def _set_applied(self, seq: int) -> None:
        """Move the applied position — one more command applied to the
        backend, or a state transfer re-anchoring it at the sponsor's
        counter — and release any RYW waiters the move satisfies."""
        self.applied_seq = seq
        if self.host.durable:
            self.node.disk.write(self._applied_key, seq)
        if not self._seq_waiters:
            return
        still_waiting = []
        for floor, event in self._seq_waiters:
            if seq >= floor:
                if not event.triggered:
                    event.succeed(seq)
            else:
                still_waiting.append((floor, event))
        self._seq_waiters = still_waiting

    def waiter_for_seq(self, floor: int):
        """A kernel event that succeeds (with the applied position) once
        ``applied_seq`` reaches *floor* — immediately if it already has."""
        event = self.kernel.event()
        if self.applied_seq >= floor:
            event.succeed(self.applied_seq)
        else:
            self._seq_waiters.append((floor, event))
        return event

    def forget_waiter(self, event) -> None:
        """Drop a catch-up waiter that timed out (fell back to ordered)."""
        self._seq_waiters = [
            (floor, e) for floor, e in self._seq_waiters if e is not event
        ]

    # ------------------------------------------------------------------
    # group callbacks
    # ------------------------------------------------------------------

    def _on_deliver(self, msg: DeliveredMessage) -> None:
        payload = msg.payload
        own_marker = (
            isinstance(payload, XferMarker)
            and payload.marker_uuid == self.syncing_marker
        )
        if isinstance(payload, XferMarker) and self._recovering is not None:
            # A recovery round serves every member's marker, ours or not.
            self._round_markers.add(payload.joiner.node)
            self._wake_if_ready()
        elif self.syncing_marker is not None and not self.marker_seen and not own_marker:
            # Everything ordered before our own marker is covered by the
            # state transfer; drop it.
            return
        if isinstance(payload, Command):
            self.delivered_commands += 1
            self.queue.put_nowait(msg)
        elif isinstance(payload, XferMarker):
            self.queue.put_nowait(msg)
            if own_marker:
                self.marker_seen = True
        else:
            self.on_ordered(payload)

    def on_ordered(self, payload) -> None:
        """Hook: a totally ordered message that is neither a command nor a
        marker — a subclass's own replicated traffic (JOSHUA's launch-mutex
        claims). Only called for messages ordered after our join cut."""

    def _on_view(self, view: View) -> None:
        """View hook. Subclasses extend it for their own view-change work
        (call ``super()._on_view(view)`` first)."""
        nodes = {m.node for m in view.members}
        if self.group.flush.recovered_view == view.view_id and not self.active:
            # Returners re-formed their last view: decide among them.
            self._recovering = nodes - {self.node.name}
            self._round_markers = set()
        elif self._recovering is not None and not self._recovering <= nodes:
            # A member of the round failed before we saw its capture, and
            # it may hold the highest position: wait for it to return.
            self._recovering = None
            self.syncing_marker = None
            self.host.spawn(self._await_round(), name=f"{self.tag}-recover")
            return
        rejoins = self.group.stats.get("rejoins", 0)
        if rejoins > self._seen_rejoins:
            self._seen_rejoins = rejoins
            if self.active and view.size > 1:
                # Our GCS member lost a partition merge and dissolved into
                # the surviving component (e.g. after a NIC blackout). Our
                # replica may have missed commands — or executed client
                # retries the majority already answered differently. The
                # survivors are authoritative: demote and resync.
                self.log.warning(
                    self.tag, "re-merged from losing partition side; resyncing"
                )
                self.active = False
                self.syncing_marker = None
                self.needs_resync = True
        if self.active:
            self._record_view(view)
        if (self.syncing_marker is None and not self.active
                and self.needs_resync and self.group.can_multicast):
            # First view containing us after a join: pin the transfer cut.
            self._pin_marker()

    def _record_view(self, view: View) -> None:
        """The view a replica in service installed: what a whole-group
        recovery waits for (its position is on disk already)."""
        self.node.disk.write(
            self._view_key, (view.view_id, tuple(m.node for m in view.members))
        )

    def _await_round(self):
        # Outside the view installation that lost the member.
        yield self.kernel.timeout(0)
        self._recover()

    # ------------------------------------------------------------------
    # marker-cut join
    # ------------------------------------------------------------------

    def _pin_marker(self) -> None:
        # The id family keeps its historical name: marker uuids are on the
        # wire, and the pinned baselines carry them.
        marker_id = rpc_state(self.node.network).next_id("joshua-marker")
        marker = XferMarker(f"xfer-{self.node.name}-{marker_id}", self.address)
        self.syncing_marker = marker.marker_uuid
        self.marker_seen = False
        self._pushes = {}
        self.group.multicast(marker)

    # -- sponsor side ---------------------------------------------------------

    def _serve_state(self, marker: XferMarker):
        # Every active member serves (replicas are identical at the marker
        # cut, so the captures are too, and the joiner dedups). A single
        # designated sponsor can deadlock: two replicas resyncing at once
        # would each elect the other — inactive and unable to serve.
        view = self.group.view
        if view is None:
            return
        if not (self.active or (self._recovering is not None
                                and marker.joiner.node in self._recovering)):
            return
        # marker.joiner is the joiner's *client-facing* endpoint; members
        # are GCS endpoints — compare by node.
        if all(m.node == marker.joiner.node for m in view.members):
            return
        captured = yield from self.driver.capture_state(marker.marker_uuid)
        # Plus the engine's own state at the cut: reply cache and position.
        # The capture is the push frame; its shard routes it at the joiner.
        response = dataclasses.replace(
            captured,
            results=tuple(sorted(self.results.items())),
            applied_seq=self.applied_seq,
            shard=self.index,
        )
        self.stats["state_transfers_served"] += 1
        if not self.host.endpoint.closed:
            self.host.endpoint.send(marker.joiner, response)

    # -- joiner side ----------------------------------------------------------

    def handle_push(self, response: StateXferResp, sponsor: Address) -> None:
        if response.marker_uuid != self.syncing_marker:
            return  # an abandoned cut's capture, or one that came after install
        if self._recovering is not None:
            if sponsor.node in self._recovering:
                self._pushes[sponsor.node] = response
        else:
            self._response = response
        self._wake_if_ready()

    def _wake_if_ready(self) -> None:
        waiter = self._push_waiter
        if waiter is not None and not waiter.triggered and self._have_state():
            waiter.succeed()

    def _have_state(self) -> bool:
        """A joiner needs one capture. A recovery round needs every other
        member's, since any of them may hold the highest position, and
        every other member's marker: a member goes into service only then,
        so no command is ordered before any marker of the round."""
        if self._recovering is not None:
            return (len(self._pushes) == len(self._recovering)
                    and self._round_markers >= self._recovering)
        return self._response is not None

    def _best_capture(self) -> StateXferResp | None:
        """The capture a recovery round installs: the highest applied
        position, ties to the lower rank; ``None`` when it is our own."""
        view = self.group.view
        best, key = None, (self.applied_seq, -view.rank_of(self.group.address))
        for node, response in sorted(self._pushes.items()):
            rank = view.rank_of(Address(node, self.gcs_port))
            if (response.applied_seq, -rank) > key:
                best, key = response, (response.applied_seq, -rank)
        return best

    def _receive_state(self, marker: XferMarker):
        uuid = marker.marker_uuid
        if uuid != self.syncing_marker:
            return  # stale marker; we moved on to a fresh cut
        if not self._have_state():
            self._push_waiter = waiter = self.kernel.event()
            deadline = self.kernel.timeout(self.group.config.flush_timeout * 4)
            yield self.kernel.any_of([waiter, deadline])
            self._push_waiter = None
            if not self._have_state():
                # No push arrived: every sponsor died mid-capture or every
                # push frame was lost. Pin a fresh cut.
                if not self.group.can_multicast:
                    # The group itself is mid-(re)join; a marker cannot be
                    # ordered right now. Drop the stale cut — the view that
                    # ends the join re-enters _on_view, which pins a new one.
                    self.syncing_marker = None
                    return
                self._pin_marker()
                return  # the fresh marker's delivery re-enters here
        if self._recovering is not None:
            response = self._best_capture()
            self._recovering = None
            self._pushes = {}
        else:
            response = self._response
        if response is not None:
            yield from self.driver.install_state(response)
            # Re-anchor at the marker cut: post-marker commands execute
            # after this method returns, so the sponsor's reply cache and
            # counter are exact here too, and what was recorded before
            # belongs to the history they replaced (a merge-demoted
            # replica's own answers).
            self.results = dict(response.results)
            self.results_seq.clear()
            self.cut_seq = response.applied_seq
            self._set_applied(response.applied_seq)
        self.syncing_marker = None
        self._response = None
        self.needs_resync = False
        self.active = True
        self._record_view(self.group.view)


class ReplicaDaemon(Daemon):
    """One client-facing endpoint in front of one engine per ordering shard.

    Everything about hosting the engine that does not depend on the
    replicated service: one engine per shard from the :meth:`make_engine`
    hook, the dispatcher, the push frame, and the one refusal. Subclasses
    register their client protocol on ``self.rpc`` and hand requests to
    :meth:`ReplicationEngine.submit`.

    *heads* names every node the service runs on (this one may be among
    them): a joining start asks them for the group. Whether a start boots,
    joins or recovers is the engine's decision, from the node's disk
    (:meth:`ReplicationEngine.start`); a fresh deployment records its
    static view there first (:func:`record_founding_view`). *gcs_port* is
    the base port of the *nshards* ordering groups.
    """

    #: CPU cost of relaying a command's output back after local execution;
    #: ``None`` charges nothing and schedules nothing (a 0 is still an event).
    reply_delay: float | None = None

    #: Whether the backend's state survives a reboot on the node's disk, as
    #: the engine's position does: only then can the members of a whole
    #: group that failed recover it from their disks.
    durable = True

    #: The answer of a replica that cannot serve right now (joining,
    #: resyncing, outside the view): the client core asks the next one.
    #: The wording is JOSHUA's, whose frames are pinned.
    JOINING = ErrorResp("joining", "head is joining; retry another")

    def __init__(
        self,
        node,
        name: str,
        port: int,
        gcs_port: int,
        *,
        heads: list[str],
        group_config: "GroupConfig",
        nshards: int = 1,
    ):
        if nshards < 1:
            raise JoshuaError("shards must be >= 1")
        super().__init__(node, name, port)
        self.heads = list(heads)
        self.nshards = nshards
        self.rpc = RpcDispatcher(self, fallback=bad_request)
        self.shards: list[ReplicationEngine] = [
            self.make_engine(k, group_config, gcs_port) for k in range(nshards)
        ]

    def make_engine(self, index: int, group_config, gcs_port: int):  # pragma: no cover
        """Factory hook: the engine (with its driver) for shard *index*."""
        raise NotImplementedError

    @property
    def active(self) -> bool:
        """Fully in service: every shard joined + state transferred."""
        return all(engine.active for engine in self.shards)

    @property
    def stats(self) -> dict[str, int]:
        """Engine counters summed across shards (per-shard counters are on
        ``self.shards[k].stats``)."""
        totals: dict[str, int] = {}
        for engine in self.shards:
            for key, value in sorted(engine.stats.items()):
                totals[key] = totals.get(key, 0) + value
        return totals

    def on_start(self) -> None:
        for engine in self.shards:
            suffix = f"-s{engine.index}" if self.nshards > 1 else ""
            self.spawn(engine.loop(), name=f"{self.tag}-executor{suffix}")
            engine.start()

    def on_stop(self, *, crashed: bool) -> None:
        for engine in self.shards:
            engine.group.stop()

    def leave(self) -> None:
        """Voluntary departure — handled as a forced failure (paper §4:
        the JOSHUA server shuts down via a signal)."""
        for engine in self.shards:
            engine.group.leave()
        self.stop()

    def run(self):
        while True:
            delivery = yield self.endpoint.recv()
            frame = delivery.payload
            # The one non-RPC frame: a sponsor's fire-and-forget capture
            # push. One naming a shard this host does not run is dropped.
            if isinstance(frame, StateXferResp) and 0 <= frame.shard < self.nshards:
                self.shards[frame.shard].handle_push(frame, delivery.src)
            else:
                self.rpc.handle_frame(delivery.src, frame)

    def _reply(self, dst: Address, request_id: int, response) -> None:
        self.rpc.reply(dst, request_id, response)
