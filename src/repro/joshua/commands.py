"""The JOSHUA control commands: ``jsub``, ``jdel``, ``jstat``.

PBS-interface-compliant replacements for ``qsub``/``qdel``/``qstat`` (the
paper suggests ``alias qsub=jsub`` for 100 % interface compliance). Each
invocation:

1. charges the same client-binary startup cost as the q-commands,
2. contacts a head node's joshua server (preferring a configured or
   caller-chosen head),
3. fails over to the next head on timeout or while a head is still joining,
4. is exactly-once end to end: the command carries a UUID, so a retry after
   a half-processed attempt returns the original result instead of
   re-executing.

Commands may run from any node — a head node, a compute node, or a login
node (paper: "The JOSHUA control commands may be invoked on any of the
active head nodes or from a separate login node").

Points 2–4 are the engine's client core
(:class:`~repro.aa.client.ReplicatedClient`); what is JOSHUA's own here is
the start-up cost, the ``job.*`` trace events and the commit-position stamp
(:class:`~repro.joshua.wire.SeqStampedResp`) unwrapped for ``ryw`` reads.
"""

from __future__ import annotations

from typing import Generator

from repro.aa.client import ReplicatedClient
from repro.joshua.wire import JOSHUA_PORT, JDelReq, JStatReq, JSubReq, SeqStampedResp
from repro.net.address import Address
from repro.net.network import Network
from repro.obs.collector import collector_of
from repro.pbs.job import JobSpec
from repro.pbs.service_times import ERA_2006, ServiceTimes
from repro.rpc import failover_call
from repro.util.errors import NoActiveHeadError

__all__ = ["JoshuaClient"]


class JoshuaClient(ReplicatedClient):
    """jsub/jdel/jstat runner on one node, aware of every head node."""

    #: The family keeps its name: command uuids are on the wire, and the
    #: pinned baselines carry them.
    uuid_family = "joshua-uuid"

    def __init__(
        self,
        network: Network,
        node: str,
        heads: list[str],
        *,
        service_times: ServiceTimes = ERA_2006,
        timeout: float = 5.0,
        prefer: str | None = None,
        consistency: str = "ordered",
    ):
        super().__init__(
            network, node, [Address(h, JOSHUA_PORT) for h in heads],
            timeout=timeout, prefer=prefer,
        )
        self.times = service_times
        #: The read mode of :meth:`jstat` (``"ordered"`` or ``"ryw"``).
        self.consistency = consistency
        #: Under ``ryw`` heads stamp each write's commit position
        #: (PROTOCOLS.md §12): the floors later reads present. An
        #: ``ordered`` client is wire-identical to the historical one.
        self.track_writes = consistency == "ryw"
        #: shard id -> highest commit position of this client's own writes.
        self.last_write_seq: dict[int, int] = {}
        #: The raw response of the most recent ``jstat`` (a ``JStatResp``
        #: for local reads, a plain PBS ``StatResp`` for ordered ones) —
        #: read-path tests and the chaos invariants inspect its ``as_of``.
        self.last_stat_response = None

    def _call(self, payload) -> Generator:
        yield self.network.kernel.timeout(self.times.client_startup)
        collector = collector_of(self.network)
        uuid = getattr(payload, "uuid", None)
        if collector is not None and uuid is not None:
            # The command uuid is the causal trace id: already globally
            # unique, already on the wire — tracing adds no wire bytes.
            collector.job_event(self.node, "job.sent", trace_id=uuid,
                                command=uuid.split("-", 1)[0])
        try:
            response = yield from self._failover(
                payload, f"no active head answered {type(payload).__name__}"
            )
        except NoActiveHeadError:
            if collector is not None and uuid is not None:
                collector.job_event(self.node, "job.failed", trace_id=uuid)
            raise
        if collector is not None and uuid is not None:
            collector.job_event(self.node, "job.acked", trace_id=uuid,
                                response=type(response).__name__)
        if isinstance(response, SeqStampedResp):
            if response.seq > self.last_write_seq.get(response.shard, 0):
                self.last_write_seq[response.shard] = response.seq
            return response.result
        return response

    def jsub(self, spec: JobSpec | None = None, **spec_kwargs) -> Generator:
        """Submit a job to the replicated service; returns the job id."""
        spec = spec or JobSpec(**spec_kwargs)
        response = yield from self._call(
            JSubReq(self._uuid("jsub"), spec, self.track_writes)
        )
        return response.job_id

    def jdel(self, job_id: str) -> Generator:
        """Delete a job on every active head."""
        response = yield from self._call(
            JDelReq(self._uuid("jdel"), job_id, self.track_writes)
        )
        return response.job_id

    def jstat(self, job_id: str | None = None) -> Generator:
        """Status query; rows from the answering head.

        In the client's ``consistency`` mode:

        * ``"ordered"`` — through the ordered command stream, serialised
          against every committed write (the historical behaviour, wire-
          identical to the pre-read-path client);
        * ``"ryw"`` — answered from the receiving head's local replica; the
          request carries this client's per-shard write floors and the head
          defers (bounded) until its replica has applied them, falling back
          to ordered on timeout.
        """
        if self.consistency == "ordered":
            request = JStatReq(self._uuid("jstat"), job_id)
        else:
            floors = tuple(sorted(self.last_write_seq.items()))
            request = JStatReq(self._uuid("jstat"), job_id, self.consistency, floors)
        response = yield from self._call(request)
        self.last_stat_response = response
        return list(response.rows)

    def jsig(self, job_id: str, signal: str = "SIGTERM") -> Generator:
        """Signal a running job — the qsig passthrough.

        The paper deliberately provides no replicated jsig "as this
        operation does not appear to change the state of the HPC job and
        resource management service. The original PBS command may be
        executed independently of JOSHUA." We do exactly that: a plain
        qsig against the first live head's local PBS server, bypassing the
        group entirely.
        """
        from repro.pbs.server import PBS_SERVER_PORT
        from repro.pbs.wire import SignalReq

        yield self.network.kernel.timeout(self.times.client_startup)
        response = yield from failover_call(
            self.network, self.node,
            [Address(r.node, PBS_SERVER_PORT) for r in self._targets()],
            SignalReq(job_id, signal),
            timeout=self.timeout,
            what="no head answered qsig",
        )
        return response.detail
