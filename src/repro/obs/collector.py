"""The per-simulation trace collector: hooks in, spans + metrics out.

One :class:`TraceCollector` hangs off a :class:`~repro.net.network.Network`
(like :func:`repro.rpc.rpc_state`) and is fed by the substrate's hook
points:

* client-side RPC — the ``on_request`` / ``on_response`` hook lists on
  :class:`~repro.rpc.state.RpcState` (a timed-out conversation reports
  through the same path with a :class:`~repro.rpc.state.TimeoutRecord`
  marker, so the collector sees *every* conversation);
* server-side RPC — the per-simulation ``on_dispatch`` /
  ``on_dispatch_done`` hooks every :class:`~repro.rpc.server.RpcDispatcher`
  fires;
* GCS — :meth:`gcs_multicast` / :meth:`gcs_ordered` / :meth:`gcs_delivered`
  called by :class:`~repro.gcs.member.GroupMember` when a collector is
  attached (``collector_of(network)`` returns ``None`` otherwise — one
  attribute read, the stacks above pay nothing when unobserved);
* job lifecycle — :meth:`job_event` / :meth:`job_alias` called from the
  JOSHUA client, serial executor, mutex arbiter and PBS mom.

**Passivity contract.** The collector never spawns a process, never yields
or schedules a simulation event, never draws from an RNG stream, and never
changes a wire payload. Attaching it must leave a simulation's event trace
bit-identical; ``tests/integration/test_obs_passive.py`` enforces exactly
that across normal / membership-churn / partition scenarios.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.obs.events import PHASE_EDGES, JobTrace, TraceEvent
from repro.obs.metrics import ATTEMPT_BUCKETS, MetricsRegistry
from repro.rpc.state import TimeoutRecord, rpc_state

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network

__all__ = ["TraceCollector", "attach_collector", "collector_of"]

#: Bound on the flat event log (oldest events drop first). Job traces and
#: metrics are aggregate state and not bounded by this.
EVENT_LOG_LIMIT = 200_000

#: Bound on the multicast-sent timestamp map (see :meth:`gcs_multicast`).
MCAST_MAP_LIMIT = 50_000

#: Field names of the RPC spans, most of a run's spans; every span of a
#: kind holds the one tuple.
_SEND_KEYS = ("request", "dst", "attempt", "request_id")
_CALL_KEYS = ("request", "dst", "latency_s", "attempts", "outcome", "response")
_DISPATCH_KEYS = ("daemon", "request", "request_id", "src")


class _Spelling(dict):
    """Server address -> its ``node:port`` text, spelled once per collector
    (a client's address is a fresh port per conversation: not memoised)."""

    def __missing__(self, address):
        text = self[address] = str(address)
        return text


class _Series(dict):
    """The series of one metric, memoised by label values.

    Keyed by the value of each of *label_names* (a tuple, or the bare value
    when there is one label), so a hook pays one dict lookup per
    observation and the registry sorts a label set into its key once per
    series. Series are still created on first use, so the registry ends up
    holding exactly the series it would without the memo. A ``shard`` of
    ``None`` is left out of the labels: single-group runs keep the
    historical unlabelled series.
    """

    def __init__(self, make, name: str, *label_names: str, **options):
        super().__init__()
        self._make = make
        self._name = name
        self._label_names = label_names
        self._options = options

    def __missing__(self, key):
        values = key if len(self._label_names) > 1 else (key,)
        labels = {
            label: value for label, value in zip(self._label_names, values)
            if value is not None or label != "shard"
        }
        metric = self[key] = self._make(self._name, **self._options, **labels)
        return metric


class TraceCollector:
    """Span + metrics sink for one simulation."""

    def __init__(
        self,
        network: "Network",
        *,
        registry: MetricsRegistry | None = None,
    ):
        self.network = network
        self.kernel = network.kernel
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Flat, bounded, time-ordered event log.
        self.events: deque[TraceEvent] = deque(maxlen=EVENT_LOG_LIMIT)
        #: trace_id -> JobTrace, in first-seen order.
        self.jobs: dict[str, JobTrace] = {}
        #: job_id -> trace_id (filled by :meth:`job_alias`).
        self._alias: dict[str, str] = {}
        #: request_id -> [start time, last attempt seen].
        self._rpc_open: dict[int, list] = {}
        #: (daemon tag, request_id) -> dispatch start time.
        self._dispatch_open: dict[tuple, float] = {}
        #: msg_id -> [multicast-sent time, first ORDER assignment already
        #: recorded] (insertion-ordered, bounded).
        self._mcast_sent: dict = {}
        #: Span field names, one tuple per distinct shape (see :meth:`record`).
        self._keys: dict[tuple, tuple] = {}
        self._spelled = _Spelling()
        #: The flight recorder and time-series sampler, once attached
        #: (:func:`~repro.obs.recorder.attach_recorder`,
        #: :func:`~repro.obs.timeseries.attach_timeseries`).
        self.recorder = None
        self.sampler = None
        counter = self.registry.counter
        gauge = self.registry.gauge
        histogram = self.registry.histogram
        self._requests = _Series(counter, "rpc.client.requests", "request")
        self._retries = _Series(counter, "rpc.client.retries", "request")
        self._timeouts = _Series(counter, "rpc.client.timeouts", "request")
        self._latency = _Series(histogram, "rpc.client.latency_s", "request")
        self._attempts = _Series(histogram, "rpc.client.attempts", "request",
                                 buckets=ATTEMPT_BUCKETS)
        self._dispatches = _Series(counter, "rpc.server.dispatch",
                                   "daemon", "request")
        self._handle_s = _Series(histogram, "rpc.server.handle_s",
                                 "daemon", "request")
        self._multicasts = _Series(counter, "gcs.multicasts",
                                   "node", "service", "shard")
        self._flushes = _Series(counter, "gcs.batch.flushes",
                                "node", "reason", "shard")
        self._batch_size = _Series(histogram, "gcs.batch.size", "node", "shard",
                                   buckets=ATTEMPT_BUCKETS)
        self._assignments = _Series(counter, "gcs.order.assignments",
                                    "node", "shard")
        self._ordering_delay = _Series(histogram, "gcs.ordering.delay_s",
                                       "node", "shard")
        self._delivered = _Series(counter, "gcs.delivered",
                                  "node", "service", "shard")
        self._backlog = _Series(gauge, "gcs.delivery.backlog", "node", "shard")
        self._e2e_delay = _Series(histogram, "gcs.e2e.delay_s", "node", "shard")
        self._fd = _Series(counter, "gcs.fd.transitions",
                           "node", "transition", "shard")
        self._installs = _Series(counter, "gcs.view.installs", "node", "shard")
        self._view_size = _Series(gauge, "gcs.view.size", "node", "shard")
        self._reads_local = _Series(counter, "joshua.read.local",
                                    "node", "mode", "shard")
        self._reads_fallback = _Series(counter, "joshua.read.ordered_fallback",
                                       "node", "mode", "shard")
        self._catchup_wait = _Series(histogram, "joshua.read.catchup_wait_s",
                                     "node", "shard")
        self._staleness = _Series(gauge, "joshua.read.staleness_lag",
                                  "node", "shard")
        self._phase = _Series(histogram, "job.phase_s", "phase")

    # -- event plumbing ------------------------------------------------------

    def record(self, kind: str, node: str, trace_id: str | None,
               keys: tuple, values: tuple) -> TraceEvent:
        """Log one span: every span the collector makes passes here."""
        event = TraceEvent(self.kernel.now, kind, node, trace_id, keys, values)
        self.events.append(event)
        if self.recorder is not None:
            self.recorder.on_trace_event(event)
        return event

    def _span(self, kind: str, node: str, trace_id: str | None = None,
              **fields) -> TraceEvent:
        keys = tuple(fields)
        return self.record(kind, node, trace_id,
                           self._keys.setdefault(keys, keys),
                           tuple(fields.values()))

    # -- client-side RPC hooks ----------------------------------------------

    def rpc_request(self, node, server, request_id, payload, attempt) -> None:
        request_type = type(payload).__name__
        entry = self._rpc_open.get(request_id)
        if entry is None:
            self._rpc_open[request_id] = [self.kernel.now, attempt]
        else:
            entry[1] = attempt
            self._retries[request_type].inc()
        self._requests[request_type].inc()
        self.record("rpc.send", node, None, _SEND_KEYS,
                    (request_type, self._spelled[server], attempt, request_id))

    def rpc_response(self, node, server, request_id, payload, response) -> None:
        request_type = type(payload).__name__
        now = self.kernel.now
        started, attempts = self._rpc_open.pop(request_id, (now, 1))
        latency = now - started
        timed_out = isinstance(response, TimeoutRecord)
        outcome = "timeout" if timed_out else "ok"
        self._latency[request_type].observe(latency)
        self._attempts[request_type].observe(float(attempts))
        if timed_out:
            self._timeouts[request_type].inc()
        self.record("rpc.call", node, None, _CALL_KEYS,
                    (request_type, self._spelled[server], latency, attempts,
                     outcome, type(response).__name__))

    # -- server-side dispatch hooks -----------------------------------------

    def rpc_dispatch(self, daemon, src, request_id, payload) -> None:
        tag = daemon.tag
        self._dispatch_open[(tag, request_id)] = self.kernel.now
        request_type = type(payload).__name__
        self._dispatches[daemon.name, request_type].inc()
        self.record("rpc.dispatch", daemon.node.name, None, _DISPATCH_KEYS,
                    (tag, request_type, request_id, str(src)))

    def rpc_dispatch_done(self, daemon, src, request_id, payload, response) -> None:
        started = self._dispatch_open.pop((daemon.tag, request_id), None)
        if started is not None:
            self._handle_s[daemon.name, type(payload).__name__].observe(
                self.kernel.now - started)

    # -- GCS ordering pipeline ----------------------------------------------
    #
    # Every method takes an optional ``shard`` (the group_id of a sharded
    # deployment's ordering group, ``None`` for single-group runs): sharded
    # spans/metrics carry a ``shard=`` dimension, single-group output stays
    # byte-identical to the historical (unlabelled) form.

    @staticmethod
    def _shard_labels(shard) -> dict:
        return {} if shard is None else {"shard": shard}

    def gcs_multicast(self, node: str, msg_id, service: str, payload,
                      shard: int | None = None) -> None:
        # Stamped at the *original* multicast call — before the DataBatcher
        # can coalesce the command into a later wire frame — so ordering/e2e
        # delay attribution is batching-independent by construction
        # (pinned by tests/unit/test_obs_batching_attribution.py).
        self._mcast_sent[msg_id] = [self.kernel.now, False]
        if len(self._mcast_sent) > MCAST_MAP_LIMIT:
            # Trim oldest half; insertion order == send order.
            for key in list(self._mcast_sent)[: MCAST_MAP_LIMIT // 2]:
                del self._mcast_sent[key]
        self._multicasts[node, service, shard].inc()
        self._span("gcs.mcast", node, msg_id=str(msg_id), service=service,
                   payload=type(payload).__name__, **self._shard_labels(shard))

    def gcs_batch_flush(self, node: str, count: int, reason: str,
                        shard: int | None = None) -> None:
        """A :class:`~repro.gcs.batching.DataBatcher` flushed *count*
        coalesced multicasts (reason: count/bytes/timer/drain)."""
        self._flushes[node, reason, shard].inc()
        self._batch_size[node, shard].observe(float(count))
        self._span("gcs.batch", node, count=count, reason=reason,
                   **self._shard_labels(shard))

    def gcs_ordered(self, node: str, seq: int, msg_id,
                    shard: int | None = None) -> None:
        self._assignments[node, shard].inc()
        entry = self._mcast_sent.get(msg_id)
        if entry is not None and not entry[1]:
            # A view change re-assigns the id; its delay counts once.
            entry[1] = True
            self._ordering_delay[node, shard].observe(self.kernel.now - entry[0])
        self._span("gcs.order", node, seq=seq, msg_id=str(msg_id),
                   **self._shard_labels(shard))

    def gcs_delivered(self, node: str, msg, queue_stats: dict,
                      shard: int | None = None) -> None:
        self._delivered[node, msg.service, shard].inc()
        self._backlog[node, shard].set(queue_stats.get("payloads", 0))
        entry = self._mcast_sent.get(msg.msg_id)
        if entry is not None and msg.sender.node == node:
            # End-to-end ordering+stability overhead, measured at the sender
            # (the Transis share of a jsub's latency in Figure 10), timed
            # from the original multicast stamp (batching-independent).
            self._e2e_delay[node, shard].observe(self.kernel.now - entry[0])
        self._span("gcs.deliver", node, msg_id=str(msg.msg_id), seq=msg.seq,
                   view=msg.view_id, service=msg.service,
                   payload=type(msg.payload).__name__, sender=msg.sender.node,
                   **self._shard_labels(shard))

    # -- GCS lifecycle: failure detector & views -----------------------------

    def gcs_fd(self, node: str, peer: str | None, transition: str,
               shard: int | None = None) -> None:
        """A failure-detector state transition on *node*.

        ``transition`` is one of ``suspect`` / ``forgive`` (per-*peer*) or
        ``dormant`` / ``rearm`` (detector-wide; *peer* is ``None``)."""
        self._fd[node, transition, shard].inc()
        fields = dict(transition=transition, **self._shard_labels(shard))
        if peer is not None:
            fields["peer"] = peer
        self._span("gcs.fd", node, **fields)

    def gcs_view(self, node: str, view_id: int, members: list,
                 sequencer: str | None, shard: int | None = None) -> None:
        """*node* installed view *view_id*; *sequencer* names the member
        that now orders this group's traffic (``None`` for token ordering),
        making sequencer handoffs visible in the trace."""
        self._installs[node, shard].inc()
        self._view_size[node, shard].set(len(members))
        self._span("gcs.view", node, view=view_id, members=list(members),
                   sequencer=sequencer, **self._shard_labels(shard))

    # -- JOSHUA read path ----------------------------------------------------

    def joshua_read(self, node: str, *, trace_id: str, mode: str, outcome: str,
                    wait_s: float, lag: int, shard: int | None = None) -> None:
        """A head answered (or punted) a non-ordered ``jstat``.

        ``mode`` is the requested consistency (``ryw``);
        ``outcome`` is ``local`` (answered from the local replica) or
        ``fallback`` (deferred past the catch-up deadline and re-routed
        through the ordered stream); ``wait_s`` is the catch-up wait spent
        before answering either way; ``lag`` is the local apply backlog
        (delivered-but-undrained commands) across the gating shards.
        """
        reads = self._reads_local if outcome == "local" else self._reads_fallback
        reads[node, mode, shard].inc()
        self._catchup_wait[node, shard].observe(wait_s)
        self._staleness[node, shard].set(float(lag))
        self._span("joshua.read", node, trace_id=trace_id, mode=mode,
                   outcome=outcome, wait_s=wait_s, lag=lag,
                   **self._shard_labels(shard))

    # -- job lifecycle -------------------------------------------------------

    def job_alias(self, trace_id: str, job_id: str) -> None:
        """Link a PBS job id to the command uuid that created it."""
        self._alias[job_id] = trace_id
        trace = self.jobs.get(trace_id)
        if trace is not None and trace.job_id is None:
            trace.job_id = job_id

    def job_event(
        self,
        node: str,
        kind: str,
        trace_id: str | None = None,
        job_id: str | None = None,
        **fields,
    ) -> None:
        """Record one lifecycle event, resolving *job_id* to its trace.

        Events for a job id never aliased (e.g. plain-PBS jobs in a mixed
        run) open their own trace keyed by the job id itself.
        """
        tid = trace_id if trace_id is not None else self._alias.get(job_id, job_id)
        if tid is None:
            return
        trace = self.jobs.get(tid)
        if trace is None:
            trace = self.jobs[tid] = JobTrace(tid)
        if job_id is not None:
            fields = {"job_id": job_id, **fields}
            if trace.job_id is None:
                trace.job_id = job_id
        if trace.command is None and "command" in fields:
            trace.command = fields["command"]
        fresh = trace.first(kind) is None
        event = self._span(kind, node, trace_id=tid, **fields)
        trace.events.append(event)
        if fresh:
            self._observe_phase(trace, kind, event.time)

    def _observe_phase(self, trace: JobTrace, end_kind: str, end_time: float) -> None:
        """Feed the job-phase histograms on the first occurrence of a
        phase-ending event (per-job breakdowns come from the trace itself)."""
        for phase, (end, start_kind) in PHASE_EDGES.items():
            if end != end_kind:
                continue
            start = trace.first(start_kind)
            if start is not None and end_time >= start.time:
                self._phase[phase].observe(end_time - start.time)

    # -- read side -----------------------------------------------------------

    def job_traces(self) -> list[JobTrace]:
        """Traces in first-seen order."""
        return list(self.jobs.values())


def attach_collector(
    network: "Network",
    *,
    registry: MetricsRegistry | None = None,
) -> TraceCollector:
    """Attach (or return the already-attached) collector for *network*.

    Registers the RPC hook methods and publishes the collector where the
    GCS / PBS / JOSHUA call sites look it up (:func:`collector_of`) — the
    one observer handle a network carries.
    """
    existing = collector_of(network)
    if existing is not None:
        return existing
    collector = TraceCollector(network, registry=registry)
    state = rpc_state(network)
    state.on_request.append(collector.rpc_request)
    state.on_response.append(collector.rpc_response)
    state.on_dispatch.append(collector.rpc_dispatch)
    state.on_dispatch_done.append(collector.rpc_dispatch_done)
    network._obs_collector = collector
    return collector


def collector_of(network: "Network") -> TraceCollector | None:
    """The collector attached to *network*, or ``None`` (the common case —
    unobserved simulations pay one attribute read per hook site)."""
    return getattr(network, "_obs_collector", None)
