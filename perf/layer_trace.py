"""Outside-in tracer: run-time shims around each layer's entry points.

Nothing under ``src/`` knows about this file. :func:`install` rebinds, in
this process only, the functions listed in ``SYNC`` and ``GENERATORS`` to
wrappers that record one span per call — name, start, end, parent span and
the client operation it belongs to — plus counts at the same boundaries.
Spans stay in memory (flat integer arrays) and are written once, by
:meth:`Tracer.dump`, when the benchmark ends.

Attribution rules:

* A layer's **self time** is its span's duration minus the part its child
  spans cover. With one simulator thread nothing overlaps, so self times
  add up to the traced host time (less ``trace.unattributed_share``).
* Every kernel event is one ``sim.step`` span (heap pop, clock, hooks)
  with one ``<layer>.proc`` child covering the event's callbacks. The
  layer is the package (``src/repro/<layer>/``) owning the code about to
  run: for a process resumption, the innermost suspended generator frame;
  for a plain callback, the function itself.
* Generator functions (RPC calls, dispatch handlers, the serial executor)
  get one span per *resumption*, so time spent suspended is never charged
  and nested generators split their self time correctly.
* Spans of one client command share an op id: the command uuid, picked up
  where it first appears (client call, dispatcher entry, executor) and
  inherited by everything nested below.

Span clocks are ``time.perf_counter_ns`` (cheap); the traced run's total
is also taken in CPU time so ``trace.overhead_share`` compares like with
like.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

#: (module, class, method, span name) — plain functions: one span per call.
SYNC = [
    ("repro.sim.kernel", "Kernel", "run", "sim.run"),
    ("repro.sim.kernel", "Kernel", "step", "sim.step"),
    ("repro.net.codec", "Codec", "encode", "net.codec.encode"),
    ("repro.net.codec", "Codec", "decode", "net.codec.decode"),
    ("repro.net.network", "Network", "send", "net.send"),
    ("repro.net.transport", "Transport", "send", "net.transport.send"),
    ("repro.net.transport", "Transport", "_on_delivery", "net.transport.recv"),
    ("repro.cluster.storage", "Disk", "write", "cluster.disk_write"),
    ("repro.cluster.storage", "Disk", "read", "cluster.disk_read"),
    ("repro.gcs.member", "GroupMember", "multicast", "gcs.multicast"),
    ("repro.gcs.member", "GroupMember", "_on_protocol", "gcs.recv"),
    ("repro.gcs.member", "GroupMember", "_on_raw", "gcs.recv"),
    ("repro.gcs.member", "GroupMember", "install_view", "gcs.view"),
    ("repro.joshua.shard", "ShardReplica", "_on_deliver", "joshua.deliver"),
    ("repro.joshua.shard", "ShardReplica", "_on_view", "joshua.view"),
    ("repro.joshua.server", "JoshuaServer", "_handle_command", "joshua.handle"),
    ("repro.joshua.server", "JoshuaServer", "_handle_jmutex", "joshua.handle"),
    ("repro.joshua.server", "JoshuaServer", "_handle_started", "joshua.handle"),
    ("repro.joshua.server", "JoshuaServer", "_handle_done", "joshua.handle"),
    ("repro.pbs.server", "PBSServer", "_do_submit", "pbs.request"),
    ("repro.pbs.server", "PBSServer", "_do_stat", "pbs.request"),
    ("repro.pbs.server", "PBSServer", "_do_sched_poll", "pbs.request"),
    ("repro.pbs.server", "PBSServer", "_do_load_state", "pbs.request"),
    ("repro.pbs.server", "PBSServer", "_do_purge", "pbs.request"),
    ("repro.pbs.server", "PBSServer", "_handle_obit", "pbs.request"),
    ("repro.pbs.server", "PBSServer", "_persist", "pbs.persist"),
    ("repro.obs.recorder", "FlightRecorder", "on_frame", "obs.recorder"),
    ("repro.obs.recorder", "FlightRecorder", "capture", "obs.recorder"),
    ("repro.obs.timeseries", "TimeSeriesSampler", "on_advance", "obs.timeseries"),
] + [
    ("repro.obs.collector", "TraceCollector", method, "obs.collector")
    for method in (
        "rpc_request", "rpc_response", "rpc_dispatch", "rpc_dispatch_done",
        "gcs_multicast", "gcs_batch_flush", "gcs_ordered", "gcs_delivered",
        "gcs_fd", "gcs_view", "joshua_read", "job_alias", "job_event",
    )
]

#: (module, class or None, function, span name, index of the argument that
#: may carry the command uuid) — generator functions: one span per
#: resumption.
GENERATORS = [
    ("repro.rpc.client", None, "call", "rpc.call", 3),
    ("repro.rpc.client", None, "failover_call", "rpc.failover", 3),
    ("repro.rpc.server", "RpcDispatcher", "_handle", "rpc.dispatch", 3),
    ("repro.joshua.executor", "SerialExecutor", "execute_command", "joshua.exec", 1),
    ("repro.joshua.server", "JoshuaServer", "_read_locally", "joshua.read", 3),
    ("repro.joshua.commands", "JoshuaClient", "_call", "joshua.client", 1),
    ("repro.pbs.server", "PBSServer", "_do_delete", "pbs.request", None),
    ("repro.pbs.server", "PBSServer", "_do_run", "pbs.request", None),
    ("repro.pbs.mom", "PBSMom", "_handle_start", "pbs.mom", None),
    ("repro.pbs.mom", "PBSMom", "_execute", "pbs.mom", None),
]

#: Classes whose instances are remembered, so their public ``stats`` dicts
#: can be summed at the end even after a crash replaced the daemon.
REGISTERED = [
    ("repro.gcs.member", "GroupMember"),
    ("repro.gcs.batching", "DataBatcher"),
    ("repro.net.transport", "Transport"),
    ("repro.joshua.shard", "ShardReplica"),
    ("repro.pbs.mom", "PBSMom"),
    ("repro.pbs.scheduler", "MauiScheduler"),
]


#: (module, class, method, sum bumped per call, optional (sum, argument
#: index) added per call) — observation points that only need counting.
COUNTED = [
    ("repro.gcs.failure_detector", "FailureDetector", "_observe",
     "gcs.fd_transitions", None),
    ("repro.gcs.member", "GroupMember", "_order_observed",
     "gcs.order_assignments", None),
    ("repro.obs.collector", "TraceCollector", "record",
     "obs.events_recorded", None),
    # _observe_read(self, req, outcome, waited, shards)
    ("repro.joshua.server", "JoshuaServer", "_observe_read",
     "joshua.reads_observed", ("joshua.read_wait_s", 3)),
]


class Tracer:
    """Span store, self-time ledger and boundary counters for one run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One entry per span, in start order.
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._open: list[int] = []
        self._child_ns: list[int] = []
        self.self_ns: dict[int, int] = defaultdict(int)
        self.calls: dict[int, int] = defaultdict(int)
        #: Sums taken at the same boundaries (bytes encoded, jobs per disk
        #: snapshot, read catch-up wait, ...).
        self.sums: dict[str, float] = defaultdict(float)
        self.ops: list[str] = [""]
        self._op_ids: dict[str, int] = {"": 0}
        self.op = 0
        self.on = False
        self.instances: dict[str, list] = defaultdict(list)
        self._stats0: dict[int, dict] = {}
        self.phase_ns = 0

    # -- span plumbing -------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def op_id(self, uuid) -> int:
        if not isinstance(uuid, str):
            return self.op
        oid = self._op_ids.get(uuid)
        if oid is None:
            oid = self._op_ids[uuid] = len(self.ops)
            self.ops.append(uuid)
        return oid

    def open(self, nid: int) -> int:
        index = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_op.append(self.op)
        self.span_end.append(0)
        self._open.append(index)
        self._child_ns.append(0)
        self.span_start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter_ns()
        self._open.pop()
        children = self._child_ns.pop()
        duration = end - self.span_start[index]
        self.span_end[index] = end
        nid = self.span_name[index]
        self.self_ns[nid] += duration - children
        self.calls[nid] += 1
        if self._child_ns:
            self._child_ns[-1] += duration

    # -- the measured phase --------------------------------------------------

    def begin_phase(self, network) -> None:
        """Start recording (set-up is not traced). Baselines the ``stats``
        dicts of every instance built so far and hooks the RPC counters."""
        from repro.rpc.state import TimeoutRecord, rpc_state

        for instances in self.instances.values():
            for instance in instances:
                self._stats0[id(instance)] = dict(instance.stats)
        state = rpc_state(network)
        sums = self.sums

        def on_request(node, server, request_id, payload, attempt):
            sums["rpc.requests" if attempt == 1 else "rpc.retries"] += 1

        def on_response(node, server, request_id, payload, response):
            if isinstance(response, TimeoutRecord):
                sums["rpc.timeouts"] += 1

        state.on_request.append(on_request)
        state.on_response.append(on_response)
        self.on = True
        self.phase_ns = time.perf_counter_ns()

    def end_phase(self) -> None:
        self.phase_ns = time.perf_counter_ns() - self.phase_ns
        self.on = False

    # -- read side -----------------------------------------------------------

    def self_s(self, *prefixes: str) -> float:
        """Self seconds of every span name equal to, or nested under, one
        of *prefixes* (``"gcs"`` covers ``gcs.recv``, ``gcs.proc``, ...)."""
        total = 0
        for nid, ns in self.self_ns.items():
            name = self.names[nid]
            if any(name == p or name.startswith(p + ".") for p in prefixes):
                total += ns
        return total / 1e9

    def count(self, name: str) -> int:
        nid = self._name_ids.get(name)
        return self.calls.get(nid, 0) if nid is not None else 0

    def stat(self, class_name: str, key: str) -> int:
        """``stats[key]`` summed over every instance of *class_name* ever
        built, less what it read when the measured phase began."""
        total = 0
        for instance in self.instances[class_name]:
            total += instance.stats.get(key, 0)
            total -= self._stats0.get(id(instance), {}).get(key, 0)
        return total

    def dump(self, path: str, workload: str) -> None:
        """Write the spans (columnar, times in ns from the first span)."""
        origin = self.span_start[0] if len(self.span_start) else 0
        document = {
            "workload": workload,
            "clock": "perf_counter_ns, relative to the first span",
            "names": self.names,
            "ops": self.ops,
            "spans": {
                "name": self.span_name.tolist(),
                "start_ns": [s - origin for s in self.span_start],
                "end_ns": [e - origin for e in self.span_end],
                "parent": self.span_parent.tolist(),
                "op": self.span_op.tolist(),
            },
            "self_s": {
                self.names[nid]: ns / 1e9
                for nid, ns in sorted(self.self_ns.items())
            },
            "calls": {
                self.names[nid]: n for nid, n in sorted(self.calls.items())
            },
        }
        with open(path, "w") as fh:
            json.dump(document, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# shims
# ---------------------------------------------------------------------------


def _sync_shim(tracer: Tracer, name: str, orig, note=None):
    nid = tracer.name_id(name)

    def shim(*args, **kwargs):
        if not tracer.on:
            return orig(*args, **kwargs)
        index = tracer.open(nid)
        try:
            result = orig(*args, **kwargs)
        finally:
            tracer.close(index)
        if note is not None:
            note(tracer.sums, args, result)
        return result

    shim.__wrapped__ = orig
    return shim


def _resume(gen, value, thrown):
    return gen.send(value) if thrown is None else gen.throw(thrown)


def _drive(tracer: Tracer, nid: int, gen, op: int):
    """Delegate to *gen* like ``yield from``, one span per resumption."""
    value, thrown = None, None
    while True:
        try:
            if tracer.on:
                previous, tracer.op = tracer.op, op
                index = tracer.open(nid)
                try:
                    event = _resume(gen, value, thrown)
                finally:
                    tracer.close(index)
                    tracer.op = previous
            else:  # the measured phase ended while this call was in flight
                event = _resume(gen, value, thrown)
        except StopIteration as stop:
            return stop.value
        thrown = None
        try:
            value = yield event
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # thrown in by the kernel: pass it down
            thrown = exc


def _generator_shim(tracer: Tracer, name: str, orig, uuid_arg):
    nid = tracer.name_id(name)

    def shim(*args, **kwargs):
        gen = orig(*args, **kwargs)
        if not tracer.on:
            return gen
        carrier = args[uuid_arg] if uuid_arg is not None else None
        return _drive(tracer, nid, gen,
                      tracer.op_id(getattr(carrier, "uuid", None)))

    shim.__wrapped__ = orig
    return shim


def _process_shim(tracer: Tracer, orig):
    """``Event._process``: the callbacks of one kernel event, charged to
    the layer owning the code they are about to run."""
    names: dict = {}  # code object -> span name id
    resume_id = tracer.name_id("trace.resume")
    idle_id = tracer.name_id("sim.proc")

    def owner(event) -> int:
        callbacks = event.callbacks
        if not callbacks:
            return idle_id
        callback = callbacks[0]
        target = getattr(callback, "__self__", None)
        gen = getattr(target, "generator", None)
        if gen is not None:
            while True:
                inner = getattr(gen, "gi_yieldfrom", None)
                if inner is None or not hasattr(inner, "gi_code"):
                    break
                gen = inner
            code = gen.gi_code
        else:
            code = getattr(getattr(callback, "__func__", callback),
                           "__code__", None)
        nid = names.get(code)
        if nid is None:
            nid = names[code] = _layer_of(tracer, code, resume_id)
        return nid

    def shim(event):
        if not tracer.on:
            return orig(event)
        index = tracer.open(owner(event))
        try:
            return orig(event)
        finally:
            tracer.close(index)

    shim.__wrapped__ = orig
    return shim


def _layer_of(tracer: Tracer, code, resume_id: int) -> int:
    if code is None:
        return tracer.name_id("sim.proc")
    if code is _drive.__code__:
        # A shimmed generator: its own span opens as soon as it resumes.
        return resume_id
    path = code.co_filename.replace("\\", "/")
    marker = path.rfind("/repro/")
    if marker < 0:
        return tracer.name_id("bench.proc")
    layer = path[marker + len("/repro/"):].split("/", 1)[0]
    return tracer.name_id(f"{layer.removesuffix('.py')}.proc")


def _note_encode(sums, args, result) -> None:
    sums["net.codec.bytes"] += len(result)


def _note_disk_write(sums, args, result) -> None:
    value = args[2] if len(args) > 2 else None
    if isinstance(value, dict) and "jobs" in value:
        sums["cluster.disk_items"] += len(value["jobs"])


NOTES = {"net.codec.encode": _note_encode,
         "cluster.disk_write": _note_disk_write}


def _rebind_function(module, attr: str, shim) -> None:
    """Replace a module-level function everywhere it was imported by name
    (``from repro.rpc import call as rpc_call`` keeps its own reference)."""
    orig = getattr(module, attr)
    for other in list(sys.modules.values()):
        if other is None or not getattr(other, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(other).items()):
            if value is orig:
                setattr(other, key, shim)


def install() -> Tracer:
    """Install every shim in this process and return the tracer.

    Call before the stack is built: daemons bind some callbacks as bound
    methods at construction, and those must already be the shims."""
    tracer = Tracer()
    for module_name, class_name, method, name in SYNC:
        owner = getattr(importlib.import_module(module_name), class_name)
        setattr(owner, method,
                _sync_shim(tracer, name, getattr(owner, method), NOTES.get(name)))
    for module_name, class_name, function, name, uuid_arg in GENERATORS:
        module = importlib.import_module(module_name)
        if class_name is None:
            shim = _generator_shim(tracer, name, getattr(module, function), uuid_arg)
            _rebind_function(module, function, shim)
        else:
            owner = getattr(module, class_name)
            setattr(owner, function, _generator_shim(
                tracer, name, getattr(owner, function), uuid_arg))
    events = importlib.import_module("repro.sim.events")
    events.Event._process = _process_shim(tracer, events.Event._process)
    for module_name, class_name in REGISTERED:
        _register_instances(
            tracer, getattr(importlib.import_module(module_name), class_name))
    for module_name, class_name, method, key, extra in COUNTED:
        owner = getattr(importlib.import_module(module_name), class_name)
        setattr(owner, method,
                _counting_shim(tracer, getattr(owner, method), key, extra))
    return tracer


def _counting_shim(tracer: Tracer, orig, key: str, extra):
    def shim(*args, **kwargs):
        if tracer.on:
            tracer.sums[key] += 1
            if extra is not None:
                tracer.sums[extra[0]] += args[extra[1]]
        return orig(*args, **kwargs)

    shim.__wrapped__ = orig
    return shim


def _register_instances(tracer: Tracer, cls) -> None:
    init = cls.__init__

    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tracer.instances[cls.__name__].append(self)

    __init__.__wrapped__ = init
    cls.__init__ = __init__
