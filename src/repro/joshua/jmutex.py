"""``jmutex`` / ``jdone``: the distributed mutual exclusion in the mom's
job-start prologue.

Paper §4: "The JOSHUA scripts are part of the job start prologue and
perform a distributed mutual exclusion using the Transis group
communication system to ensure that the job gets started only once, and to
emulate the job start for all other attempts for this particular job. Once
the job has finished, the distributed mutual exclusion is released."

:func:`install_jmutex` wires a :class:`~repro.pbs.mom.PBSMom` with:

* a prologue hook that asks the attempting head's joshua server for the
  launch decision (the joshua servers arbitrate via SAFE-multicast claims;
  first claim in the total order wins). A joshua that does not answer in
  time (its head died, or the claim round is slow) yields ``"undecided"``:
  the mom refuses the attempt and the head's scheduler dispatches the job
  again, by when the claim has normally been decided;
* an ``on_job_start`` notifier (the winning attempt confirms the launch
  really happened — this is what protects against revoking a job that *is*
  running);
* an ``on_job_done`` notifier (``jdone``: release the mutex so a recovered
  or re-run job id can be re-arbitrated).

Both notifiers are *first-responder*: one head accepting is enough, because
the accepting joshua multicasts the record to the whole group — so the
records survive the death of the head that happened to win. If no head
answers a pass (e.g. a transient full partition between the compute and
every head), the notifier backs off and retries the (re-read) head list for
a bounded number of passes rather than silently dropping the record, which
would leave the launch mutex unconfirmed or never released.
"""

from __future__ import annotations

from repro.joshua.wire import JOSHUA_PORT, JDoneReq, JMutexReq, JStartedReq
from repro.net.address import Address
from repro.pbs.mom import PBSMom
from repro.pbs.wire import JobStartReq, JobObit
from repro.rpc import RpcTimeout, call as rpc_call, failover_call
from repro.util.errors import NoActiveHeadError, PBSError

__all__ = ["install_jmutex"]

#: The Started/Done notifier sweeps the head list this many times, sleeping
#: between sweeps (doubling from the first delay up to the cap, seconds).
NOTIFY_PASSES = 6
NOTIFY_BACKOFF = 0.25
NOTIFY_BACKOFF_CAP = 2.0
#: Seconds per attempt of the prologue's launch-decision request and of each
#: Started/Done notification. The prologue must end inside the server's
#: wait for the mom (``PBSServer._do_run``: 2 × 2.0 s), or the mom could
#: launch a job its server already took back.
JMUTEX_TIMEOUT = 2.0


def install_jmutex(mom: PBSMom) -> None:
    """Attach the jmutex prologue hook and jdone epilogue to *mom*.

    ``NOTIFY_PASSES`` bounds how many times the Started/Done notifier
    sweeps the head list (with exponential backoff between sweeps, from
    ``NOTIFY_BACKOFF`` up to ``NOTIFY_BACKOFF_CAP``) before abandoning the
    record and counting it in ``mom.stats["jnotify_abandoned"]``.
    """

    def jmutex_hook(mom_: PBSMom, req: JobStartReq):
        if req.server is None:
            return "run"  # not a server-driven attempt; nothing to arbitrate
        joshua = Address(req.server.node, JOSHUA_PORT)
        try:
            response = yield from rpc_call(
                mom_.node.network, mom_.node.name, joshua,
                JMutexReq(req.job_id, req.server.node),
                timeout=JMUTEX_TIMEOUT,
            )
            return response.decision
        except (RpcTimeout, PBSError):
            # The head died mid-prologue, or its claim round outlasts the
            # prologue. Emulating would mark the job running on a head that
            # may be the winner, and no view change revokes a claim whose
            # winner stays; refusing leaves the job queued, and the next
            # attempt finds the claim decided.
            return "undecided"

    def _notify_first_responder(request) -> None:
        """Deliver *request* to the first head that answers, retrying the
        whole head list with backoff until a bounded give-up.

        One acceptance suffices — the accepting joshua multicasts the
        Started/Done record group-wide. The head list is re-read each pass
        because AdminServers announcements may change it mid-retry.
        """

        def notifier():
            delay = NOTIFY_BACKOFF
            for sweep in range(NOTIFY_PASSES):
                try:
                    # One acceptance pass over the head list. Down heads are
                    # still attempted (skip_down=False): the mom has no
                    # liveness oracle for heads, only the RPC timeout. Only a
                    # real acceptance counts — a (re)joining head answers
                    # with an error instead of recording the event, and the
                    # sweep must move on.
                    yield from failover_call(
                        mom.node.network, mom.node.name,
                        [Address(head, JOSHUA_PORT)
                         for head in sorted({s.node for s in mom.servers})],
                        request,
                        timeout=JMUTEX_TIMEOUT,
                        skip_down=False,
                        retry_error=lambda exc: True,
                        reject=lambda r: getattr(r, "decision", None) != "ok",
                    )
                    return
                except NoActiveHeadError:
                    pass
                if sweep + 1 < NOTIFY_PASSES:
                    yield mom.kernel.timeout(delay)
                    delay = min(delay * 2, NOTIFY_BACKOFF_CAP)
            mom.stats["jnotify_abandoned"] = (
                mom.stats.get("jnotify_abandoned", 0) + 1
            )
            mom.log.warning(
                mom.tag, f"abandoned jmutex notification {request!r}: no head answered"
            )

        mom.spawn(notifier(), name=f"{mom.tag}-jnotify")

    def on_start(req: JobStartReq) -> None:
        _notify_first_responder(JStartedReq(req.job_id))

    def on_done(obit: JobObit) -> None:
        _notify_first_responder(JDoneReq(obit.job_id))

    mom.prologue_hooks.append(jmutex_hook)
    mom.on_job_start = on_start
    mom.on_job_done = on_done
