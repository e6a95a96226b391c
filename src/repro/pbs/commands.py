"""The PBS user commands: ``qsub``, ``qstat``, ``qdel``, ``qsig``, ``qhold``,
``qrls``.

Each command is a coroutine (drive it with ``kernel.run(until=process)`` or
``yield from`` inside another process) that charges the calibrated client
startup cost — the fork/exec/parse/connect time that dominated a 2006 qsub
invocation — then performs one RPC against the server.

:class:`PBSClient` binds the commands to a node and a server address; it is
what the examples, the experiments, and JOSHUA's baseline comparisons use to
play "the user".
"""

from __future__ import annotations

from typing import Generator

from repro.net.address import Address
from repro.net.network import Network
from repro.pbs.job import JobSpec
from repro.pbs.service_times import ERA_2006, ServiceTimes
from repro.pbs.wire import (
    DeleteReq,
    HoldReq,
    ReleaseReq,
    RerunReq,
    SignalReq,
    StatReq,
    SubmitReq,
)
from repro.rpc import call as rpc_call

__all__ = ["PBSClient"]


class PBSClient:
    """User-command runner on one node, bound to one PBS server."""

    def __init__(
        self,
        network: Network,
        node: str,
        server: Address,
        *,
        service_times: ServiceTimes = ERA_2006,
        timeout: float = 3.0,
        retries: int = 1,
    ):
        self.network = network
        self.node = node
        self.server = server
        self.times = service_times
        self.timeout = timeout
        self.retries = retries

    def _call(self, payload) -> Generator:
        yield self.network.kernel.timeout(self.times.client_startup)
        response = yield from rpc_call(
            self.network, self.node, self.server, payload,
            timeout=self.timeout, retries=self.retries,
        )
        return response

    def qsub(self, spec: JobSpec | None = None, **spec_kwargs) -> Generator:
        """Submit a job; returns the assigned job id."""
        spec = spec or JobSpec(**spec_kwargs)
        response = yield from self._call(SubmitReq(spec))
        return response.job_id

    def qstat(self, job_id: str | None) -> Generator:
        """Status rows for one job (``None``: all jobs)."""
        response = yield from self._call(StatReq(job_id))
        return list(response.rows)

    def qdel(self, job_id: str) -> Generator:
        """Delete a job (killing it if running)."""
        response = yield from self._call(DeleteReq(job_id))
        return response.job_id

    def qhold(self, job_id: str) -> Generator:
        yield from self._call(HoldReq(job_id))

    def qrls(self, job_id: str) -> Generator:
        yield from self._call(ReleaseReq(job_id))

    def qsig(self, job_id: str, signal: str) -> Generator:
        response = yield from self._call(SignalReq(job_id, signal))
        return response.detail

    def qrerun(self, job_id: str) -> Generator:
        """Force a running job back to the queue (operator command)."""
        yield from self._call(RerunReq(job_id))
