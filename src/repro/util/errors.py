"""Exception hierarchy for the JOSHUA reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without accidentally swallowing genuine
programming errors (``TypeError``, ``AttributeError``, ...).

The hierarchy mirrors the package layout: one subclass per subsystem, with a
few more specific leaves where callers genuinely want to distinguish causes
(e.g. :class:`UnknownJobError` vs. a generic :class:`PBSError` so ``jdel`` of
a finished job can be reported to the user rather than crashing a daemon).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by :mod:`repro`."""


class SimulationError(ReproError):
    """The discrete-event simulation kernel was misused or is corrupt."""


class ProcessDied(SimulationError):
    """Raised inside a process that waited on another process that failed."""

    def __init__(self, process: object, cause: BaseException):
        self.process = process
        self.cause = cause
        super().__init__(f"awaited process {process} died: {cause!r}")


class Interrupt(Exception):
    """Thrown into a simulation process by :meth:`Process.interrupt`.

    Deliberately *not* a :class:`ReproError`: an interrupt is a control-flow
    signal between cooperating processes, not a failure, and must never be
    caught by a blanket ``except ReproError``.
    """

    def __init__(self, cause: object = None):
        self.cause = cause
        super().__init__(f"interrupted: {cause!r}")


class NetworkError(ReproError):
    """Message could not be sent or endpoint is invalid."""


class AddressInUse(NetworkError):
    """Two daemons tried to bind the same (node, port) endpoint."""


class ClusterError(ReproError):
    """Cluster construction or node lifecycle error."""


class NodeDown(ClusterError):
    """An operation requires a node that has crashed."""


class GroupCommError(ReproError):
    """Group-communication (Transis stand-in) protocol failure."""


class MembershipError(GroupCommError):
    """Invalid join/leave or an operation outside the current view."""


class NotInView(MembershipError):
    """A member attempted to multicast while not installed in any view."""


class PBSError(ReproError):
    """Error reported by the PBS (TORQUE stand-in) job management stack.

    Re-raised by :func:`repro.rpc.call` from a server's error relay, it
    carries the relay's ``kind`` and ``message``: branch on ``kind``, never
    on the text (a job id may spell any word).
    """

    kind: str | None = None
    message: str | None = None


class UnknownJobError(PBSError):
    """A PBS command referenced a job id the server does not know."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        super().__init__(f"Unknown Job Id {job_id}")


class InvalidJobStateError(PBSError):
    """A PBS command is not legal for the job's current state."""

    def __init__(self, job_id: str, state: object, action: str):
        self.job_id = job_id
        self.state = state
        self.action = action
        super().__init__(f"Request invalid for state of job {job_id} ({state}, attempted {action})")


class JoshuaError(ReproError):
    """Error in the JOSHUA replication layer."""


class NoActiveHeadError(JoshuaError):
    """A JOSHUA control command found no live head node to contact."""
