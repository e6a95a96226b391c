"""RPC-layer errors.

:class:`RpcTimeout` derives from :class:`~repro.util.errors.PBSError` so a
caller that treats any failed conversation alike catches one type: an
unanswered request and a server-side error reply both surface as
``PBSError``.
"""

from __future__ import annotations

from repro.util.errors import PBSError

__all__ = ["RpcTimeout"]


class RpcTimeout(PBSError):
    """No response within the deadline (server down or unreachable).

    Carries enough context to tell *which* conversation stalled: the
    destination address, the request type and how many attempts were made
    — chaos-run violation reports surface these fields verbatim.
    """

    def __init__(self, dst, request_type: str, attempts: int):
        self.dst = dst
        self.request_type = request_type
        self.attempts = attempts
        super().__init__(
            f"no response from {dst} for {request_type} "
            f"after {attempts} attempt(s)"
        )
