"""The blocking queue of simulation processes.

:class:`Store` is an unbounded FIFO queue: daemons use one as their mailbox
(``yield store.get()`` blocks the daemon until a message arrives), the
replication engine as its apply queue and a group member as its modelled
CPU queue. It hands items out in strict FIFO order, which keeps the
simulation deterministic and models the fair queueing of the real daemons'
socket accept loops well enough for this paper's experiments.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel

__all__ = ["Store"]


class Store:
    """Unbounded FIFO queue of items with a blocking ``get``."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put_nowait(self, item: Any) -> None:
        self._items.append(item)
        self._dispatch()

    def get(self) -> Event:
        """Event that succeeds with the oldest item once one is available."""
        event = Event(self.kernel)
        self._getters.append(event)
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        while self._getters and self._items:
            getter = self._getters.popleft()
            if getter.triggered or getter.cancelled:
                continue
            getter.succeed(self._items.popleft())

    def cancel_all(self, exception: BaseException) -> None:
        """Fail every pending getter — used when a daemon's node dies."""
        for getter in list(self._getters):
            if not getter.triggered:
                getter.fail(exception)
        self._getters.clear()
