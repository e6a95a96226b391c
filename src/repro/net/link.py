"""Link timing and loss models.

The paper's testbed used a single Fast Ethernet (100 Mbit/s full duplex) hub
between dual-P3-450 nodes. :class:`LinkModel` captures the pieces of that
which matter to the experiments:

* **propagation + protocol stack latency** — a fixed per-message base;
* **serialisation** — message size over bandwidth;
* **jitter** — uniform random extra delay (OS scheduling noise);
* **loss** — i.i.d. drop probability, for stressing the reliable transport
  and the GCS retransmission machinery (0 by default: the paper's LAN was
  reliable; its failures were whole cables, modelled as partitions).

Same-node ("loopback") messages skip the wire and use a much smaller base
latency: the paper explicitly attributes the single-head JOSHUA overhead
(36 ms) to *on-node* communication between jsub, Transis and joshua, and the
1→2 head jump to *off-node* communication — so the distinction is load-bearing
for reproducing Figure 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = ["LinkModel", "FAST_ETHERNET", "LOOPBACK"]


@dataclass(frozen=True)
class LinkModel:
    """Timing/loss parameters for one class of link.

    Parameters
    ----------
    base_latency:
        Fixed one-way latency in seconds (propagation + kernel/IP stack).
    bandwidth:
        Bytes per second available to a single message's serialisation.
    jitter:
        Upper bound of uniform extra delay in seconds.
    loss:
        Probability an individual message is silently dropped.
    """

    base_latency: float = 0.0002
    bandwidth: float = 100e6 / 8
    jitter: float = 0.0
    loss: float = 0.0

    def __post_init__(self):
        if self.base_latency < 0 or self.jitter < 0:
            raise ValueError("latencies must be non-negative")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError("loss must be a probability < 1")

    def delay(self, size: int, draw: Callable[[], float]) -> float:
        """One-way delay for a *size*-byte message; *draw* returns the next
        uniform double in [0, 1) of the caller's stream."""
        delay = self.base_latency + size / self.bandwidth
        if self.jitter > 0:
            # The stream's ``uniform(0.0, jitter)``: 0.0 + jitter * u.
            delay += self.jitter * draw()
        return delay

    def dropped(self, draw: Callable[[], float]) -> bool:
        """Whether this transmission is lost."""
        return self.loss > 0 and draw() < self.loss

    def with_loss(self, loss: float) -> "LinkModel":
        """Copy of this model with a different loss probability."""
        return LinkModel(self.base_latency, self.bandwidth, self.jitter, loss)

    def with_jitter(self, jitter: float) -> "LinkModel":
        """Copy of this model with a different jitter bound."""
        return LinkModel(self.base_latency, self.bandwidth, jitter, self.loss)


#: The testbed LAN: Fast Ethernet through a hub, circa-2006 kernel stacks.
#: ~200 us one-way latency is representative of 100 Mbit NICs of the era.
FAST_ETHERNET = LinkModel(base_latency=0.0002, bandwidth=100e6 / 8, jitter=0.00005)

#: Same-node communication via the loopback interface / Unix sockets.
LOOPBACK = LinkModel(base_latency=0.00002, bandwidth=1e9, jitter=0.0)
