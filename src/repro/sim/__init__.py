"""Deterministic discrete-event simulation (DES) kernel.

Everything in this reproduction — the LAN, the Transis-like group
communication system, the PBS daemons, JOSHUA itself, the failure injectors —
runs as cooperating *processes* on this kernel. A process is a Python
generator that ``yield``\\ s :class:`~repro.sim.events.Event` objects to wait
on; the kernel advances a simulated clock from event to event, so a
"3-5 day" availability experiment finishes in milliseconds of wall time and
is exactly reproducible from its seed.

The design follows the SimPy process-interaction style (implemented from
scratch; SimPy is not a dependency):

* :class:`~repro.sim.kernel.Kernel` — event heap + clock + process spawner.
* :class:`~repro.sim.events.Event` — one-shot occurrence; may succeed with a
  value or fail with an exception.
* :class:`~repro.sim.events.Timeout` — fires after a simulated delay.
* :class:`~repro.sim.events.AnyOf` / :class:`~repro.sim.events.AllOf` —
  composite wait conditions.
* :class:`~repro.sim.process.Process` — a running generator; itself an event
  that triggers when the generator returns (so processes can wait on each
  other), interruptible via :meth:`~repro.sim.process.Process.interrupt`.
* :class:`~repro.sim.resources.Store` — the unbounded FIFO queue behind
  daemon mailboxes, the engine's apply queue and a member's CPU queue.

Example
-------
>>> from repro.sim import Kernel
>>> k = Kernel()
>>> log = []
>>> def proc(kernel):
...     yield kernel.timeout(5.0)
...     log.append(kernel.now)
>>> _ = k.spawn(proc(k))
>>> k.run()
>>> log
[5.0]
"""

from repro.sim.events import Event, Timeout, AnyOf, AllOf
from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.sim.resources import Store

from repro.util.errors import Interrupt

__all__ = [
    "Kernel",
    "Event",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Process",
    "Store",
    "Interrupt",
]
