"""JOSHUA — the paper's contribution: symmetric active/active replication
for PBS-compliant HPC job and resource management.

Architecture (paper Figures 8-9), reproduced component for component:

* :class:`~repro.joshua.server.JoshuaServer` — the ``joshua`` daemon on each
  head node. It intercepts the PBS user commands, pushes them through the
  group communication system for reliable, totally ordered (SAFE) delivery,
  and executes the equivalent ``q``-command against the *local* TORQUE
  server on every active head — external replication: the PBS stack is
  never modified, only driven through its service interface.
* :mod:`~repro.joshua.commands` — the ``jsub``/``jdel``/``jstat`` control
  commands, drop-in equivalents of ``qsub``/``qdel``/``qstat`` (the paper
  suggests ``alias qsub=jsub``). They contact any live head and fail over
  on timeout; command UUIDs make retries exactly-once.
* :mod:`~repro.joshua.jmutex` — the ``jmutex``/``jdone`` scripts: a
  distributed mutual exclusion in the mom's job-start prologue, built on
  SAFE multicast, guaranteeing each job launches exactly once even though
  every head's scheduler independently dispatches it.
* join/leave — a head node joins by entering the group and receiving state
  transfer; the paper's prototype transferred state by configuration-file
  modification plus user-command replay, which cannot reproduce held jobs;
  both the replay and its limitation are reproduced. Leaving is handled as
  a forced failure, exactly as in the paper.

Deployment helper: :func:`~repro.joshua.deploy.build_joshua_stack`.
"""

from repro.joshua.server import JoshuaServer, JOSHUA_PORT, JOSHUA_GCS_PORT
from repro.joshua.commands import JoshuaClient
from repro.joshua.deploy import build_joshua_stack, JoshuaStack
from repro.joshua.config import JOSHUA_GROUP_CONFIG, JoshuaTimes, ERA_2006_JOSHUA

__all__ = [
    "JoshuaServer",
    "JoshuaClient",
    "JoshuaStack",
    "build_joshua_stack",
    "JOSHUA_PORT",
    "JOSHUA_GCS_PORT",
    "JOSHUA_GROUP_CONFIG",
    "JoshuaTimes",
    "ERA_2006_JOSHUA",
]
