"""Generic symmetric active/active replication for deterministic services.

The paper's §3 presents a *universal* architecture (Figures 5-7): any
deterministic service can be made continuously available by wrapping it in
a virtually synchronous environment — intercept its interface, totally
order the state-changing requests through a group communication system,
execute them at every replica, and deliver output exactly once. JOSHUA is
that architecture specialised to the PBS interface; §1 and §6 name the PVFS
metadata server as the next target ("the generic symmetric active/active
high availability model our approach is based on is applicable to any
deterministic HPC system service, such as the metadata server of the
parallel virtual file system").

:mod:`repro.aa.engine` is that universal architecture, once:

* client requests carry UUIDs; replicas multicast them with SAFE service,
  execute them in delivery order through a *driver* the service plugs in,
  and the contacted replica relays the output — exactly once across client
  retries, failovers and joins (the reply cache travels with the state);
* joins use the marker-cut protocol (pin a point in the command stream,
  transfer the backend's state as of that point, execute only post-cut
  commands), with an RPC pull for a lost push, a fresh cut for a silent
  sponsor, and demote-and-resync after a lost partition merge;
* leaves and failures are handled by the group membership layer.

:mod:`repro.joshua` runs the engine with its PBS driver (plus the launch
mutex PBS needs); :class:`~repro.aa.replicated.ReplicatedService` hosts it
around any :class:`~repro.aa.replicated.BackendDriver`, and
:mod:`repro.pvfs` applies that to a PVFS-like metadata server, completing
the paper's stated follow-on. :mod:`repro.aa.wire` holds the records.
"""

from repro.aa.replicated import ReplicatedService, BackendDriver

__all__ = ["ReplicatedService", "BackendDriver"]
