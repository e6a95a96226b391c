"""repro — reproduction of *JOSHUA: Symmetric Active/Active Replication for
Highly Available HPC Job and Resource Management* (IEEE CLUSTER 2006).

Quick tour (see README.md for the full map):

>>> from repro.cluster import Cluster
>>> from repro.joshua import build_joshua_stack
>>> cluster = Cluster(head_count=2, compute_count=2, login_node=True, seed=1)
>>> stack = build_joshua_stack(cluster)
>>> client = stack.client(node="login")

Sub-packages
------------
``repro.sim``      deterministic discrete-event simulation kernel
``repro.net``      simulated LAN: links, partitions, reliable transport
``repro.cluster``  nodes, daemons, disks, failure injection
``repro.gcs``      group communication (Transis stand-in): total order,
                   SAFE delivery, view-synchronous membership
``repro.pbs``      TORQUE/Maui-compatible job & resource management
``repro.joshua``   the paper's contribution: replicated PBS + jmutex
``repro.aa``       the universal active/active wrapper (paper §3)
``repro.pvfs``     replicated PVFS metadata server (paper's follow-on)
``repro.ha``       HA baselines, Equations 1-3, correlated failures, RAS
``repro.bench``    experiment harness for every paper figure
``repro.cli``      ``python -m repro`` experiment runner
"""

# Each wire module registers its records on the shared codec when imported.
# Importing them all here makes the registry, and so the schema digest a
# joining head presents (PROTOCOLS.md §11.3), the whole package's in every
# process, whichever parts of it that process uses.
import repro.aa.wire  # noqa: E402,F401
import repro.gcs.messages  # noqa: E402,F401
import repro.joshua.wire  # noqa: E402,F401
import repro.net.frames  # noqa: E402,F401
import repro.pbs.wire  # noqa: E402,F401
import repro.pvfs.metadata  # noqa: E402,F401
import repro.pvfs.wire  # noqa: E402,F401
import repro.rpc.wire  # noqa: E402,F401

__version__ = "1.0.0"

__all__ = ["__version__"]
