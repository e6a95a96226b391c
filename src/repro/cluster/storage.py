"""Persistent storage that survives node crashes.

Two flavours, both simple key/value namespaces with copy semantics so a
daemon can never accidentally share a live object with "disk": every
:meth:`Disk.write` stores a pickle snapshot of the value (copy in) and every
:meth:`Disk.read` unpickles a fresh object graph from it (copy out) — the
isolation a deep copy each way gives, for a third of a deep copy's host
time per write. Only bytes ``write`` produced are ever unpickled. The cost
of an access is the size of the *one* record it names. Callers keep
that small by storing one record per thing that changes on its own (the
PBS server: one per job plus a server record, not one table) and use the
prefix forms of :meth:`Disk.keys` / :meth:`Disk.delete_prefix` to treat a
family of records as a unit (recovery scan, purge, checkpoint copy):

* :class:`Disk` — a node's local disk. Survives the node's crash/restart
  cycle (TORQUE persists its job queue this way).
* :class:`SharedStorage` — cluster-shared stable storage, the substrate of
  the active/standby baseline ("service state is saved regularly to some
  shared stable storage", §2 of the paper).

Writes take effect immediately (the simulated fsync cost is folded into the
service-time constants of the daemons that use them).
"""

from __future__ import annotations

import pickle
from typing import Any

__all__ = ["Disk", "SharedStorage"]


class Disk:
    """A node-local persistent key/value store."""

    def __init__(self, node_name: str):
        self.node_name = node_name
        self._data: dict[str, bytes] = {}

    def write(self, key: str, value: Any) -> None:
        """Persist a snapshot of *value* under *key*."""
        self._data[key] = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)

    def read(self, key: str, default: Any = None) -> Any:
        """Return a fresh copy of the stored value (or *default*)."""
        if key not in self._data:
            return default
        return pickle.loads(self._data[key])

    def delete(self, key: str) -> None:
        self._data.pop(key, None)

    def keys(self, prefix: str = "") -> list[str]:
        """Stored keys starting with *prefix*, sorted (never in write
        order: what a scan returns must not depend on history)."""
        return sorted(key for key in self._data if key.startswith(prefix))

    def delete_prefix(self, prefix: str) -> None:
        """Delete every record whose key starts with *prefix*."""
        for key in self.keys(prefix):
            del self._data[key]

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Disk {self.node_name} keys={len(self._data)}>"


class SharedStorage(Disk):
    """Cluster-wide stable storage (e.g. an NFS filer or SAN).

    Identical semantics to :class:`Disk`; kept as its own type so call sites
    document whether state survives only a node or the whole cluster. The
    active/standby baseline checkpoints here; note the paper's observation
    that such a filer is itself a single point of failure unless replicated —
    we model it as never failing, which *favours* the baseline and makes the
    symmetric active/active comparison conservative.
    """

    def __init__(self):
        super().__init__("shared")
