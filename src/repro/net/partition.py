"""Partition and link-cut bookkeeping.

The paper injected network failures by unplugging cables. Two fault shapes
cover that:

* **link cut** — the pair ``(a, b)`` cannot exchange messages (one cable
  between two specific nodes);
* **partition** — the node set is split into groups; only same-group pairs
  communicate (a whole hub port unplugged, or a hub split).

Both compose: a pair is reachable iff no cut applies *and* the partition map
(if any) places both ends in the same group.
"""

from __future__ import annotations

from repro.util.errors import NetworkError

__all__ = ["PartitionState"]


class PartitionState:
    """Tracks which node pairs can currently communicate."""

    def __init__(self):
        self._cut_links: set[frozenset[str]] = set()
        self._group_of: dict[str, int] = {}
        self._partitioned = False

    # -- link cuts ---------------------------------------------------------

    def cut_link(self, a: str, b: str) -> None:
        """Unplug the (bidirectional) cable between *a* and *b*."""
        if a == b:
            raise NetworkError("cannot cut a node's loopback link")
        self._cut_links.add(frozenset((a, b)))

    def restore_link(self, a: str, b: str) -> None:
        """Re-plug a previously cut cable (no-op if not cut)."""
        self._cut_links.discard(frozenset((a, b)))

    @property
    def cut_links(self) -> list[tuple[str, str]]:
        return sorted(tuple(sorted(pair)) for pair in self._cut_links)

    # -- partitions ----------------------------------------------------------

    def set_partitions(self, groups: list[list[str]]) -> None:
        """Split the network into *groups*; unlisted nodes are unreachable
        from every listed group (their own implicit singleton)."""
        seen: set[str] = set()
        for group in groups:
            for node in group:
                if node in seen:
                    raise NetworkError(f"node {node!r} appears in two partition groups")
                seen.add(node)
        self._group_of = {
            node: index for index, group in enumerate(groups) for node in group
        }
        self._partitioned = True

    def heal_partitions(self) -> None:
        """Remove the partition map (cut links remain cut)."""
        self._group_of = {}
        self._partitioned = False

    # -- queries -------------------------------------------------------------

    def reachable(self, a: str, b: str) -> bool:
        """True if a message can travel from *a* to *b* right now."""
        if a == b:
            return True
        if frozenset((a, b)) in self._cut_links:
            return False
        if self._partitioned:
            ga = self._group_of.get(a)
            gb = self._group_of.get(b)
            if ga is None or gb is None or ga != gb:
                return False
        return True
