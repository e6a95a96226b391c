"""Group views: numbered membership snapshots."""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.address import Address
from repro.util.errors import MembershipError

__all__ = ["View"]


@dataclass(frozen=True)
class View:
    """An installed membership configuration.

    Views are totally ordered by :attr:`view_id`; every member that installs
    view *n* installed the same member list for *n* (agreement comes from the
    flush protocol).
    """

    view_id: int
    members: tuple[Address, ...]

    def __post_init__(self):
        if self.view_id < 0:
            raise MembershipError("view_id must be non-negative")
        if not self.members:
            raise MembershipError("a view must have at least one member")
        if tuple(sorted(self.members)) != self.members:
            raise MembershipError("view members must be sorted")
        if len(set(self.members)) != len(self.members):
            raise MembershipError("duplicate member in view")

    @property
    def coordinator(self) -> Address:
        """Deterministic coordinator/sequencer: the lowest-ranked member."""
        return self.members[0]

    @property
    def size(self) -> int:
        return len(self.members)

    def __contains__(self, member: Address) -> bool:
        return member in self.members

    def rank_of(self, member: Address) -> int:
        """0-based rank of *member* in the sorted member list."""
        try:
            return self.members.index(member)
        except ValueError:
            raise MembershipError(f"{member} not in view {self.view_id}") from None

    def __str__(self) -> str:
        tags = ",".join(str(m) for m in self.members)
        return f"view#{self.view_id}[{tags}]"
