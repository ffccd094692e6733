"""Group views: the membership snapshots between which virtual synchrony holds."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class View:
    """One installed membership of a process group.

    ``view_id`` increases monotonically along each branch of the view
    history; during a partition each side extends its own branch (the pair
    ``(view_id, coordinator)`` disambiguates, mirroring how Deceit's version
    pairs disambiguate file histories).

    Member order is significant: the *first* member is the coordinator
    (rank-0 convention from ISIS), and coordinator succession on failure is
    "next surviving member in order".
    """

    group: str
    view_id: int
    members: tuple[str, ...] = field(default_factory=tuple)

    @property
    def coordinator(self) -> str:
        """Rank-0 member; runs view changes."""
        if not self.members:
            raise ValueError(f"empty view for group {self.group}")
        return self.members[0]

    def contains(self, addr: str) -> bool:
        """Membership test."""
        return addr in self.members

    def successor(
        self,
        leaving: set[str] | None = None,
        joining: tuple[str, ...] = (),
    ) -> "View":
        """Next view: drop ``leaving``, append ``joining`` (rank order kept)."""
        leaving = leaving or set()
        kept = tuple(m for m in self.members if m not in leaving)
        added = tuple(j for j in joining if j not in kept)
        return View(self.group, self.view_id + 1, kept + added)

    def __repr__(self) -> str:
        return f"View({self.group}#{self.view_id} {list(self.members)})"
