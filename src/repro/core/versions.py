"""Version pairs and compact history-tree comparison (§3.5).

Each replica of a file implicitly carries an *update history* — the list of
all updates applied to it.  Histories form a tree under the prefix/ancestor
relation; Deceit never stores full histories.  Instead it keeps a
one-to-one mapping from histories to **version pairs** ``(v1, v2)``:

- ``v2`` (the subversion) is incremented on every update;
- ``v1`` (the major version) is replaced by a globally unique number every
  time there is a *potential branch* in the history tree — i.e. whenever a
  new write token is generated.

The branch points are recorded (:class:`HistoryIndex`) so version pairs can
be compared *as if* the full histories were available: ``(v1 == v1' and
v2 <= v2')`` always implies ancestry, and cross-major comparisons walk the
recorded branch tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


@dataclass(frozen=True, order=False)
class VersionPair:
    """``(major, sub)`` — the compact name of one update history."""

    major: int
    sub: int

    def next_update(self) -> "VersionPair":
        """Version pair after one more update through the same token."""
        return VersionPair(self.major, self.sub + 1)

    def to_tuple(self) -> tuple[int, int]:
        """Plain-tuple form for message payloads and disk records."""
        return (self.major, self.sub)

    @classmethod
    def from_tuple(cls, raw) -> "VersionPair":
        """Inverse of :meth:`to_tuple` (accepts lists from JSON-ish payloads)."""
        return cls(int(raw[0]), int(raw[1]))

    def __repr__(self) -> str:
        return f"v{self.major}.{self.sub}"


class Relation(Enum):
    """Outcome of comparing two histories via their version pairs."""

    EQUAL = "equal"
    ANCESTOR = "ancestor"        # left is an ancestor of right
    DESCENDANT = "descendant"    # left is a descendant of right
    INCOMPARABLE = "incomparable"


class HistoryIndex:
    """The recorded branch points for one file; answers ancestry queries.

    One instance travels with each file's metadata (and is merged across
    replicas during state transfer), so any server can compare version
    pairs locally.
    """

    def __init__(self, branches: dict[int, tuple[int, int]] | None = None):
        # child major -> (parent major, parent sub at branch)
        self._parent: dict[int, tuple[int, int]] = dict(branches or {})

    def record_branch(self, child: int, parent: int, parent_sub: int) -> None:
        """Register a new branch point (idempotent for identical records)."""
        existing = self._parent.get(child)
        if existing is not None and existing != (parent, parent_sub):
            raise ValueError(
                f"major {child} already branched from {existing}, "
                f"got conflicting parent {(parent, parent_sub)}"
            )
        self._parent[child] = (parent, parent_sub)

    def parent_of(self, major: int) -> tuple[int, int] | None:
        """Branch point of ``major`` (None for a root major)."""
        return self._parent.get(major)

    def canonicalize(self, version: VersionPair) -> VersionPair:
        """Collapse a pair with no updates of its own onto its parent.

        A token generated at branch point ``(parent, s)`` starts at pair
        ``(child, s)`` — *the same history* as ``(parent, s)`` until the
        first update through the new token.  Comparisons must see through
        that aliasing.
        """
        seen = set()
        while True:
            if version.major in seen:
                raise ValueError(f"cycle in branch records at {version.major}")
            seen.add(version.major)
            up = self._parent.get(version.major)
            if up is None:
                return version
            parent, parent_sub = up
            if version.sub == parent_sub:
                version = VersionPair(parent, parent_sub)
            else:
                return version

    def _chain(self, version: VersionPair) -> list[tuple[int, int]]:
        """Path from ``version`` up to its root, as (major, sub-at-exit)."""
        chain = [(version.major, version.sub)]
        major = version.major
        seen = {major}
        while True:
            up = self._parent.get(major)
            if up is None:
                return chain
            major, sub = up
            if major in seen:
                raise ValueError(f"cycle in branch records at major {major}")
            seen.add(major)
            chain.append((major, sub))

    def compare(self, left: VersionPair, right: VersionPair) -> Relation:
        """Relation between the histories named by two version pairs."""
        left = self.canonicalize(left)
        right = self.canonicalize(right)
        if left == right:
            return Relation.EQUAL
        if left.major == right.major:
            return Relation.ANCESTOR if left.sub < right.sub else Relation.DESCENDANT
        # Walk each version's branch chain; if left's major appears in
        # right's chain, left may be an ancestor (and vice versa).
        right_chain = dict(self._chain(right))
        if left.major in right_chain:
            # right's history passed through left.major, exiting at sub s
            exit_sub = right_chain[left.major]
            return Relation.ANCESTOR if left.sub <= exit_sub else Relation.INCOMPARABLE
        left_chain = dict(self._chain(left))
        if right.major in left_chain:
            exit_sub = left_chain[right.major]
            return Relation.DESCENDANT if right.sub <= exit_sub else Relation.INCOMPARABLE
        return Relation.INCOMPARABLE

    def is_ancestor(self, left: VersionPair, right: VersionPair) -> bool:
        """True when ``left``'s history is a proper prefix of ``right``'s."""
        return self.compare(left, right) is Relation.ANCESTOR

    def merge(self, other: "HistoryIndex") -> None:
        """Union of branch records (state transfer between replicas)."""
        for child, (parent, sub) in other._parent.items():
            self.record_branch(child, parent, sub)

    def to_dict(self) -> dict[int, tuple[int, int]]:
        """Serializable form."""
        return dict(self._parent)

    @classmethod
    def from_dict(cls, raw: dict) -> "HistoryIndex":
        """Inverse of :meth:`to_dict` (tolerates JSON string keys/lists)."""
        return cls({int(k): (int(v[0]), int(v[1])) for k, v in raw.items()})

    def copy(self) -> "HistoryIndex":
        """Independent copy."""
        return HistoryIndex(self._parent)


class MajorAllocator:
    """Globally unique major version numbers without coordination.

    Each server owns a rank in its cell; majors are ``counter * stride +
    rank``, unique across servers as long as ranks are unique — usable even
    during a partition, which is exactly when new majors get minted
    (footnote 10 of the paper: "Deceit selects major version numbers
    carefully to insure global uniqueness").
    """

    def __init__(self, rank: int, stride: int = 1024):
        if not 0 <= rank < stride:
            raise ValueError(f"rank {rank} outside [0, {stride})")
        self.rank = rank
        self.stride = stride
        self._counter = 0

    def next_major(self) -> int:
        """Mint a fresh, globally unique major version number."""
        self._counter += 1
        return self._counter * self.stride + self.rank

    def observe(self, major: int) -> None:
        """Advance past an externally seen major from our own rank.

        Called during recovery so a restarted server never re-mints a major
        it used before crashing (the counter itself is volatile).
        """
        if major % self.stride == self.rank:
            self._counter = max(self._counter, major // self.stride)
