"""Versioned read cache: version-exact page-cache model for replica reads.

The segment layer keeps replica payloads in memory, but serving a read is
only free when the on-"disk" copy of *that exact version* is known to be
warm — i.e. it was written through this server's page cache (create, update
apply, blast install) and nothing has moved since.  The cache is keyed on
``(sid, major)`` and holds the :class:`~repro.core.versions.VersionPair`
last written through; a probe hits only when the stored pair matches the
requested one exactly, so a single stale probe can never serve old bytes.

Invalidation (the two events the pipeline wires up):

- **token transfer** — when the write token moves to another server the
  local copy may silently fall behind, so the entry is dropped and the next
  read re-charges disk latency;
- **update delivery** — applying an update re-warms the entry *at the new
  version*, which atomically invalidates the old one (version-exact
  invalidation, no timers involved).

Invariants
----------
- A probe hits only on an **exact** ``(sid, major, version-pair)`` match;
  the cache never answers for a different sub of the same major, so a
  stale entry can cost a disk read but never serve old bytes.
- The cache holds no payloads, only warmth: correctness never depends on
  it — clearing it at any moment merely re-charges disk latency.
- Entries survive token *acquisition* but not token *departure*: when
  the write token leaves this server the entry is dropped, because only
  the holder is guaranteed to observe every subsequent version change.
"""

from __future__ import annotations

from repro.core.versions import VersionPair
from repro.metrics import Metrics


class VersionedReadCache:
    """Tracks which ``(sid, major, version)`` payloads are warm."""

    def __init__(self, metrics: Metrics | None = None):
        self.metrics = metrics or Metrics()
        self._warm: dict[tuple[str, int], VersionPair] = {}

    def probe(self, sid: str, major: int, version: VersionPair) -> bool:
        """True iff this exact version is warm; counts the hit or miss."""
        hit = self._warm.get((sid, major)) == version
        if hit:
            self.metrics.incr("deceit.read_cache_hits")
        else:
            self.metrics.incr("deceit.read_cache_misses")
        return hit

    def warm(self, sid: str, major: int, version: VersionPair) -> None:
        """Mark the payload of this exact version warm (write-through)."""
        self._warm[(sid, major)] = version

    def invalidate(self, sid: str, major: int) -> bool:
        """Drop one entry (e.g. the write token moved away)."""
        if self._warm.pop((sid, major), None) is not None:
            self.metrics.incr("deceit.read_cache_invalidations")
            return True
        return False

    def clear(self) -> None:
        """Forget everything (host crashed: page cache is volatile)."""
        self._warm.clear()
