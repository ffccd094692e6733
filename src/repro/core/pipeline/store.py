"""ReplicaStore: local replica persistence and reads over ``storage/``.

One per server.  Owns the in-memory replica and token maps plus their
non-volatile records in the ``seg/`` namespace of the server's disk, and the
:class:`~repro.core.pipeline.read_cache.VersionedReadCache` that decides
whether a read must charge disk latency.

Hot-path properties:

- ``persist_new_segment`` commits the replica record, the token record, and
  the segment counter in **one group-commit batch** — a create costs one
  15 ms commit instead of three;
- ``persist_replica`` writes through the read cache, so data a server just
  wrote (or applied from an update) is warm for the reads that follow;
- ``touch_read`` charges a disk read only when the requested version is
  cold (after recovery, resurrection, or a token transfer).

The store needs only a kernel and a disk — no IsisProcess — so it is unit
testable in isolation.

Invariants
----------
- The store is **local**: it never inspects tokens, versions, or group
  membership.  Callers (the update/token protocols) are responsible for
  only persisting replica states the protocols have made legitimate.
- A replica record on disk is always a version the in-memory replica has
  actually held — records are written through, never ahead of, the
  in-memory state; the read cache is warmed only by those write-throughs.
- The cache therefore can never claim a version is warm that the disk
  has not seen: a probe hit implies the last durable write of that
  ``(sid, major)`` was exactly the probed version pair.
- ``persist_new_segment`` is atomic (one group-commit batch): after a
  crash either all of counter+replica+token exist, or none do.
"""

from __future__ import annotations

from typing import Any

from repro.core.pipeline.read_cache import VersionedReadCache
from repro.core.segment import Replica, Token
from repro.metrics import Metrics
from repro.sim import Kernel
from repro.storage import Disk, KvStore


class ReplicaStore:
    """Replica/token persistence layer of one segment server."""

    def __init__(self, kernel: Kernel, disk: Disk, metrics: Metrics | None = None):
        self.kernel = kernel
        self.disk = disk
        self.metrics = metrics or disk.metrics
        self.kv = KvStore(disk, "seg")
        self.replicas: dict[tuple[str, int], Replica] = {}
        self.tokens: dict[tuple[str, int], Token] = {}
        self.cache = VersionedReadCache(self.metrics)
        #: what was derived from each replica (``Envelope._derive``)
        self.derived: dict[tuple[str, int], dict] = {}

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #

    @staticmethod
    def _rep_key(sid: str, major: int) -> str:
        return f"rep/{sid}/{major}"

    @staticmethod
    def _tok_key(sid: str, major: int) -> str:
        return f"tok/{sid}/{major}"

    async def persist_replica(self, replica: Replica, sync: bool) -> None:
        """Write a replica record through the page cache (warms the read
        cache at the replica's current version)."""
        await self.kv.put(self._rep_key(replica.sid, replica.major),
                          replica.to_dict(), sync=sync)
        self.cache.warm(replica.sid, replica.major, replica.version)

    async def persist_token(self, token: Token, sync: bool = True) -> None:
        await self.kv.put(self._tok_key(token.sid, token.major),
                          token.to_dict(), sync=sync)

    async def delete_token_record(self, sid: str, major: int) -> None:
        await self.kv.delete(self._tok_key(sid, major), sync=True)

    async def destroy_replica(self, sid: str, major: int) -> None:
        """Drop the in-memory replica, its cache entry, and its record."""
        self.replicas.pop((sid, major), None)
        self.derived.pop((sid, major), None)
        self.cache.invalidate(sid, major)
        await self.kv.delete(self._rep_key(sid, major), sync=True)

    async def persist_replicas(self, replicas: list[Replica],
                               sync: bool = True) -> None:
        """Re-persist several replicas under one group-commit batch (e.g.
        a parameter change touching every local replica of a segment)."""
        if not replicas:
            return
        await self.kv.put_batch(
            [(self._rep_key(r.sid, r.major), r.to_dict()) for r in replicas],
            sync=sync)
        for replica in replicas:
            self.cache.warm(replica.sid, replica.major, replica.version)

    async def persist_new_segment(self, replica: Replica, token: Token,
                                  counter: int) -> None:
        """Atomically commit everything a create must not lose — one disk
        commit for the replica, the token, and the allocation counter."""
        await self.kv.put_batch([
            ("sid_counter", counter),
            (self._rep_key(replica.sid, replica.major), replica.to_dict()),
            (self._tok_key(token.sid, token.major), token.to_dict()),
        ], sync=True)
        self.cache.warm(replica.sid, replica.major, replica.version)

    # ------------------------------------------------------------------ #
    # read path
    # ------------------------------------------------------------------ #

    async def touch_read(self, replica: Replica) -> None:
        """Charge disk latency unless this exact version is already warm."""
        if self.cache.probe(replica.sid, replica.major, replica.version):
            return
        await self.kv.get(self._rep_key(replica.sid, replica.major))
        self.cache.warm(replica.sid, replica.major, replica.version)

    # ------------------------------------------------------------------ #
    # recovery-time scanning (zero latency, like reading a superblock)
    # ------------------------------------------------------------------ #

    def disk_majors(self, sid: str) -> list[int]:
        prefix = f"rep/{sid}/"
        return sorted(
            int(key.rsplit("/", 1)[1])
            for key in self.kv.keys()
            if key.startswith(prefix)
        )

    def disk_sids(self) -> list[str]:
        return sorted({key.split("/")[1] for key in self.kv.keys()
                       if key.startswith("rep/")})

    def disk_record_map(self) -> dict[str, dict[int, tuple[dict, dict | None]]]:
        """One pass over the whole ``seg/`` namespace:
        ``sid -> major -> (replica record, token record or None)``.

        Cold start resurrects every local segment; doing that with the
        per-sid scans above is quadratic in the number of records (each
        scan walks the whole key space), which turns a 100k-segment
        restart from seconds into hours.  This bulk map costs one key walk
        and one read per record.
        """
        out: dict[str, dict[int, list]] = {}
        for key, value in self.kv.items_now():
            parts = key.split("/")
            if len(parts) != 3 or parts[0] not in ("rep", "tok"):
                continue
            kind, sid, major = parts[0], parts[1], int(parts[2])
            slot = out.setdefault(sid, {}).setdefault(major, [None, None])
            slot[0 if kind == "rep" else 1] = value
        return {
            sid: {major: (rep, tok)
                  for major, (rep, tok) in sorted(majors.items())
                  if rep is not None}
            for sid, majors in sorted(out.items())
        }

    def replica_record_now(self, sid: str, major: int) -> dict | None:
        return self.kv.get_now(self._rep_key(sid, major))

    def token_record_now(self, sid: str, major: int) -> dict | None:
        return self.kv.get_now(self._tok_key(sid, major))

    def counter_now(self) -> Any:
        return self.kv.get_now("sid_counter")

    # ------------------------------------------------------------------ #
    # failure
    # ------------------------------------------------------------------ #

    def volatile_reset(self) -> None:
        """Drop all in-memory state (host crash; disk records survive)."""
        self.replicas.clear()
        self.derived.clear()
        self.tokens.clear()
        self.cache.clear()
