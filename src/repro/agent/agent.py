"""The Deceit client agent: user-program-facing file API over NFS RPCs."""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from enum import Enum
from typing import Any

from repro.core.pipeline.read_path import PlacementRecord
from repro.core.pipeline.update import UPDATE_REPLY_TIMEOUT_MS
from repro.core.striping import split_range
from repro.core.tokens import TOKEN_PASS_TIMEOUT_MS
from repro.errors import NfsError, NfsStat, RpcTimeout, Unreachable
from repro.net import Network, Node
from repro.net.network import RpcRemoteError
from repro.nfs.attrs import FileAttrs
from repro.nfs.fhandle import FileHandle
from repro.nfs.names import split_path

#: One attempt's bound, the same for every call: what the server asked
#: may spend on a write whose token holder fails — a forward that times
#: out, then the token request of its fallback.  A holder that is only
#: slow is asked again under the call's id while it stays in the file
#: group's view; the next attempt goes elsewhere under the same id.
RPC_TIMEOUT_MS = UPDATE_REPLY_TIMEOUT_MS + TOKEN_PASS_TIMEOUT_MS
#: First BUSY backoff; doubles per retry.  Scaled by a deterministic
#: per-agent stagger (a CRC of the agent's address): identical backoffs
#: would march rejected clients in lockstep — convoys that retry together
#: and let the admission bucket cap out (wasting refill) in the gaps.
#: CRC-derived stagger desynchronizes them while keeping same-seed runs
#: byte-identical.
BUSY_BACKOFF_MS = 2.0
#: Ceiling on one BUSY backoff sleep: the doubling stops here, so a patient
#: client (high ``busy_retries``) waits out a long overload in bounded
#: slices rather than milliseconds-to-seconds doubling.
BUSY_BACKOFF_CAP_MS = 64.0


class Placement(Enum):
    """Where the agent runs (Figure 8), fixing the user↔agent hop cost.

    Values are the per-call latency in virtual ms: a kernel procedure call
    is cheap, a user loadable library cheaper still (no kernel crossing),
    and an auxiliary user process pays local IPC both ways.
    """

    KERNEL = 0.05
    USER_LIBRARY = 0.02
    AUX_PROCESS = 0.40

    @property
    def hop_ms(self) -> float:
        """Latency of one user-program → agent crossing."""
        return self.value


@dataclass
class AgentConfig:
    """Feature switches for one agent instance.

    ``cache`` and the two TTLs are read once, where :class:`Agent` builds
    its :class:`_Cache` instances; everything after that asks the cache.
    """

    placement: Placement = Placement.KERNEL
    cache: bool = True
    failover: bool = True
    #: §5.3 access shortcut: send getattr, whole-file reads, lookups and
    #: readdirs to the replica holder the last reply's placement hint
    #: named, and whole-file writes, and range writes inside one stripe,
    #: to the token holder the file's or the stripe's hint named
    shortcut: bool = True
    attr_ttl_ms: float = 3000.0
    data_ttl_ms: float = 3000.0
    #: How many times a request answered ``ERR_BUSY`` by a server's
    #: admission gate (repro.obs.admission) is retried before the error
    #: surfaces.  Retries hit the *same* server — BUSY is backpressure,
    #: not failure, so it must not trigger failover stampedes.  A busy
    #: hinted holder is not retried: the call goes to the mount server.
    busy_retries: int = 4


def _join(dirpath: str, name: str) -> str:
    return dirpath.rstrip("/") + "/" + name


class _Cache:
    """One agent cache, ``key -> (value, expiry, version)``, and the one
    place the coherence policy lives (poll-with-TTL; a lapsed versioned
    entry is revalidated by its caller, not refetched).

    Every cache the agent keeps is an instance, so "may this be served
    without asking the server?" is :meth:`fresh` alone — a lease design
    changes that method and has its invalidate handler call :meth:`pop`.
    Built disabled (``AgentConfig.cache`` off) it stores nothing, so
    every lookup misses; call sites test the switch only to spare work
    a disabled cache makes pointless.
    """

    def __init__(self, kernel, ttl_ms: float, enabled: bool = True,
                 limit: int | None = None) -> None:
        self.kernel = kernel
        self.ttl_ms = ttl_ms
        self.enabled = enabled
        self.limit = limit
        self._entries: dict[Any, tuple[Any, float, tuple | None]] = {}

    def fresh(self, key) -> tuple[Any, float, tuple | None] | None:
        """The entry while its TTL holds, else ``None``."""
        entry = self._entries.get(key)
        if entry is not None and entry[1] > self.kernel.now:
            return entry
        return None

    def peek(self, key) -> tuple[Any, float, tuple | None] | None:
        """The entry whether or not it lapsed — what version revalidation
        and best-known-size probes read."""
        return self._entries.get(key)

    def put(self, key, value, version: tuple | None = None) -> None:
        if not self.enabled:
            return
        if self.limit is not None and len(self._entries) >= self.limit:
            # keep the map bounded (distinct missed names are unbounded,
            # live files are not): lapsed entries go first; if everything
            # is still live, the soonest-to-expire half is evicted
            self._entries = {k: e for k, e in self._entries.items()
                             if self.fresh(k) is not None}
            if len(self._entries) >= self.limit:
                by_expiry = sorted(self._entries.items(),
                                   key=lambda item: item[1][1])
                self._entries = dict(by_expiry[len(by_expiry) // 2:])
        self._entries[key] = (value, self.kernel.now + self.ttl_ms, version)

    def pop(self, key) -> None:
        self._entries.pop(key, None)

    def keys(self) -> list:
        return list(self._entries)

    def clear(self) -> None:
        self._entries.clear()


class Agent(Node):
    """A client machine running the agent.

    The public methods mirror what a user program does through the kernel
    VFS: path-based file operations.  All remote work goes through the NFS
    protocol to the currently connected server.
    """

    def __init__(self, network: Network, addr: str, servers: list[str],
                 config: AgentConfig | None = None):
        super().__init__(network, addr)
        if not servers:
            raise ValueError("agent needs at least one server address")
        self.servers = list(servers)
        self.config = config or AgentConfig()
        self.current = 0
        self.root_fh: FileHandle | None = None
        cfg, kernel = self.config, self.kernel
        # fh -> FileAttrs
        self._attr_cache = _Cache(kernel, cfg.attr_ttl_ms, cfg.cache)
        # fh -> whole-file bytes, versioned: revalidated once the TTL lapses
        self._data_cache = _Cache(kernel, cfg.data_ttl_ms, cfg.cache)
        # dirfh -> entries, versioned: the readdir cache, revalidated on
        # expiry and kept coherent by the dir_version pairs riding this
        # agent's own mutation replies
        self._dir_cache = _Cache(kernel, cfg.attr_ttl_ms, cfg.cache)
        # (dirfh, name) -> True: names this agent recently saw ERR_NOENT
        # for — a fresh entry answers the repeat lookup with no RPC
        self._neg_cache = _Cache(kernel, cfg.attr_ttl_ms, cfg.cache,
                                 limit=512)
        # path -> FileHandle; handles are server-independent, never lapse
        self._handle_cache = _Cache(kernel, math.inf, cfg.cache)
        # sid, or (sid, stripe index) -> the placement record the last
        # hint for that file or stripe taught.  A file's record also names
        # where its whole-file writes go, and keeps the stripe width read
        # replies teach: the attr-borne stripe hint lapses with the attrs
        self._placement: dict[str | tuple[str, int], PlacementRecord] = {}
        # fh-key -> (start, data): the last prefetched range of a striped
        # file — one entry per handle
        self._range_cache = _Cache(kernel, cfg.data_ttl_ms)
        # fh-key -> next sequential offset (the readahead trigger)
        self._seq_read: dict[str, int] = {}
        # fh-key -> invalidation generation: an in-flight prefetch may only
        # store its reply if no write invalidated the handle since it was
        # spawned (else it would resurrect pre-write bytes)
        self._cache_gen: dict[str, int] = {}
        # deterministic backoff stagger in [1, 2): crc32 (not hash()) so
        # it is stable across processes / PYTHONHASHSEED
        self._busy_stagger = 1.0 + (zlib.crc32(addr.encode()) & 0xFF) / 256.0
        # write ids: the last seq minted, and the unanswered ones ascending
        self._seq = 0
        self._unanswered: dict[int, None] = {}
        self.metrics = network.metrics

    def release(self) -> None:
        """The client is gone for good (its cell closed, or restarted with
        fresh agents): drop every cache and placement record."""
        for cache in (self._attr_cache, self._data_cache, self._dir_cache,
                      self._neg_cache, self._handle_cache, self._range_cache):
            cache.clear()
        self._placement.clear()
        self._seq_read.clear()
        self._cache_gen.clear()

    # ------------------------------------------------------------------ #
    # transport with failover
    # ------------------------------------------------------------------ #

    @property
    def server(self) -> str:
        """Address of the currently connected server."""
        return self.servers[self.current]

    async def _user_hop(self) -> None:
        await self.kernel.sleep(self.config.placement.hop_ms)

    async def _nfs(self, op: str, args: dict[str, Any],
                   to: str | None = None, size_bytes: int = 256,
                   failover: bool = True) -> dict:
        """One NFS RPC through :meth:`_transport`.

        This is the NFS envelope's client side, so it is also where a
        request trace begins: while a tracer is armed, a fresh trace id
        is minted per call, rides the task (and every message sent on
        its behalf) through the cell, and the whole call is recorded as
        the root ``agent``-layer span.  ``to`` aims the first attempt
        (see :meth:`_transport`); one aimed at a server other than the
        mount server is counted here, as
        ``agent.routed_writes`` or ``agent.routed_reads``.
        """
        if to is not None and to != self.server:
            self.metrics.incr("agent.routed_writes" if op == "write"
                              else "agent.routed_reads")
        await self._user_hop()
        kernel = self.kernel
        tracer = kernel._tracer
        traced = None
        if tracer is not None:
            traced = kernel._current
            if traced is not None:
                prev_trace = traced.trace
                traced.trace = tid = tracer.mint()
                t0 = kernel.now
        try:
            return await self._transport("nfs", f"nfs.{op}",
                                         {"op": op, "args": args}, to,
                                         size_bytes, failover)
        finally:
            if traced is not None:
                tracer.record(tid, t0, kernel.now, "agent", f"nfs.{op}")
                traced.trace = prev_trace

    async def _transport(self, method: str, tag: str, kwargs: dict[str, Any],
                         to: str | None = None, size_bytes: int = 256,
                         failover: bool = True) -> dict:
        """One RPC, by one rule for every call: the hinted target ``to``
        first, then the mount server, then — with failover on — the next
        servers, each attempt bounded by ``RPC_TIMEOUT_MS`` (a write is sent
        again under its one id).  A hinted target that fails leaves every
        hint; one that fails or answers BUSY hands the call to the mount
        server, whose BUSY is backed off against while the budget lasts.
        A best-effort call (``failover`` off: a readahead prefetch) gives
        up where failover would move the agent to the next server.
        """
        failover = failover and self.config.failover
        attempts = len(self.servers) if failover else 1
        last_exc: Exception | None = None
        failures = 0
        busy_left = self.config.busy_retries
        busy_wait = BUSY_BACKOFF_MS * self._busy_stagger
        while failures < attempts:
            target = to if to is not None else self.server
            try:
                reply = await self.call(
                    target, method, size_bytes=size_bytes, tag=tag,
                    timeout=RPC_TIMEOUT_MS, **kwargs)
            except (RpcTimeout, Unreachable, RpcRemoteError) as exc:
                last_exc = exc
                if to is not None:
                    self._forget_server(to)
                    routed, to = to != self.server, None
                    if routed:
                        continue  # fall back to the mount server
                failures += 1
                if not failover:
                    break
                self.current = (self.current + 1) % len(self.servers)
                self.metrics.incr("agent.failovers")
                continue
            status = reply["status"]
            if status == NfsStat.ERR_BUSY and to not in (None, self.server):
                to = None  # hand the call to the mount server
                continue
            if status == NfsStat.ERR_BUSY and busy_left > 0:
                # admission backpressure: back off and retry the same
                # target without spending the failover budget
                busy_left -= 1
                self.metrics.incr("agent.busy_retries")
                await self.kernel.sleep(busy_wait)
                busy_wait = min(busy_wait * 2.0, BUSY_BACKOFF_CAP_MS)
                continue
            if status != 0:
                raise NfsError(status, reply.get("error", ""))
            return reply
        raise NfsError(NfsStat.ERR_IO,
                       f"no server reachable for {tag}: {last_exc}")

    # ------------------------------------------------------------------ #
    # mount and path resolution
    # ------------------------------------------------------------------ #

    async def mount(self) -> FileHandle:
        """Fetch the root handle, failing over like every other call."""
        await self._user_hop()
        reply = await self._transport("nfs_root", "mount", {})
        self.root_fh = FileHandle.decode(reply["fh"])
        return self.root_fh

    async def lookup_path(self, path: str) -> FileHandle:
        """Walk a slash path from the root, one LOOKUP per component."""
        return (await self._walk(path))[0]

    async def _walk(self, path: str,
                    read: bool = False) -> tuple[FileHandle, dict]:
        """:meth:`lookup_path`, plus the reply of the LOOKUP that resolved
        the last component (``{}`` when the caches resolved it).

        With ``read`` — the caller reads the whole file — and the data
        cache on, that LOOKUP asks for the file's bytes too.  The server
        answering it includes them when its own replica serves them
        (§3.4), so a cold whole-file read is one round trip; otherwise
        the caller READs from the holder the reply's placement names.
        An agent with caches off sends the plain NFS LOOKUP."""
        if self.root_fh is None:
            await self.mount()
        hit = self._handle_cache.fresh(path)
        if hit is not None:
            self.metrics.incr("agent.handle_cache_hits")
            return hit[0], {}
        fh, reply = self.root_fh, {}
        parts = split_path(path)
        for depth, part in enumerate(parts, 1):
            reply = {}
            prefix = "/" + "/".join(parts[:depth])
            hit = self._handle_cache.fresh(prefix)
            if hit is not None:
                fh = hit[0]
                continue
            listed = self._lookup_cached(fh, part)
            if listed is not None:
                fh = listed
                self._handle_cache.put(prefix, fh)
                continue
            args: dict[str, Any] = {"fh": fh.encode(), "name": part}
            if read and depth == len(parts) and self._data_cache.enabled:
                args["read"] = True
            try:
                reply = await self._nfs("lookup", args,
                                        to=self._shortcut_target(fh))
            except NfsError as exc:
                if exc.status == NfsStat.ERR_NOENT and ";" not in part:
                    self._neg_cache.put((fh.encode(), part), True)
                raise
            self._learn_placement(fh, reply, field="dir_placement")
            fh = FileHandle.decode(reply["fh"])
            self._handle_cache.put(prefix, fh)
            if self._attr_cache.enabled:
                self._attr_cache.put(fh.encode(),
                                     FileAttrs.from_wire(reply["attrs"]))
            self._learn_placement(fh, reply)
        return fh, reply

    def _lookup_cached(self, dirfh: FileHandle, name: str) -> FileHandle | None:
        """Resolve one component from the agent-side directory caches.

        Two sources, both fed by this agent's own traffic: a fresh
        negative-lookup entry answers the repeat miss (raising ERR_NOENT
        with no RPC), and a fresh cached listing answers both hits and
        misses — a listed name yields its handle, an unlisted one is a
        authoritative-as-of-that-version miss.  Version-qualified names
        (``foo;3``) always go to the server.
        """
        if ";" in name:
            return None
        key = dirfh.encode()
        if self._neg_cache.fresh((key, name)) is not None:
            self.metrics.incr("agent.neg_lookup_hits")
            raise NfsError(NfsStat.ERR_NOENT, f"{name} (cached miss)")
        cached = self._dir_cache.fresh(key)
        if cached is not None:
            entry = next((e for e in cached[0] if e["name"] == name), None)
            if entry is None:
                self.metrics.incr("agent.neg_lookup_hits")
                raise NfsError(NfsStat.ERR_NOENT,
                               f"{name} (not in cached listing)")
            self.metrics.incr("agent.dir_cache_hits")
            return FileHandle.decode(entry["fh"])
        return None

    def _invalidate(self, fh: FileHandle) -> None:
        key = fh.encode()
        self._attr_cache.pop(key)
        self._data_cache.pop(key)
        self._range_cache.pop(key)
        self._cache_gen[key] = self._cache_gen.get(key, 0) + 1

    # ------------------------------------------------------------------ #
    # readdir / negative-lookup cache upkeep (fed by dirop results)
    # ------------------------------------------------------------------ #

    def _feed_dir_cache(self, dirfh: FileHandle, name: str,
                        entry: dict | None, dir_version) -> None:
        """Fold one of this agent's own directory mutations into the caches.

        ``entry`` is the listing row the name now maps to (``None`` =
        removed); ``dir_version`` is the directory's post-op version pair
        from the mutation reply.  The cached listing is patched in place
        **only** when the new version is the immediate successor of the
        cached one — i.e. this mutation was provably the only change since
        the listing was taken; a gap means other clients mutated in
        between, and drops the listing so the next readdir refetches.
        """
        key = dirfh.encode()
        if entry is not None:
            self._neg_cache.pop((key, name))
        else:
            self._neg_cache.put((key, name), True)
        cached = self._dir_cache.peek(key)
        if cached is None:
            return
        entries, _expiry, version = cached
        new_version = tuple(dir_version)
        contiguous = (version is not None
                      and new_version[0] == version[0]
                      and new_version[1] == version[1] + 1)
        if not contiguous:
            self._dir_cache.pop(key)
            return
        entries = [e for e in entries if e["name"] != name]
        if entry is not None:
            entries.append(dict(entry))
            entries.sort(key=lambda e: e["name"])
        self._dir_cache.put(key, entries, new_version)
        self.metrics.incr("agent.dir_cache_patched")

    # ------------------------------------------------------------------ #
    # file operations
    # ------------------------------------------------------------------ #

    async def getattr(self, path_or_fh: str | FileHandle) -> FileAttrs:
        """Attributes, served from the agent cache when fresh."""
        fh = await self._resolve(path_or_fh)
        key = fh.encode()
        cached = self._attr_cache.fresh(key)
        if cached is not None:
            self.metrics.incr("agent.attr_cache_hits")
            return cached[0]
        reply = await self._nfs("getattr", {"fh": key},
                                to=self._shortcut_target(fh))
        self._learn_placement(fh, reply)
        attrs = FileAttrs.from_wire(reply["attrs"])
        self._attr_cache.put(key, attrs)
        return attrs

    async def _resolve(self, path_or_fh: str | FileHandle) -> FileHandle:
        if isinstance(path_or_fh, FileHandle):
            return path_or_fh
        return await self.lookup_path(path_or_fh)

    async def read_file(self, path_or_fh: str | FileHandle) -> bytes:
        """Whole-file read (the dominant access pattern, §2.3).

        A path whose last component needs a LOOKUP asks that LOOKUP for
        the bytes (:meth:`_walk`).  Served from the agent cache while the
        TTL is fresh; once it lapses the cached copy is *revalidated by
        version pair* rather than thrown away — the server replies
        "unchanged" without payload bytes when the file is still at the
        cached version (version-exact invalidation, §3.5's version inquiry
        put to work).
        """
        if isinstance(path_or_fh, FileHandle):
            fh, looked_up = path_or_fh, {}
        else:
            fh, looked_up = await self._walk(path_or_fh, read=True)
        key = fh.encode()
        if "data" in looked_up:
            # the LOOKUP that resolved the name carried the bytes: a miss
            # filled without a READ
            self.metrics.incr("agent.data_cache_misses")
            data = looked_up["data"]
            self._data_cache.put(key, data, tuple(looked_up["version"]))
            return data
        cached = self._data_cache.fresh(key)
        if cached is not None:
            self.metrics.incr("agent.data_cache_hits")
            return cached[0]
        if self._data_cache.enabled:
            self.metrics.incr("agent.data_cache_misses")
        cached = self._data_cache.peek(key)      # lapsed, if anything
        hint = self._stripe_hint(key)
        if hint is not None and hint[1] > hint[0]:
            # striped file: gather it in parallel, one ranged read per
            # stripe, instead of shipping the whole image through one reply
            self.metrics.incr("agent.striped_reads")
            data, version, size = await self._read_stripes(fh, hint[0], 0,
                                                           hint[1])
            if version is None or size > hint[1]:
                # a flip landed mid-fan-out, or the file grew since the
                # hint: one whole-file read resolves the map once
                self.metrics.incr("agent.striped_read_fallbacks")
                reply = await self._nfs("read", {"fh": key})
                data, version = reply["data"], tuple(reply["version"])
        else:
            args: dict[str, Any] = {"fh": key}
            if cached and cached[2] is not None:
                # TTL lapsed: revalidate by version pair — the server
                # answers "unchanged" (no data bytes) when still current
                args["verify"] = list(cached[2])
            reply = await self._nfs("read", args,
                                    to=self._shortcut_target(fh))
            self._learn_placement(fh, reply, 0)
            version = tuple(reply["version"]) if "version" in reply else None
            if reply.get("unchanged") and cached:
                self.metrics.incr("agent.data_cache_revalidations")
                data = cached[0]
            else:
                data = reply["data"]
        self._data_cache.put(key, data, version)
        return data

    # ------------------------------------------------------------------ #
    # ranged reads, striped fan-out, and readahead
    # ------------------------------------------------------------------ #

    def _stripe_hint(self, key: str) -> tuple[int, int] | None:
        """(stripe_size, size) while fresh cached attrs say the file is
        striped; it lapses with the attrs."""
        cached = self._attr_cache.fresh(key)
        if cached is not None and cached[0].stripe_size:
            return cached[0].stripe_size, cached[0].size
        return None

    async def read_at(self, path_or_fh: str | FileHandle, offset: int,
                      count: int) -> bytes:
        """Ranged read: ``count`` bytes from ``offset`` (fewer at EOF).

        Served from the agent caches, then the readahead range cache, then
        RPC.  Striped files whose range spans several stripes fan the
        pieces out in parallel; sequential scans arm the next-stripe
        readahead so the following request is served from agent memory.
        """
        fh = await self._resolve(path_or_fh)
        key = fh.encode()
        self.metrics.incr("agent.range_reads")
        if count <= 0:
            return b""
        cached = self._data_cache.fresh(key)
        if cached is not None:
            self.metrics.incr("agent.data_cache_hits")
            return cached[0][offset:offset + count]
        ra = self._range_cache.fresh(key)
        start, ahead = ra[0] if ra is not None else (0, b"")
        if start <= offset and offset + count <= start + len(ahead):
            self.metrics.incr("agent.readahead_hits")
            self._note_sequential(fh, key, offset, count)
            return ahead[offset - start:offset - start + count]
        hint = self._stripe_hint(key)
        if hint is not None and \
                offset // hint[0] != (offset + count - 1) // hint[0]:
            data, version, _size = await self._read_stripes(fh, hint[0],
                                                            offset, count)
            if version is None:
                # a flip landed mid-fan-out: one RPC resolves the map once
                self.metrics.incr("agent.striped_read_fallbacks")
                data = (await self._read_range(fh, offset, count))["data"]
        else:
            data = (await self._read_range(fh, offset, count))["data"]
        self._note_sequential(fh, key, offset, count)
        return data

    async def _read_stripes(self, fh: FileHandle, width: int, offset: int,
                            count: int) -> tuple[bytes, tuple | None, int]:
        """Read ``[offset, offset+count)`` as one parallel ranged read per
        stripe of ``width`` bytes, reassembled by offset.

        Returns the bytes, the parent version pair the replies agree on
        (``None`` if they disagree), and the largest file size they
        report.  Under one parent version the file length is fixed, the
        server pads interior holes with zeros and only a piece at or past
        EOF comes back short, so the pieces concatenate exactly.

        Atomicity: every whole-image change (rewrite, restripe,
        conversion) bumps the parent's version pair, so replies that
        disagree mean a flip landed mid-fan-out and the bytes may be a
        hybrid of old and new contents.  The caller then re-reads through
        one RPC, whose server-side gather resolves the map once.
        """
        pieces = split_range(offset, offset + count, width)
        self.metrics.incr("agent.striped_fanout_parts", len(pieces))
        tasks = [self.spawn(self._read_range(fh, o, c),
                            name=f"{self.addr}:fanout:{i}")
                 for i, (o, c) in enumerate(pieces)]
        replies = await self.kernel.all_of(tasks)
        versions = {tuple(reply["version"]) for reply in replies}
        version = versions.pop() if len(versions) == 1 else None
        return (b"".join(reply["data"] for reply in replies), version,
                max(reply["size"] for reply in replies))

    async def _read_range(self, fh: FileHandle, offset: int,
                          count: int, failover: bool = True) -> dict:
        """One ranged read RPC — the funnel every ranged read takes: the
        single-RPC path, fan-out pieces, prefetches and the range fallback.

        A range inside one stripe of a file whose width a read reply has
        taught goes to a hinted holder of that stripe (§5.3: the agent
        talks straight to a replica holder), so its bytes cross the
        network once instead of being relayed by the mount server.  A
        failed target drops out of every hint and the read falls back;
        without ``failover`` (a prefetch) it stops at the mount server.
        """
        reply = await self._nfs(
            "read", {"fh": fh.encode(), "offset": offset, "count": count},
            to=self._route_target(fh, self._route_key(fh, offset, count)),
            failover=failover)
        self._learn_placement(fh, reply, offset)
        return reply

    def _note_sequential(self, fh: FileHandle, key: str, offset: int,
                         count: int) -> None:
        """Track the scan position; a read continuing exactly where the
        last one ended arms a background prefetch of the next stripe."""
        # a scan starting at the beginning of the file counts as sequential
        # from its first read
        sequential = self._seq_read.get(key, 0) == offset
        self._seq_read[key] = offset + count
        if not sequential:
            return
        hint = self._stripe_hint(key)
        if hint is None:
            return
        next_off = offset + count
        if next_off >= hint[1]:
            return                       # the scan reached the hinted EOF
        ra = self._range_cache.fresh(key)
        start, ahead = ra[0] if ra is not None else (0, b"")
        if start <= next_off < start + len(ahead):
            return                       # already prefetched past here
        self.metrics.incr("agent.readahead_prefetches")
        self.spawn(self._prefetch(fh, next_off, hint[0]),
                   name=f"{self.addr}:readahead")

    async def _prefetch(self, fh: FileHandle, offset: int, length: int) -> None:
        key = fh.encode()
        gen = self._cache_gen.get(key, 0)
        try:
            reply = await self._read_range(fh, offset, length,
                                           failover=False)
        except NfsError:
            return                       # readahead is strictly best-effort
        if self._cache_gen.get(key, 0) != gen:
            # a write invalidated this handle while the prefetch was in
            # flight: storing the reply would resurrect pre-write bytes
            return
        self._range_cache.put(key, (offset, reply["data"]))

    def _route_key(self, fh: FileHandle, offset: int,
                   count: int) -> tuple[str, int] | None:
        """The placement key a ranged read or write routes by: ``(sid,
        stripe index)`` when a reply taught the file's stripe width and the
        range lies in one stripe, else ``None`` (no hint applies)."""
        record = self._placement.get(fh.sid)
        width = record and record.stripe_width
        if width and offset // width == (offset + count - 1) // width:
            return fh.sid, offset // width
        return None

    def _route_target(self, fh: FileHandle,
                      key: str | tuple[str, int] | None) -> str | None:
        """Where to aim a read, getattr, lookup or readdir (§5.3: the agent
        talks straight to a replica holder): the route of the record under
        ``key``, or ``None`` for the plain mount-server path (see
        :meth:`PlacementRecord.route`; a foreign handle has none)."""
        record = None if fh.foreign else self._placement.get(key)
        return record.route(self.server) if record else None

    def _shortcut_target(self, fh: FileHandle) -> str | None:
        """The access shortcut for a file's getattr and whole-file read,
        and for a lookup or readdir in a directory: the holder its last
        placement hint named, when ``shortcut`` is on."""
        if not self.config.shortcut:
            return None
        return self._route_target(fh, fh.sid)

    def _write_target(self, fh: FileHandle,
                      key: str | tuple[str, int] | None) -> str | None:
        """The access shortcut for a write: the token holder the record
        under ``key`` names — possibly the mount server itself — when
        ``shortcut`` is on; ``None`` without a record."""
        if not self.config.shortcut or fh.foreign:
            return None
        record = self._placement.get(key)
        return record and record.token_holder

    def _learn_placement(self, fh: FileHandle, reply: dict,
                         offset: int | None = None,
                         field: str = "placement") -> None:
        """Absorb the placement hint piggybacked on a reply under ``field``.
        A read or range-write reply at ``offset`` of a striped file
        describes that stripe, and teaches the file's record only its
        stripe width; every other hint (getattr, lookup, readdir, a blob's
        read, and a lookup's ``dir_placement`` for the directory searched)
        describes ``fh`` itself and replaces its record."""
        hint = reply.get(field)
        if not hint or fh.foreign:
            return
        record = PlacementRecord.from_hint(hint)
        width = record.stripe_width
        if width and offset is not None:
            known = self._placement.get(fh.sid, PlacementRecord())
            if known.stripe_width != width:
                self._placement[fh.sid] = known._replace(stripe_width=width)
            self._placement[fh.sid, offset // width] = record
        else:
            self._placement[fh.sid] = record
        self.metrics.incr("agent.placement_hints")

    def _forget_server(self, server: str) -> None:
        """A routed target failed: drop it from every record, so a crashed
        holder costs this agent one timeout, not one per file."""
        for key, record in self._placement.items():
            self._placement[key] = record.without(server)

    async def write_file(self, path_or_fh: str | FileHandle,
                         data: bytes) -> FileAttrs:
        """Whole-file write (§2.3's dominant pattern): one atomic
        truncate-and-write NFS round.

        The ``truncate`` flag makes the server replace the contents in a
        single ``setdata`` segment update — one round, one version bump,
        and no window where a concurrent reader sees an empty file or a
        crash loses the old bytes without producing the new ones.
        """
        fh = await self._resolve(path_or_fh)
        return await self._write_through(
            fh, {"fh": fh.encode(), "offset": 0, "data": data,
                 "truncate": True}, fh.sid)

    async def write_at(self, path_or_fh: str | FileHandle, offset: int,
                       data: bytes) -> FileAttrs:
        """Positioned write."""
        fh = await self._resolve(path_or_fh)
        return await self._write_through(
            fh, {"fh": fh.encode(), "offset": offset, "data": data},
            self._route_key(fh, offset, len(data)))

    async def _write_through(self, fh: FileHandle, args: dict[str, Any],
                             key: str | tuple[str, int] | None) -> FileAttrs:
        """One NFS write, under one id over all its attempts (the token
        holder applies it once); then drop what the caches held about the
        file and keep the post-write attrs its reply carries.  It goes to
        the token holder the record under ``key`` names (§5.3): the
        file's for a whole-file write, the stripe's for a range inside one
        stripe — whose reply teaches that record.  Any other range write
        enters at the mount server."""
        self._seq += 1
        seq = self._seq
        self._unanswered[seq] = None
        args["id"] = [self.incarnation, seq, next(iter(self._unanswered))]
        try:
            reply = await self._nfs("write", args,
                                    to=self._write_target(fh, key),
                                    size_bytes=max(256, len(args["data"])))
        finally:
            del self._unanswered[seq]
        self._learn_placement(fh, reply, args["offset"])
        self._invalidate(fh)
        attrs = FileAttrs.from_wire(reply["attrs"])
        self._attr_cache.put(fh.encode(), attrs)
        return attrs

    async def create(self, dirpath: str, name: str,
                     sattr: dict | None = None) -> FileHandle:
        """Create a file in the directory at ``dirpath``."""
        return await self._make_node("create", "reg", dirpath, name,
                                     sattr=sattr or {})

    async def mkdir(self, dirpath: str, name: str) -> FileHandle:
        """Create a directory."""
        return await self._make_node("mkdir", "dir", dirpath, name)

    async def symlink(self, dirpath: str, name: str, target: str) -> FileHandle:
        """Create a soft link."""
        return await self._make_node("symlink", "lnk", dirpath, name,
                                     target=target)

    async def _make_node(self, op: str, ftype: str, dirpath: str, name: str,
                         **args) -> FileHandle:
        dirfh = await self._resolve(dirpath)
        reply = await self._nfs(op, {"fh": dirfh.encode(), "name": name,
                                     **args})
        fh = FileHandle.decode(reply["fh"])
        if ftype != "lnk":       # a link's own path is never bound
            self._handle_cache.put(_join(dirpath, name), fh)
        self._feed_dir_cache(dirfh, name,
                             {"name": name, "type": ftype, "fh": reply["fh"]},
                             reply["dir_version"])
        return fh

    async def readlink(self, path_or_fh: str | FileHandle) -> str:
        """Read a soft link's target."""
        fh = await self._resolve(path_or_fh)
        return (await self._nfs("readlink", {"fh": fh.encode()}))["target"]

    def _prune_handle_cache(self, path: str) -> None:
        """Drop the cached handle for ``path`` AND every cached descendant.

        After a rename or removal of a directory, paths *under* it must
        stop resolving through stale cached handles — popping only the
        exact key would leave ``<path>/...`` entries pointing at live
        handles for names that no longer exist.
        """
        path = path.rstrip("/")
        prefix = path + "/"
        for cached in self._handle_cache.keys():
            if cached == path or cached.startswith(prefix):
                self._handle_cache.pop(cached)

    async def remove(self, dirpath: str, name: str) -> None:
        """Unlink a file."""
        await self._unlink("remove", dirpath, name)

    async def rmdir(self, dirpath: str, name: str) -> None:
        """Remove an empty directory."""
        await self._unlink("rmdir", dirpath, name)

    async def _unlink(self, op: str, dirpath: str, name: str) -> None:
        dirfh = await self._resolve(dirpath)
        path = _join(dirpath, name)
        target = self._handle_cache.peek(path)
        reply = await self._nfs(op, {"fh": dirfh.encode(), "name": name})
        self._prune_handle_cache(path)
        if target is not None:
            # nlink/ctime changed (or the file is gone); a removed
            # directory's listing goes with it
            self._invalidate(target[0])
            self._dir_cache.pop(target[0].encode())
        self._invalidate(dirfh)
        self._feed_dir_cache(dirfh, name, None, reply["dir_version"])

    async def rename(self, fromdir: str, fromname: str,
                     todir: str, toname: str) -> None:
        """Move/rename a file (or a whole directory subtree)."""
        fromfh = await self._resolve(fromdir)
        tofh = await self._resolve(todir)
        reply = await self._nfs("rename",
                                {"fh": fromfh.encode(), "fromname": fromname,
                                 "tofh": tofh.encode(), "toname": toname})
        # prune descendants of BOTH names: old paths under a renamed
        # directory are dead, and a rename-over replaced the target
        self._prune_handle_cache(_join(fromdir, fromname))
        self._prune_handle_cache(_join(todir, toname))
        self._invalidate(fromfh)
        self._invalidate(tofh)
        versions = reply.get("dir_versions") or {}
        # to-side first: a same-directory rename bumps the one directory
        # twice (install sub+1, drop sub+2), so the patches only chain as
        # contiguous in server order
        if versions.get("to") is not None:
            # the entry the SERVER says it installed — never this agent's
            # own (possibly stale) cached listing of the source directory
            self._feed_dir_cache(tofh, toname,
                                 {"name": toname, **reply["moved_entry"]},
                                 versions["to"])
        else:
            # POSIX no-op rename (both names already link the same file):
            # nothing changed server-side, the listings stay — but both
            # names provably exist, so negative entries for them are wrong
            self._neg_cache.pop((tofh.encode(), toname))
            self._neg_cache.pop((fromfh.encode(), fromname))
        if versions.get("from") is not None:
            self._feed_dir_cache(fromfh, fromname, None, versions["from"])
        elif versions.get("to") is not None:
            # the server abandoned the from-side drop — e.g. a concurrent
            # re-create owns the name now; a negative entry would assert a
            # removal that may not have happened.  (A no-op rename — both
            # versions None — changed nothing, so the caches stay.)
            self._dir_cache.pop(fromfh.encode())
            self._neg_cache.pop((fromfh.encode(), fromname))

    async def link(self, filepath: str, todir: str, name: str) -> None:
        """Create a hard link."""
        fh = await self._resolve(filepath)
        tofh = await self._resolve(todir)
        reply = await self._nfs("link", {"fh": fh.encode(),
                                         "tofh": tofh.encode(),
                                         "name": name})
        # the file's nlink/ctime and the directory's contents both changed;
        # without this, getattr serves a stale nlink until the TTL lapses
        self._invalidate(fh)
        self._invalidate(tofh)
        # cache the entry as the server recorded it: its real type and the
        # version-unqualified handle (keeping `home` — stripping it would
        # make a foreign entry dispatch locally and mis-resolve)
        bare = FileHandle(sid=fh.sid, home=fh.home).encode()
        self._feed_dir_cache(
            tofh, name, {"name": name, "type": reply["entry_type"], "fh": bare},
            reply["dir_version"])

    async def readdir(self, path_or_fh: str | FileHandle) -> list[dict]:
        """List a directory, served from the agent's readdir cache.

        While the TTL is fresh the cached listing answers locally; once it
        lapses the listing is *revalidated by version pair* instead of
        refetched — the server answers "unchanged" with no entry bytes
        when the directory is still at the cached version.  The cache is
        kept coherent with this agent's own creates/removes/renames by the
        dirop versions riding their replies (:meth:`_feed_dir_cache`).
        """
        fh = await self._resolve(path_or_fh)
        key = fh.encode()
        cached = self._dir_cache.fresh(key)
        if cached is not None:
            self.metrics.incr("agent.dir_cache_hits")
            return [dict(e) for e in cached[0]]
        cached = self._dir_cache.peek(key)       # lapsed, if anything
        args: dict[str, Any] = {"fh": key}
        if cached and cached[2] is not None:
            args["verify"] = list(cached[2])
        reply = await self._nfs("readdir", args,
                                to=self._shortcut_target(fh))
        self._learn_placement(fh, reply)
        version = tuple(reply["version"]) if reply.get("version") else None
        if reply.get("unchanged") and cached:
            self.metrics.incr("agent.dir_cache_revalidations")
            entries = cached[0]
        else:
            entries = reply["entries"]
        self._dir_cache.put(key, entries, version)
        return [dict(e) for e in entries]

    # ------------------------------------------------------------------ #
    # Deceit special commands
    # ------------------------------------------------------------------ #

    async def set_params(self, path_or_fh: str | FileHandle, **changes) -> dict:
        """Tune the file's semantic parameters (§4)."""
        fh = await self._resolve(path_or_fh)
        reply = await self._nfs("setparam", {"fh": fh.encode(),
                                             "changes": changes})
        # cached attrs may now lie about the file's shape (a stripe_size
        # change restripes it in place; the striping hint rides attrs)
        self._invalidate(fh)
        return reply["params"]

    async def list_versions(self, path_or_fh: str | FileHandle) -> dict[int, tuple]:
        """All live versions of a file (``foo;3`` names, §3.5)."""
        fh = await self._resolve(path_or_fh)
        reply = await self._nfs("list_versions", {"fh": fh.encode()})
        return {int(m): tuple(v) for m, v in reply["versions"].items()}

    async def locate(self, path_or_fh: str | FileHandle) -> dict:
        """Replica and token locations."""
        fh = await self._resolve(path_or_fh)
        return (await self._nfs("locate", {"fh": fh.encode()}))["located"]

    async def create_replica(self, path_or_fh: str | FileHandle,
                             server: str) -> bool:
        """Explicitly place a replica (generation method 3)."""
        fh = await self._resolve(path_or_fh)
        reply = await self._nfs("create_replica", {"fh": fh.encode(),
                                                   "server": server})
        return reply["created"]

    async def delete_replica(self, path_or_fh: str | FileHandle,
                             server: str) -> bool:
        """Explicitly remove a replica."""
        fh = await self._resolve(path_or_fh)
        reply = await self._nfs("delete_replica", {"fh": fh.encode(),
                                                   "server": server})
        return reply["deleted"]

    async def conflicts(self) -> list[dict]:
        """The well-known conflict log (§3.6)."""
        return (await self._nfs("conflicts", {}))["conflicts"]

    async def reconcile(self, path_or_fh: str | FileHandle, keep: int) -> list[int]:
        """Resolve divergent versions by keeping one major."""
        fh = await self._resolve(path_or_fh)
        return (await self._nfs("reconcile", {"fh": fh.encode(),
                                              "keep": keep}))["dropped"]
