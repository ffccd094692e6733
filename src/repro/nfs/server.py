"""DeceitServer: the per-machine facade (Figure 6's full stack).

One instance per server machine, wiring together the ISIS process, the
simulated disk, the segment server, and the NFS envelope, and exposing:

- the **NFS entry point** (``nfs`` RPC): clients send NFS-vocabulary calls
  to *any* server; the segment layer forwards internally when the data
  lives elsewhere — "all servers provide an identical file service to
  clients" (§2.1);
- the **mount entry point** (``nfs_root``);
- the **special commands** (``deceit_cmd``): set file parameters, list
  versions, locate replicas, explicit replica placement, conflict listing,
  version reconciliation (§2.1);
- **cross-cell proxying**: operations on foreign handles are relayed to
  the handle's home machine, the local cell acting as a client to the
  remote one (§2.2).
"""

from __future__ import annotations

from typing import Any

from repro.core import SegmentServer
from repro.core.dirtable import encode_dir
from repro.core.params import FileParams
from repro.core.striping import file_length
from repro.errors import NfsError, NfsStat, NoSuchSegment, SegmentError
from repro.isis import IsisProcess
from repro.metrics import Metrics
from repro.net import Network
from repro.nfs.attrs import FileAttrs, FileType
from repro.nfs.envelope import GLOBAL_ROOT_SID, Envelope
from repro.nfs.fhandle import FileHandle
from repro.storage import Disk, KvStore, StorageBackend

NFS_PROXY_TIMEOUT_MS = 2000.0

#: Ops the admission gate charges a token for: the ones that enter the
#: segment pipeline (disk, replication, version machinery).  Namespace
#: reads answered from memory (lookup/getattr/readdir/statfs/readlink)
#: ride free — a user-level operation fans out into several of those
#: around exactly one data op, so one token ≈ one user operation, and a
#: BUSY mid-fan-out never strands tokens already spent on the prefix.
GATED_NFS_OPS = frozenset({
    "read", "write", "create", "mkdir", "symlink", "remove", "rmdir",
    "rename", "link", "setattr",
})


def error_reply(exc: NfsError | SegmentError) -> dict:
    """The one place an error becomes an NFS status.

    An :class:`NfsError` keeps its status; a segment that no longer exists
    makes the handle stale (§2.1: usable "as long as a replica of the file
    exists"); any other segment failure is an I/O error.  A status, not an
    escaped RPC error, so the agent does not fail over to servers that
    would only say the same.
    """
    if isinstance(exc, NfsError):
        status = exc.status
    elif isinstance(exc, NoSuchSegment):
        status = NfsStat.ERR_STALE
    else:
        status = NfsStat.ERR_IO
    return {"status": status, "error": str(exc)}


class DeceitServer:
    """A complete Deceit server machine."""

    def __init__(self, network: Network, addr: str, cell_peers: list[str],
                 rank: int, metrics: Metrics | None = None,
                 fd_timeout_ms: float = 200.0,
                 fd_interval_ms: float = 50.0,
                 merge_audit_interval_ms: float | None = None,
                 backend: StorageBackend | None = None):
        self.addr = addr
        self.proc = IsisProcess(network, addr, cell_peers=cell_peers,
                                fd_interval_ms=fd_interval_ms,
                                fd_timeout_ms=fd_timeout_ms)
        self.kernel = self.proc.kernel
        self.metrics = metrics or network.metrics
        self.disk = Disk(self.kernel, name=f"{addr}.disk",
                         metrics=self.metrics, backend=backend)
        self.env_kv = KvStore(self.disk, "env")
        self.segments = SegmentServer(
            self.proc, self.disk, rank, metrics=self.metrics,
            merge_audit_interval_ms=merge_audit_interval_ms)
        self.envelope = Envelope(self.segments)
        #: admission gate (repro.obs.admission); None = every request is
        #: admitted and the envelope pays one `is None` test
        self.admission = None
        self.proc.register_handler("nfs", self._h_nfs)
        self.proc.register_handler("nfs_root", self._h_root)
        self.proc.register_handler("deceit_cmd", self._h_cmd)
        self.proc.register_handler("health", self._h_health)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Begin failure detection and join the conflict group."""
        self.proc.start()
        self.proc.spawn(self.segments.join_conflict_group(),
                        name=f"{self.addr}:conflicts")
        self.segments.start_merge_audit()

    def crash(self) -> None:
        """Fail-stop the whole machine."""
        self.segments.crash()

    def recover(self):
        """Restart; returns the task running the recovery protocol (§3.6)."""
        return self.segments.restart()

    def cold_start(self) -> int:
        """Rebuild everything from disk with no live peer (total failure).

        The disk already replayed its backend when this server was
        constructed; this resurrects every segment from the durable
        records and restores the cell root handle so the server can
        answer ``nfs_root`` immediately.  Returns the number of segments
        resurrected.
        """
        resurrected = self.segments.cold_start()
        root_sid = self.env_kv.get_now("root_sid")
        if root_sid is not None:
            self.envelope.set_root(FileHandle(sid=root_sid))
        return resurrected

    async def bootstrap_namespace(self) -> FileHandle:
        """Create the cell's root directory tree (run once per cell).

        Builds ``/`` and ``/priv`` with a ``global`` entry pointing at the
        reserved global-root handle (§2.2).  The root is replicated on up
        to three servers — the paper flags the root as the hottest file
        (§7), so it gets a higher replica level out of the box.
        """
        root_params = FileParams(
            min_replicas=min(3, len(self.proc.cell_peers) + 1)
        )
        now = self.kernel.now
        attrs = FileAttrs(ftype=FileType.DIRECTORY, mode=0o755,
                          atime=now, mtime=now, ctime=now)
        data = encode_dir({})
        meta = attrs.to_meta()
        meta["length"] = len(data)
        meta["uplinks"] = []
        sid = await self.segments.create(params=root_params, data=data, meta=meta)
        root = FileHandle(sid=sid)
        self.set_root(root)
        priv, _attrs, _dirv = await self.envelope.mkdir(root, "priv")
        await self._add_global_entry(priv)
        return root

    async def _add_global_entry(self, priv: FileHandle) -> None:
        await self.envelope._dir_write(priv, [
            {"action": "add", "name": "global",
             "entry": {"h": GLOBAL_ROOT_SID, "t": "dir"}}])

    def set_root(self, fh: FileHandle) -> None:
        """Install the (already bootstrapped) cell root on this server.

        The root sid is written to the ``env`` namespace durably (riding
        the next group commit) so a cold restart can answer ``nfs_root``
        from disk alone.
        """
        self.envelope.set_root(fh)
        self.env_kv.put("root_sid", fh.sid, sync=True)

    # ------------------------------------------------------------------ #
    # RPC entry points
    # ------------------------------------------------------------------ #

    async def _h_root(self, src: str) -> dict:
        if self.envelope.root_fh is None:
            return {"status": NfsStat.ERR_IO, "error": "cell not bootstrapped"}
        return {"status": 0, "fh": self.envelope.root_fh.encode()}

    def set_admission(self, gate) -> None:
        """Install (or remove, with ``None``) an admission gate on the
        NFS entry point (wired by ``build_cluster(admission=...)``)."""
        self.admission = gate

    async def _h_health(self, src: str) -> dict:
        """The operator health scrape (see :mod:`repro.obs.health`)."""
        from repro.obs.health import server_health
        self.metrics.incr("nfs.health_scrapes")
        return server_health(self)

    async def _h_nfs(self, src: str, op: str, args: dict[str, Any]) -> dict:
        """The NFS protocol entry point; one handler, op-dispatched."""
        self.metrics.incr("nfs.requests")
        gate = self.admission
        if gate is not None and op in GATED_NFS_OPS and not gate.try_admit():
            # answered *before* any pipeline work: overload costs the
            # cell one envelope round, not a queue slot
            self.metrics.incr("nfs.busy_rejected")
            return {"status": NfsStat.ERR_BUSY,
                    "error": "admission control: server at capacity"}
        try:
            fh = FileHandle.decode(args["fh"]) if "fh" in args else None
            if fh is not None and fh.foreign and fh.home != self.addr:
                return await self._proxy(fh.home, op, args)
            return await self._dispatch_nfs(op, args, fh)
        except (NfsError, SegmentError) as exc:
            return error_reply(exc)

    async def _proxy(self, home: str, op: str, args: dict[str, Any]) -> dict:
        """Relay a foreign-cell call; re-stamp returned handles as foreign.

        "The Cornell cell acts as a client to the MIT cell.  Mount and
        access restrictions are applied as with any client." (§2.2)

        *Every* handle in the reply is re-stamped — the top-level ``fh``
        and each ``entries[*].fh`` of a readdir listing.  Entry handles
        used to pass through still local to the remote cell, so listing a
        foreign directory returned handles that mis-resolved (or resolved
        to the wrong segment) in the client's own cell.
        """
        self.metrics.incr("nfs.proxied")
        reply = await self.proc.call(home, "nfs", op=op, args=args,
                                     timeout=NFS_PROXY_TIMEOUT_MS, tag="nfs_proxy")
        if reply.get("status") == 0:
            if "fh" in reply:
                reply["fh"] = self._restamp(reply["fh"], home)
            for entry in reply.get("entries", []):
                if "fh" in entry:
                    entry["fh"] = self._restamp(entry["fh"], home)
            if "fh" in reply.get("moved_entry", {}):
                reply["moved_entry"]["fh"] = self._restamp(
                    reply["moved_entry"]["fh"], home)
        return reply

    @staticmethod
    def _restamp(raw_fh: str, home: str) -> str:
        fh = FileHandle.decode(raw_fh)
        return FileHandle(fh.sid, fh.version, home).encode()

    async def _dispatch_nfs(self, op: str, args: dict[str, Any],
                            fh: FileHandle | None) -> dict:
        env = self.envelope
        if op == "getattr":
            attrs, result = await env.getattr(fh)
            hint = result.placement.hint(result.served_by) if result else {}
            return {"status": 0, "attrs": attrs.to_wire(), **hint}
        if op == "setattr":
            return {"status": 0,
                    "attrs": (await env.setattr(fh, args["sattr"])).to_wire()}
        if op == "lookup":
            if fh is not None and fh.sid == GLOBAL_ROOT_SID:
                return await self._lookup_global(args["name"])
            out_fh, attrs, result, dir_result = await env.lookup(
                fh, args["name"])
            hint = result.placement.hint(result.served_by) if result else {}
            return {"status": 0, "fh": out_fh.encode(),
                    "attrs": attrs.to_wire(), **hint,
                    **dir_result.placement.hint(dir_result.served_by,
                                                "dir_placement")}
        if op == "read":
            result = await env.read(fh, args.get("offset", 0),
                                    args.get("count"),
                                    verify=args.get("verify"))
            if result is None:
                # version-exact cache validation: the client's copy is
                # current — no data bytes, no disk read, no forwarding
                self.metrics.incr("nfs.reads_unchanged")
                return {"status": 0, "unchanged": True,
                        "version": list(args["verify"])}
            return {"status": 0, "data": result.data,
                    "version": [result.major, result.version.sub],
                    # current file length: lets a fan-out client know when
                    # its range reads already cover the file (no wasted
                    # chase past an exactly-stripe-aligned EOF)
                    "size": file_length(result.meta),
                    **result.placement.hint(result.served_by)}
        if op == "write":
            attrs, version = await env.write(
                fh, args.get("offset", 0), args.get("data", b""),
                truncate=args.get("truncate", False))
            return {"status": 0, "attrs": attrs.to_wire(),
                    "version": list(version)}
        if op in ("create", "mkdir", "symlink"):
            out_fh, attrs, dirv = await getattr(env, op)(
                fh, args["name"],
                args["target"] if op == "symlink" else args.get("sattr"))
            return self._with_dir_version(
                {"status": 0, "fh": out_fh.encode(),
                 "attrs": attrs.to_wire()}, dirv)
        if op == "readlink":
            return {"status": 0, "target": await env.readlink(fh)}
        if op in ("remove", "rmdir"):
            dirv = await getattr(env, op)(fh, args["name"])
            return self._with_dir_version({"status": 0}, dirv)
        if op == "rename":
            from_v, to_v, moved = await env.rename(
                fh, args["fromname"],
                FileHandle.decode(args["tofh"]), args["toname"])
            reply = {"status": 0}
            if from_v is not None or to_v is not None:
                reply["dir_versions"] = {
                    "from": list(from_v) if from_v else None,
                    "to": list(to_v) if to_v else None}
            # the entry actually installed at toname — what agents feed
            # their readdir caches with (never their own possibly stale
            # listings)
            reply["moved_entry"] = {
                "type": moved["t"],
                "fh": FileHandle(sid=moved["h"]).encode()}
            return reply
        if op == "link":
            dirv, entry_type = await env.link(
                fh, FileHandle.decode(args["tofh"]), args["name"])
            return self._with_dir_version(
                {"status": 0, "entry_type": entry_type}, dirv)
        if op == "readdir":
            out = await env.readdir(fh, verify=args.get("verify"))
            if out is None:
                # version-exact listing validation: the client's cached
                # listing is current — no entry bytes move
                self.metrics.incr("nfs.readdirs_unchanged")
                return {"status": 0, "unchanged": True,
                        "version": list(args["verify"])}
            entries, version, result = out
            return {"status": 0, "entries": entries,
                    "version": list(version),
                    **result.placement.hint(result.served_by)}
        if op == "statfs":
            return {"status": 0, "statfs": await env.statfs(fh)}
        raise NfsError(NfsStat.ERR_IO, f"unknown NFS op {op!r}")

    @staticmethod
    def _with_dir_version(reply: dict, dirv) -> dict:
        """Piggyback the mutated directory's post-op version pair on a
        namespace-mutation reply (feeds the agents' readdir caches)."""
        if dirv is not None:
            reply["dir_version"] = list(dirv)
        return reply

    async def _lookup_global(self, name: str) -> dict:
        """Resolve a machine name under the global root (§2.2)."""
        self.metrics.incr("nfs.global_lookups")
        try:
            reply = await self.proc.call(name, "nfs_root",
                                         timeout=NFS_PROXY_TIMEOUT_MS,
                                         tag="global_root")
        except Exception as exc:
            raise NfsError(NfsStat.ERR_NOENT,
                           f"no Deceit server at {name!r}: {exc}") from exc
        if reply.get("status") != 0:
            raise NfsError(NfsStat.ERR_NOENT, f"{name}: {reply.get('error')}")
        remote_root = FileHandle.decode(reply["fh"])
        foreign = FileHandle(remote_root.sid, None, name)
        attrs = FileAttrs(ftype=FileType.DIRECTORY, mode=0o755)
        return {"status": 0, "fh": foreign.encode(), "attrs": attrs.to_wire()}

    # ------------------------------------------------------------------ #
    # special commands (§2.1)
    # ------------------------------------------------------------------ #

    async def _h_cmd(self, src: str, cmd: str, args: dict[str, Any]) -> dict:
        self.metrics.incr("nfs.special_cmds")
        try:
            return await self._dispatch_cmd(cmd, args)
        except (NfsError, SegmentError) as exc:
            return error_reply(exc)
        except Exception as exc:
            return {"status": NfsStat.ERR_IO, "error": f"{type(exc).__name__}: {exc}"}

    async def _dispatch_cmd(self, cmd: str, args: dict[str, Any]) -> dict:
        seg = self.segments
        fh = FileHandle.decode(args["fh"]) if "fh" in args else None
        if cmd == "setparam":
            changes = args["changes"]
            params = await seg.setparam(fh.sid, **changes)
            if "stripe_size" in changes:
                # reshape to match, like a raised replica level triggers
                # replica generation — atomic for concurrent readers
                await self.envelope.striper.restripe(fh)
            return {"status": 0, "params": params.to_dict()}
        if cmd == "getparam":
            result = await seg.stat(fh.sid, version=fh.version)
            return {"status": 0, "params": result.params.to_dict()}
        if cmd == "list_versions":
            versions = await seg.list_versions(fh.sid)
            return {"status": 0,
                    "versions": {str(m): v.to_tuple() for m, v in versions.items()}}
        if cmd == "get_version":
            version = await seg.get_version(fh.sid, version=fh.version)
            return {"status": 0, "version": version.to_tuple()}
        if cmd == "locate":
            located = await seg.locate_replicas(fh.sid, version=fh.version)
            located = dict(located)
            located["version"] = located["version"].to_tuple()
            return {"status": 0, "located": located}
        if cmd == "create_replica":
            ok = await seg.create_replica(fh.sid, args["server"],
                                          major=fh.version)
            return {"status": 0, "created": ok}
        if cmd == "delete_replica":
            ok = await seg.delete_replica(fh.sid, args["server"],
                                          major=fh.version)
            return {"status": 0, "deleted": ok}
        if cmd == "conflicts":
            records = seg.conflicts.records(args.get("sid"))
            return {"status": 0, "conflicts": [r.to_dict() for r in records]}
        if cmd == "reconcile":
            dropped = await seg.reconcile_versions(fh.sid, keep=args["keep"])
            return {"status": 0, "dropped": dropped}
        raise NfsError(NfsStat.ERR_IO, f"unknown special command {cmd!r}")
