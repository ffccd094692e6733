"""Single-machine NFS server: static file↔server binding, no replication."""

from __future__ import annotations

import itertools
from typing import Any

from repro.errors import NfsError, NfsStat
from repro.net import Network, Node
from repro.nfs.attrs import FileAttrs, FileType, sattr_to_meta
from repro.storage import Disk, KvStore


class _Inode:
    """One file/directory/symlink on a baseline server."""

    __slots__ = ("ino", "ftype", "data", "meta", "entries")

    def __init__(self, ino: int, ftype: FileType, meta: dict[str, Any]):
        self.ino = ino
        self.ftype = ftype
        self.data = b""
        self.meta = meta
        self.entries: dict[str, int] = {}  # directories: name -> ino

    def attrs(self) -> FileAttrs:
        return FileAttrs.from_meta(self.meta, len(self.data))


class BaselineNfsServer(Node):
    """A plain NFS server exporting one directory tree.

    File handles are ``"<server>:<ino>"`` — *bound to this server*: if the
    machine is down, every handle it issued is dead, which is precisely the
    contrast Figure 2 draws against Deceit's interchangeable servers.
    """

    def __init__(self, network: Network, addr: str):
        super().__init__(network, addr)
        self.disk = Disk(self.kernel, name=f"{addr}.disk",
                         metrics=network.metrics)
        self._store = KvStore(self.disk, "nfs")
        self._inodes: dict[int, _Inode] = {}
        self._ino = itertools.count(2)
        self.metrics = network.metrics
        root = _Inode(1, FileType.DIRECTORY,
                      FileAttrs(ftype=FileType.DIRECTORY, mode=0o755).to_meta())
        self._inodes[1] = root
        self.register_handler("nfs", self._h_nfs)
        self.register_handler("nfs_root", self._h_root)

    # ------------------------------------------------------------------ #
    # handle plumbing
    # ------------------------------------------------------------------ #

    def _fh(self, ino: int) -> str:
        return f"{self.addr}:{ino}"

    def _node(self, fh: str) -> _Inode:
        server, _sep, ino = fh.partition(":")
        if server != self.addr:
            raise NfsError(NfsStat.ERR_STALE, f"handle {fh} not from {self.addr}")
        node = self._inodes.get(int(ino))
        if node is None:
            raise NfsError(NfsStat.ERR_STALE, fh)
        return node

    @property
    def root_fh(self) -> str:
        """The exported root handle."""
        return self._fh(1)

    # ------------------------------------------------------------------ #
    # RPC entry points (same vocabulary as Deceit's facade)
    # ------------------------------------------------------------------ #

    async def _h_root(self, src: str, /) -> dict:
        return {"status": 0, "fh": self.root_fh}

    async def _h_nfs(self, src: str, /, op: str, args: dict[str, Any]) -> dict:
        self.metrics.incr("baseline.requests")
        try:
            return await self._dispatch(op, args)
        except NfsError as exc:
            return {"status": exc.status, "error": str(exc)}

    async def _dispatch(self, op: str, args: dict[str, Any]) -> dict:
        now = self.kernel.now
        if op == "getattr":
            node = self._node(args["fh"])
            return {"status": 0, "attrs": node.attrs().to_wire()}
        if op == "setattr":
            node = self._node(args["fh"])
            node.meta.update(sattr_to_meta(args["sattr"]))
            if "size" in args["sattr"]:
                size = int(args["sattr"]["size"])
                node.data = node.data[:size] + b"\x00" * (size - len(node.data))
            await self._persist(node)
            return {"status": 0, "attrs": node.attrs().to_wire()}
        if op == "lookup":
            node = self._node(args["fh"])
            ino = node.entries.get(args["name"])
            if ino is None:
                raise NfsError(NfsStat.ERR_NOENT, args["name"])
            child = self._inodes[ino]
            return {"status": 0, "fh": self._fh(ino),
                    "attrs": child.attrs().to_wire()}
        if op == "read":
            node = self._node(args["fh"])
            if node.ftype is FileType.DIRECTORY:
                raise NfsError(NfsStat.ERR_ISDIR, args["fh"])
            offset = args.get("offset", 0)
            count = args.get("count")
            end = len(node.data) if count is None else offset + count
            await self.disk.read(f"ino/{node.ino}")  # charge the disk read
            return {"status": 0, "data": node.data[offset:end]}
        if op == "write":
            node = self._node(args["fh"])
            offset = args.get("offset", 0)
            data = args["data"]
            if offset > len(node.data):
                node.data += b"\x00" * (offset - len(node.data))
            node.data = node.data[:offset] + data + node.data[offset + len(data):]
            node.meta["mtime"] = now
            await self._persist(node)
            return {"status": 0, "attrs": node.attrs().to_wire()}
        if op == "create":
            return await self._create(args, FileType.REGULAR)
        if op == "mkdir":
            return await self._create(args, FileType.DIRECTORY)
        if op == "symlink":
            reply = await self._create(args, FileType.SYMLINK)
            node = self._node(reply["fh"])
            node.data = args["target"].encode()
            await self._persist(node)
            return reply
        if op == "readlink":
            node = self._node(args["fh"])
            return {"status": 0, "target": node.data.decode()}
        if op == "remove":
            node = self._node(args["fh"])
            ino = node.entries.pop(args["name"], None)
            if ino is None:
                raise NfsError(NfsStat.ERR_NOENT, args["name"])
            child = self._inodes[ino]
            child.meta["nlink"] = child.meta.get("nlink", 1) - 1
            if child.meta["nlink"] <= 0:
                self._inodes.pop(ino, None)
                await self.disk.delete(f"ino/{ino}", sync=False)
            await self._persist(node)
            return {"status": 0}
        if op == "rmdir":
            node = self._node(args["fh"])
            ino = node.entries.get(args["name"])
            if ino is None:
                raise NfsError(NfsStat.ERR_NOENT, args["name"])
            child = self._inodes[ino]
            if child.entries:
                raise NfsError(NfsStat.ERR_NOTEMPTY, args["name"])
            del node.entries[args["name"]]
            self._inodes.pop(ino, None)
            await self._persist(node)
            return {"status": 0}
        if op == "readdir":
            node = self._node(args["fh"])
            return {"status": 0, "entries": [
                {"name": name, "fh": self._fh(ino),
                 "type": self._inodes[ino].ftype.value}
                for name, ino in sorted(node.entries.items())
            ]}
        if op == "link":
            node = self._node(args["fh"])
            todir = self._node(args["tofh"])
            if args["name"] in todir.entries:
                raise NfsError(NfsStat.ERR_EXIST, args["name"])
            todir.entries[args["name"]] = node.ino
            node.meta["nlink"] = node.meta.get("nlink", 1) + 1
            await self._persist(todir)
            return {"status": 0}
        if op == "rename":
            fromdir = self._node(args["fh"])
            todir = self._node(args["tofh"])
            ino = fromdir.entries.pop(args["fromname"], None)
            if ino is None:
                raise NfsError(NfsStat.ERR_NOENT, args["fromname"])
            todir.entries[args["toname"]] = ino
            await self._persist(fromdir)
            await self._persist(todir)
            return {"status": 0}
        if op == "statfs":
            return {"status": 0, "statfs": {"tsize": 8192, "bsize": 4096,
                                            "blocks": 1 << 20, "bfree": 1 << 19,
                                            "bavail": 1 << 19}}
        raise NfsError(NfsStat.ERR_IO, f"unknown op {op!r}")

    async def _create(self, args: dict[str, Any], ftype: FileType) -> dict:
        parent = self._node(args["fh"])
        name = args["name"]
        if name in parent.entries:
            raise NfsError(NfsStat.ERR_EXIST, name)
        now = self.kernel.now
        attrs = FileAttrs(ftype=ftype, atime=now, mtime=now, ctime=now,
                          mode=0o755 if ftype is FileType.DIRECTORY else 0o644)
        meta = attrs.to_meta()
        meta.update(sattr_to_meta(args.get("sattr") or {}))
        ino = next(self._ino)
        node = _Inode(ino, ftype, meta)
        self._inodes[ino] = node
        parent.entries[name] = ino
        # parent directory and new inode ride one write-behind batch
        await self._store.put_batch(
            [self._record(parent), self._record(node)], sync=False)
        return {"status": 0, "fh": self._fh(ino), "attrs": node.attrs().to_wire()}

    @staticmethod
    def _record(node: _Inode) -> tuple[str, dict]:
        return (f"ino/{node.ino}", {
            "ftype": node.ftype.value, "data": node.data,
            "meta": node.meta, "entries": node.entries,
        })

    async def _persist(self, node: _Inode) -> None:
        key, value = self._record(node)
        await self._store.put(key, value, sync=False)
