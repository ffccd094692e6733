"""Baseline NFS client with a per-client mount table (Figure 1).

The name space is assembled *at the client* by linking server directory
trees under mount points.  There is no failover: a handle names one
server's inode, so when that server is down the subtree is simply gone —
"standard NFS client software does not provide this capability" (§2.1).
"""

from __future__ import annotations

from typing import Any

from repro.errors import NfsError, NfsStat
from repro.net import Network, Node
from repro.nfs.attrs import FileAttrs
from repro.nfs.names import split_path

RPC_TIMEOUT_MS = 600.0


class BaselineClient(Node):
    """A client machine with a static mount table.

    ``mounts`` maps absolute path prefixes to server addresses; the longest
    matching prefix wins, mirroring how `/usr` and `/usr/local` can live on
    different NFS servers.
    """

    def __init__(self, network: Network, addr: str, mounts: dict[str, str]):
        super().__init__(network, addr)
        if "/" not in mounts:
            raise ValueError("mount table must cover '/'")
        self.mounts = dict(mounts)
        self.metrics = network.metrics
        self._roots: dict[str, str] = {}  # server -> root fh

    def _server_for(self, path: str) -> tuple[str, str]:
        """(server, path-remainder-under-its-export) for an absolute path."""
        best = "/"
        for prefix in self.mounts:
            if path == prefix or path.startswith(prefix.rstrip("/") + "/"):
                if len(prefix) > len(best):
                    best = prefix
        server = self.mounts[best]
        remainder = path[len(best):] if best != "/" else path
        return server, remainder

    async def _root_of(self, server: str) -> str:
        if server not in self._roots:
            reply = await self.call(server, "nfs_root",
                                    timeout=RPC_TIMEOUT_MS, tag="mount")
            if reply["status"] != 0:
                raise NfsError(reply["status"], reply.get("error", ""))
            self._roots[server] = reply["fh"]
        return self._roots[server]

    async def _nfs(self, server: str, op: str, args: dict[str, Any],
                   size_bytes: int = 256) -> dict:
        from repro.errors import RpcTimeout, Unreachable
        try:
            reply = await self.call(server, "nfs", op=op, args=args,
                                    timeout=RPC_TIMEOUT_MS,
                                    size_bytes=size_bytes, tag=f"nfs.{op}")
        except (RpcTimeout, Unreachable) as exc:
            # A plain NFS client just hangs/errors: the handle names a dead
            # server and there is nowhere else to go (§2.1).
            raise NfsError(NfsStat.ERR_IO, f"server {server} unreachable") from exc
        if reply["status"] != 0:
            raise NfsError(reply["status"], reply.get("error", ""))
        return reply

    async def _walk(self, path: str) -> tuple[str, str]:
        """Resolve an absolute path to (server, fh)."""
        server, remainder = self._server_for(path)
        fh = await self._root_of(server)
        for part in split_path(remainder):
            reply = await self._nfs(server, "lookup", {"fh": fh, "name": part})
            fh = reply["fh"]
        return server, fh

    # ------------------------------------------------------------------ #
    # user-facing operations (same surface as the Deceit agent)
    # ------------------------------------------------------------------ #

    async def getattr(self, path: str) -> FileAttrs:
        """Attributes by path."""
        server, fh = await self._walk(path)
        reply = await self._nfs(server, "getattr", {"fh": fh})
        return FileAttrs.from_wire(reply["attrs"])

    async def read_file(self, path: str) -> bytes:
        """Whole-file read."""
        server, fh = await self._walk(path)
        return (await self._nfs(server, "read", {"fh": fh}))["data"]

    async def write_file(self, path: str, data: bytes) -> FileAttrs:
        """Whole-file write."""
        server, fh = await self._walk(path)
        await self._nfs(server, "setattr", {"fh": fh, "sattr": {"size": 0}})
        reply = await self._nfs(server, "write",
                                {"fh": fh, "offset": 0, "data": data},
                                size_bytes=max(256, len(data)))
        return FileAttrs.from_wire(reply["attrs"])

    async def create(self, dirpath: str, name: str) -> str:
        """Create a file; returns its (server-bound) handle."""
        server, fh = await self._walk(dirpath)
        reply = await self._nfs(server, "create",
                                {"fh": fh, "name": name, "sattr": {}})
        return reply["fh"]

    async def mkdir(self, dirpath: str, name: str) -> str:
        """Create a directory."""
        server, fh = await self._walk(dirpath)
        return (await self._nfs(server, "mkdir",
                                {"fh": fh, "name": name}))["fh"]

    async def remove(self, dirpath: str, name: str) -> None:
        """Unlink a file."""
        server, fh = await self._walk(dirpath)
        await self._nfs(server, "remove", {"fh": fh, "name": name})

    async def readdir(self, path: str) -> list[dict]:
        """List a directory.

        Note: entries under a *different* mount point are not visible here —
        each server only knows its own subtree (Figure 1's dashed line).
        """
        server, fh = await self._walk(path)
        return (await self._nfs(server, "readdir", {"fh": fh}))["entries"]
