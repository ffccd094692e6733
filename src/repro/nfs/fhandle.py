"""NFS file handles.

"These file handles are guaranteed to be unique and usable as long as a
replica of the file exists" (§2.1).  Ours wrap the segment handle — which
has exactly that lifetime — plus two optional qualifiers:

- ``version``: a major version number, set when the handle came from a
  version-qualified lookup (``foo;3``); operations through such a handle
  address that specific version;
- ``home``: a contact machine in a *foreign cell* (§2.2).  Operations on a
  foreign handle are proxied to that machine, with the local cell acting as
  a client to the remote one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import NfsError, NfsStat


@dataclass(frozen=True)
class FileHandle:
    """Opaque-to-clients file identifier used in every NFS call."""

    sid: str
    version: int | None = None
    home: str | None = None

    def qualified(self, version: int) -> "FileHandle":
        """Handle addressing a specific major version of the same file."""
        return replace(self, version=version)

    def unqualified(self) -> "FileHandle":
        """Handle addressing the latest available version."""
        return replace(self, version=None)

    @property
    def foreign(self) -> bool:
        """Whether this handle points into another cell."""
        return self.home is not None

    def encode(self) -> str:
        """Wire form (NFS handles travel inside RPC payloads)."""
        version = "" if self.version is None else str(self.version)
        home = self.home or ""
        return f"{self.sid}|{version}|{home}"

    @classmethod
    def decode(cls, raw: str) -> "FileHandle":
        """Inverse of :meth:`encode`.

        A handle arrives from outside the server, so one that does not
        parse is answered as stale — it names no file — rather than
        escaping as a server fault the client would fail over on.
        """
        try:
            sid, version, home = raw.split("|")
            major = int(version) if version else None
        except ValueError as exc:
            raise NfsError(NfsStat.ERR_STALE,
                           f"malformed file handle {raw!r}") from exc
        return cls(sid=sid, version=major, home=home or None)

    def __repr__(self) -> str:
        parts = [self.sid]
        if self.version is not None:
            parts.append(f";{self.version}")
        if self.home:
            parts.append(f"@{self.home}")
        return f"fh({''.join(parts)})"
