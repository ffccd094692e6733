"""File-name handling, including version-qualified names (§3.5).

"File names can be qualified with version numbers using a special syntax.
For example, major version 3 of 'foo' can be referred to as 'foo;3'.  By
using an unqualified filename, the user automatically requests the most
recent available version."  Directory entries always store the unqualified
name; the qualifier selects the version at lookup time.
"""

from __future__ import annotations

from repro.errors import NfsError, NfsStat

VERSION_SEPARATOR = ";"
MAX_NAME_LEN = 255


def split_version(name: str) -> tuple[str, int | None]:
    """Split ``"foo;3"`` into ``("foo", 3)``; plain names give ``(name, None)``.

    A trailing qualifier must be a decimal integer; anything else is taken
    as a literal file name (NFS imposes no charset restrictions beyond
    ``/`` and NUL).
    """
    if VERSION_SEPARATOR not in name:
        return name, None
    base, _sep, qualifier = name.rpartition(VERSION_SEPARATOR)
    if base and qualifier.isdigit():
        return base, int(qualifier)
    return name, None


def validate_name(name: str) -> str:
    """Reject names NFS cannot represent; returns the name unchanged."""
    if not name or name in (".", ".."):
        raise NfsError(NfsStat.ERR_NOENT, f"invalid name {name!r}")
    if "/" in name or "\x00" in name:
        raise NfsError(NfsStat.ERR_IO, f"illegal character in name {name!r}")
    if len(name) > MAX_NAME_LEN:
        raise NfsError(NfsStat.ERR_NAMETOOLONG, name[:32] + "...")
    return name


def split_path(path: str) -> list[str]:
    """Split an absolute or relative slash path into components."""
    return [part for part in path.split("/") if part and part != "."]
