"""Directory entry tables and commuting directory operations (§5.1, §5.2).

A directory segment's data is a JSON document::

    {"entries": {name: {"h": segment-handle, "t": file-type}}, "sealed": bool}

The paper (§5.1) mutates it with a whole-table optimistic
transaction (read the table, rewrite it, version-guard the write) — which
makes *every* pair of concurrent mutations of one directory conflict, even
when they touch different names.  A **dirop** is the commuting alternative:
a single-name mutation shipped inside the update itself and applied to the
entry table *at update-application time* on every replica, so two creates
of different names in the same directory are just two single-round updates.

Each dirop is a plain dict (it rides :class:`~repro.core.segment.WriteOp`
payloads):

- ``{"action": "add", "name", "entry"}`` — insert a new entry; fails when
  the name exists or the directory is sealed.
- ``{"action": "remove", "name", "expect": handle}`` — delete an entry;
  fails when the name is absent or (``expect`` given) no longer maps to the
  expected handle — the guard that closes remove/rename TOCTOU races.
- ``{"action": "replace", "name", "entry", "expect": handle-or-None}`` —
  install an entry over whatever is there, guarded: ``expect=None`` means
  "must be absent", a handle means "must currently map to this handle".
  Rename-over-a-file uses this so the overwritten target is *known*.
- ``{"action": "seal"}`` — mark an **empty** directory as being removed:
  every later add/replace fails with ``sealed``.  rmdir seals the victim
  before unlinking it from the parent, closing the emptiness-check race.
- ``{"action": "unseal"}`` — roll a seal back (rmdir retreating after a
  parent-table conflict).

Preconditions are evaluated twice, for different purposes:

- **authoritatively** at the write-token holder (under the per-segment
  update lock, against the holder's settled replica) before the update is
  broadcast — a violation raises :class:`~repro.errors.DirOpConflict` to
  the caller and consumes no version bump;
- **deterministically** inside :func:`apply_dirops` at every replica —
  since members apply the same causal update stream to the same state, the
  outcome is identical everywhere; a violated precondition (impossible
  unless state diverged) degrades to a skip, never to table corruption.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import DirOpConflict

Entry = dict[str, str]
EntryTable = dict[str, Entry]


def encode_dir(entries: EntryTable, sealed: bool = False) -> bytes:
    """Serialize a directory entry table into segment data."""
    doc: dict[str, Any] = {"entries": entries}
    if sealed:
        doc["sealed"] = True
    return json.dumps(doc, sort_keys=True).encode()


def decode_dir(data: bytes) -> EntryTable:
    """Entry table of a directory segment (empty data = empty directory)."""
    if not data:
        return {}
    return json.loads(data.decode())["entries"]


def decode_dir_state(data: bytes) -> tuple[EntryTable, bool]:
    """Entry table plus the ``sealed`` marker."""
    if not data:
        return {}, False
    doc = json.loads(data.decode())
    return doc["entries"], bool(doc.get("sealed"))


def check_dirop(entries: EntryTable, sealed: bool, dop: dict) -> None:
    """Raise :class:`DirOpConflict` when ``dop``'s precondition fails."""
    action = dop["action"]
    if action == "seal":
        if sealed:
            raise DirOpConflict("sealed", "<dir>", "already being removed")
        if entries:
            raise DirOpConflict("notempty", "<dir>",
                                f"{len(entries)} entries present")
        return
    if action == "unseal":
        return
    name = dop["name"]
    current = entries.get(name)
    if action == "add":
        if sealed:
            raise DirOpConflict("sealed", name, "directory is being removed")
        if current is not None:
            raise DirOpConflict("exists", name, f"maps to {current['h']}")
        return
    if action == "remove":
        if current is None:
            raise DirOpConflict("absent", name)
        if "expect" in dop and current["h"] != dop["expect"]:
            raise DirOpConflict(
                "changed", name,
                f"expected {dop['expect']}, found {current['h']}")
        return
    if action == "replace":
        if sealed:
            raise DirOpConflict("sealed", name, "directory is being removed")
        if "expect" in dop:
            expect = dop["expect"]
            if expect is None and current is not None:
                raise DirOpConflict("changed", name,
                                    f"expected absent, found {current['h']}")
            if expect is not None and (current is None
                                       or current["h"] != expect):
                found = current["h"] if current else "absent"
                raise DirOpConflict("changed", name,
                                    f"expected {expect}, found {found}")
        return
    raise ValueError(f"unknown dirop action {action!r}")


def check_dirops(data: bytes, meta: dict[str, Any], dirops: list[dict]) -> None:
    """Authoritative precondition pass over a whole dirop list.

    ``meta`` supplies the file type: applying a dirop to a non-directory
    segment fails with reason ``notdir`` rather than a JSON decode error.
    """
    if meta.get("ftype", "dir") != "dir":
        raise DirOpConflict("notdir", "<segment>",
                            f"ftype={meta.get('ftype')!r}")
    try:
        entries, sealed = decode_dir_state(data)
    except (ValueError, KeyError) as exc:
        raise DirOpConflict("notdir", "<segment>", str(exc)) from exc
    for dop in dirops:
        check_dirop(entries, sealed, dop)
        entries, sealed = _apply_one(entries, sealed, dop)


def dirops_applied(data: bytes, meta: dict[str, Any],
                   dirops: list[dict]) -> bool:
    """Whether every dirop's **post**condition already holds.

    A forwarded dirop whose reply was lost (RPC timeout after the holder
    applied it) gets retried through the token-acquisition path; judging
    the retry by its *pre*conditions would misread the op's own effect as
    a conflict — a create would roll back a live file's segment, a remove
    would skip its link decrement.  Entry handles are globally unique, so
    "the table is already in the state these ops produce" identifies the
    replay: the write completes idempotently with no second update.
    """
    if meta.get("ftype", "dir") != "dir":
        return False
    try:
        entries, sealed = decode_dir_state(data)
    except (ValueError, KeyError):
        return False
    for dop in dirops:
        action = dop["action"]
        if action in ("add", "replace"):
            if entries.get(dop["name"]) != dop["entry"]:
                return False
        elif action == "remove":
            # only a fully absent name counts: a name re-bound to another
            # handle is ambiguous (our applied remove + a re-create, or a
            # rename-over we never beat) — judging it "applied" would let
            # a remove skip its link decrement against the wrong file, so
            # it stays a conflict and the caller re-reads and retargets
            if entries.get(dop["name"]) is not None:
                return False
        elif action == "seal":
            if not sealed:
                return False
        elif action == "unseal":
            if sealed:
                return False
    return True


def _apply_one(entries: EntryTable, sealed: bool,
               dop: dict) -> tuple[EntryTable, bool]:
    """Mutate (already-checked) — pure on the caller's copies."""
    action = dop["action"]
    if action == "seal":
        return entries, True
    if action == "unseal":
        return entries, False
    if action == "remove":
        entries.pop(dop["name"], None)
        return entries, sealed
    entries[dop["name"]] = dict(dop["entry"])   # add | replace
    return entries, sealed


def apply_dirops(data: bytes, dirops: list[dict]) -> bytes:
    """Deterministic application at update-application time (every replica).

    A precondition violation here means this member's state diverged from
    the token holder's (which already validated); the offending dirop is
    skipped so replicas never corrupt their tables — causal delivery makes
    this branch unreachable in a healthy group.
    """
    entries, sealed = decode_dir_state(data)
    for dop in dirops:
        try:
            check_dirop(entries, sealed, dop)
        except DirOpConflict:
            continue
        entries, sealed = _apply_one(entries, sealed, dop)
    return encode_dir(entries, sealed=sealed)
