"""Unit tests for the commuting directory-operation primitives
(:mod:`repro.core.dirtable`) — no cluster, pure data."""

import pytest

from repro.core.dirtable import (
    apply_dirops,
    check_dirops,
    decode_dir,
    decode_dir_state,
    encode_dir,
)
from repro.core.segment import WriteOp
from repro.errors import DirOpConflict

DIR_META = {"ftype": "dir", "length": 0}


def entry(h, t="reg"):
    return {"h": h, "t": t}


def test_encode_decode_roundtrip_and_seal_marker():
    table = {"a": entry("s0.1"), "b": entry("s0.2", "dir")}
    assert decode_dir(encode_dir(table)) == table
    entries, sealed = decode_dir_state(encode_dir(table, sealed=True))
    assert entries == table and sealed
    assert decode_dir_state(b"") == ({}, False)


def test_add_requires_absence():
    data = encode_dir({"a": entry("s0.1")})
    add_b = [{"action": "add", "name": "b", "entry": entry("s0.2")}]
    check_dirops(data, DIR_META, add_b)     # does not raise
    with pytest.raises(DirOpConflict) as excinfo:
        check_dirops(data, DIR_META,
                     [{"action": "add", "name": "a", "entry": entry("s0.9")}])
    assert excinfo.value.reason == "exists"
    assert decode_dir(apply_dirops(data, add_b)) == {
        "a": entry("s0.1"), "b": entry("s0.2")}


def test_remove_guards_on_expected_handle():
    data = encode_dir({"a": entry("s0.1")})
    with pytest.raises(DirOpConflict) as excinfo:
        check_dirops(data, DIR_META,
                     [{"action": "remove", "name": "a", "expect": "s0.9"}])
    assert excinfo.value.reason == "changed"
    with pytest.raises(DirOpConflict) as excinfo:
        check_dirops(data, DIR_META, [{"action": "remove", "name": "zz"}])
    assert excinfo.value.reason == "absent"
    gone = apply_dirops(data, [{"action": "remove", "name": "a",
                                "expect": "s0.1"}])
    assert decode_dir(gone) == {}


def test_replace_expect_semantics():
    data = encode_dir({"a": entry("s0.1")})
    # expect=None: must be absent
    with pytest.raises(DirOpConflict):
        check_dirops(data, DIR_META,
                     [{"action": "replace", "name": "a",
                       "entry": entry("s0.2"), "expect": None}])
    # expect=<handle>: must currently map to it
    check_dirops(data, DIR_META,
                 [{"action": "replace", "name": "a",
                   "entry": entry("s0.2"), "expect": "s0.1"}])
    with pytest.raises(DirOpConflict):
        check_dirops(data, DIR_META,
                     [{"action": "replace", "name": "a",
                       "entry": entry("s0.2"), "expect": "s0.7"}])


def test_seal_requires_empty_and_blocks_mutations():
    empty = encode_dir({})
    with pytest.raises(DirOpConflict) as excinfo:
        check_dirops(encode_dir({"a": entry("s0.1")}), DIR_META,
                     [{"action": "seal"}])
    assert excinfo.value.reason == "notempty"
    sealed = apply_dirops(empty, [{"action": "seal"}])
    with pytest.raises(DirOpConflict) as excinfo:
        check_dirops(sealed, DIR_META,
                     [{"action": "add", "name": "x", "entry": entry("s0.5")}])
    assert excinfo.value.reason == "sealed"
    with pytest.raises(DirOpConflict) as excinfo:
        check_dirops(sealed, DIR_META, [{"action": "seal"}])
    assert excinfo.value.reason == "sealed"
    unsealed = apply_dirops(sealed, [{"action": "unseal"}])
    check_dirops(unsealed, DIR_META,
                 [{"action": "add", "name": "x", "entry": entry("s0.5")}])


def test_check_rejects_non_directories():
    with pytest.raises(DirOpConflict) as excinfo:
        check_dirops(b"not json", {"ftype": "reg"},
                     [{"action": "add", "name": "x", "entry": entry("s0.5")}])
    assert excinfo.value.reason == "notdir"


def test_sequence_checked_against_intermediate_state():
    data = encode_dir({})
    ops = [{"action": "add", "name": "x", "entry": entry("s0.5")},
           {"action": "add", "name": "x", "entry": entry("s0.6")}]
    with pytest.raises(DirOpConflict) as excinfo:
        check_dirops(data, DIR_META, ops)
    assert excinfo.value.reason == "exists"


def test_apply_skips_violations_instead_of_corrupting():
    data = encode_dir({"a": entry("s0.1")})
    out = apply_dirops(data, [
        {"action": "add", "name": "a", "entry": entry("s0.9")},   # skipped
        {"action": "add", "name": "b", "entry": entry("s0.2")},
    ])
    assert decode_dir(out) == {"a": entry("s0.1"), "b": entry("s0.2")}


def test_diropconflict_message_roundtrip():
    """str(exc) is the wire format for forwarded conflicts; every reason
    must survive the trip, and junk degrades to the safe 'changed'."""
    for reason in sorted(DirOpConflict.REASONS):
        exc = DirOpConflict(reason, "some name", "detail here")
        assert DirOpConflict.from_message(str(exc)).reason == reason
    assert DirOpConflict.from_message("something else").reason == "changed"


def test_writeop_dirop_roundtrip_and_apply():
    dirops = [{"action": "add", "name": "f", "entry": entry("s1.4")}]
    op = WriteOp(kind="dirop", dirops=dirops, meta={"mtime": 7.0})
    clone = WriteOp.from_dict(op.to_dict())
    assert clone.dirops == dirops
    data, meta = clone.apply(encode_dir({}), dict(DIR_META))
    assert decode_dir(data) == {"f": entry("s1.4")}
    assert meta["mtime"] == 7.0
    assert meta["length"] == len(data)      # derived at application
