"""Unit tests for the small leaf modules: handles, attrs, names, params,
conflicts, metrics, write ops."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FileParams, WriteOp
from repro.core.conflicts import ConflictLog, ConflictRecord
from repro.core.params import Availability
from repro.errors import NfsError
from repro.metrics import LatencyStats, Metrics
from repro.nfs.attrs import FileAttrs, FileType, sattr_to_meta
from repro.nfs.fhandle import FileHandle
from repro.nfs.names import split_path, split_version, validate_name


# ---- file handles ----------------------------------------------------- #

def test_fhandle_encode_decode_roundtrip():
    for fh in (FileHandle("s0.7"),
               FileHandle("s0.7", version=1024),
               FileHandle("s0.7", version=3, home="mit.s0")):
        assert FileHandle.decode(fh.encode()) == fh


def test_fhandle_qualify_unqualify():
    fh = FileHandle("s0.1")
    q = fh.qualified(2048)
    assert q.version == 2048 and q.sid == fh.sid
    assert q.unqualified() == fh


def test_fhandle_foreign_flag():
    assert not FileHandle("x").foreign
    assert FileHandle("x", home="mit.s0").foreign


# ---- attributes -------------------------------------------------------- #

def test_attrs_meta_roundtrip():
    attrs = FileAttrs(ftype=FileType.SYMLINK, mode=0o777, uid=3, gid=4,
                      size=12, nlink=2, mtime=9.0)
    back = FileAttrs.from_meta(attrs.to_meta(), size=12)
    assert back == attrs


def test_attrs_wire_roundtrip_includes_size():
    attrs = FileAttrs(size=777)
    assert FileAttrs.from_wire(attrs.to_wire()).size == 777


def test_sattr_rejects_unknown_fields():
    with pytest.raises(ValueError):
        sattr_to_meta({"nlink": 5})
    assert sattr_to_meta({"mode": 0o600, "size": 3}) == {"mode": 0o600}


# ---- names ------------------------------------------------------------- #

def test_split_version_basic():
    assert split_version("foo;3") == ("foo", 3)
    assert split_version("foo") == ("foo", None)
    assert split_version("foo;bar") == ("foo;bar", None)
    assert split_version(";3") == (";3", None)
    assert split_version("a;b;12") == ("a;b", 12)


def test_validate_name_rules():
    assert validate_name("ok.txt") == "ok.txt"
    for bad in ("", ".", "..", "a/b", "nul\x00"):
        with pytest.raises(NfsError):
            validate_name(bad)
    with pytest.raises(NfsError):
        validate_name("x" * 300)


def test_split_path():
    assert split_path("/a/b/c") == ["a", "b", "c"]
    assert split_path("a//b/./c/") == ["a", "b", "c"]
    assert split_path("/") == []


# ---- params ------------------------------------------------------------ #

def test_params_defaults_match_paper():
    p = FileParams()
    assert (p.min_replicas, p.write_safety) == (1, 1)
    assert p.stability_notification is True
    assert p.file_migration is False
    assert p.write_availability is Availability.MEDIUM


def test_params_validation():
    with pytest.raises(ValueError):
        FileParams(min_replicas=0)
    with pytest.raises(ValueError):
        FileParams(write_safety=-1)


def test_params_with_updates_accepts_string_availability():
    p = FileParams().with_updates(write_availability="high")
    assert p.write_availability is Availability.HIGH


def test_params_dict_roundtrip():
    p = FileParams(min_replicas=3, write_safety=0, file_migration=True,
                   write_availability=Availability.LOW)
    assert FileParams.from_dict(p.to_dict()) == p


# ---- write ops ---------------------------------------------------------- #

def test_writeop_replace_past_end_zero_fills():
    op = WriteOp(kind="replace", offset=5, data=b"AB")
    data, _meta = op.apply(b"xy", {})
    assert data == b"xy\x00\x00\x00AB"


def test_writeop_truncate_extends_with_zeros():
    op = WriteOp(kind="truncate", length=4)
    data, _m = op.apply(b"ab", {})
    assert data == b"ab\x00\x00"


def test_writeop_meta_rides_any_kind():
    op = WriteOp(kind="append", data=b"x", meta={"mtime": 5.0, "gone": None})
    data, meta = op.apply(b"", {"gone": 1, "keep": 2})
    assert data == b"x"
    assert meta == {"keep": 2, "mtime": 5.0}


def test_writeop_unknown_kind_rejected():
    with pytest.raises(ValueError):
        WriteOp(kind="explode").apply(b"", {})


def test_writeop_dict_roundtrip():
    op = WriteOp(kind="replace", offset=3, data=b"z", meta={"a": 1})
    assert WriteOp.from_dict(op.to_dict()).to_dict() == op.to_dict()


@given(st.binary(max_size=64), st.binary(max_size=16),
       st.integers(min_value=0, max_value=80))
@settings(max_examples=100, deadline=None)
def test_writeop_replace_length_invariant(base, patch, offset):
    data, _m = WriteOp(kind="replace", offset=offset, data=patch).apply(base, {})
    if not patch:
        # POSIX: a zero-length write changes nothing — in particular it
        # must not zero-extend the file out to its offset
        assert data == base
    else:
        assert len(data) == max(len(base), offset + len(patch))
        assert data[offset:offset + len(patch)] == patch


# ---- conflict log -------------------------------------------------------- #

def _record(sid="s0.1", majors=(1, 2), at=0.0):
    return ConflictRecord(sid=sid, majors=tuple(majors), logged_at=at)


def test_conflict_log_dedupes():
    log = ConflictLog()
    assert log.add(_record())
    assert not log.add(_record(at=99.0))  # same sid+majors
    assert len(log) == 1


def test_conflict_log_resolve_by_sid():
    log = ConflictLog()
    log.add(_record("a", (1, 2)))
    log.add(_record("a", (3, 4)))
    log.add(_record("b", (1, 2)))
    assert log.resolve("a") == 2
    assert [r.sid for r in log.records()] == ["b"]


def test_conflict_log_resolve_specific_majors():
    log = ConflictLog()
    log.add(_record("a", (1, 2)))
    log.add(_record("a", (3, 4)))
    assert log.resolve("a", (1, 2)) == 1
    assert len(log) == 1


def test_conflict_log_state_merge_semantics():
    log = ConflictLog()
    log.add(_record("mine", (1, 2)))
    log.load_state([_record("theirs", (5, 6)).to_dict()])
    assert {r.sid for r in log.records()} == {"mine", "theirs"}


def test_conflict_record_roundtrip():
    rec = _record("x", (9, 10), at=4.0)
    assert ConflictRecord.from_dict(rec.to_dict()) == rec


# ---- metrics -------------------------------------------------------------- #

def test_metrics_delta():
    m = Metrics()
    m.incr("a", 2)
    snap = m.snapshot()
    m.incr("a")
    m.incr("b", 3)
    assert m.delta(snap) == {"a": 1, "b": 3}


def test_latency_stats_percentiles():
    stats = LatencyStats()
    for v in range(1, 101):
        stats.record(float(v))
    assert stats.percentile(50) == 50.0
    assert stats.percentile(99) == 99.0
    assert stats.mean == pytest.approx(50.5)
    assert (stats.minimum, stats.maximum) == (1.0, 100.0)


def test_metrics_report_filters_by_prefix():
    m = Metrics()
    m.incr("net.msgs")
    m.incr("deceit.updates")
    text = m.report("net.")
    assert "net.msgs" in text and "deceit" not in text


def test_latency_stats_reservoir_caps_samples_keeps_exact_aggregates():
    stats = LatencyStats()
    n = LatencyStats.RESERVOIR_CAP * 2
    for v in range(n):
        stats.record(float(v))
    assert stats.count == n                      # exact
    assert stats.total == float(sum(range(n)))   # exact
    assert (stats.minimum, stats.maximum) == (0.0, float(n - 1))
    assert len(stats.samples) == LatencyStats.RESERVOIR_CAP  # bounded
    # the reservoir is a fair-ish sample: the median of uniform 0..n-1
    # stays near n/2 even though half the points were candidates-only
    assert 0.3 * n < stats.percentile(50) < 0.7 * n


def test_latency_stats_reservoir_is_deterministic():
    a, b = LatencyStats(), LatencyStats()
    for v in range(20_000):
        a.record(float(v % 997))
        b.record(float(v % 997))
    assert a.samples == b.samples
    assert a.percentile(50) == b.percentile(50)
    assert a.percentile(99) == b.percentile(99)


def test_latency_stats_cached_sort_invalidated_on_record():
    stats = LatencyStats()
    stats.record(10.0)
    assert stats.percentile(50) == 10.0          # sorted view now cached
    stats.record(1.0)
    stats.record(2.0)
    assert stats.percentile(0) == 1.0            # cache was invalidated
    assert stats.percentile(100) == 10.0
