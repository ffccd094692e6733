"""The placement record: one fact (replica holders, token holder, whether
the major is unstable, stripe width) in two wire shapes.

``payload_size`` charges a reply by its keys and values, so the hint an
NFS reply carries and a member's answer to a non-member must keep their
exact keys, values and key order; the literals below are those shapes.
"""

import json

from repro.core.pipeline.read_path import PlacementRecord
from repro.net.message import payload_size


def _same_wire(got: dict, want: dict) -> None:
    assert json.dumps(got) == json.dumps(want)    # keys, values and order
    assert payload_size(got) == payload_size(want)


def test_a_blob_hint_lists_the_token_holder_first():
    record = PlacementRecord(("s0", "s1", "s2"), "s1")
    _same_wire(record.hint("s2"),
               {"placement": {"holders": ["s1", "s0", "s2"],
                              "served_by": "s2"}})


def test_a_striped_file_hint_ends_with_its_stripe_width():
    record = PlacementRecord(("s0", "s3"), "s3", stripe_width=65536)
    _same_wire(record.hint("s0", "dir_placement"),
               {"dir_placement": {"holders": ["s3", "s0"], "served_by": "s0",
                                  "stripe_size": 65536}})


def test_a_token_holder_without_a_replica_is_not_listed():
    record = PlacementRecord(("s1", "s2"), "s0")
    _same_wire(record.hint("s1"),
               {"placement": {"holders": ["s1", "s2"], "served_by": "s1"}})
    # so the agent's token target is the first holder, not s0
    assert PlacementRecord.from_hint(record.hint("s2")["placement"]) == \
        PlacementRecord(("s2", "s1"), "s1")


def test_no_holder_means_no_hint():
    assert PlacementRecord().hint("s0") == {}
    assert PlacementRecord((), "s0", stripe_width=8).hint("s0") == {}


def test_a_members_answer_keeps_its_shape():
    record = PlacementRecord(("s0", "s1"), "s1", True)
    _same_wire(record.to_answer(),
               {"holders": ["s0", "s1"], "holder": "s1", "unstable": True})


def test_the_agent_routes_to_the_server_that_answered_then_sorted():
    hint = {"holders": ["s2", "s0", "s3"], "served_by": "s3",
            "stripe_size": 4096}
    record = PlacementRecord.from_hint(hint)
    assert record == PlacementRecord(("s3", "s0", "s2"), "s2",
                                     stripe_width=4096)
    assert record.route("s1") == "s3"
    assert record.route("s0") is None      # the mount server holds one
    assert PlacementRecord().route("s1") is None


def test_forgetting_a_server_keeps_the_stripe_width():
    record = PlacementRecord(("s1", "s0"), "s1", stripe_width=4096)
    assert record.without("s1") == PlacementRecord(("s0",), None,
                                                   stripe_width=4096)
    assert record.without("s0") == PlacementRecord(("s1",), "s1",
                                                   stripe_width=4096)
    emptied = record.without("s1").without("s0")
    assert (emptied.holders, emptied.token_holder, emptied.stripe_width) \
        == ((), None, 4096)
    assert emptied.route("s2") is None
