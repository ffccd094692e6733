"""Unit + property tests for version pairs and history-tree comparison."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.versions import (
    HistoryIndex,
    MajorAllocator,
    Relation,
    VersionPair,
)


def test_version_pair_next_update():
    v = VersionPair(5, 2)
    assert v.next_update() == VersionPair(5, 3)


def test_same_major_comparison():
    idx = HistoryIndex()
    assert idx.compare(VersionPair(1, 2), VersionPair(1, 2)) is Relation.EQUAL
    assert idx.compare(VersionPair(1, 1), VersionPair(1, 5)) is Relation.ANCESTOR
    assert idx.compare(VersionPair(1, 5), VersionPair(1, 1)) is Relation.DESCENDANT


def test_branch_child_descends_from_parent_prefix():
    # major 2 branched from major 1 at sub 3
    idx = HistoryIndex()
    idx.record_branch(child=2, parent=1, parent_sub=3)
    # anything on major 1 up to sub 3 is an ancestor of major 2 history
    assert idx.compare(VersionPair(1, 2), VersionPair(2, 5)) is Relation.ANCESTOR
    # (2,3) has no updates of its own yet: same history as (1,3)
    assert idx.compare(VersionPair(1, 3), VersionPair(2, 3)) is Relation.EQUAL
    # updates past the branch point are incomparable with the child
    assert idx.compare(VersionPair(1, 4), VersionPair(2, 9)) is Relation.INCOMPARABLE
    # symmetric view
    assert idx.compare(VersionPair(2, 5), VersionPair(1, 2)) is Relation.DESCENDANT


def test_paper_invariant_same_major_lower_sub_is_ancestor():
    """(v1 == v1' and v2 < v2') => ancestor — stated explicitly in §3.5."""
    idx = HistoryIndex()
    assert idx.is_ancestor(VersionPair(7, 1), VersionPair(7, 2))


def test_two_branches_from_same_point_incomparable():
    idx = HistoryIndex()
    idx.record_branch(2, 1, 3)
    idx.record_branch(3, 1, 3)
    assert idx.compare(VersionPair(2, 4), VersionPair(3, 4)) is Relation.INCOMPARABLE


def test_grandchild_chain():
    idx = HistoryIndex()
    idx.record_branch(2, 1, 3)
    idx.record_branch(3, 2, 7)
    assert idx.compare(VersionPair(1, 3), VersionPair(3, 8)) is Relation.ANCESTOR
    assert idx.compare(VersionPair(2, 7), VersionPair(3, 9)) is Relation.ANCESTOR
    assert idx.compare(VersionPair(2, 8), VersionPair(3, 9)) is Relation.INCOMPARABLE
    assert idx.compare(VersionPair(3, 9), VersionPair(1, 2)) is Relation.DESCENDANT


def test_conflicting_branch_record_rejected():
    idx = HistoryIndex()
    idx.record_branch(2, 1, 3)
    with pytest.raises(ValueError):
        idx.record_branch(2, 1, 4)
    idx.record_branch(2, 1, 3)  # identical re-record is fine


def test_merge_indexes():
    a = HistoryIndex()
    a.record_branch(2, 1, 3)
    b = HistoryIndex()
    b.record_branch(3, 2, 5)
    a.merge(b)
    assert a.compare(VersionPair(1, 1), VersionPair(3, 6)) is Relation.ANCESTOR


def test_serialization_roundtrip():
    idx = HistoryIndex()
    idx.record_branch(2, 1, 3)
    idx.record_branch(3, 1, 5)
    restored = HistoryIndex.from_dict(
        {str(k): list(v) for k, v in idx.to_dict().items()}
    )
    assert restored.compare(VersionPair(1, 2), VersionPair(2, 9)) is Relation.ANCESTOR


def test_cycle_detection():
    idx = HistoryIndex({2: (1, 0), 1: (2, 0)})
    with pytest.raises(ValueError, match="cycle"):
        idx.compare(VersionPair(1, 1), VersionPair(2, 1))


def test_major_allocator_unique_across_ranks():
    a = MajorAllocator(rank=0)
    b = MajorAllocator(rank=1)
    minted = {a.next_major() for _ in range(50)} | {b.next_major() for _ in range(50)}
    assert len(minted) == 100


def test_major_allocator_observe_prevents_reuse():
    a = MajorAllocator(rank=3)
    first = a.next_major()
    fresh = MajorAllocator(rank=3)  # simulates restart: counter was volatile
    fresh.observe(first)
    assert fresh.next_major() > first


def test_major_allocator_ignores_foreign_ranks():
    a = MajorAllocator(rank=3)
    a.observe(5 * 1024 + 7)  # rank-7 major
    assert a.next_major() == 1 * 1024 + 3


def test_major_allocator_rank_bounds():
    with pytest.raises(ValueError):
        MajorAllocator(rank=2048)


# --------------------------------------------------------------------- #
# property: version-pair comparison is isomorphic to explicit histories
# --------------------------------------------------------------------- #


class ExplicitHistoryModel:
    """Ground truth: store full update histories as tuples of update ids."""

    def __init__(self):
        self.histories = {}   # major -> tuple of update ids
        self.counter = 0

    def root(self, major):
        self.histories[major] = ()

    def update(self, major):
        self.counter += 1
        self.histories[major] = self.histories[major] + (self.counter,)

    def branch(self, child, parent):
        self.histories[child] = self.histories[parent]

    def relation(self, a, b):
        ha, hb = self.histories[a], self.histories[b]
        if ha == hb:
            return Relation.EQUAL
        if ha == hb[: len(ha)]:
            return Relation.ANCESTOR
        if hb == ha[: len(hb)]:
            return Relation.DESCENDANT
        return Relation.INCOMPARABLE


@st.composite
def history_scripts(draw):
    """Random interleavings of updates and branches over a growing major set."""
    script = []
    n_steps = draw(st.integers(min_value=1, max_value
                               =25))
    majors = [1]
    next_major = 2
    for _ in range(n_steps):
        action = draw(st.sampled_from(["update", "branch"]))
        if action == "update":
            script.append(("update", draw(st.sampled_from(majors))))
        else:
            parent = draw(st.sampled_from(majors))
            script.append(("branch", next_major, parent))
            majors.append(next_major)
            next_major += 1
    return script


@given(history_scripts())
@settings(max_examples=200, deadline=None)
def test_version_pairs_match_explicit_histories(script):
    """Compact (major, sub) + branch records ≡ full history comparison."""
    model = ExplicitHistoryModel()
    model.root(1)
    idx = HistoryIndex()
    pairs = {1: VersionPair(1, 0)}
    for step in script:
        if step[0] == "update":
            major = step[1]
            model.update(major)
            pairs[major] = pairs[major].next_update()
        else:
            _tag, child, parent = step
            model.branch(child, parent)
            idx.record_branch(child, parent, pairs[parent].sub)
            pairs[child] = VersionPair(child, pairs[parent].sub)
    majors = sorted(pairs)
    for a in majors:
        for b in majors:
            expected = model.relation(a, b)
            # Distinct majors with identical histories: the compact scheme
            # reports the branch relation (ancestor at the branch point),
            # which is the conservative answer the paper's protocol needs.
            got = idx.compare(pairs[a], pairs[b])
            if a != b and expected is Relation.EQUAL:
                assert got in (Relation.ANCESTOR, Relation.DESCENDANT,
                               Relation.EQUAL)
            else:
                assert got is expected, (
                    f"majors {a}->{b}: explicit {expected}, compact {got}"
                )


def _latest_by_the_full_rule(cat) -> int | None:
    """§3.5's unqualified-name rule, written out without shortcuts: the
    most recently updated leaf major (ties to the larger number), or the
    same pick over every major when all are interior."""
    if not cat.majors:
        return None
    branched_from = {cat.branches.parent_of(m)[0] for m in cat.majors
                     if cat.branches.parent_of(m) is not None}
    leaves = [i for m, i in cat.majors.items() if m not in branched_from]
    pool = leaves or list(cat.majors.values())
    return max(pool, key=lambda i: (i.last_update_ts, i.major)).major


_SLOTS = 5
_PARENT = st.one_of(st.none(), st.tuples(st.integers(0, _SLOTS - 1),
                                         st.integers(0, 3)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(n=st.integers(0, _SLOTS),
       parents=st.lists(_PARENT, min_size=_SLOTS, max_size=_SLOTS),
       stamps=st.lists(st.sampled_from([0.0, 1.0, 2.0]),
                       min_size=_SLOTS, max_size=_SLOTS))
@example(n=1, parents=[None] * _SLOTS, stamps=[0.0] * _SLOTS)
@example(n=1, parents=[(0, 2)] + [None] * (_SLOTS - 1),  # one, interior
         stamps=[1.0] * _SLOTS)
@example(n=3, parents=[None, (0, 2), (0, 3), None, None],  # branched
         stamps=[2.0, 1.0, 1.0, 0.0, 0.0])
@example(n=2, parents=[(1, 1), (0, 1), None, None, None],  # all interior
         stamps=[0.0, 1.0, 0.0, 0.0, 0.0])
def test_latest_major_matches_the_full_rule(n, parents, stamps):
    from repro.core.params import FileParams
    from repro.core.segment import MajorInfo, SegmentCatalog

    majors = [1000 + 7 * i for i in range(n)]
    branches = HistoryIndex()
    for i, major in enumerate(majors):
        if parents[i] is not None:
            parent, sub = parents[i]
            branches.record_branch(major, majors[parent % n], sub)
    cat = SegmentCatalog(sid="f", params=FileParams(), branches=branches)
    for i, major in enumerate(majors):
        cat.majors[major] = MajorInfo(major=major,
                                      version=VersionPair(major, 1),
                                      holder="s0", last_update_ts=stamps[i])
    assert cat.latest_major() == _latest_by_the_full_rule(cat)
