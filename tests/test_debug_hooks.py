"""The failure branches of the debug invariants (``CHORDALKIT_DEBUG=1``):
each hook is driven into the case it exists to report. The custom
structures match mcs up to position 8, so they pass the bounded
inclusion-condition gate, and misbehave above it. A built-in structure's
run drives its own queue through the checking queue, whose checks are
driven the same way by breaking that queue (or, for the label order, the
structure's increase, which only the shadow applies)."""

import pytest

from chordalkit.cliquetree import (
    _debug_check_partial,
    _TreeBuilder,
    complement_mls_generators,
    dcl_mls_clique_tree,
)
from chordalkit.errors import DebugInvariantError
from chordalkit.graph import Graph, from_edge_list
from chordalkit.labeling import Cmp, LabelingStructure, lexbfs, lexdfs, mcs, mns
from chordalkit.oracle import GeneratorConfig, gen
from chordalkit.search import LabelSearch, ScanQueue, _CheckedQueue, mls, mlsm
from chordalkit.selection import BucketQueue


class _Count(LabelingStructure):
    """mcs's labels without a selection queue."""

    def initial(self):
        return 0

    def compare(self, a, b):
        return Cmp.EQUAL if a == b else Cmp.LESS if a < b else Cmp.GREATER


class _ShrinksAbove8(_Count):
    """A label drops under an increase at positions above 8."""

    name = "shrinks-above-8"

    def inc(self, label, i):
        return label + 1 if i <= 8 else label - 1


class _StuckAbove8(_Count):
    """A label ignores positions above 8, so a strictly larger processed
    neighborhood can leave it equal."""

    name = "stuck-above-8"

    def inc(self, label, i):
        return label + (i <= 8)


class _SpreadsAbove8(_Count):
    """Each increase above position 8 adds one more than the last, so equal
    processed neighborhoods get different labels."""

    name = "spreads-above-8"

    def __init__(self):
        self.calls = 0

    def inc(self, label, i):
        if i <= 8:
            return label + 1
        self.calls += 1
        return label + self.calls


def _path(n: int) -> Graph:
    return Graph([f"v{k}" for k in range(n)], [(k, k + 1) for k in range(n - 1)])


def _star(n: int) -> Graph:
    """Vertex 0 joined to the n - 1 others, so a search numbers it first."""
    return Graph([f"v{k}" for k in range(n)], [(0, k) for k in range(1, n)])


@pytest.fixture
def armed(monkeypatch):
    monkeypatch.setenv("CHORDALKIT_DEBUG", "1")


def test_scan_queue_rejects_a_label_that_does_not_grow(armed):
    run = LabelSearch(_path(10), _ShrinksAbove8())
    assert isinstance(run.queue, ScanQueue) and run.queue.check
    with pytest.raises(DebugInvariantError, match="label of vertex 1 did not grow under inc at position 10"):
        for _ in run.steps():
            pass


def test_label_order_rejects_a_strict_inclusion_read_as_equal(armed):
    # after vertex 0 at position 10, v1's processed neighborhood {v0}
    # strictly contains v2's, yet both labels stay 0
    with pytest.raises(DebugInvariantError,
                       match="iteration 9: processed neighborhood of 2 is strictly inside that of 1 "
                             "but labels compare equal"):
        mls(_path(10), _StuckAbove8())


def test_label_order_rejects_equal_neighborhoods_read_as_unequal(armed):
    # after the center at position 10 every leaf's processed neighborhood
    # is {v0}, and the leaves' labels are 1, 2, ...
    with pytest.raises(DebugInvariantError,
                       match="iteration 9: equal processed neighborhoods of 1,2 but labels compare less"):
        mls(_star(10), _SpreadsAbove8())


def test_debug_step_rejects_a_label_test_that_misses_a_node(armed, monkeypatch):
    # a label test that never opens a node puts c into the node {a, b}
    monkeypatch.setattr(LabelSearch, "boundary", lambda self, x: False)
    g = from_edge_list([("a", "b"), ("b", "c")])
    with pytest.raises(DebugInvariantError, match="label test and set test disagree at position 1"):
        dcl_mls_clique_tree(g, mcs())


def test_partial_check_rejects_a_clique_that_misses_a_higher_neighbor():
    # a valid tree of the path v0-v1-v2, with v0 mapped to the node {v1, v2}
    g = _path(3)
    builder = _TreeBuilder()
    builder.cliques = [{0, 1}, {1, 2}]
    builder.edges = [(1, 2)]
    builder.seps = {frozenset({1})}
    builder.clique_of = {0: 2, 1: 2, 2: 2}
    with pytest.raises(DebugInvariantError, match="closed higher neighborhood of 0 escapes its clique"):
        _debug_check_partial(builder, g.adjacent, [0, 1, 2], [1, 2, 3])
    builder.clique_of[0] = 1
    _debug_check_partial(builder, g.adjacent, [0, 1, 2], [1, 2, 3])


def test_a_run_drives_the_checking_queue_only_when_armed(monkeypatch):
    g = _path(10)
    for factory in (mcs, lexbfs, lexdfs, mns):
        own = type(factory()._selection_queue(1, False))
        monkeypatch.delenv("CHORDALKIT_DEBUG", raising=False)
        run = LabelSearch(g, factory())
        assert type(run.queue) is own and run.shadow is None and run._driven is run.queue
        monkeypatch.setenv("CHORDALKIT_DEBUG", "1")
        run = LabelSearch(g, factory())
        assert type(run.queue) is own and isinstance(run.shadow, ScanQueue)
        assert isinstance(run._driven, _CheckedQueue) and run._driven.queue is run.queue


def test_checking_queue_rejects_a_label_order_the_shadow_breaks(armed, monkeypatch):
    # mcs's increase stuck above position 8, as in _StuckAbove8: the
    # BucketQueue keeps true counts, the shadow's labels stay 0
    monkeypatch.setattr(type(mcs()), "inc", lambda self, label, i: label + (i <= 8))
    with pytest.raises(DebugInvariantError,
                       match="iteration 9: processed neighborhood of 2 is strictly inside that of 1 "
                             "but labels compare equal"):
        mls(_path(10), mcs())


def test_checking_queue_rejects_a_bad_candidate_set(armed, monkeypatch):
    monkeypatch.setattr(BucketQueue, "extreme", lambda self: {0})
    with pytest.raises(DebugInvariantError,
                       match=r"iteration 10: selection queue offers \[0\] but the label scan finds \[0, 1, 2, "):
        mls(_path(10), mcs())


def test_checking_queue_rejects_a_bad_label_test(armed, monkeypatch):
    # after v0 at position 10, v1's count 1 exceeds v0's 0
    monkeypatch.setattr(BucketQueue, "continues", lambda self, x: False)
    with pytest.raises(DebugInvariantError,
                       match="iteration 9: the queue's less label test disagrees with the label scan on vertex 1"):
        dcl_mls_clique_tree(_path(10), mcs())


def test_checking_queue_rejects_a_bad_twin_test(armed, monkeypatch):
    # a graph denser than its complement: the minimizing run is flipped
    # and asks the queue's twin test, checked against the g-side scan
    dense = gen(GeneratorConfig(seed=6300, n=12, param=2.0, family="random-co-chordal"))
    assert LabelSearch(dense, mcs(), minimize=True).flip
    complement_mls_generators(dense, mcs())
    monkeypatch.setattr(BucketQueue, "twinned", lambda self, x: False)
    with pytest.raises(DebugInvariantError,
                       match=r"iteration \d+: the queue's equal label test disagrees with the label scan"):
        complement_mls_generators(dense, mcs())


def test_checking_queue_rejects_a_bad_reach(armed, monkeypatch):
    # v0 at position 10 reaches v1 alone; the broken search drops it
    real = BucketQueue.reach
    monkeypatch.setattr(BucketQueue, "reach", lambda self, x, nb: real(self, x, nb)[1:])
    with pytest.raises(DebugInvariantError,
                       match=r"iteration 10: block reach search finds \[\] but the per-target scan finds \[1\]"):
        mlsm(_path(10), mcs())
