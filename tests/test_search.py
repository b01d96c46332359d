import random
import weakref

import pytest

from conftest import chordal_corpus, cochordal_corpus, connected_corpus, first_appearance

from chordalkit import serialize
from chordalkit.cliquetree import (
    complement_mls_clique_tree,
    complement_mls_generators,
    dcl_mls_clique_tree,
    fast_clique_tree,
    mls_clique_tree,
)
from chordalkit.decomposition import dcl_atom_tree, dcl_mlsm_clique_tree
from chordalkit.errors import (
    ChordalkitError,
    DebugInvariantError,
    DisconnectedGraphError,
    NonDclStructureError,
    ScriptConflictError,
)
from chordalkit.fixtures import fixture, fixtures, graph
from chordalkit.graph import (
    Ordering,
    add_edges,
    complement_is_connected,
    complement_view,
    from_edge_list,
    from_vertices,
    is_connected,
    materialize_complement,
    ordering_from_names,
)
from chordalkit.labeling import Cmp, LabelingStructure, Tri, lab, lexbfs, lexdfs, mcs, mns
from chordalkit.oracle import GeneratorConfig, gen, is_chordal, is_minimal_triangulation, is_peo, is_pmo
from chordalkit.search import (
    LabelSearch,
    LowestIndex,
    ScanQueue,
    ScriptedOrder,
    SeededRandom,
    mls,
    mlsm,
    moplex_mls,
    moplex_mlsm,
    triangulation_from_ordering,
)
from chordalkit.selection import BucketQueue, InclusionPartition, OrderedPartition, StackPartition

ALL = [mcs, lexbfs, lexdfs, mns]
TOTAL = [mcs, lexbfs, lexdfs]


def scripted(fx):
    # the fixture script is the target ordering; picks run from the back
    return ScriptedOrder(reversed(fx.script))


class TestFigureLabels:
    @pytest.mark.parametrize("name", ["fig1_h", "fig5_g", "fig6_g"])
    def test_depth_first_labels(self, name):
        fx = fixture(name)
        g = fx.graph()
        alpha, trace = mls(g, lexdfs(), scripted(fx))
        assert alpha.names(g) == list(fx.script)
        assert serialize.final_labels(g, lexdfs(), trace) == fx.final_labels

    def test_breadth_first_labels_fig4(self):
        fx = fixture("fig4_g")
        g = fx.graph()
        alpha, trace = mls(g, lexbfs(), scripted(fx))
        assert serialize.final_labels(g, lexbfs(), trace) == fx.final_labels


class TestMls:
    def test_single_vertex(self):
        g = from_vertices(["v"])
        alpha, trace = mls(g, mcs())
        assert alpha.names(g) == ["v"] and len(trace.entries) == 1

    def test_disconnected_rejected(self):
        g = from_vertices(["a", "b", "c"], [("a", "b")])
        with pytest.raises(DisconnectedGraphError):
            mls(g, mcs())

    def test_permutation_and_peo_sweep(self):
        for g in chordal_corpus(24):
            for f in ALL:
                alpha, trace = mls(g, f())
                assert sorted(e.vertex for e in trace.entries) == list(range(g.n))
                assert len(trace.entries) == g.n
                assert is_peo(g, alpha), f().name

    def test_trace_json_schema(self):
        g = graph("fig1_h")
        _, trace = mls(g, lexdfs(), scripted(fixture("fig1_h")))
        rows = serialize.trace_json(g, lexdfs(), trace)
        assert [r["i"] for r in rows] == [6, 5, 4, 3, 2, 1]
        assert set(rows[0]) == {"i", "vertex", "label", "increased", "fill"}
        assert rows[0]["vertex"] == "f" and rows[0]["increased"] == ["a", "b", "e"]

    def test_trace_equality_and_repr(self):
        g = from_edge_list([("a", "b")])
        _, trace = mls(g, mcs())
        assert trace == mls(g, mcs())[1]
        assert trace != trace.entries and trace.__eq__(trace.entries) is NotImplemented
        assert repr(trace) == (
            "SearchTrace(structure='mcs', entries=["
            "TraceEntry(i=2, vertex=0, label=0, increased=(1,), fill=()), "
            "TraceEntry(i=1, vertex=1, label=1, increased=(), fill=())])"
        )


class TestTieBreaks:
    def test_lowest_index_is_default(self):
        g = graph("fig1_h")
        a1, _ = mls(g, mcs())
        a2, _ = mls(g, mcs(), LowestIndex())
        assert a1 == a2

    def test_seeded_reproducible(self):
        g = graph("fig1_h")
        a1, _ = mls(g, mns(), SeededRandom(7))
        a2, _ = mls(g, mns(), SeededRandom(7))
        assert a1 == a2

    def test_script_conflict_raises(self):
        g = graph("fig1_h")
        # after picking f, vertex c (label ()) is not maximal: a,b,e carry (6)
        with pytest.raises(ScriptConflictError):
            mls(g, lexdfs(), ScriptedOrder(["f", "c"]))

    def test_script_duplicate_raises(self):
        g = graph("fig1_h")
        with pytest.raises(ScriptConflictError):
            mls(g, lexdfs(), ScriptedOrder(["f", "f"]))

    def test_partial_script_falls_back_to_lowest(self):
        g = graph("fig1_h")
        alpha, _ = mls(g, lexdfs(), ScriptedOrder(["f", "e"]))
        # hand trace: after f,e the depth-first order forces c then d,
        # then lowest index picks a before b
        assert alpha.names(g) == ["b", "a", "d", "c", "e", "f"]


class TestMoplex:
    def test_pmo_sweep(self):
        for g in chordal_corpus(24):
            for f in ALL:
                alpha, _ = moplex_mls(g, f())
                assert is_pmo(g, alpha), f().name

    def test_fig1_set_labels_give_pmo(self):
        g = graph("fig1_h")
        for tb in (LowestIndex(), SeededRandom(5), SeededRandom(17)):
            alpha, _ = moplex_mls(g, mns(), tb)
            assert is_pmo(g, alpha)

    def test_total_orders_identical_to_plain(self):
        for g in chordal_corpus(16):
            for f in TOTAL:
                for tb in (LowestIndex(), SeededRandom(3)):
                    a1, _ = mls(g, f(), tb)
                    a2, _ = moplex_mls(g, f(), tb)
                    assert a1 == a2, f().name

    def test_fig1_breadth_first_completion(self):
        # starting f then e completes {e,f}; breadth-first then finishes
        # {a,b,f} before {c,d,e}, depth-first the other way round, so the
        # clique finished last holds the lowest positions
        g = graph("fig1_h")
        ab, _ = moplex_mls(g, lexbfs(), ScriptedOrder(["f", "e"]))
        ad, _ = moplex_mls(g, lexdfs(), ScriptedOrder(["f", "e"]))
        assert set(ab.names(g)[:2]) == {"c", "d"}
        assert set(ad.names(g)[:2]) == {"a", "b"}


class TestMinimizeDuality:
    def test_min_run_is_complement_max_run(self):
        for g in cochordal_corpus(16):
            view = complement_view(g)
            for f in ALL:
                alpha_min, _ = mls(g, f(), minimize=True)
                replay, _ = mls(view, f(), ScriptedOrder(reversed(alpha_min.names(g))))
                assert replay == alpha_min, f().name

    def test_min_run_gives_complement_peo(self):
        from chordalkit.graph import materialize_complement

        for g in cochordal_corpus(12):
            comp = materialize_complement(g)
            for f in ALL:
                alpha_min, _ = mls(g, f(), minimize=True)
                assert is_peo(comp, alpha_min), f().name


def _unqueued(structure):
    """The built-in structure with no selection queue of its own, so that
    every run of it keeps and scans its labels on g's side (``ScanQueue``)."""
    cls = type(structure)
    return type(f"Unqueued{cls.__name__}", (cls,), {"_selection_queue": lambda self, n, minimize: None})()


def _edges_exactly(rng, n, m):
    """A graph on n vertices with exactly m edges, it and its complement
    connected."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        g = from_vertices([f"v{v}" for v in range(n)],
                          [(f"v{u}", f"v{v}") for u, v in rng.sample(pairs, m)])
        if is_connected(g) and complement_is_connected(g):
            return g


def _dense_corpus():
    """Dense co-chordal graphs, dense graphs whose complement is connected
    but not chordal, and graphs at the flip threshold 4m = n(n - 1) and one
    edge either side of it."""
    cochordal = [gen(GeneratorConfig(seed=6000 + s, n=n, param=param, family="random-co-chordal"))
                 for s, (n, param) in enumerate([(10, 1.5), (14, 2.0), (19, 3.0), (24, 2.5), (30, 4.0)])]
    holed = []
    for s in range(40):
        n = 10 + s % 4 * 5
        h = gen(GeneratorConfig(seed=6100 + s, n=n, param=3.5 / n, family="random-connected"))
        g = materialize_complement(h)
        if is_connected(g) and not is_chordal(h):
            holed.append(g)
    rng = random.Random(6200)
    threshold = [_edges_exactly(rng, n, n * (n - 1) // 4 + d) for n in (8, 9, 12, 13) for d in (-1, 0, 1)]
    assert len(holed) >= 6
    return cochordal + holed[:6] + threshold


_MINIMIZING_PRODUCTS = [
    ("mls-min", lambda g, s, tb: mls(g, s, tb, minimize=True)),
    ("complement_mls_generators", complement_mls_generators),
    ("complement_mls_clique_tree", complement_mls_clique_tree),
]


class TestComplementSide:
    """A minimizing run with a built-in structure on a graph with more edges
    than its complement selects on the complement side; it must give what
    the g-side label scan gives."""

    @pytest.mark.parametrize("factory", ALL, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("name,fn", _MINIMIZING_PRODUCTS, ids=[p[0] for p in _MINIMIZING_PRODUCTS])
    def test_matches_the_g_side_scan(self, factory, name, fn):
        def outcome(structure, g, tb):
            try:
                out = fn(g, structure, tb)
            except ChordalkitError as e:
                return type(e), str(e)
            # the mls pair, or a result (whose own == skips its trace)
            return (out[0], out[1].entries) if isinstance(out, tuple) else (out, out.trace.entries)

        structure, scanned = factory(), _unqueued(factory())
        flipped = errors = 0
        for g in _dense_corpus():
            run = LabelSearch(g, structure, minimize=True)
            assert run.flip == (4 * g.m > g.n * (g.n - 1))
            assert not LabelSearch(g, scanned, minimize=True).flip
            flipped += run.flip
            for tb in _queue_tiebreaks(g, True):
                got = outcome(structure, g, tb)
                assert got == outcome(scanned, g, tb), (name, g, tb)
                errors += isinstance(got[0], type)
        # the generators trust the input, so only the tree rejects the holed ones
        assert flipped == 15 and (errors >= 6 or name != "complement_mls_clique_tree"), (flipped, errors)

    @pytest.mark.parametrize("factory", ALL, ids=lambda f: f.__name__)
    def test_a_flipped_run_bumps_the_complement_edges(self, factory, monkeypatch):
        # each step bumps its vertex's unnumbered neighbors on the side it
        # runs on, so a run bumps once per edge of that side
        structure = factory()
        queue = type(structure._selection_queue(1, False))
        bumped = []
        real = queue.bump
        monkeypatch.setattr(queue, "bump", lambda self, x, vs, i: bumped.append(len(vs)) or real(self, x, vs, i))
        dense = gen(GeneratorConfig(seed=6300, n=40, param=3.0, family="random-co-chordal"))
        sparse = gen(GeneratorConfig(seed=6301, n=40, param=3.0, family="random-chordal"))
        dense_bar = dense.n * (dense.n - 1) // 2 - dense.m
        assert dense_bar < dense.m and sparse.m * 4 < sparse.n * (sparse.n - 1)
        for run, want in [(lambda: mls(dense, structure, minimize=True), dense_bar),
                          (lambda: complement_mls_generators(dense, structure), dense_bar),
                          (lambda: mls(dense, structure), dense.m),
                          (lambda: mls(sparse, structure, minimize=True), sparse.m)]:
            bumped.clear()
            run()
            assert (len(bumped), sum(bumped)) == (40, want)  # one bump per step


class TestMlsm:
    def test_chordal_input_no_fill_and_same_ordering(self):
        for g in chordal_corpus(16):
            for f in ALL:
                tri, trace = mlsm(g, f())
                assert tri.fill_edges == ()
                plain, _ = mls(g, f())
                assert tri.ordering == plain
                # every label increase is a direct-edge target on chordal input
                for e in trace.entries:
                    assert set(e.increased) <= set(g.neighbors(e.vertex))

    def test_four_cycle_single_chord(self):
        c4 = from_edge_list([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        tri, _ = mlsm(c4, mcs())
        assert len(tri.fill_edges) == 1
        assert is_chordal(tri.graph)
        assert is_minimal_triangulation(c4, tri.graph)

    def test_meo_sweep(self):
        for g in connected_corpus(16):
            for f in ALL:
                tri, _ = mlsm(g, f())
                assert is_minimal_triangulation(g, tri.graph), f().name
                assert is_peo(tri.graph, tri.ordering), f().name

    def test_fig4_breadth_first_is_not_minimal(self):
        # the plain search ordering, pushed through the elimination game,
        # fills {2,4},{3,4}; dropping {3,4} alone stays chordal
        fx = fixture("fig4_g")
        g = fx.graph()
        alpha, _ = mls(g, lexbfs(), scripted(fx))
        tri = triangulation_from_ordering(g, alpha)
        fills = {frozenset((g.names[u], g.names[v])) for u, v in tri.fill_edges}
        assert fills == {frozenset({"2", "4"}), frozenset({"3", "4"})}
        assert is_chordal(tri.graph)
        assert not is_minimal_triangulation(g, tri.graph)


class TestMoplexMlsm:
    def test_chordal_matches_moplex_mls(self):
        for g in chordal_corpus(12):
            for f in ALL:
                tri, _ = moplex_mlsm(g, f())
                alpha, _ = moplex_mls(g, f())
                assert tri.fill_edges == () and tri.ordering == alpha

    def test_complete_graph_any_ordering(self):
        k4 = from_edge_list([(a, b) for a in "abcd" for b in "abcd" if a < b])
        tri, _ = moplex_mlsm(k4, mns())
        assert tri.fill_edges == ()

    def test_mmo_certificate_sweep(self):
        for g in connected_corpus(16):
            for f in ALL:
                tri, _ = moplex_mlsm(g, f())
                assert is_minimal_triangulation(g, tri.graph), f().name
                assert is_pmo(tri.graph, tri.ordering), f().name


class TestEliminationGame:
    def test_peo_of_chordal_no_fill(self):
        for g in chordal_corpus(8):
            alpha, _ = mls(g, mcs())
            assert triangulation_from_ordering(g, alpha).fill_edges == ()

    def test_ordering_one_vertex_short_rejected(self):
        g = from_edge_list([("a", "b"), ("b", "c")])
        with pytest.raises(ValueError):
            triangulation_from_ordering(g, Ordering([0, 1]))

    def test_path_graph_middle_first(self):
        g = from_edge_list([("a", "b"), ("b", "c")])
        alpha = ordering_from_names(g, ["b", "a", "c"])
        tri = triangulation_from_ordering(g, alpha)
        assert [(g.names[u], g.names[v]) for u, v in tri.fill_edges] == [("a", "c")]
        assert is_chordal(tri.graph)

    @staticmethod
    def _assert_matches_reference(g, alpha):
        tri = triangulation_from_ordering(g, alpha)
        h, fill = _reference_elimination_game(g, alpha)
        assert tri.fill_edges == fill
        assert tri.graph == h
        assert tri.graph.m == g.m + len(fill)
        assert tri.ordering == alpha
        return tri

    def test_matches_pair_loop_on_random_permutations(self):
        rng = random.Random(15)
        for s in range(30):
            n = 5 + s % 26
            g = gen(GeneratorConfig(seed=5000 + s, n=n, param=min(0.9, 3 / n), family="random-connected"))
            for _ in range(3):
                seq = list(range(n))
                rng.shuffle(seq)
                self._assert_matches_reference(g, Ordering(seq))

    def test_matches_pair_loop_on_search_orderings(self):
        for s in range(20):
            n = 6 + s % 25
            g = gen(GeneratorConfig(seed=6000 + s, n=n, param=min(0.9, 3 / n), family="random-connected"))
            for f in ALL:
                alpha, _ = mls(g, f())
                self._assert_matches_reference(g, alpha)

    def test_peo_of_chordal_matches_pair_loop(self):
        for g in chordal_corpus(12):
            alpha, _ = mls(g, lexbfs())
            tri = self._assert_matches_reference(g, alpha)
            assert tri.fill_edges == () and tri.graph == g

    def test_fig4_matches_pair_loop(self):
        fx = fixture("fig4_g")
        g = fx.graph()
        alpha, _ = mls(g, lexbfs(), scripted(fx))
        tri = self._assert_matches_reference(g, alpha)
        assert len(tri.fill_edges) == 2

    def test_result_graph_is_frozen_under_the_input_names(self):
        g = gen(GeneratorConfig(seed=7, n=20, param=0.2, family="random-connected"))
        alpha, _ = mls(g, mcs())
        tri = triangulation_from_ordering(g, alpha)
        assert all(type(s) is frozenset for s in tri.graph.adj)
        assert tri.graph.names == g.names
        assert [tri.graph.index(name) for name in g.names] == list(range(g.n))


def _reference_elimination_game(g, alpha):
    """The elimination game as a pair loop over each eliminated vertex's
    sorted later neighbourhood: the filled graph (rebuilt from its edge
    list) and the fill edges in the order the pairs were met."""
    adj = [set(s) for s in g.adj]
    fill = []
    for i in range(1, g.n + 1):
        x = alpha.vertex_at(i)
        later = sorted(y for y in adj[x] if alpha.position_of(y) > i)
        for a_idx in range(len(later)):
            for b_idx in range(a_idx + 1, len(later)):
                a, b = later[a_idx], later[b_idx]
                if b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
                    fill.append((min(a, b), max(a, b)))
    return add_edges(g, fill), tuple(fill)


TRIANGULATING = [mlsm, moplex_mlsm, dcl_mlsm_clique_tree, dcl_atom_tree]


class TestTriangulationResultGraph:
    """Every triangulating driver freezes its run's overlay as H."""

    @pytest.mark.parametrize("fn", TRIANGULATING, ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("factory", ALL, ids=lambda f: f().name)
    def test_graph_is_input_plus_fill(self, fn, factory, monkeypatch):
        if fn in (dcl_mlsm_clique_tree, dcl_atom_tree) and factory is lexdfs:
            # the fused builders need a structure that detects cliques by label
            with pytest.raises(NonDclStructureError):
                fn(fixture("fig4_g").graph(), factory())
            return
        graphs = [fixture("fig4_g").graph(), fixture("fig5_g").graph()]
        graphs += [gen(GeneratorConfig(seed=8000 + s, n=8 + 3 * s, param=min(0.9, 3 / (8 + 3 * s)),
                                       family="random-connected")) for s in range(6)]
        for g in graphs:
            out, run = _driver_run(monkeypatch, fn, g, factory())
            tri = out[0] if fn in (mlsm, moplex_mlsm) else out.triangulation
            h = tri.graph
            assert h == add_edges(g, tri.fill_edges)
            assert h.m == g.m + len(tri.fill_edges)
            assert h.names == g.names
            assert [h.index(name) for name in g.names] == list(range(g.n))
            assert all(type(s) is frozenset for s in h.adj)
            assert not any(a is b for a, b in zip(h.adj, run.overlay))
            # the run's live sets may change afterwards; H does not
            before = h.adj
            for s in run.overlay:
                s.clear()
            assert h.adj == before and h == add_edges(g, tri.fill_edges)


class _TupleCount(LabelingStructure):
    """A custom total structure: labels are (count, positions) pairs,
    ordered by count and then lexicographically by the descending position
    tuple. It has no selection queue, so the engine scans for selection and
    for the reach targets, as it does for custom partial structures."""

    name = "tuplecount"
    is_total = True

    def initial(self):
        return (0, ())

    def inc(self, label, i):
        return (label[0] + 1, label[1] + (i,))

    def compare(self, a, b):
        if a == b:
            return Cmp.EQUAL
        return Cmp.LESS if a < b else Cmp.GREATER


class _SetLabels(LabelingStructure):
    """A custom partial structure: the mns set labels without a selection
    queue, so the engine scans for selection and for the reach targets."""

    name = "sets"

    def initial(self):
        return frozenset()

    def inc(self, label, i):
        return label | {i}

    def compare(self, a, b):
        return mns().compare(a, b)


def _reference_inc_targets(run, x, i):
    """The triangulating rule as stated, one target at a time: y is a target
    iff the input graph has a path from x to y whose internal vertices are
    all unnumbered and labeled strictly below y. Each label is folded with
    ``lab`` from the positions of its numbered neighbors in the filled graph
    so far, which were numbered before x, so the queues are never read."""
    g, pos, structure = run.g, run.pos, run.structure
    live = [w for w in range(g.n) if w not in run.done]
    labels = {w: lab(structure, [pos[z] for z in run.overlay[w] if pos[z] > i]) for w in live}
    targets = []
    for y in live:
        allowed = {w for w in live if structure.compare(labels[w], labels[y]) is Cmp.LESS}
        reached, frontier = {x}, [x]
        while frontier and y not in reached:
            u = frontier.pop()
            for w in g.adj[u]:
                if w not in reached and (w == y or w in allowed):
                    reached.add(w)
                    frontier.append(w)
        if y in reached:
            targets.append(y)
    return targets


def _driver_run(monkeypatch, fn, g, structure):
    """A driver's result and the one LabelSearch it ran."""
    runs = []
    real = LabelSearch.__init__

    def keep(self, *args, **kwargs):
        real(self, *args, **kwargs)
        runs.append(self)

    with monkeypatch.context() as m:
        m.setattr(LabelSearch, "__init__", keep)
        out = fn(g, structure)
    (run,) = runs
    return out, run


def _triangulating_products(monkeypatch, fn, g, structure):
    """Everything a triangulating driver hands back, plus the trace of its
    LabelSearch (the fused builders do not return one)."""
    out, run = _driver_run(monkeypatch, fn, g, structure)
    if fn in (mlsm, moplex_mlsm):
        tri = out[0]
        extra = ()
    elif fn is dcl_atom_tree:
        tri = out.triangulation
        extra = (out.atoms, out.tree_edges, out.atom_of, out.current_atom_history)
    else:
        tri = out.triangulation
        extra = (out.clique_tree.cliques, out.clique_tree.tree_edges, out.clique_tree.clique_of)
    return tri.ordering.seq, tri.fill_edges, run.trace.entries, extra


def _reach_corpus():
    graphs = [fx.graph() for fx in fixtures().values()]
    for s in range(24):
        n = 5 + (s * 7) % 36
        graphs.append(gen(GeneratorConfig(seed=4000 + s, n=n, param=min(0.9, (2 + s % 4) / n), family="random-connected")))
    return graphs


class TestReachSearch:
    """The queues' reach searches (one walk up the label classes for the
    total orders, the block search for mns) and the scan that custom
    structures take, against the per-target rule."""

    @pytest.mark.parametrize("factory", [mcs, lexbfs, lexdfs, mns, _TupleCount], ids=lambda f: f.__name__)
    def test_matches_per_target_rule(self, factory, monkeypatch):
        fns = [mlsm, moplex_mlsm]
        if factory is not lexdfs:  # lexdfs cannot detect cliques with labels
            fns += [dcl_atom_tree, dcl_mlsm_clique_tree]
        structure = factory()
        for g in _reach_corpus():
            for fn in fns:
                got = _triangulating_products(monkeypatch, fn, g, structure)
                with monkeypatch.context() as m:
                    m.setattr(LabelSearch, "inc_targets", _reference_inc_targets)
                    want = _triangulating_products(monkeypatch, fn, g, structure)
                assert got == want, (fn.__name__, g)

    def test_partial_orders_keep_the_scan(self, monkeypatch):
        # every built-in asks its own queue once per step (mns through its
        # block search); custom structures, total or partial, have no queue
        # of their own and scan once per step for the reach targets. Armed,
        # the debug cross-check would scan next to every queued step.
        monkeypatch.delenv("CHORDALKIT_DEBUG", raising=False)
        calls = []
        for owner in (ScanQueue, BucketQueue, OrderedPartition, InclusionPartition):
            real = owner.reach

            def counted(self, *args, real=real, call=(owner.__name__, "reach")):
                calls.append(call)
                return real(self, *args)

            monkeypatch.setattr(owner, "reach", counted)
        g = graph("fig4_g")
        for factory, call in ((mcs, "BucketQueue"), (lexbfs, "OrderedPartition"),
                              (lexdfs, "OrderedPartition"), (mns, "InclusionPartition")):
            calls.clear()
            moplex_mlsm(g, factory())
            assert calls == [(call, "reach")] * g.n, factory.__name__
        want, _ = mlsm(g, mns())
        for structure in (_TupleCount(), _SetLabels()):
            assert structure._selection_queue(g.n, False) is None
            calls.clear()
            got, _ = mlsm(g, structure)
            assert calls == [("ScanQueue", "reach")] * g.n, structure.name
        assert (got.ordering.seq, got.fill_edges) == (want.ordering.seq, want.fill_edges)

    def test_debug_cross_check_catches_a_bad_block_search(self, monkeypatch):
        # every queued reach is cross-checked: the total queues' walk (mcs
        # buckets) and the mns block search
        monkeypatch.setenv("CHORDALKIT_DEBUG", "1")
        g = graph("fig4_g")
        for factory, queue in ((mcs, BucketQueue), (mns, InclusionPartition)):
            mlsm(g, factory())
            real = queue.reach
            with monkeypatch.context() as m:
                m.setattr(queue, "reach", lambda self, x, nb, real=real: real(self, x, nb)[1:])
                with pytest.raises(DebugInvariantError, match="block reach search"):
                    mlsm(g, factory())


def _recorded(monkeypatch, fn, g, structure, tiebreak, kwargs):
    """The product (or the error it raised), the trace entries of every
    LabelSearch it ran, and whether each of those runs had a selection
    queue of its own rather than a ScanQueue."""
    runs = []
    real = LabelSearch.__init__

    def keep(self, *args, **kw):
        real(self, *args, **kw)
        runs.append(self)

    with monkeypatch.context() as m:
        m.setattr(LabelSearch, "__init__", keep)
        try:
            out = fn(g, structure, tiebreak, **kwargs)
        except ChordalkitError as e:
            out = (type(e), str(e))
    return out, [r.trace.entries for r in runs], [not isinstance(r.queue, ScanQueue) for r in runs]


def _queue_corpus(kind):
    graphs = [fx.graph() for fx in fixtures().values()]
    if kind == "chordal":
        graphs += chordal_corpus(24)
        family = "random-chordal"
    elif kind == "cochordal":
        graphs += cochordal_corpus(24)
        family = "random-co-chordal"
    else:
        graphs += connected_corpus(24)
        family = "random-connected"
    for s in range(6):
        n = 12 + 5 * s
        param = (1.0 + s % 3) if family != "random-connected" else 3 / n
        graphs.append(gen(GeneratorConfig(seed=5000 + s, n=n, param=param, family=family)))
    # each graph in its own numbering, then as a file of its edges reads back
    return [h for g in graphs for h in (g, first_appearance(g))]


def _queue_tiebreaks(g, minimize):
    # a partial script: the last vertex, then the highest-index vertex that
    # ties at the second step (a neighbor, or a non-neighbor when minimizing)
    first = g.n - 1
    second = [v for v in range(first) if (v in g.adj[first]) != minimize]
    picks = [first] + second[-1:]
    return [LowestIndex(), SeededRandom(1), SeededRandom(2), SeededRandom(3),
            ScriptedOrder(g.names[v] for v in picks)]


def _random_adjacency(rng, n):
    """Random adjacency sets and the same as vertex bitsets."""
    adj = [set() for _ in range(n)]
    p = rng.choice([0.1, 0.25, 0.5])
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    return adj, [sum(1 << w for w in s) for s in adj]


def _reaches(adj, x, y, allowed):
    """Whether a path from x to y has every internal vertex in allowed."""
    seen, stack = {x}, [x]
    while stack:
        u = stack.pop()
        if y in adj[u]:
            return True
        for w in adj[u] & allowed - seen:
            seen.add(w)
            stack.append(w)
    return False


def _assert_dead_blocks_released(q):
    if isinstance(q, BucketQueue):
        # an emptied count holds an empty heap, and the extreme count is
        # non-empty while any vertex is
        for c, members in enumerate(q.members):
            assert members or q.heaps[c] == [], c
        assert q.members[q.top] or not any(q.members)
        return
    # a block id not linked from the bottom is dead and holds nothing
    linked, b = [], q.bottom
    while b != -1:
        linked.append(b)
        b = q.up[b]
    assert all(q.members[b] for b in linked)
    for b in set(range(len(q.members))) - set(linked):
        assert q.members[b] is None and q.heaps[b] is None, b
        if isinstance(q, InclusionPartition):
            assert q.mask[b] is None and q.above[b] is None and q.below[b] is None, b
    if isinstance(q, InclusionPartition):
        # the live blocks link exactly their masks' covers, both ways, so
        # no live block links to a dead one
        for b in linked:
            ups = [a for a in linked if q.mask[b] < q.mask[a]]
            covers = {a for a in ups if not any(q.mask[c] < q.mask[a] for c in ups)}
            assert q.above[b] == covers, b
            assert q.below[b] == {c for c in linked if b in q.above[c]}, b
    if isinstance(q, StackPartition):  # blocks enter on top: ids rise upward
        assert linked == sorted(linked)


_QUEUE_PRODUCTS = [
    ("mls", mls, "connected", {}),
    ("mls-min", mls, "connected", {"minimize": True}),
    ("moplex_mls", moplex_mls, "chordal", {}),
    ("mlsm", mlsm, "connected", {}),
    ("moplex_mlsm", moplex_mlsm, "connected", {}),
    ("mls_clique_tree", mls_clique_tree, "chordal", {}),
    ("dcl_mls_clique_tree", dcl_mls_clique_tree, "chordal", {}),
    ("complement_mls_clique_tree", complement_mls_clique_tree, "cochordal", {}),
    ("complement_mls_generators", complement_mls_generators, "cochordal", {}),
    ("dcl_atom_tree", dcl_atom_tree, "connected", {}),
    ("dcl_mlsm_clique_tree", dcl_mlsm_clique_tree, "connected", {}),
]


class _WeakList(list):
    """A list that a weak reference can point at."""


class TestSelectionQueue:
    """Queue-backed selection (mcs, lexbfs, lexdfs, mns) against the label
    scan; for mns the products with a prefer rule also cover its narrowing."""

    @pytest.mark.parametrize("factory", ALL, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("name,fn,kind,kwargs", _QUEUE_PRODUCTS, ids=[p[0] for p in _QUEUE_PRODUCTS])
    def test_matches_scan(self, factory, name, fn, kind, kwargs, monkeypatch):
        structure = factory()
        minimize = kwargs.get("minimize", False) or kind == "cochordal"
        for g in _queue_corpus(kind):
            for tb in _queue_tiebreaks(g, minimize):
                got, got_trace, queued = _recorded(monkeypatch, fn, g, structure, tb, kwargs)
                with monkeypatch.context() as m:
                    m.setattr(type(structure), "_selection_queue", lambda self, n, minimize: None)
                    want, want_trace, scanned = _recorded(monkeypatch, fn, g, structure, tb, kwargs)
                assert all(queued) and not any(scanned)
                assert got == want, (name, g, tb)
                assert got_trace == want_trace, (name, g, tb)

    @pytest.mark.parametrize("name,fn,kind,kwargs", _QUEUE_PRODUCTS, ids=[p[0] for p in _QUEUE_PRODUCTS])
    def test_result_keeps_no_queue_or_bitsets(self, name, fn, kind, kwargs, monkeypatch):
        # a finished run's trace keeps g or H, the positions, the fill and
        # the structure, and builds its entries from them when read: once
        # the product has returned, holding its result keeps neither the
        # run's queue nor its vertex bitsets nor its overlay alive
        refs = []
        real = LabelSearch.__init__

        def keep(self, *args, **kw):
            real(self, *args, **kw)
            if self.nb is not None:
                self.nb, self.overlay = _WeakList(self.nb), _WeakList(self.overlay)
            refs.append([weakref.ref(r) for r in (self.queue, self.nb, self.overlay) if r is not None])

        g = _queue_corpus(kind)[-1]
        for factory in ALL:
            refs.clear()
            with monkeypatch.context() as m:
                m.setattr(LabelSearch, "__init__", keep)
                try:
                    out = fn(g, factory(), **kwargs)
                except NonDclStructureError:
                    assert not refs and factory is lexdfs
                    continue
            (held,) = refs
            assert len(held) == (3 if name in ("mlsm", "moplex_mlsm", "dcl_atom_tree", "dcl_mlsm_clique_tree") else 1)
            assert [r() for r in held] == [None] * len(held), (name, factory.__name__)
            trace = out[1] if isinstance(out, tuple) else getattr(out, "trace", None)
            if trace is not None:
                assert [e.i for e in trace.entries] == list(range(g.n, 0, -1))

    @pytest.mark.parametrize("factory", ALL + [_TupleCount], ids=lambda f: f.__name__)
    def test_one_bump_per_step_after_its_remove(self, factory, monkeypatch):
        # the queues settle in bump, so every caller must hand a step's
        # vertex and then its increases to one bump call, which removes
        # that vertex first; a custom structure's ScanQueue is driven the
        # same way
        structure = factory()
        queue = ScanQueue if factory is _TupleCount else type(structure._selection_queue(1, False))
        calls = {}
        real = queue.bump

        def spy(self, x, vs, i):
            vs = list(vs)
            calls.setdefault(self, []).append((x, vs, i))
            return real(self, x, vs, i)

        monkeypatch.setattr(queue, "bump", spy)
        runs = [(fn, kind, kwargs) for _, fn, kind, kwargs in _QUEUE_PRODUCTS]
        if structure.name in ("mcs", "lexbfs"):
            runs.append((lambda g, s: fast_clique_tree(g, s.name), "chordal", {}))
        for fn, kind, kwargs in runs:
            for g in _queue_corpus(kind)[-6:]:
                calls.clear()
                try:
                    fn(g, structure, **kwargs)
                except ChordalkitError:  # a structure the product refuses
                    assert not calls, (fn, g)
                    continue
                assert calls, (fn, g)
                for q, seen in calls.items():
                    per_vertex = {ScanQueue: "labels", BucketQueue: "count"}.get(type(q), "block_of")
                    n = len(getattr(q, per_vertex))
                    assert [i for _, _, i in seen] == list(range(n, 0, -1)), (fn, g)
                    numbered = set()
                    for x, vs, _ in seen:  # the step's vertex, then its increases
                        numbered.add(x)
                        assert numbered.isdisjoint(vs), (fn, g)
                    assert len(numbered) == n, (fn, g)

    def test_other_structures_keep_the_scan(self, monkeypatch):
        # a custom structure's ScanQueue scans once per step; the built-ins
        # never scan. Armed, the debug cross-check scans next to every
        # queued step.
        monkeypatch.delenv("CHORDALKIT_DEBUG", raising=False)
        scans = []
        real = ScanQueue.extreme

        def counted(self):
            scans.append(self.structure.name)
            return real(self)

        monkeypatch.setattr(ScanQueue, "extreme", counted)
        g = graph("fig1_h")
        assert _TupleCount()._selection_queue(g.n, False) is None
        mls(g, _TupleCount())
        assert scans == [_TupleCount().name] * g.n
        scans.clear()
        for factory in (mcs, lexbfs, lexdfs, mns):
            mls(g, factory())
            moplex_mlsm(g, factory())
        assert scans == []

    def test_debug_cross_check_catches_a_bad_queue(self, monkeypatch):
        monkeypatch.setenv("CHORDALKIT_DEBUG", "1")
        g = graph("fig1_h")
        mls(g, mcs())
        monkeypatch.setattr(BucketQueue, "extreme", lambda self: {0})
        with pytest.raises(DebugInvariantError, match="selection queue"):
            mls(g, mcs())

    def test_debug_cross_check_catches_a_bad_label_test(self, monkeypatch):
        # the builders' label test is checked against the shadow scan too
        monkeypatch.setenv("CHORDALKIT_DEBUG", "1")
        g, h = graph("fig1_h"), cochordal_corpus(1)[0]
        dcl_mls_clique_tree(g, mcs())
        complement_mls_generators(h, mcs())
        monkeypatch.setattr(BucketQueue, "continues", lambda self, x: False)
        with pytest.raises(DebugInvariantError, match="less label test"):
            dcl_mls_clique_tree(g, mcs())
        with pytest.raises(DebugInvariantError, match="equal label test"):
            complement_mls_generators(h, mcs())
        # on a graph denser than its complement the run asks the twin test
        dense = gen(GeneratorConfig(seed=6300, n=12, param=2.0, family="random-co-chordal"))
        complement_mls_generators(dense, mcs())
        monkeypatch.setattr(BucketQueue, "twinned", lambda self, x: False)
        with pytest.raises(DebugInvariantError, match="equal label test"):
            complement_mls_generators(dense, mcs())

    def test_debug_cross_check_catches_a_bad_mns_queue(self, monkeypatch):
        monkeypatch.setenv("CHORDALKIT_DEBUG", "1")
        g = graph("fig3_g")
        mls(g, mns())
        with monkeypatch.context() as m:
            # fig3_g has two incomparable maximal labels at position 4
            m.setattr(InclusionPartition, "extreme", lambda self: self.members[self.top])
            with pytest.raises(DebugInvariantError, match="selection queue"):
                mls(g, mns())
        # after a, b: the labels {5} of c, d and {4} of e are maximal, and
        # after c only d's {5, 3} strictly contains c's {5}
        g = from_edge_list([("a", "b"), ("a", "c"), ("a", "d"), ("b", "e"), ("c", "d")])
        moplex_mls(g, mns())
        unnarrowed = lambda self: set().union(*(self.members[b] for b in self.ext))
        monkeypatch.setattr(InclusionPartition, "extreme", unnarrowed)
        with pytest.raises(DebugInvariantError, match="selection queue"):
            moplex_mls(g, mns())

    def test_inclusion_partition_matches_brute_force(self):
        _check_set_label_queue(lambda n, adj, minimize: InclusionPartition(n, minimize))

    def test_scan_queue_matches_brute_force(self):
        # the ScanQueue that every debug run trusts, on the same protocol,
        # over a custom structure with the mns labels as frozensets
        def scan(n, adj, minimize):
            names = [str(v) for v in range(n)]
            g = from_vertices(names, [(names[u], names[v]) for u in range(n) for v in adj[u] if u < v])
            return ScanQueue(_SetLabels(), g, minimize)

        _check_set_label_queue(scan)

    @pytest.mark.parametrize("queue,initial,inc,key", [
        (BucketQueue, 0, lambda label, i: label + 1, lambda label: label),
        (OrderedPartition, (), lambda label, i: label + (i,), lambda label: label),
        (StackPartition, (), lambda label, i: (i,) + label, lambda label: tuple(-x for x in label)),
    ], ids=["mcs", "lexbfs", "lexdfs"])
    def test_total_order_queues_match_brute_force(self, queue, initial, inc, key):
        # the same protocol on count and tuple labels, totally ordered by
        # key, with the reach search before each bump on a random graph,
        # and the label and twin tests against the last removed label
        # (the twin test only maximizing, as a flipped run asks it). Steps whose
        # removal empties its class, after which an equal label may come
        # back in another block (mcs), are counted to show they are met.
        emptied = returned = 0
        for minimize in (False, True):
            for seed in range(100):
                rng = random.Random(seed)
                n = rng.randint(1, 40)
                adj, nb = _random_adjacency(random.Random(10_000 + seed), n)
                q = queue(n, minimize)
                label, live, prev, alone = [initial] * n, set(range(n)), key(initial), False
                grown = None  # the last removed label, increased at its position
                for i in range(n, 0, -1):
                    keys = {v: key(label[v]) for v in live}
                    best = (min if minimize else max)(keys.values())
                    want = {v for v in live if keys[v] == best}
                    checks = [lambda: set(q.extreme()) == want, lambda: q.lowest() == min(want)]
                    rng.shuffle(checks)
                    assert all(check() for check in checks), (minimize, seed, i)
                    for v in want:
                        assert q.continues(v) == (keys[v] == prev if minimize else keys[v] > prev), (minimize, seed, i, v)
                        if not minimize:
                            assert q.twinned(v) == (label[v] == grown), (seed, i, v)
                    returned += alone and best == prev
                    x = min(want) if rng.random() < 0.5 else rng.choice(sorted(want))
                    alone = len(want) == 1
                    emptied += alone
                    prev, grown = keys[x], inc(label[x], i)
                    live.discard(x)
                    below = lambda y: {w for w in live if keys[w] < keys[y]}
                    reached = [y for y in sorted(live) if _reaches(adj, x, y, below(y))]
                    assert q.reach(x, nb) == reached, (minimize, seed, i)
                    if rng.random() < 0.3:
                        picked = {keys[v] for v in live if rng.random() < 0.5}
                        ys = [v for v in sorted(live) if keys[v] in picked]
                    else:
                        p = rng.choice([0.0, 0.2, 0.5, 0.9])
                        ys = [v for v in sorted(live) if rng.random() < p]
                    for y in ys:
                        label[y] = inc(label[y], i)
                    q.bump(x, ys, i)
                    _assert_dead_blocks_released(q)
        assert emptied and (returned or queue is not BucketQueue), (emptied, returned)


def _check_set_label_queue(make):
    """The engine's protocol on random set labels, for the queue that
    ``make(n, adj, minimize)`` builds: select under a random prefer rule,
    then in the step's one call remove the pick and bump some vertices at
    position i; a step may bump nothing, or whole classes. Before each bump
    the reach search runs on the random graph adj, with the pick still
    queued, and each extreme vertex's label test is checked against the
    last removed label."""
    for minimize in (False, True):
        for seed in range(100):
            rng = random.Random(seed)
            n = rng.randint(1, 40)
            adj, nb = _random_adjacency(random.Random(10_000 + seed), n)
            prefer = rng.choice([False, True])
            q = make(n, adj, minimize)
            q.prefer = prefer
            label, live, prev, grown = [0] * n, set(range(n)), 0, None
            if minimize:
                continues = lambda m: m == prev
            else:
                continues = lambda m: m & prev == prev != m
            for i in range(n, 0, -1):
                masks = {label[v] for v in live}
                if minimize:
                    extreme = {m for m in masks if not any(k & m == k != m for k in masks)}
                else:
                    extreme = {m for m in masks if not any(k & m == m != k for k in masks)}
                keep = {m for m in extreme if continues(m)}
                want = {v for v in live if label[v] in (keep if prefer and keep else extreme)}
                if isinstance(q, ScanQueue):
                    kept = lambda: all(sum(1 << p for p in q.labels[v]) == label[v] for v in live)
                else:
                    kept = lambda: sorted(sum(1 << p for p in q.mask[b]) for b in q.ext) == sorted(extreme)
                checks = [kept, lambda: set(q.extreme()) == want, lambda: q.lowest() == min(want)]
                rng.shuffle(checks)
                assert all(check() for check in checks), (minimize, seed, i)
                for v in want:
                    assert q.continues(v) == continues(label[v]), (minimize, seed, i, v)
                    if not (minimize or isinstance(q, ScanQueue)):
                        assert q.twinned(v) == (label[v] == grown), (seed, i, v)
                x = min(want) if rng.random() < 0.5 else rng.choice(sorted(want))
                live.discard(x)
                prev, grown = label[x], label[x] | 1 << i
                below = lambda y: {w for w in live if label[w] & label[y] == label[w] != label[y]}
                reached = [y for y in sorted(live) if _reaches(adj, x, y, below(y))]
                assert q.reach(x, nb) == reached, (minimize, seed, i)
                if rng.random() < 0.3:
                    picked = {m for m in masks if rng.random() < 0.5}
                    ys = [v for v in sorted(live) if label[v] in picked]
                else:
                    p = rng.choice([0.0, 0.2, 0.5, 0.9])
                    ys = [v for v in sorted(live) if rng.random() < p]
                for y in ys:
                    label[y] |= 1 << i
                q.bump(x, ys, i)
                if not isinstance(q, ScanQueue):
                    _assert_dead_blocks_released(q)
