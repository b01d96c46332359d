"""Acceptance criteria, one test each, every tolerance pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one passline per
criterion. Sweeps use the seeded corpora from conftest (100 graphs each,
n in [4, 9]); figure fixtures are exact, zero tolerance.
"""

import gc
import time
from itertools import combinations

import pytest

from conftest import chordal_corpus, cochordal_corpus, connected_corpus

from chordalkit import serialize
from chordalkit.cliquetree import (
    complement_mls_clique_tree,
    complement_mls_generators,
    dcl_mls_clique_tree,
    extract_generators,
    fast_clique_tree,
    mls_clique_tree,
)
from chordalkit.decomposition import atom_tree_from_clique_tree, dcl_atom_tree, dcl_mlsm_clique_tree
from chordalkit.errors import DisconnectedGraphError
from chordalkit.fixtures import fixture, graph
from chordalkit.graph import Graph, from_edge_list, materialize_complement
from chordalkit.labeling import check_dcl, lexbfs, lexdfs, mcs, mns
from chordalkit.oracle import (
    GeneratorConfig,
    atoms_brute,
    gen,
    is_chordal,
    is_mccomp_peo,
    is_minimal_triangulation,
    is_peo,
    is_pmo,
    minimal_separators,
    validate_clique_tree,
)
from chordalkit.search import (
    ScriptedOrder,
    SeededRandom,
    mls,
    mlsm,
    moplex_mls,
    moplex_mlsm,
    triangulation_from_ordering,
)

ALL = [mcs, lexbfs, lexdfs, mns]
DCL = [mcs, lexbfs, mns]


def scripted(fx):
    return ScriptedOrder(reversed(fx.script))


def test_criterion_1_figure_fixtures_exact():
    start = time.perf_counter()
    for name in ("fig1_h", "fig5_g", "fig6_g"):
        fx = fixture(name)
        g = fx.graph()
        alpha, trace = mls(g, lexdfs(), scripted(fx))
        assert alpha.names(g) == list(fx.script)
        assert serialize.final_labels(g, lexdfs(), trace) == fx.final_labels, name

    fx3 = fixture("fig3_g")
    g3 = fx3.graph()
    t3 = complement_mls_clique_tree(g3, lexdfs(), scripted(fx3))
    assert serialize.final_labels(g3, lexdfs(), t3.trace) == fx3.complement_final_labels
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"figure fixtures took {elapsed:.2f}s"
    print(f"\n[criterion 1] PASS: all scripted figure labels exact in {elapsed:.3f}s")


def test_criterion_2_lexdfs_non_dcl_regression():
    start = time.perf_counter()
    g = graph("fig1_h")
    t = dcl_mls_clique_tree(g, lexdfs(), scripted(fixture("fig1_h")), enforce_dcl=False)
    d, e, f = (g.index(x) for x in "def")
    # at iteration 4 vertex d joined the clique already holding {e,f}
    assert t.ordering.position_of(d) == 4
    assert t.clique_of[d] == t.clique_of[e] == t.clique_of[f] == 1
    assert {d, e, f} <= t.cliques[0]
    violations = validate_clique_tree(g, t)
    assert violations and any("not a clique" in v for v in violations)

    assert check_dcl(lexdfs(), 4) is not None
    for factory in DCL:
        assert check_dcl(factory(), 6) is None
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\n[criterion 2] PASS: label-test failure reproduced and bounded checks agree "
          f"in {elapsed:.3f}s")


def test_criterion_3_clique_tree_sweep():
    start = time.perf_counter()
    corpus = chordal_corpus(100)
    checked = 0
    for g in corpus:
        for factory in ALL:
            t = mls_clique_tree(g, factory())
            assert not validate_clique_tree(g, t), factory().name
            checked += 1
            if factory().name != "lexdfs":
                t2 = dcl_mls_clique_tree(g, factory())
                assert t2.cliques == t.cliques
                assert t2.tree_edges == t.tree_edges
                assert t2.separators == t.separators
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    print(f"\n[criterion 3] PASS: {checked}/{len(corpus) * len(ALL)} clique trees validated "
          f"in {elapsed:.1f}s")


def test_criterion_4_pmo_sweep():
    corpus = chordal_corpus(100)
    checked = 0
    for g in corpus:
        for factory in ALL:
            alpha, _ = moplex_mls(g, factory())
            assert is_mccomp_peo(g, alpha), factory().name
            checked += 1
    print(f"\n[criterion 4] PASS: {checked} orderings pass the clique-completing check")


def test_criterion_5_complement_sweep():
    corpus = cochordal_corpus(100)
    for g in corpus:
        comp = materialize_complement(g)
        for factory in ALL:
            t = complement_mls_clique_tree(g, factory())
            assert not validate_clique_tree(comp, t), factory().name
            r = complement_mls_generators(g, factory())
            assert extract_generators(t) == r, factory().name
            assert len(r.gen_cliques) == len(r.gen_separators) + 1
    print(f"\n[criterion 5] PASS: {len(corpus)} complements validated across "
          f"{len(ALL)} structures")


def test_criterion_6_minimal_triangulation_sweep():
    corpus = connected_corpus(100)
    for g in corpus:
        for factory in ALL:
            tri, _ = moplex_mlsm(g, factory())
            assert is_chordal(tri.graph), factory().name
            assert is_minimal_triangulation(g, tri.graph), factory().name
            assert is_pmo(tri.graph, tri.ordering), factory().name
        for factory in DCL:
            res = dcl_mlsm_clique_tree(g, factory())
            assert is_chordal(res.triangulation.graph)
            assert is_minimal_triangulation(g, res.triangulation.graph), factory().name
            assert is_pmo(res.triangulation.graph, res.ordering), factory().name

    # the scripted breadth-first run on fig4_g fills {2,4},{3,4} and that
    # triangulation is not minimal
    fx = fixture("fig4_g")
    g4 = fx.graph()
    alpha, _ = mls(g4, lexbfs(), scripted(fx))
    tri = triangulation_from_ordering(g4, alpha)
    fills = {frozenset((g4.names[u], g4.names[v])) for u, v in tri.fill_edges}
    assert fills == {frozenset({"2", "4"}), frozenset({"3", "4"})}
    assert not is_minimal_triangulation(g4, tri.graph)
    print(f"\n[criterion 6] PASS: {len(corpus)} graphs triangulated minimally; "
          f"the non-minimal fixture fails the oracle as required")


def test_criterion_7_atom_tree_equivalence():
    start = time.perf_counter()
    corpus = connected_corpus(100)
    for g in corpus:
        want = atoms_brute(g)
        want_seps = {s for s in minimal_separators(g) if _clique(g, s)}
        for factory in DCL:
            direct = dcl_atom_tree(g, factory())
            assert set(direct.atoms) == want, factory().name
            got_ints = {direct.edge_separator(p, q) for p, q in direct.tree_edges}
            assert got_ints == want_seps, factory().name
            res = dcl_mlsm_clique_tree(g, factory())
            merged = atom_tree_from_clique_tree(g, res.triangulation.graph, res.clique_tree)
            assert set(merged.atoms) == want
            assert merged.clique_separators == direct.clique_separators
            for seed in (1, 2, 3):
                seeded = dcl_atom_tree(g, factory(), SeededRandom(seed))
                assert set(seeded.atoms) == want, (factory().name, seed)

    fx4 = graph("fig4_g")
    at = dcl_atom_tree(fx4, mcs())
    assert {frozenset(fx4.names[v] for v in A) for A in at.atoms} == {
        frozenset({"1", "2", "4", "5"}),
        frozenset({"2", "3", "5"}),
    }
    assert {frozenset(fx4.names[v] for v in S) for S in at.clique_separators} == {
        frozenset({"2", "5"})
    }
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"atom sweep took {elapsed:.1f}s"
    print(f"\n[criterion 7] PASS: atoms agree with the brute decomposition across structures "
          f"and seeds in {elapsed:.1f}s")


def _clique(g, vertices):
    from chordalkit.decomposition import is_clique_in

    return is_clique_in(g, vertices)


def test_criterion_8_debug_hooks_clean(monkeypatch):
    monkeypatch.setenv("CHORDALKIT_DEBUG", "1")
    for g in chordal_corpus(100):
        for factory in ALL:
            t = mls_clique_tree(g, factory())
            assert not validate_clique_tree(g, t)
    for g in cochordal_corpus(40):
        complement_mls_clique_tree(g, mns())
        complement_mls_clique_tree(g, mcs())
    for g in connected_corpus(40):
        dcl_mlsm_clique_tree(g, mcs())
        dcl_atom_tree(g, mns())
        for factory in (mcs, mns):
            mlsm(g, factory())
            moplex_mlsm(g, factory())
    print("\n[criterion 8] PASS: zero invariant violations with debug hooks armed")


def test_criterion_9_smoke_benchmark():
    gen_start = time.perf_counter()
    g = gen(GeneratorConfig(seed=42, n=100_000, param=16.0, family="random-chordal"))
    gen_elapsed = time.perf_counter() - gen_start
    assert g.n == 100_000
    assert 800_000 <= g.m <= 1_200_000, g.m

    timings = {}
    results = {}
    for token in ("mcs", "lexbfs"):
        start = time.perf_counter()
        results[token] = fast_clique_tree(g, token)
        timings[token] = time.perf_counter() - start
        assert timings[token] < 10.0, f"{token} took {timings[token]:.1f}s"
    assert results["mcs"].size == len(results["mcs"].tree_edges) + 1
    assert results["lexbfs"].size == len(results["lexbfs"].tree_edges) + 1
    print(f"\n[criterion 9] PASS: n={g.n}, m={g.m} (generated in {gen_elapsed:.1f}s); "
          f"clique tree in {timings['mcs']:.1f}s (count labels) / "
          f"{timings['lexbfs']:.1f}s (list labels), both under 10s")


def test_triangulating_search_scale():
    # the total queues answer each step's reach question with one walk up
    # their label classes over vertex bitsets; a DFS per target grew about
    # 8x per doubling of n. Each structure gets its own 10 s bar.
    g = gen(GeneratorConfig(seed=2, n=1000, param=6 / 1000, family="random-connected"))
    assert g.n == 1000 and 2_500 <= g.m <= 3_500, g.m
    for factory in (mcs, lexbfs, lexdfs):
        start = time.perf_counter()
        tri, _ = moplex_mlsm(g, factory())
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"moplex_mlsm {factory.__name__} took {elapsed:.1f}s"
        assert len(tri.ordering) == g.n
        print(f"\n[scale] PASS: moplex_mlsm ({factory.__name__}) on n={g.n}, m={g.m} in "
              f"{elapsed:.1f}s with {len(tri.fill_edges)} fill edges, under 10s")


def test_mns_triangulating_search_scale():
    # mns decides a step's targets with one bitset search per label block of
    # its queue; a DFS per target took about 14 s here. The oracle is far too
    # slow for this much fill, so the fill is checked against the
    # elimination game on the returned ordering, which a minimal elimination
    # ordering reproduces exactly.
    g = gen(GeneratorConfig(seed=2, n=500, param=6 / 500, family="random-connected"))
    assert g.n == 500 and 1_200 <= g.m <= 1_800, g.m
    start = time.perf_counter()
    tri, _ = mlsm(g, mns())
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"mlsm mns took {elapsed:.1f}s"
    game = triangulation_from_ordering(g, tri.ordering)
    assert set(tri.fill_edges) == set(game.fill_edges)
    print(f"\n[scale] PASS: mlsm (mns) on n={g.n}, m={g.m} in {elapsed:.1f}s "
          f"with {len(tri.fill_edges)} fill edges, under 10s")


def test_fast_path_star_scale():
    # lowest-index ties come from a lazy heap per bucket or a sorted list per
    # block; a min() over the whole bucket or block made stars quadratic. On
    # the path a class of one vertex empties and refills at every step, and
    # on the complete graph every step bumps every unnumbered vertex.
    star = from_edge_list([("c", f"v{i}") for i in range(100_000 - 1)])
    path = from_edge_list([(f"v{i}", f"v{i + 1}") for i in range(200_000 - 1)])
    complete = from_edge_list([(f"v{a}", f"v{b}") for a, b in combinations(range(700), 2)])
    for name, g, size in (("star", star, star.n - 1), ("path", path, path.n - 1), ("complete graph", complete, 1)):
        for token in ("mcs", "lexbfs"):
            start = time.perf_counter()
            tree = fast_clique_tree(g, token)
            elapsed = time.perf_counter() - start
            assert elapsed < 10.0, f"{token} on the {name} took {elapsed:.1f}s"
            assert tree.size == size
            print(f"\n[scale] PASS: fast_clique_tree {token} on a {name} with n={g.n} "
                  f"in {elapsed:.1f}s, under 10s")


def test_generic_label_test_builder_scale():
    # the generic engine selects through the structure's queue for mcs, not
    # by scanning every unnumbered label at every step
    g = gen(GeneratorConfig(seed=42, n=20_000, param=8.0, family="random-chordal"))
    start = time.perf_counter()
    tree = dcl_mls_clique_tree(g, mcs())
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"dcl_mls_clique_tree took {elapsed:.1f}s"
    assert tree.size == len(tree.tree_edges) + 1
    print(f"\n[scale] PASS: dcl_mls_clique_tree (count labels) on n={g.n}, m={g.m} "
          f"in {elapsed:.1f}s, under 10s")


def test_lexdfs_search_scale():
    # lexdfs selects through its stack partition; the label scan it replaced
    # took more than 9 s at n = 4000
    g = gen(GeneratorConfig(seed=42, n=20_000, param=8.0, family="random-chordal"))
    start = time.perf_counter()
    tree = mls_clique_tree(g, lexdfs())
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"mls_clique_tree lexdfs took {elapsed:.1f}s"
    assert tree.size == len(tree.tree_edges) + 1
    print(f"\n[scale] PASS: mls_clique_tree (lexdfs) on n={g.n}, m={g.m} "
          f"in {elapsed:.1f}s, under 10s")


def test_mns_search_scale():
    # mns selects through its inclusion partition, which keeps its maximal
    # label classes between steps; the label scan it replaced took over 20 s here
    g = gen(GeneratorConfig(seed=42, n=2000, param=8.0, family="random-chordal"))
    start = time.perf_counter()
    tree = mls_clique_tree(g, mns())
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"mls_clique_tree mns took {elapsed:.1f}s"
    assert tree.size == len(tree.tree_edges) + 1
    print(f"\n[scale] PASS: mls_clique_tree (mns) on n={g.n}, m={g.m} "
          f"in {elapsed:.1f}s, under 10s")


def test_mns_moplex_search_scale():
    # the moplex rule narrows the kept maximal classes to the step's twins;
    # a per-step walk over the label classes took 5.7 s at n = 4,000
    g = gen(GeneratorConfig(seed=42, n=8000, param=8.0, family="random-chordal"))
    start = time.perf_counter()
    alpha, _ = moplex_mls(g, mns())
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"moplex_mls mns took {elapsed:.1f}s"
    assert is_peo(g, alpha)
    print(f"\n[scale] PASS: moplex_mls (mns) on n={g.n}, m={g.m} "
          f"in {elapsed:.1f}s, under 10s")


def test_complement_generators_scale():
    # the queues answer the equal-label test from their blocks and the engine
    # keeps no labels, so list and set labels cost no more than counts; with
    # a tuple or frozenset copied per increase they took 3-9x as long as mcs
    g = gen(GeneratorConfig(seed=1, n=1000, param=4.0, family="random-co-chordal"))
    timings = {}
    for factory in ALL:
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            result = complement_mls_generators(g, factory())
            best = min(best, time.perf_counter() - start)
        assert len(result.ordering) == g.n
        timings[factory.__name__] = best
    for name in ("lexbfs", "lexdfs", "mns"):
        assert timings[name] < 10.0, f"{name} took {timings[name]:.1f}s"
        assert timings[name] <= 3 * timings["mcs"], (
            f"{name} took {timings[name]:.2f}s, over 3x mcs's {timings['mcs']:.2f}s")
    print(f"\n[scale] PASS: complement_mls_generators on n={g.n}, m={g.m}: "
          + ", ".join(f"{k} {v:.2f}s" for k, v in timings.items()))


def test_complement_tree_scale():
    # the tree is read off the generators run in O(n + m + sum |K| + sum |S|);
    # listing each step's complement neighborhood took O(n^2), 0.2-0.3 s
    # already at n = 3000 on this sparse co-chordal near-star
    n = 50_000
    g = from_edge_list([("c", f"v{i}") for i in range(1, n - 1)] + [("w", "v1")])

    def best(call):
        times = []
        for _ in range(2):
            start = time.perf_counter()
            out = call()
            times.append(time.perf_counter() - start)
        return min(times), out

    for factory in ALL:
        tree, result = best(lambda: complement_mls_clique_tree(g, factory()))
        gens, _ = best(lambda: complement_mls_generators(g, factory()))
        name = factory.__name__
        assert tree < 10.0, f"{name} took {tree:.1f}s"
        assert tree <= 3 * gens, f"{name} took {tree:.2f}s, over 3x the generators' {gens:.2f}s"
        assert result.size == 3
        print(f"\n[scale] PASS: complement_mls_clique_tree {name} on the near-star with n={n} "
              f"in {tree:.2f}s, generators {gens:.2f}s")


def _cpu_time(call):
    """The CPU seconds of one call with the collector off, and its result.
    The collector's full passes walk the whole test session's heap, which
    does not grow with the input."""
    gc.collect()
    gc.disable()
    try:
        start = time.process_time()
        out = call()
        return time.process_time() - start, out
    finally:
        gc.enable()


def test_complement_split_scale():
    # a sparse co-chordal family that the edge-list format can express; the
    # complement products bump along g's edges only, so each doubling of n
    # (and of m) should cost about 2x: 3.8-4.7x over two doublings here.
    # The two sizes alternate within each round, so a slow stretch of a
    # shared machine slows both; the best of 3 rounds is kept, and up to 9
    # rounds are run while it reads over the bound, which a path that grows
    # faster than the bound never meets
    graphs = {n: gen(GeneratorConfig(seed=1, n=n, param=8.0, family="random-split")) for n in (4000, 16_000)}
    for factory in ALL:
        for product in (complement_mls_generators, complement_mls_clique_tree):
            best = dict.fromkeys(graphs, float("inf"))
            for rounds in range(1, 10):
                for n, g in graphs.items():
                    elapsed, result = _cpu_time(lambda: product(g, factory()))
                    assert len(result.ordering) == n
                    best[n] = min(best[n], elapsed)
                if rounds >= 3 and best[16_000] <= 2.4 ** 2 * best[4000]:
                    break
            name = f"{product.__name__} {factory.__name__}"
            small, large = best[4000], best[16_000]
            assert large < 10.0, f"{name} took {large:.1f}s"
            assert large <= 2.4 ** 2 * small, f"{name} took {large:.3f}s at n=16000, {small:.3f}s at n=4000"
            print(f"\n[scale] PASS: {name} on random-split n=4000 / 16000 in {small:.3f} / {large:.3f}s")


def test_disconnected_rejection_scale():
    # a plain search rejects a disconnected input at the step that strands a
    # vertex, after searching the first vertex's whole component
    a, b = (gen(GeneratorConfig(seed=s, n=20_000, param=8.0, family="random-chordal")) for s in (42, 43))
    g = Graph([f"a{x}" for x in a.names] + [f"b{x}" for x in b.names],
              list(a.edges()) + [(u + a.n, v + a.n) for u, v in b.edges()])
    for token in ("mcs", "lexbfs"):
        start = time.perf_counter()
        with pytest.raises(DisconnectedGraphError):
            fast_clique_tree(g, token)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"fast_clique_tree {token} took {elapsed:.1f}s to reject"
        print(f"\n[scale] PASS: fast_clique_tree {token} rejects two disjoint chordal graphs "
              f"of n={a.n} in {elapsed:.2f}s, under 10s")
