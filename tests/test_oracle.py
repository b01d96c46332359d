import pytest

from conftest import chordal_corpus, name_sets

from chordalkit.decomposition import is_clique_in
from chordalkit.errors import OracleCapError
from chordalkit.fixtures import fixture, fixtures, graph
from chordalkit.graph import (
    Graph,
    from_edge_list,
    from_vertices,
    higher_neighborhood,
    is_connected,
    materialize_complement,
    ordering_from_names,
)
from chordalkit.labeling import mcs
from chordalkit.oracle import (
    GeneratorConfig,
    _grow_chordal,
    atoms_brute,
    gen,
    is_chordal,
    is_mccomp_peo,
    is_minimal_triangulation,
    is_peo,
    is_pmo,
    maximal_cliques,
    minimal_separators,
    validate_clique_tree,
)
from chordalkit.rng import SplitMix64
from chordalkit.search import ScriptedOrder, mls


def c4():
    return from_edge_list([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])


def complete(n):
    names = [f"v{i}" for i in range(n)]
    return from_vertices(names, [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]])


class TestIsChordal:
    def test_fig1(self):
        assert is_chordal(graph("fig1_h"))

    def test_four_cycle(self):
        assert not is_chordal(c4())

    def test_fig4(self):
        assert not is_chordal(graph("fig4_g"))

    def test_fig5_fig6(self):
        assert not is_chordal(graph("fig5_g"))
        assert not is_chordal(graph("fig6_g"))


class TestIsPeo:
    def test_fig1_alpha(self):
        g = graph("fig1_h")
        assert is_peo(g, ordering_from_names(g, list("abcdef")))

    def test_fig1_reversed_is_not(self):
        # f's neighbors a and e are non-adjacent, so f is not simplicial
        g = graph("fig1_h")
        assert not is_peo(g, ordering_from_names(g, list("fedcba")))

    def test_non_chordal_has_none(self):
        g = c4()
        from itertools import permutations

        for perm in permutations(range(4)):
            from chordalkit.graph import Ordering

            assert not is_peo(g, Ordering(list(perm)))


class TestIsMccompPeo:
    def test_fig1_alpha(self):
        g = graph("fig1_h")
        assert is_mccomp_peo(g, ordering_from_names(g, list("abcdef")))

    def test_fig1_beta_fails(self):
        g = graph("fig1_h")
        assert not is_mccomp_peo(g, ordering_from_names(g, list("acdbef")))

    def test_complete_graph_any_ordering(self):
        g = complete(4)
        from itertools import permutations

        from chordalkit.graph import Ordering

        for perm in permutations(range(4)):
            assert is_mccomp_peo(g, Ordering(list(perm)))

    def test_alias(self):
        assert is_pmo is is_mccomp_peo


class TestMaximalCliques:
    def test_fig1(self):
        g = graph("fig1_h")
        assert name_sets(g, maximal_cliques(g)) == {
            frozenset({"a", "b", "f"}),
            frozenset({"c", "d", "e"}),
            frozenset({"e", "f"}),
        }

    def test_complete(self):
        g = complete(4)
        assert maximal_cliques(g) == {frozenset(range(4))}

    def test_five_cycle_edges(self):
        g = from_edge_list([("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "1")])
        cliques = maximal_cliques(g)
        assert len(cliques) == 5 and all(len(c) == 2 for c in cliques)

    def test_cap(self):
        with pytest.raises(OracleCapError):
            maximal_cliques(complete(21))


class TestMinimalSeparators:
    def test_fig1(self):
        g = graph("fig1_h")
        assert name_sets(g, minimal_separators(g)) == {frozenset({"e"}), frozenset({"f"})}

    def test_complete_has_none(self):
        assert minimal_separators(complete(5)) == set()

    def test_fig5_separators_inside_closed_neighborhood(self):
        g = graph("fig5_g")
        closed = set(g.neighbors(g.index("1"))) | {g.index("1")}
        inside = name_sets(g, {s for s in minimal_separators(g) if s <= closed})
        assert {frozenset({"2", "6"}), frozenset({"4", "6"})} <= inside


class TestIsMinimalTriangulation:
    def test_fig4_double_fill_is_not_minimal(self):
        g = graph("fig4_g")
        from chordalkit.graph import add_edges

        h = add_edges(g, [(g.index("2"), g.index("4")), (g.index("3"), g.index("4"))])
        assert is_chordal(h)
        assert not is_minimal_triangulation(g, h)

    def test_chordal_self(self):
        g = graph("fig1_h")
        assert is_minimal_triangulation(g, g)

    def test_four_cycle_one_chord(self):
        g = c4()
        from chordalkit.graph import add_edges

        h = add_edges(g, [(g.index("a"), g.index("c"))])
        assert is_minimal_triangulation(g, h)

    def test_missing_base_edge(self):
        g = graph("fig1_h")
        smaller = from_edge_list(list(g.name_edges())[:-1])
        padded = from_vertices(g.names, smaller.name_edges())
        assert not is_minimal_triangulation(g, padded)


class TestAtomsBrute:
    def test_fig4(self):
        g = graph("fig4_g")
        assert name_sets(g, atoms_brute(g)) == {
            frozenset({"1", "2", "4", "5"}),
            frozenset({"2", "3", "5"}),
        }

    def test_chordal_atoms_are_cliques(self):
        for g in chordal_corpus(12):
            assert atoms_brute(g) == maximal_cliques(g)

    def test_five_cycle(self):
        g = from_edge_list([("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "1")])
        assert atoms_brute(g) == {frozenset(range(5))}


class TestCrossConsistency:
    def test_chordal_separators_are_cliques(self):
        for g in chordal_corpus(16):
            for s in minimal_separators(g):
                assert is_clique_in(g, s)

    def test_every_separator_has_a_generator(self):
        for g in chordal_corpus(16):
            alpha, _ = mls(g, mcs())
            assert is_peo(g, alpha)
            hoods = {
                higher_neighborhood(g, alpha, v, alpha.position_of(v)) for v in range(g.n)
            }
            assert minimal_separators(g) <= hoods


class TestValidators:
    def test_detects_corruption(self):
        from chordalkit.cliquetree import mls_clique_tree

        g = graph("fig1_h")
        t = mls_clique_tree(g, mcs())
        assert not validate_clique_tree(g, t)

        from types import SimpleNamespace

        broken = SimpleNamespace(
            cliques=t.cliques[:-1] + (frozenset({0, 1, 2, 3}),),
            tree_edges=t.tree_edges,
            separators=t.separators,
        )
        assert validate_clique_tree(g, broken)

        cyclic = SimpleNamespace(
            cliques=t.cliques,
            tree_edges=((1, 2), (2, 3), (3, 1)),
            separators=t.separators,
        )
        assert any("cycle" in v for v in validate_clique_tree(g, cyclic))

    def test_single_node_tree_for_triangle(self):
        from types import SimpleNamespace

        g = from_edge_list([("a", "b"), ("b", "c"), ("a", "c")])
        t = SimpleNamespace(cliques=(frozenset(range(3)),), tree_edges=(), separators=frozenset())
        assert not validate_clique_tree(g, t)


class TestRegressionsNonChordal:
    def test_fig5_incomparable_separators_and_scattered_component(self):
        fx = fixture("fig5_g")
        g = fx.graph()
        alpha, _ = mls(g, __import__("chordalkit").lexdfs(), ScriptedOrder(reversed(fx.script)))
        assert alpha.names(g) == list(fx.script)
        one = g.index("1")
        closed = set(g.neighbors(one)) | {one}
        inside = [{g.names[v] for v in s} for s in minimal_separators(g) if s <= closed]
        # the pair witnessing that these are not totally ordered by inclusion
        assert {"2", "6"} in inside and {"4", "6"} in inside
        assert not ({"2", "6"} <= {"4", "6"} or {"4", "6"} <= {"2", "6"})
        # the component numbered last is {7}; its closed neighborhood occupies
        # positions 2, 6, 7: not consecutive
        rest = set(range(g.n)) - closed
        comps = []
        seen = set()
        for v in sorted(rest):
            if v in seen:
                continue
            comp = {v}
            stack = [v]
            while stack:
                u = stack.pop()
                for w in g.neighbors(u):
                    if w in rest and w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            comps.append(comp)
        last = max(comps, key=lambda c: max(alpha.position_of(v) for v in c))
        assert {g.names[v] for v in last} == {"7"}
        hood = set().union(*(g.neighbors(v) for v in last)) | last
        positions = sorted(alpha.position_of(v) for v in hood)
        assert positions == [2, 6, 7]
        assert positions[-1] - positions[0] + 1 != len(positions)

    def test_fig6_components_interleaved(self):
        fx = fixture("fig6_g")
        g = fx.graph()
        alpha, _ = mls(g, __import__("chordalkit").lexdfs(), ScriptedOrder(reversed(fx.script)))
        assert alpha.names(g) == list(fx.script)
        one = g.index("1")
        closed = set(g.neighbors(one)) | {one}
        rest = sorted(set(range(g.n)) - closed, key=alpha.position_of)
        # components of the rest: {2,3,6} and {4}; the positional sequence
        # alternates back into the first component after leaving it
        comp_of = {}
        for v in rest:
            for w in g.neighbors(v):
                if w in comp_of and w not in closed:
                    comp_of[v] = comp_of[w]
                    break
            else:
                comp_of[v] = len(comp_of)
        labels_in_order = []
        for v in rest:
            root = comp_of[v]
            labels_in_order.append(root)
        # collapse runs; a component id reappearing after a gap means the
        # restriction is not compatible with any component sequence
        runs = [labels_in_order[0]]
        for c in labels_in_order[1:]:
            if c != runs[-1]:
                runs.append(c)
        assert len(runs) > len(set(runs))


class TestGenerators:
    def test_determinism(self):
        cfg = GeneratorConfig(seed=99, n=8, param=1.5, family="random-chordal")
        assert gen(cfg).name_edges() == gen(cfg).name_edges()

    def test_chordal_by_construction(self):
        for s in range(12):
            g = gen(GeneratorConfig(seed=s, n=4 + s % 6, param=1.5, family="random-chordal"))
            assert is_chordal(g) and is_connected(g)

    def test_co_chordal_complement_connected_chordal(self):
        for s in range(12):
            g = gen(GeneratorConfig(seed=s, n=4 + s % 6, param=1.5, family="random-co-chordal"))
            comp = materialize_complement(g)
            assert is_chordal(comp) and is_connected(comp)

    def test_split_is_chordal_and_co_chordal(self):
        # a clique v0..v(k-1) and an independent set: the complement swaps them
        for s in range(26):
            n = 4 + s % 13
            k = 2 + s % (n - 3)
            g = gen(GeneratorConfig(seed=s, n=n, param=float(k), family="random-split"))
            comp = materialize_complement(g)
            assert g.n == n and all(g.adj[v].isdisjoint(range(k, n)) for v in range(k, n))
            assert is_chordal(g) and is_connected(g)
            assert is_chordal(comp) and is_connected(comp)
        with pytest.raises(ValueError):
            gen(GeneratorConfig(seed=1, n=5, param=4.0, family="random-split"))

    def test_connected_family(self):
        for s in range(12):
            g = gen(GeneratorConfig(seed=s, n=5, param=0.5, family="random-connected"))
            assert is_connected(g)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            gen(GeneratorConfig(seed=1, n=5, param=0.5, family="mystery"))

    @pytest.mark.parametrize("param", [1, 3, 4, 8])
    def test_grow_chordal_matches_intersection_reference(self, param):
        stops = []
        for seed in range(1, 7):
            for n in (2, 9, 40, 150):
                rng, ref_rng = SplitMix64(seed), SplitMix64(seed)
                g = _grow_chordal(rng, n, param)
                want = _reference_grow_chordal(ref_rng, n, param, stops)
                assert g == want
                assert [list(s) for s in g.adj] == [list(s) for s in want.adj]
                # both drew the same number of values
                assert rng.below(1 << 30) == ref_rng.below(1 << 30)
        if param > 1:
            # some attachment ran out of candidates before its clique size
            assert stops


def _reference_grow_chordal(rng, n, param, stops):
    """The chordal growth with the candidates re-intersected over the whole
    clique at every extension; each early stop (no candidate left before
    the clique reaches size k) is appended to stops."""
    names = [f"v{i}" for i in range(n)]
    adj = [set() for _ in range(n)]
    hi = max(1, int(2 * param) - 1)
    for v in range(1, n):
        k = 1 + rng.below(min(v, hi))
        u = rng.below(v)
        clique = [u]
        while len(clique) < k:
            common = adj[clique[0]].intersection(*(adj[c] for c in clique[1:]))
            common = sorted(w for w in common if w < v and w not in clique)
            if not common:
                stops.append(v)
                break
            clique.append(common[rng.below(len(common))])
        for c in clique:
            adj[v].add(c)
            adj[c].add(v)
    return Graph(names, [(u, v) for u in range(n) for v in adj[u] if u < v])


class TestFixtureCatalog:
    def test_all_names_present(self):
        names = set(fixtures())
        assert names == {"fig1_h", "fig3_g", "fig4_g", "fig5_g", "fig6_g"}

    def test_counts(self):
        assert graph("fig1_h").n == 6 and graph("fig1_h").m == 7
        assert graph("fig3_g").n == 6 and graph("fig3_g").m == 8
        assert graph("fig4_g").n == 5 and graph("fig4_g").m == 6
        assert graph("fig5_g").n == 7 and graph("fig5_g").m == 10
        assert graph("fig6_g").n == 6 and graph("fig6_g").m == 6
