import pytest

from conftest import chordal_corpus, connected_corpus, name_sets, names_of

from chordalkit.cliquetree import dcl_mls_clique_tree
from chordalkit.decomposition import (
    atom_tree_from_clique_tree,
    dcl_atom_tree,
    dcl_mlsm_clique_tree,
    is_clique_in,
)
from chordalkit.errors import InputMismatchError, NonDclStructureError
from chordalkit.fixtures import graph
from chordalkit.graph import from_edge_list, from_vertices
from chordalkit.labeling import lexbfs, lexdfs, mcs, mns
from chordalkit.oracle import (
    GeneratorConfig,
    atoms_brute,
    gen,
    is_minimal_triangulation,
    is_pmo,
    maximal_cliques,
    minimal_separators,
    validate_atom_tree,
    validate_clique_tree,
)
from chordalkit.search import SeededRandom

DCL = [mcs, lexbfs, mns]


def c4():
    return from_edge_list([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])


def c5():
    return from_edge_list([("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "1")])


class TestIsCliqueIn:
    def test_fig4_chord_pair(self):
        g = graph("fig4_g")
        assert is_clique_in(g, [g.index("2"), g.index("5")])

    def test_fig4_non_edge(self):
        g = graph("fig4_g")
        assert not is_clique_in(g, [g.index("2"), g.index("4")])

    def test_trivial_sets(self):
        g = graph("fig4_g")
        assert is_clique_in(g, [])
        assert is_clique_in(g, [0])


class TestMlsmCliqueTree:
    def test_chordal_fixed_point(self):
        for g in chordal_corpus(12):
            for f in DCL:
                res = dcl_mlsm_clique_tree(g, f())
                assert res.triangulation.fill_edges == ()
                plain = dcl_mls_clique_tree(g, f())
                assert res.clique_tree.cliques == plain.cliques
                assert res.clique_tree.tree_edges == plain.tree_edges

    def test_four_cycle(self):
        g = c4()
        res = dcl_mlsm_clique_tree(g, mcs())
        assert len(res.triangulation.fill_edges) == 1
        t = res.clique_tree
        assert t.size == 2
        assert all(len(K) == 3 for K in t.cliques)
        chord = frozenset(res.triangulation.fill_edges[0])
        assert t.cliques[0] & t.cliques[1] == chord
        assert name_sets(g, t.separators) == {frozenset(names_of(g, chord))}

    def test_sweep(self):
        for g in connected_corpus(16):
            for f in DCL:
                res = dcl_mlsm_clique_tree(g, f())
                h = res.triangulation.graph
                assert is_minimal_triangulation(g, h), f().name
                assert not validate_clique_tree(h, res.clique_tree), f().name
                assert is_pmo(h, res.ordering), f().name

    def test_lexdfs_rejected(self):
        with pytest.raises(NonDclStructureError):
            dcl_mlsm_clique_tree(c4(), lexdfs())

    def test_separators_read_the_clique_tree(self):
        res = dcl_mlsm_clique_tree(graph("fig4_g"), mcs())
        assert res.separators is res.clique_tree.separators
        assert len(res.separators) == 2


class TestMergeConstruction:
    def test_chordal_identity_merge(self):
        for g in chordal_corpus(8):
            res = dcl_mlsm_clique_tree(g, mcs())
            at = atom_tree_from_clique_tree(g, res.triangulation.graph, res.clique_tree)
            assert set(at.atoms) == set(res.clique_tree.cliques)
            assert at.clique_separators == res.clique_tree.separators

    def test_fig4(self):
        g = graph("fig4_g")
        res = dcl_mlsm_clique_tree(g, mcs())
        at = atom_tree_from_clique_tree(g, res.triangulation.graph, res.clique_tree)
        assert name_sets(g, at.atoms) == {
            frozenset({"1", "2", "4", "5"}),
            frozenset({"2", "3", "5"}),
        }
        assert name_sets(g, at.clique_separators) == {frozenset({"2", "5"})}
        assert not validate_atom_tree(g, at)

    def test_five_cycle_single_atom(self):
        g = c5()
        res = dcl_mlsm_clique_tree(g, mcs())
        at = atom_tree_from_clique_tree(g, res.triangulation.graph, res.clique_tree)
        assert at.size == 1 and at.atoms[0] == frozenset(range(5))
        assert not at.clique_separators and not at.tree_edges

    def test_cover_mismatch_rejected(self):
        g = graph("fig4_g")
        res = dcl_mlsm_clique_tree(g, mcs())
        bigger = from_edge_list(list(g.name_edges()) + [("5", "9")])
        with pytest.raises(InputMismatchError):
            atom_tree_from_clique_tree(bigger, bigger, res.clique_tree)

    def test_triangulation_missing_a_base_edge_rejected(self):
        g = graph("fig4_g")
        res = dcl_mlsm_clique_tree(g, mcs())
        short = from_vertices(g.names, g.name_edges()[1:])
        with pytest.raises(InputMismatchError):
            atom_tree_from_clique_tree(g, short, res.clique_tree)


class TestDirectAtomTree:
    def test_fig4(self):
        g = graph("fig4_g")
        at = dcl_atom_tree(g, mcs())
        assert name_sets(g, at.atoms) == {
            frozenset({"1", "2", "4", "5"}),
            frozenset({"2", "3", "5"}),
        }
        assert name_sets(g, at.clique_separators) == {frozenset({"2", "5"})}
        assert not validate_atom_tree(g, at)

    def test_four_cycle_fill_never_counts(self):
        # the chord of the triangulation is not an edge of the cycle, so the
        # label boundary does not become an atom boundary
        g = c4()
        at = dcl_atom_tree(g, mcs())
        assert at.size == 1 and at.atoms[0] == frozenset(range(4))
        assert not at.clique_separators
        assert len(at.triangulation.fill_edges) == 1

    def test_chordal_collapses_to_clique_tree(self):
        for g in chordal_corpus(10):
            at = dcl_atom_tree(g, mcs())
            assert set(at.atoms) == maximal_cliques(g)
            assert at.clique_separators == frozenset(minimal_separators(g))

    def test_history_tracks_current_atom(self):
        # the current atom after each step, from position n down; the seeded
        # graph has six atoms, and its current atom moves back to an earlier one
        seeded = gen(GeneratorConfig(seed=15, n=12, param=0.25, family="random-connected"))
        for g, history in [(graph("fig4_g"), (1, 1, 1, 1, 2)),
                           (seeded, (1, 1, 2, 2, 3, 4, 4, 4, 4, 3, 5, 6))]:
            assert dcl_atom_tree(g, mcs()).current_atom_history == history

    def test_atom_of_is_consistent(self):
        g = graph("fig4_g")
        at = dcl_atom_tree(g, mcs())
        for v, j in at.atom_of.items():
            assert v in at.atoms[j - 1]

    def test_lexdfs_rejected(self):
        with pytest.raises(NonDclStructureError):
            dcl_atom_tree(c4(), lexdfs())


class TestAgreement:
    def test_merge_equals_direct_equals_brute(self):
        for g in connected_corpus(16):
            want = atoms_brute(g)
            for f in DCL:
                direct = dcl_atom_tree(g, f())
                res = dcl_mlsm_clique_tree(g, f())
                merged = atom_tree_from_clique_tree(g, res.triangulation.graph, res.clique_tree)
                assert set(direct.atoms) == want, f().name
                assert set(merged.atoms) == want, f().name
                assert direct.clique_separators == merged.clique_separators
                edge_ints = {direct.edge_separator(p, q) for p, q in direct.tree_edges}
                merged_ints = {merged.edge_separator(p, q) for p, q in merged.tree_edges}
                assert edge_ints == merged_ints

    def test_atom_set_invariant_across_structures_and_seeds(self):
        for g in connected_corpus(8):
            want = atoms_brute(g)
            for f in DCL:
                for seed in (1, 2, 3):
                    at = dcl_atom_tree(g, f(), SeededRandom(seed))
                    assert set(at.atoms) == want, (f().name, seed)
                    assert not validate_atom_tree(g, at), (f().name, seed)

    def test_atoms_have_no_clique_separator(self):
        from chordalkit.graph import induced_subgraph

        for g in connected_corpus(8):
            for A in dcl_atom_tree(g, mcs()).atoms:
                sub = induced_subgraph(g, A)
                clique_seps = [
                    s for s in minimal_separators(sub) if is_clique_in(sub, s)
                ]
                assert not clique_seps
