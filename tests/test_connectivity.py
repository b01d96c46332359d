"""Connectivity is the engine's precondition to check: the precedence of its
error against every other check, and the runs that never pay for it.

A maximizing run checks connectivity up front only when it triangulates or
the graph is empty; a plain one checks it at the step that strands a vertex,
so on a disconnected input the first failing check wins, in this order: the
token, the dcl gate and the inclusion-condition gate; for a triangulating
run or the empty graph, DisconnectedGraph; the script's vertex names; then,
in search order, a non-clique processed neighborhood, an illegal scripted
pick or the stranded vertex. The peo walk checks the ordering length, then
raises NotAPeo or DisconnectedGraph in walk order.
"""

import pytest

from chordalkit import graph as graph_module
from chordalkit.cliquetree import (
    clique_tree_from_peo,
    clique_tree_from_pmo,
    dcl_mls_clique_tree,
    fast_clique_tree,
    mls_clique_tree,
)
from chordalkit.decomposition import dcl_atom_tree, dcl_mlsm_clique_tree
from chordalkit.errors import ChordalkitError, IcViolationError
from chordalkit.fixtures import graph
from chordalkit.graph import Graph, Ordering, from_edge_list
from chordalkit.labeling import Cmp, LabelingStructure, lexdfs, mcs
from chordalkit.search import LabelSearch, ScanQueue, ScriptedOrder, mls, mlsm, moplex_mls, moplex_mlsm


class _Count(LabelingStructure):
    """mcs's labels without a selection queue: the ScanQueue path."""

    name = "count"

    def initial(self):
        return 0

    def inc(self, label, i):
        return label + 1

    def compare(self, a, b):
        return Cmp.EQUAL if a == b else Cmp.LESS if a < b else Cmp.GREATER


class _CountBelow9(_Count):
    """Counts only positions up to 8: it passes the bounded inclusion check
    (positions 1..8) and breaks the condition beyond it."""

    name = "count-below-9"

    def inc(self, label, i):
        return label + (i <= 8)


class _Max(_Count):
    """Fails the inclusion condition: {2} and {1, 2} both label 2."""

    name = "max"

    def inc(self, label, i):
        return max(label, i)


C4 = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
INPUTS = {
    "two-edges": from_edge_list([("a", "b"), ("c", "d")]),
    "c4-then-edge": from_edge_list(C4 + [("x", "y")]),
    "edge-then-c4": from_edge_list([("x", "y")] + C4),
    "empty": Graph([], []),
}

# every maximizing product, as a call on (graph, structure); fast_clique_tree
# names mcs by its token, and the peo walks take the identity ordering
PRODUCTS = {
    "mls": mls,
    "moplex_mls": moplex_mls,
    "mlsm": mlsm,
    "moplex_mlsm": moplex_mlsm,
    "mls_clique_tree": mls_clique_tree,
    "dcl_mls_clique_tree": dcl_mls_clique_tree,
    "fast_clique_tree": lambda g, s: fast_clique_tree(g, "mcs"),
    "dcl_mlsm_clique_tree": dcl_mlsm_clique_tree,
    "dcl_atom_tree": dcl_atom_tree,
    "clique_tree_from_peo": lambda g, s: clique_tree_from_peo(g, Ordering(range(g.n))),
    "clique_tree_from_pmo": lambda g, s: clique_tree_from_pmo(g, Ordering(range(g.n))),
}
TAKES_STRUCTURE = [p for p in PRODUCTS if p not in ("fast_clique_tree", "clique_tree_from_peo",
                                                    "clique_tree_from_pmo")]

D = ("DisconnectedGraph", "graph is not connected")
NOT_CHORDAL_D = ("NotChordal", "processed neighborhood of 'd' is not a clique; input not chordal")
NOT_A_PEO_A = ("NotAPeo", "processed neighborhood of 'a' at position 3 is not a clique")

# product -> the error on (two-edges, c4-then-edge, edge-then-c4, empty), with
# mcs or _Count and lowest-index ties: a plain search that meets the C4 first
# finds its non-clique neighborhood before it strands x; a triangulating one
# checks up front; the peo walk meets the C4's a before it strands y
TABLE = {
    "mls": (D, D, D, D),
    "moplex_mls": (D, D, D, D),
    "mlsm": (D, D, D, D),
    "moplex_mlsm": (D, D, D, D),
    "mls_clique_tree": (D, NOT_CHORDAL_D, D, D),
    "dcl_mls_clique_tree": (D, NOT_CHORDAL_D, D, D),
    "fast_clique_tree": (D, NOT_CHORDAL_D, D, D),
    "dcl_mlsm_clique_tree": (D, D, D, D),
    "dcl_atom_tree": (D, D, D, D),
    "clique_tree_from_peo": (D, D, NOT_A_PEO_A, D),
    "clique_tree_from_pmo": (D, D, NOT_A_PEO_A, D),
}


def _error(call):
    try:
        call()
    except ChordalkitError as e:
        return e.token, str(e)
    return None


@pytest.mark.parametrize("product", PRODUCTS)
def test_precedence_table(product):
    structures = (mcs(), _Count()) if product in TAKES_STRUCTURE else (mcs(),)
    for (name, g), want in zip(INPUTS.items(), TABLE[product]):
        for structure in structures:
            got = _error(lambda: PRODUCTS[product](g, structure))
            assert got == want, (product, name, structure.name)


TRIANGULATING = ("mlsm", "moplex_mlsm", "dcl_mlsm_clique_tree", "dcl_atom_tree")


def _count_connectivity_checks(monkeypatch):
    calls = []
    real = graph_module.is_connected

    def counted(h):
        calls.append(h)
        return real(h)

    monkeypatch.setattr(graph_module, "is_connected", counted)
    return calls


@pytest.mark.parametrize("product", PRODUCTS)
def test_connected_input_checks_connectivity_only_to_triangulate(product, monkeypatch):
    # a plain search and the peo walks never run the BFS on a connected
    # input; a triangulating run runs it once, when it is built
    g = graph("fig1_h")
    orderings = {"clique_tree_from_peo": mls(g, mcs())[0], "clique_tree_from_pmo": moplex_mls(g, mcs())[0]}
    calls = _count_connectivity_checks(monkeypatch)
    if product in orderings:
        walk = clique_tree_from_peo if product == "clique_tree_from_peo" else clique_tree_from_pmo
        walk(g, orderings[product])
    else:
        PRODUCTS[product](g, mcs())
    assert calls == ([g] if product in TRIANGULATING else [])


def test_structure_checks_come_first():
    g = INPUTS["two-edges"]
    with pytest.raises(ValueError, match="fast path supports"):
        fast_clique_tree(g, "mns")
    for product in ("dcl_mls_clique_tree", "dcl_mlsm_clique_tree", "dcl_atom_tree"):
        assert _error(lambda: PRODUCTS[product](g, lexdfs())) == (
            "NonDclStructure", "lexdfs cannot detect new cliques with labels"), product
    for product in TAKES_STRUCTURE:
        assert _error(lambda: PRODUCTS[product](g, _Max()))[0] == "IcViolation", product


def test_script_names_after_an_up_front_check_before_a_stranded_vertex():
    unknown = ScriptedOrder(["a", "q"])
    parse = ("Parse", "unknown vertex name 'q'")
    g = INPUTS["two-edges"]
    for product in TAKES_STRUCTURE:
        want = D if product in TRIANGULATING else parse
        assert _error(lambda: PRODUCTS[product](g, mcs(), unknown)) == want, product
        assert _error(lambda: PRODUCTS[product](INPUTS["empty"], mcs(), ScriptedOrder(["q"]))) == D


def test_illegal_pick_and_stranded_vertex_in_search_order():
    g = INPUTS["two-edges"]
    # c is no legal choice after a (b's label is greater) ...
    assert _error(lambda: mls(g, mcs(), ScriptedOrder(["a", "c"]))) == (
        "ScriptConflict", "scripted vertex 'c' is not a legal choice here")
    # ... but is after a and b, where it is the stranded vertex
    assert _error(lambda: mls(g, mcs(), ScriptedOrder(["a", "b", "c"]))) == D


def test_peo_walk_checks_the_length_first():
    for g in INPUTS.values():
        with pytest.raises(ValueError, match="ordering length"):
            clique_tree_from_peo(g, Ordering(range(g.n + 1)))


def test_minimizing_search_checks_before_any_run(monkeypatch):
    built = []
    real = LabelSearch.__init__

    def keep(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(LabelSearch, "__init__", keep)
    assert _error(lambda: mls(INPUTS["two-edges"], mcs(), minimize=True)) == D
    assert built == []


def test_a_structure_breaking_ic_beyond_the_bound_is_not_told_disconnected(monkeypatch):
    # vertex 0 goes first; no label grows above position 8, so vertex 1, no
    # neighbor of 0, is stranded on a connected graph: one BFS clears it, and
    # the run names the broken condition (the debug hooks, which would report
    # it earlier, stay off); a triangulating run made its one BFS when built
    monkeypatch.setenv("CHORDALKIT_DEBUG", "0")
    g = Graph([f"v{k}" for k in range(10)], [(0, 2), (2, 1)] + [(k, k + 1) for k in range(1, 9)])
    calls = _count_connectivity_checks(monkeypatch)
    run = LabelSearch(g, _CountBelow9())
    assert isinstance(run.queue, ScanQueue)
    with pytest.raises(IcViolationError, match=r"count-below-9 .* 'v1' at position 9 "):
        for _ in run.steps():
            pass
    assert run.alpha[10] == 0 and run.completed == 1
    assert calls == [g]
    for product in (mls_clique_tree, dcl_mls_clique_tree, dcl_mlsm_clique_tree, dcl_atom_tree, mlsm):
        calls.clear()
        with pytest.raises(IcViolationError, match=r"'v1' at position 9 "):
            product(g, _CountBelow9())
        assert calls == [g], product.__name__
