"""Decomposition of arbitrary connected graphs by clique minimal separators.

The triangulating label search yields a minimal triangulation whose clique
tree, after contracting every tree edge whose separator is not a clique in
the original graph, becomes the atom tree: nodes are the atoms (maximal
connected subgraphs without a clique separator), edge intersections are the
clique minimal separators. A fused single-pass builder constructs the atom
tree directly, deciding at each label-detected clique boundary whether the
separator is a clique in the original graph. Both fused builders here run
one loop, ``cliquetree._mlsm_tree``, where all tree assembly lives; this
module keeps their result types and the contraction.
"""

from __future__ import annotations

from .cliquetree import CliqueTreeResult, _mlsm_tree
from .errors import InputMismatchError
from .graph import Graph, Ordering, VertexSet, is_clique_in
from .labeling import LabelingStructure
from .record import Record
from .search import TieBreak, TriangulationResult


class MlsmCliqueTreeResult(Record):
    """A minimal moplex ordering, its minimal triangulation, and the clique
    tree of that triangulation (not of the input graph)."""

    ordering: Ordering
    triangulation: TriangulationResult
    clique_tree: CliqueTreeResult

    @property
    def separators(self) -> frozenset[VertexSet]:
        return self.clique_tree.separators


class AtomTreeResult(Record):
    """Atoms A_1..A_s, tree edges on 1-based indices, the clique minimal
    separators, the atom each vertex was filed into, the triangulation the
    construction went through, and (for the single-pass builder) the current
    atom index per iteration."""

    atoms: tuple[VertexSet, ...]
    tree_edges: tuple[tuple[int, int], ...]
    clique_separators: frozenset[VertexSet]
    atom_of: dict[int, int]
    triangulation: TriangulationResult
    current_atom_history: tuple[int, ...] | None = None

    @property
    def size(self) -> int:
        return len(self.atoms)

    def atom(self, j: int) -> VertexSet:
        return self.atoms[j - 1]

    def edge_separator(self, p: int, q: int) -> VertexSet:
        return self.atom(p) & self.atom(q)


def dcl_mlsm_clique_tree(
    g: Graph,
    structure: LabelingStructure,
    tiebreak: TieBreak | None = None,
) -> MlsmCliqueTreeResult:
    """Triangulating search fused with the label-test clique-tree builder:
    one pass yields a minimal moplex ordering, the minimal triangulation H,
    and a clique tree of H (``cliquetree._mlsm_tree``). Requires a
    structure that detects new cliques with labels."""
    t, tri = _mlsm_tree(g, structure, tiebreak, None)
    return MlsmCliqueTreeResult(tri.ordering, tri, t)


def atom_tree_from_clique_tree(g: Graph, h: Graph, t: CliqueTreeResult) -> AtomTreeResult:
    """Contract every clique-tree edge whose separator fails to be a clique
    in g; each contracted component's cliques union into one atom, the kept
    edges become atom-tree edges, and their intersections are the clique
    minimal separators."""
    if set().union(*t.cliques) != set(range(g.n)):
        raise InputMismatchError("clique tree does not cover the vertex set")
    for u, v in g.edges():
        if not h.adjacent(u, v):
            raise InputMismatchError("supposed triangulation is missing a base edge")

    s = t.size
    parent = list(range(s + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    kept: list[tuple[int, int]] = []
    for p, q in t.tree_edges:
        sep = t.edge_separator(p, q)
        if is_clique_in(g, sep):
            kept.append((p, q))
        else:
            parent[find(p)] = find(q)

    roots = sorted({find(j) for j in range(1, s + 1)})
    atom_index = {root: idx for idx, root in enumerate(roots, start=1)}
    merged: list[set[int]] = [set() for _ in roots]
    for j in range(1, s + 1):
        merged[atom_index[find(j)] - 1] |= t.clique(j)

    edges = []
    seps = set()
    for p, q in kept:
        edges.append((atom_index[find(p)], atom_index[find(q)]))
        seps.add(t.edge_separator(p, q))

    atom_of = {v: atom_index[find(j)] for v, j in t.clique_of.items()}
    fill = tuple(sorted(set(h.edges()) - set(g.edges())))
    tri = TriangulationResult(t.ordering, h, fill)
    return AtomTreeResult(
        atoms=tuple(frozenset(a) for a in merged),
        tree_edges=tuple(edges),
        clique_separators=frozenset(seps),
        atom_of=atom_of,
        triangulation=tri,
    )


def dcl_atom_tree(
    g: Graph,
    structure: LabelingStructure,
    tiebreak: TieBreak | None = None,
) -> AtomTreeResult:
    """Single-pass atom tree (``cliquetree._mlsm_tree``): run the
    triangulating search; at each label-detected clique boundary, start a
    new atom only when the separator is a clique in g itself (fill edges
    never count), otherwise keep growing the atom that contains the
    separator's earliest vertex. Between boundaries the atom keeps growing,
    unchecked, as H is chordal. Each vertex is filed into the atom current
    after its step, so the history is read off ``atom_of``."""
    t, tri = _mlsm_tree(g, structure, tiebreak, g)
    history = tuple(t.clique_of[x] for x in reversed(tri.ordering.seq))
    return AtomTreeResult(t.cliques, t.tree_edges, t.separators, t.clique_of, tri, history)
