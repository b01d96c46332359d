"""Shared corpus builders: deterministic seeded graph families used across
the suite and the acceptance criteria."""

from __future__ import annotations

from chordalkit.graph import Graph, parse_edge_list
from chordalkit.oracle import GeneratorConfig, gen

_PARAMS = (1.0, 1.5, 2.0, 2.5)
_DENSITIES = (0.3, 0.45, 0.6, 0.8)


def chordal_corpus(count: int = 100) -> list[Graph]:
    """Connected chordal graphs, n in [4, 9]."""
    return [
        gen(GeneratorConfig(seed=1000 + s, n=4 + s % 6, param=_PARAMS[s % 4], family="random-chordal"))
        for s in range(count)
    ]


def connected_corpus(count: int = 100) -> list[Graph]:
    """Connected graphs, n in [4, 9], mixed densities."""
    return [
        gen(GeneratorConfig(seed=2000 + s, n=4 + s % 6, param=_DENSITIES[s % 4], family="random-connected"))
        for s in range(count)
    ]


def cochordal_corpus(count: int = 100) -> list[Graph]:
    """Graphs whose complement is connected and chordal, n in [4, 9]."""
    return [
        gen(GeneratorConfig(seed=3000 + s, n=4 + s % 6, param=_PARAMS[s % 4], family="random-co-chordal"))
        for s in range(count)
    ]


def first_appearance(g: Graph) -> Graph:
    """g renumbered as a file of its edges reads back: its vertices
    numbered in order of first appearance in ``g.name_edges()``. g must
    have no isolated vertex."""
    return parse_edge_list("".join(f"{u} {v}\n" for u, v in g.name_edges()))


def names_of(g: Graph, vertices) -> set[str]:
    return {g.names[v] for v in vertices}


def name_sets(g: Graph, sets) -> set[frozenset[str]]:
    return {frozenset(g.names[v] for v in s) for s in sets}
