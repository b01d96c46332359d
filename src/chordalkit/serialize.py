"""JSON and DOT rendering of results. JSON is the machine format, DOT the
human one; both render vertex sets in sorted name order so identical inputs
give byte-identical output.
"""

from __future__ import annotations

import json
from typing import Iterable

from .cliquetree import CliqueTreeResult, GeneratorsResult
from .decomposition import AtomTreeResult
from .graph import ComplementView, Graph
from .labeling import LabelingStructure
from .search import SearchTrace, TriangulationResult

AnyGraph = Graph | ComplementView


def _names(g: AnyGraph, vertices: Iterable[int]) -> list[str]:
    return sorted(g.names[v] for v in vertices)


def _set_list(g: AnyGraph, sets: Iterable[frozenset[int]]) -> list[list[str]]:
    return sorted((_names(g, s) for s in sets), key=lambda ns: (len(ns), ns))


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte.
    With an indent, json runs its pure-Python encoder token by token; this
    writer joins a whole list of names or of ints in one call."""
    return _value(obj, "\n") + "\n"


_string = json.encoder.encode_basestring_ascii
_is_bool = bool.__instancecheck__


def _value(v, nl: str) -> str:
    """v's JSON text at the indent that nl (a newline and spaces) gives."""
    t = type(v)
    if t is str:
        return _string(v)
    if t is int:
        return int.__repr__(v)
    if t is list or t is tuple:
        return _array(v, nl) if v else "[]"
    if t is dict and all(type(k) is str for k in v):
        return _object(v, nl) if v else "{}"
    # floats, bools, None, subclasses, non-str keys: json's own text, with
    # its newlines indented (a JSON string never holds a raw newline)
    return json.dumps(v, indent=2, sort_keys=True).replace("\n", nl)


def _array(v: list | tuple, nl: str) -> str:
    inner = nl + "  "
    first = type(v[0])
    if first is str or (first is int and not any(map(_is_bool, v))):
        try:
            return "[" + inner + ("," + inner).join(map(_string if first is str else int.__repr__, v)) + nl + "]"
        except TypeError:  # a later item of another type
            pass
    return "[" + inner + ("," + inner).join([_value(x, inner) for x in v]) + nl + "]"


def _object(d: dict, nl: str) -> str:
    inner = nl + "  "
    items = [_string(k) + ": " + _value(x, inner) for k, x in sorted(d.items())]
    return "{" + inner + ("," + inner).join(items) + nl + "}"


def clique_tree_json(g: AnyGraph, t: CliqueTreeResult) -> dict:
    return {
        "cliques": [_names(g, K) for K in t.cliques],
        "edges": [list(e) for e in t.tree_edges],
        "separators": _set_list(g, t.separators),
        "ordering": t.ordering.names(g),
    }


def generators_json(g: AnyGraph, r: GeneratorsResult) -> dict:
    return {
        "ordering": r.ordering.names(g),
        "gen_cliques": [g.names[v] for v in r.gen_cliques],
        "gen_separators": [g.names[v] for v in r.gen_separators],
    }


def triangulation_json(g: AnyGraph, tri: TriangulationResult, tree: CliqueTreeResult | None = None) -> dict:
    out = {
        "ordering": tri.ordering.names(g),
        "fill_edges": [sorted((g.names[u], g.names[v])) for u, v in tri.fill_edges],
    }
    if tree is not None:
        out["clique_tree"] = clique_tree_json(g, tree)
    return out


def atom_tree_json(g: AnyGraph, t: AtomTreeResult) -> dict:
    return {
        "atoms": [_names(g, A) for A in t.atoms],
        "edges": [list(e) for e in t.tree_edges],
        "clique_separators": _set_list(g, t.clique_separators),
        "ordering": t.triangulation.ordering.names(g),
        "fill_edges": [sorted((g.names[u], g.names[v])) for u, v in t.triangulation.fill_edges],
    }


def trace_json(g: AnyGraph, structure: LabelingStructure, trace: SearchTrace) -> list[dict]:
    return [
        {
            "i": e.i,
            "vertex": g.names[e.vertex],
            "label": structure.render(e.label),
            "increased": [g.names[v] for v in e.increased],
            "fill": [sorted((g.names[u], g.names[v])) for u, v in e.fill],
        }
        for e in trace.entries
    ]


def final_labels(g: AnyGraph, structure: LabelingStructure, trace: SearchTrace) -> dict[str, object]:
    return {g.names[v]: structure.render(lbl) for v, lbl in trace.final_labels().items()}


def _dot_set(names: list[str]) -> str:
    return "{" + ",".join(names) + "}"


def clique_tree_dot(g: AnyGraph, t: CliqueTreeResult) -> str:
    return _tree_dot(g, "cliquetree", "k", t.cliques, t.tree_edges)


def atom_tree_dot(g: AnyGraph, t: AtomTreeResult) -> str:
    return _tree_dot(g, "atomtree", "a", t.atoms, t.tree_edges)


def _tree_dot(g: AnyGraph, kind: str, prefix: str, nodes, edges) -> str:
    """A tree as a DOT graph: node j (1-based) labeled with its vertex set,
    each edge with the intersection of its two nodes."""
    lines = [f"graph {kind} {{"]
    for j, K in enumerate(nodes, start=1):
        lines.append(f'  {prefix}{j} [label="{_dot_set(_names(g, K))}"];')
    for p, q in edges:
        sep = _dot_set(_names(g, nodes[p - 1] & nodes[q - 1]))
        lines.append(f'  {prefix}{p} -- {prefix}{q} [label="{sep}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
