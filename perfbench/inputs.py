"""Seeded input graphs, written as edge-list files.

Random families go through ``chordalkit.oracle.gen``; stars, paths and
complete graphs need no randomness. A holed graph is a seeded chordal graph
with one induced 4-cycle added.
"""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

from chordalkit.oracle import GeneratorConfig, gen

_RANDOM = {
    # family: (generator family, param as a function of n)
    "chordal8": ("random-chordal", lambda n: 8),
    "chordal4": ("random-chordal", lambda n: 4),
    "tinychordal": ("random-chordal", lambda n: 3),
    "connected": ("random-connected", lambda n: 6 / n),
    "tinyconnected": ("random-connected", lambda n: 6 / n),
    "cochordal": ("random-co-chordal", lambda n: 4),
    "tinycochordal": ("random-co-chordal", lambda n: 3),
}
_HOLED = {"holed4": "chordal4", "holed8": "chordal8"}


def _name_edges(g) -> list[tuple[str, str]]:
    return [(g.names[u], g.names[v]) for u, v in sorted(g.edges())]


def _random_edges(family: str, n: int, seed: int) -> list[tuple[str, str]]:
    kind, param = _RANDOM[family]
    return _name_edges(gen(GeneratorConfig(seed=seed, n=n, param=param(n), family=kind)))


def _holed_edges(family: str, n: int, seed: int) -> list[tuple[str, str]]:
    """A seeded chordal graph with an induced 4-cycle h0-h1-h2-h3 hung off
    one seeded vertex. The hole's vertices come last in the file, so a
    lowest-index search reaches the hole only after the rest of the graph
    and a checking builder rejects the input at its last steps: the time to
    rejection does not depend on where the seed puts the hole."""
    edges = _random_edges(_HOLED[family], n, seed)
    u = random.Random(seed).choice(sorted({v for e in edges for v in e}))
    return edges + [(u, "h0"), ("h0", "h1"), ("h1", "h2"), ("h2", "h3"), ("h3", "h0")]


def edges_for(key: str, seed: int) -> list[tuple[str, str]]:
    family, n_text = key.rsplit("-", 1)
    n = int(n_text)
    if "~" in family:  # replica r of a family draws from its own sub-seed
        family, r = family.split("~")
        seed = seed * 1_000_003 + int(r)
    if family in _RANDOM:
        return _random_edges(family, n, seed)
    if family in _HOLED:
        return _holed_edges(family, n, seed)
    if family == "star":
        return [("v0", f"v{i}") for i in range(1, n)]
    if family == "path":
        return [(f"v{i}", f"v{i + 1}") for i in range(n - 1)]
    if family == "complete":
        return [(f"v{a}", f"v{b}") for a, b in combinations(range(n), 2)]
    raise ValueError(f"unknown graph family {family!r}")


def edge_list_text(edges: list[tuple[str, str]]) -> str:
    return "".join(f"{a} {b}\n" for a, b in edges)


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def vertex_count(edges: list[tuple[str, str]]) -> int:
    return len({v for e in edges for v in e})
