"""Immutable undirected graphs, orderings, and complement views.

Vertices carry external string names but every algorithm works on dense
integer indices 0..n-1; positions in an ordering are 1-based, matching the
convention that position n is chosen first by the searches.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import (
    ComplementDisconnectedError,
    DisconnectedGraphError,
    EmptyInputError,
    ParseError,
    SelfLoopError,
)

VertexSet = frozenset[int]


class Graph:
    """Simple undirected graph: no self-loops, no parallel edges, immutable."""

    __slots__ = ("names", "adj", "n", "m", "_index")

    def __init__(self, names: Sequence[str], edges: Iterable[tuple[int, int]]):
        names = tuple(names)
        index = _name_index(names)
        n = len(names)
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"edge ({u},{v}) out of range")
            if u == v:
                raise SelfLoopError(f"self-loop at {names[u]!r}")
            adj[u].add(v)
            adj[v].add(u)
        self._finish(names, index, adj)

    @classmethod
    def _from_adj(cls, names: tuple[str, ...], index: dict[str, int], adj: Sequence[Iterable[int]]) -> "Graph":
        """A graph frozen from adjacency sets that are already symmetric,
        loop-free and in range, under names and their index (trusted, not
        checked): O(n + m), with no edge list in between."""
        g = cls.__new__(cls)
        g._finish(names, index, adj)
        return g

    def _finish(self, names: tuple[str, ...], index: dict[str, int], adj: Sequence[Iterable[int]]) -> None:
        """Freeze the adjacency sets; every constructor ends here."""
        self.names = names
        self.n = len(names)
        self.adj: tuple[VertexSet, ...] = tuple(map(frozenset, adj))
        self.m = sum(map(len, self.adj)) >> 1
        self._index = index

    def index(self, name: str) -> int:
        return _lookup(self._index, name)

    def adjacent(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def neighbors(self, v: int) -> VertexSet:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def vertices(self) -> range:
        return range(self.n)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def name_edges(self) -> list[tuple[str, str]]:
        return [(self.names[u], self.names[v]) for u, v in sorted(self.edges())]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.names == other.names and self.adj == other.adj

    def __hash__(self):  # pragma: no cover - not used as dict key
        return hash((self.names, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _name_index(names: Sequence[str]) -> dict[str, int]:
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise ParseError("duplicate vertex names")
    return index


def _lookup(index: dict[str, int], name: str) -> int:
    try:
        return index[name]
    except KeyError:
        raise ParseError(f"unknown vertex name {name!r}") from None


def from_edge_list(rows: Iterable[Sequence[str]]) -> Graph:
    """Build a graph from named edge pairs, in one pass; first appearance
    fixes indices, and each adjacency set receives its members in pair
    order, both ends per edge. parse_edge_list passes each line's tokens,
    [] for a blank line; its errors hold with pair k as line k."""
    index: dict[str, int] = {}
    adj: list[set[int]] = []
    get, new = index.get, adj.append
    loop = None
    for lineno, row in enumerate(rows, 1):
        if len(row) != 2:
            if row:
                raise ParseError(f"line {lineno}: expected two vertex names, got {len(row)}")
            continue
        a, b = row
        u = get(a)
        if u is None:
            u = index[a] = len(adj)
            new(set())
        if a == b:
            if loop is None:
                loop = a
            continue
        v = get(b)
        if v is None:
            v = index[b] = len(adj)
            new(set())
        adj[u].add(v)
        adj[v].add(u)
    if not adj:
        raise EmptyInputError("empty edge list")
    if loop is not None:
        raise SelfLoopError(f"self-loop at {loop!r}")
    return Graph._from_adj(tuple(index), index, adj)


def from_vertices(names: Sequence[str], pairs: Iterable[tuple[str, str]] = ()) -> Graph:
    """Build a graph from an explicit vertex list (allows isolated vertices)."""
    index = _name_index(names)
    return Graph(names, [(_lookup(index, a), _lookup(index, b)) for a, b in pairs])


def token_rows(text: str) -> Iterable[list[str]]:
    """The whitespace-separated tokens of each line, '#' starting a comment;
    a blank or comment-only line gives []."""
    lines = text.splitlines()
    if "#" not in text:
        return map(str.split, lines)
    return (line.partition("#")[0].split() for line in lines)


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format: one edge per line, two
    whitespace-separated names, '#' starts a comment, blank lines ignored.

    One pass over the lines. Errors, in order of precedence: the first line
    without exactly two names raises ParseError with its line number; then
    an input with no edge line raises EmptyInputError; then the first
    self-loop in file order raises SelfLoopError, so a self-loop is only
    reported once the whole text has parsed."""
    return from_edge_list(token_rows(text))


def read_text(path: str) -> str:
    """The UTF-8 text of a file, less one leading byte order mark; invalid
    UTF-8 raises ParseError naming the file and the byte offset, which
    counts the mark's bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: invalid UTF-8 at byte {exc.start}") from None


def load_graph(path: str) -> Graph:
    return parse_edge_list(read_text(path))


class ComplementView:
    """Adjacency view of the complement graph. Never materializes edges:
    (u, v) is adjacent in the view exactly when u != v and the base graph
    has no edge uv. Making the view costs O(n), for the vertex set that
    rows are cut from; ``adjacent`` and ``degree`` cost O(1), and
    ``neighbors`` one set difference, O(n) in C, with no interpreted loop."""

    __slots__ = ("base", "_everyone")

    def __init__(self, base: Graph):
        self.base = base
        self._everyone = frozenset(range(base.n))

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def names(self) -> tuple[str, ...]:
        return self.base.names

    def index(self, name: str) -> int:
        return self.base.index(name)

    def adjacent(self, u: int, v: int) -> bool:
        return u != v and not self.base.adjacent(u, v)

    def neighbors(self, v: int) -> VertexSet:
        # one row on demand; the full edge set is never built
        return self._everyone.difference(self.base.adj[v], (v,))

    def degree(self, v: int) -> int:
        return self.base.n - 1 - self.base.degree(v)

    def vertices(self) -> range:
        return range(self.base.n)


def complement_view(g: Graph) -> ComplementView:
    return ComplementView(g)


def materialize_complement(g: Graph) -> Graph:
    """Concrete complement graph (same names, same index order): the
    view's rows, each one set difference in C, frozen as they are, with no
    edge list in between. O(n^2) in C and O(n) interpreted steps."""
    return Graph._from_adj(g.names, g._index, map(ComplementView(g).neighbors, range(g.n)))


def add_edges(g: Graph, extra: Iterable[tuple[int, int]]) -> Graph:
    """New graph with the given extra edges added."""
    return Graph(g.names, list(g.edges()) + list(extra))


class Ordering:
    """Bijection between positions 1..n and vertices, with O(1) inverse."""

    __slots__ = ("seq", "pos")

    def __init__(self, seq: Sequence[int]):
        self.seq: tuple[int, ...] = tuple(seq)
        n = len(self.seq)
        pos = [0] * n
        seen = [False] * n
        for i, v in enumerate(self.seq, start=1):
            if not (0 <= v < n) or seen[v]:
                raise ParseError("ordering is not a bijection onto the vertex set")
            seen[v] = True
            pos[v] = i
        self.pos: tuple[int, ...] = tuple(pos)

    @classmethod
    def _of(cls, seq: Sequence[int], pos: Sequence[int]) -> Ordering:
        """The ordering of seq with its inverse pos given and trusted, as a
        finished search has both: two O(n) copies, no bijection test."""
        alpha = cls.__new__(cls)
        alpha.seq, alpha.pos = tuple(seq), tuple(pos)
        return alpha

    def __len__(self) -> int:
        return len(self.seq)

    def vertex_at(self, i: int) -> int:
        """Vertex at position i (1-based)."""
        return self.seq[i - 1]

    def position_of(self, v: int) -> int:
        return self.pos[v]

    def names(self, g: Graph | ComplementView) -> list[str]:
        return [g.names[v] for v in self.seq]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ordering):
            return NotImplemented
        return self.seq == other.seq

    def __repr__(self) -> str:
        return f"Ordering({list(self.seq)})"


def ordering_from_names(g: Graph | ComplementView, names: Sequence[str]) -> Ordering:
    if len(names) != g.n:
        raise ParseError(f"ordering names {len(names)} vertices, graph has {g.n}")
    return Ordering([g.index(name) for name in names])


def is_clique_in(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff the vertices are pairwise adjacent in g (empty and singleton
    sets count as cliques)."""
    vs = list(vertices)
    for a in range(len(vs)):
        for b in range(a + 1, len(vs)):
            if not g.adjacent(vs[a], vs[b]):
                return False
    return True


def higher_neighborhood(
    g: Graph | ComplementView, alpha: Ordering, y: int, i: int, closed: bool = False
) -> VertexSet:
    """Neighbors of y placed after position i; with i = position(y) this is
    the higher neighborhood of y. The closed variant adds y itself."""
    out = {z for z in g.neighbors(y) if alpha.position_of(z) > i}
    if closed:
        out.add(y)
    return frozenset(out)


def induced_subgraph(g: Graph, sub: Iterable[int]) -> Graph:
    """Subgraph induced by the given vertices (kept in index order)."""
    keep = sorted(sub)
    remap = {v: i for i, v in enumerate(keep)}
    names = [g.names[v] for v in keep]
    edges = [(remap[u], remap[v]) for u, v in g.edges() if u in remap and v in remap]
    return Graph(names, edges)


def is_connected(g: Graph | ComplementView) -> bool:
    """True iff every vertex is reachable from vertex 0 (single vertex:
    True). A search keeping the unvisited set: each visit takes its
    unvisited neighbours by one set intersection in C, which walks the
    smaller set, so the search costs O(n) interpreted steps and O(n + m) in
    C. A visit costs about what a per-edge search pays for five edges: a
    path takes about 3x that search's time, a dense graph a few hundredths
    of it. A view asks ``complement_is_connected`` of its base graph."""
    if isinstance(g, ComplementView):
        return complement_is_connected(g.base)
    return _drains(g, set.intersection)


def complement_is_connected(g: Graph) -> bool:
    """Connectivity of the complement without materializing it: the same
    search, each visit taking its unvisited non-neighbours by one set
    difference in C, which walks the unvisited set."""
    return _drains(g, set.difference)


def _drains(g: Graph, take) -> bool:
    """Whether the search from vertex 0 reaches every vertex, a visit to u
    reaching ``take(unvisited, g.adj[u])``. A set keeps its table as it
    shrinks, and walking it costs the table, so the set is copied below a
    quarter of its last size."""
    if g.n == 0:
        return False
    unvisited = set(range(1, g.n))
    copied = len(unvisited)
    frontier = [0]
    adj = g.adj
    while frontier:
        reached = take(unvisited, adj[frontier.pop()])
        if reached:
            unvisited -= reached
            frontier += reached
            if 4 * len(unvisited) < copied:
                unvisited = set(unvisited)
                copied = len(unvisited)
    return not unvisited


def require_connected(g: Graph | ComplementView) -> None:
    if not is_connected(g):
        raise DisconnectedGraphError("graph is not connected")


def require_complement_connected(g: Graph) -> None:
    if not complement_is_connected(g):
        raise ComplementDisconnectedError("complement of the input graph is not connected")
