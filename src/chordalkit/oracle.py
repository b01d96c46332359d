"""Brute-force ground truth and seeded instance generators.

Everything here trades speed for exactness and is meant for small graphs
(hard caps raise beyond roughly n = 16). These functions are the independent
side of every dual check in the test suite: the builders are never validated
against themselves.
"""

from __future__ import annotations

from itertools import combinations

from .errors import OracleCapError
from .graph import (
    Graph,
    Ordering,
    VertexSet,
    complement_is_connected,
    higher_neighborhood,
    induced_subgraph,
    is_clique_in,
    is_connected,
    materialize_complement,
)
from .record import Record
from .rng import SplitMix64

SEPARATOR_CAP = 16
ATOMS_CAP = 14
CLIQUES_CAP = 20


def _require_under_cap(fn: str, n: int, cap: int) -> None:
    """The one size gate of the brute-force functions, named by fn."""
    if n > cap:
        raise OracleCapError(f"{fn} capped at n={cap}")


def is_chordal(g: Graph) -> bool:
    """Exact: repeatedly strip any simplicial vertex; chordal iff the graph
    empties (the order of elimination does not matter)."""
    adj = [set(s) for s in g.adj]
    alive = set(range(g.n))
    changed = True
    while alive and changed:
        changed = False
        for v in sorted(alive):
            hood = adj[v]
            if all(b in adj[a] for a, b in combinations(sorted(hood), 2)):
                for u in hood:
                    adj[u].discard(v)
                adj[v] = set()
                alive.discard(v)
                changed = True
                break
    return not alive


def is_peo(g: Graph, alpha: Ordering) -> bool:
    """Definition check: each vertex's later neighbors form a clique."""
    if len(alpha) != g.n:
        return False
    for i in range(1, g.n + 1):
        x = alpha.vertex_at(i)
        later = [y for y in g.adj[x] if alpha.position_of(y) > i]
        if not is_clique_in(g, later):
            return False
    return True


def maximal_cliques(g: Graph) -> set[VertexSet]:
    """Exact enumeration (pivoted Bron-Kerbosch)."""
    _require_under_cap("maximal_cliques", g.n, CLIQUES_CAP)
    out: set[VertexSet] = set()
    if g.n == 0:
        return out

    def expand(clique: set[int], cand: set[int], excl: set[int]) -> None:
        if not cand and not excl:
            out.add(frozenset(clique))
            return
        pivot = max(cand | excl, key=lambda v: len(g.adj[v] & cand))
        for v in sorted(cand - g.adj[pivot]):
            expand(clique | {v}, cand & g.adj[v], excl & g.adj[v])
            cand.discard(v)
            excl.add(v)

    expand(set(), set(range(g.n)), set())
    return out


def is_mccomp_peo(g: Graph, alpha: Ordering) -> bool:
    """True iff alpha is a peo that completes each maximal clique before
    starting the next: for each position i < n, the closed higher
    neighborhood of the vertex at i+1 is a maximal clique, or equals the open
    higher neighborhood of the vertex at i."""
    if not is_peo(g, alpha):
        return False
    maxcliques = maximal_cliques(g)
    for i in range(1, g.n):
        nxt = alpha.vertex_at(i + 1)
        closed = higher_neighborhood(g, alpha, nxt, i + 1, closed=True)
        if closed in maxcliques:
            continue
        cur = alpha.vertex_at(i)
        if closed != higher_neighborhood(g, alpha, cur, i):
            return False
    return True


is_pmo = is_mccomp_peo


def _components(adj: list[set[int]], alive: set[int]) -> list[set[int]]:
    seen: set[int] = set()
    comps = []
    for start in sorted(alive):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w in alive and w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def minimal_separators(g: Graph) -> set[VertexSet]:
    """Exact: every subset with at least two components seeing all of it."""
    _require_under_cap("minimal_separators", g.n, SEPARATOR_CAP)
    adj = [set(s) for s in g.adj]
    out: set[VertexSet] = set()
    verts = list(range(g.n))
    for r in range(g.n - 1):
        for sep in combinations(verts, r):
            sep_set = set(sep)
            alive = set(verts) - sep_set
            comps = _components(adj, alive)
            if len(comps) < 2:
                continue
            full = 0
            for comp in comps:
                seen = set()
                for v in comp:
                    seen |= adj[v]
                if seen - comp == sep_set:
                    full += 1
            if full >= 2:
                out.add(frozenset(sep_set))
    return out


def is_minimal_triangulation(g: Graph, h: Graph) -> bool:
    """h must be chordal, contain g's edges, and lose chordality whenever any
    single fill edge is dropped (exact for minimality)."""
    h_edges = set(h.edges())
    base = set(g.edges())
    if not base <= h_edges:
        return False
    fill = sorted(h_edges - base)
    if not is_chordal(h):
        return False
    for dropped in fill:
        reduced = Graph(h.names, [e for e in h.edges() if e != dropped])
        if is_chordal(reduced):
            return False
    return True


def atoms_brute(g: Graph) -> set[VertexSet]:
    """Recursive decomposition on any clique minimal separator: split the
    rest into component-plus-separator pieces and recurse; a piece with no
    clique minimal separator is an atom. The final set is deduplicated and
    independent of the choices made."""
    _require_under_cap("atoms_brute", g.n, ATOMS_CAP)

    out: set[VertexSet] = set()

    def recurse(vertices: frozenset[int]) -> None:
        sub = induced_subgraph(g, vertices)
        order = sorted(vertices)
        clique_seps = sorted(
            (s for s in minimal_separators(sub) if is_clique_in(sub, s)),
            key=lambda s: (len(s), sorted(s)),
        )
        if not clique_seps:
            out.add(frozenset(vertices))
            return
        sep_local = clique_seps[0]
        adj = [set(s) for s in sub.adj]
        alive = set(range(sub.n)) - set(sep_local)
        for comp in _components(adj, alive):
            piece = comp | set(sep_local)
            recurse(frozenset(order[v] for v in piece))

    recurse(frozenset(range(g.n)))
    return out


def validate_clique_tree(h: Graph, t) -> list[str]:
    """All clique-tree obligations at once; returns violations (empty means
    pass): node set is exactly the maximal cliques, edges form a tree, every
    vertex induces a subtree, edge intersections are exactly the minimal
    separators, and the stored separator set agrees."""
    violations: list[str] = []
    cliques = list(t.cliques)
    for K in cliques:
        if not is_clique_in(h, K):
            violations.append(f"node {sorted(h.names[v] for v in K)} is not a clique")
    want_nodes = maximal_cliques(h)
    if set(cliques) != want_nodes:
        violations.append(
            f"node set differs from the maximal cliques "
            f"(got {len(set(cliques))}, want {len(want_nodes)})"
        )
    violations += _tree_violations(h, cliques, t.tree_edges, "node", t.separators,
                                   minimal_separators(h), "minimal separators")
    return violations


def validate_atom_tree(g: Graph, t) -> list[str]:
    """Atom-tree obligations: node set is exactly the brute-force atoms,
    edges form a tree, every vertex induces a subtree, and edge intersections
    are exactly the clique minimal separators."""
    violations: list[str] = []
    atoms = list(t.atoms)
    want_atoms = atoms_brute(g)
    if set(atoms) != want_atoms:
        violations.append(
            f"atom set differs from the decomposition atoms "
            f"(got {sorted(map(sorted, atoms))}, want {sorted(map(sorted, want_atoms))})"
        )
    want_seps = {s_ for s_ in minimal_separators(g) if is_clique_in(g, s_)}
    violations += _tree_violations(g, atoms, t.tree_edges, "atom", t.clique_separators,
                                   want_seps, "clique minimal separators")
    return violations


def _tree_violations(g: Graph, nodes: list[VertexSet], tree_edges, noun: str,
                     stored_seps, want_seps: set[VertexSet], seps_name: str) -> list[str]:
    """The checks both validators share, with the nodes called ``noun``: no
    duplicate nodes, the edges form a tree on them, the nodes holding each
    vertex induce a subtree, and both the edge intersections and the stored
    separator set are exactly ``want_seps``, the separators ``seps_name``
    names."""
    violations: list[str] = []
    s = len(nodes)
    if len(set(nodes)) != s:
        violations.append(f"duplicate {noun}s")
    if len(tree_edges) != s - 1:
        violations.append(f"edge count {len(tree_edges)} is not {noun} count - 1")
    parent = list(range(s + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for p, q in tree_edges:
        if not (1 <= p <= s and 1 <= q <= s):
            violations.append(f"edge ({p},{q}) out of range")
            continue
        rp, rq = find(p), find(q)
        if rp == rq:
            violations.append(f"edge ({p},{q}) closes a cycle")
        else:
            parent[rp] = rq
    for v in range(g.n):
        holding = [j for j in range(1, s + 1) if v in nodes[j - 1]]
        if not holding:
            violations.append(f"vertex {g.names[v]!r} is in no {noun}")
            continue
        reach = {holding[0]}
        grew = True
        while grew:
            grew = False
            for p, q in tree_edges:
                if p in reach and q in holding and q not in reach:
                    reach.add(q)
                    grew = True
                if q in reach and p in holding and p not in reach:
                    reach.add(p)
                    grew = True
        if set(holding) != reach:
            violations.append(f"{noun}s containing {g.names[v]!r} do not induce a subtree")
    intersections = {nodes[p - 1] & nodes[q - 1] for p, q in tree_edges if 1 <= p <= s and 1 <= q <= s}
    if intersections != want_seps:
        violations.append(f"edge intersections differ from the {seps_name}")
    if frozenset(stored_seps) != frozenset(want_seps):
        violations.append(f"stored separator set differs from the {seps_name}")
    return violations


# ---------------------------------------------------------------------------
# seeded generators


class GeneratorConfig(Record):
    """Deterministic instance recipe: same config, same graph, anywhere.

    param means: edge probability for random-connected; mean clique
    attachment size for the chordal families (each new vertex attaches to a
    random clique of size uniform in [1, min(v, 2*param-1)]); the clique
    size k = int(param) for random-split (each other vertex attaches to a
    uniform number in [1, k] of distinct clique vertices).
    """

    seed: int
    n: int
    param: float
    family: str  # random-connected | random-chordal | random-co-chordal | random-split


def _grow_chordal(rng: SplitMix64, n: int, param: float) -> Graph:
    # randomness order per vertex v: attachment size, anchor vertex, then
    # each clique-extension choice. common lists, ascending, the vertices
    # adjacent to the whole clique so far (all below v, none in the clique):
    # each pick keeps the members adjacent to it, so the list is sorted once
    names = [f"v{i}" for i in range(n)]
    adj: list[set[int]] = [set() for _ in range(n)]
    hi = max(1, int(2 * param) - 1)
    for v in range(1, n):
        k = 1 + rng.below(min(v, hi))
        u = rng.below(v)
        clique = [u]
        common = sorted(adj[u]) if k > 1 else []
        while len(clique) < k and common:
            c = common[rng.below(len(common))]
            clique.append(c)
            hood = adj[c]
            common = [w for w in common if w in hood]
        for c in clique:
            adj[v].add(c)
            adj[c].add(v)
    edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
    return Graph(names, edges)


def _split(rng: SplitMix64, n: int, k: int) -> Graph:
    # vertices 0..k-1 are the clique; each later vertex draws how many clique
    # vertices it attaches to, then picks them by a partial shuffle of pool
    pool = list(range(k))
    edges = list(combinations(pool, 2))
    for v in range(k, n):
        c = 1 + rng.below(k)
        for j in range(c):
            r = j + rng.below(k - j)
            pool[j], pool[r] = pool[r], pool[j]
            edges.append((pool[j], v))
    return Graph([f"v{i}" for i in range(n)], edges)


def _redraw(draw, accept, what: str) -> Graph:
    """The first of up to 10,000 draws that ``accept`` passes; past the
    cap, OracleCapError says that ``what`` could not be drawn."""
    for _ in range(10_000):
        g = draw()
        if accept(g):
            return g
    raise OracleCapError(f"could not draw {what}")


def gen(config: GeneratorConfig) -> Graph:
    """Seeded graph families: chordal growth (chordal and connected by
    construction), its complement (the growth redrawn until its complement
    is connected, which is then built once), split graphs (a clique and an
    independent set, so chordal and co-chordal, and sparse; redrawn until
    the complement is connected), and connectivity-conditioned uniform
    random graphs. Every redraw stops at 10,000 tries (``_redraw``)."""
    rng = SplitMix64(config.seed)
    n, param = config.n, config.param
    if n < 1:
        raise ValueError("n must be positive")
    if config.family == "random-chordal":
        return _grow_chordal(rng, n, param)
    if config.family == "random-co-chordal":
        if n < 4:
            raise ValueError("co-chordal family needs n >= 4")
        h = _redraw(lambda: _grow_chordal(rng, n, param), complement_is_connected,
                    "a connected complement; adjust param")
        return materialize_complement(h)
    if config.family == "random-split":
        k = int(param)
        if not 2 <= k <= n - 2:
            raise ValueError("split family needs 2 <= int(param) <= n - 2")
        return _redraw(lambda: _split(rng, n, k), complement_is_connected,
                       "a connected complement; adjust param")
    if config.family == "random-connected":
        def draw() -> Graph:
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.unit() < param]
            return Graph([f"v{i}" for i in range(n)], edges)

        return _redraw(draw, is_connected, "a connected graph; raise param")
    raise ValueError(f"unknown family {config.family!r}")
