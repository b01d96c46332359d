"""Output checker that shares no code with the package.

Everything works on vertex names and on adjacency parsed here from the
edge-list files. Each check returns a list of violations (empty means the
output passed) and runs in time linear in the size of the graph and the
output, except the pairwise test of clique separators, which are small.

Orderings list vertex names from position 1 (eliminated first) to position
n, as the package's results do.
"""

from __future__ import annotations

Adj = dict[str, set[str]]


def parse_edge_list(text: str) -> Adj:
    adj: Adj = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        a, b = line.split()
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def complement(adj: Adj) -> Adj:
    names = set(adj)
    return {v: names - adj[v] - {v} for v in adj}


def _later(adj: Adj, order: list[str]) -> tuple[dict[str, int], dict[str, set[str]]]:
    pos = {v: i for i, v in enumerate(order)}
    return pos, {v: {y for y in adj[v] if pos[y] > pos[v]} for v in order}


def permutation_violations(adj: Adj, order: list[str]) -> list[str]:
    if len(order) != len(adj) or set(order) != set(adj):
        return ["ordering is not a permutation of the vertex set"]
    return []


def peo_violations(adj: Adj, order: list[str]) -> list[str]:
    """Follower/parent test (Tarjan & Yannakakis 1984): each vertex's later
    neighbors, minus the earliest of them p, must be neighbors of p."""
    bad = permutation_violations(adj, order)
    if bad:
        return bad
    pos, later = _later(adj, order)
    for x in order:
        if later[x]:
            p = min(later[x], key=pos.__getitem__)
            if any(y != p and y not in adj[p] for y in later[x]):
                return [f"ordering is not a peo: later neighbors of {x!r} are not adjacent to {p!r}"]
    return []


def peo_cliques(adj: Adj, order: list[str]) -> tuple[set[frozenset], set[frozenset]]:
    """Maximal cliques and minimal separators of a chordal graph from one of
    its peos. With p(w) the earliest later neighbor of w, call w an extender
    of p(w) when later(w) = C_p(w), where C_x = {x} + later(x). C_x is
    maximal iff x has no extender. Walking the ordering backwards builds a
    clique tree in which the latest extender of each vertex grows that
    vertex's clique and every other w with nonempty later(w) opens a clique
    hanging off it, with separator later(w)."""
    pos, later = _later(adj, order)
    extender: dict[str, str] = {}
    for w in order:  # earliest first, so the latest extender wins
        if later[w]:
            p = min(later[w], key=pos.__getitem__)
            if len(later[w]) == len(later[p]) + 1:
                extender[p] = w
    grows = set(extender.values())
    cliques = {frozenset(later[x] | {x}) for x in order if x not in extender}
    seps = {frozenset(later[w]) for w in order if later[w] and w not in grows}
    return cliques, seps


def _tree_violations(nodes: list[frozenset], edges: list[tuple[int, int]], vertices) -> list[str]:
    """s - 1 acyclic edges on 1-based node indices, every vertex in a node,
    and the nodes holding each vertex induce a subtree (in a forest, k nodes
    are connected iff they induce k - 1 edges)."""
    s = len(nodes)
    if len(edges) != s - 1:
        return [f"tree has {len(edges)} edges for {s} nodes"]
    parent = list(range(s + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for p, q in edges:
        if not (1 <= p <= s and 1 <= q <= s):
            return [f"edge ({p},{q}) out of range"]
        rp, rq = find(p), find(q)
        if rp == rq:
            return [f"edge ({p},{q}) closes a cycle"]
        parent[rp] = rq
    holding: dict[str, int] = {}
    for node in nodes:
        for v in node:
            holding[v] = holding.get(v, 0) + 1
    if set(holding) != set(vertices):
        return ["nodes do not cover exactly the vertex set"]
    inside: dict[str, int] = {}
    for p, q in edges:
        for v in nodes[p - 1] & nodes[q - 1]:
            inside[v] = inside.get(v, 0) + 1
    for v, k in holding.items():
        if inside.get(v, 0) != k - 1:
            return [f"nodes holding {v!r} do not induce a subtree"]
    return []


def check_clique_tree(adj: Adj, cliques, edges, separators, order) -> list[str]:
    nodes = [frozenset(K) for K in cliques]
    bad = peo_violations(adj, order)
    if bad:
        return bad
    want_cliques, want_seps = peo_cliques(adj, order)
    if len(set(nodes)) != len(nodes) or set(nodes) != want_cliques:
        return ["nodes are not exactly the maximal cliques"]
    bad = _tree_violations(nodes, list(edges), adj)
    if bad:
        return bad
    got = {nodes[p - 1] & nodes[q - 1] for p, q in edges}
    if got != want_seps:
        return ["edge intersections are not the minimal separators"]
    if set(map(frozenset, separators)) != got:
        return ["stored separators differ from the edge intersections"]
    return []


def filled(adj: Adj, fill) -> Adj:
    h = {v: set(s) for v, s in adj.items()}
    for a, b in fill:
        h[a].add(b)
        h[b].add(a)
    return h


def check_triangulation(adj: Adj, order, fill) -> list[str]:
    """The fill edges are new and distinct, and the ordering is a peo of the
    filled graph."""
    pairs = {frozenset(e) for e in fill}
    if len(pairs) != len(fill) or any(len(p) != 2 for p in pairs):
        return ["fill edges repeat or are loops"]
    if any(b in adj.get(a, ()) for a, b in fill):
        return ["a fill edge is already an edge"]
    if any(a not in adj or b not in adj for a, b in fill):
        return ["a fill edge names an unknown vertex"]
    return peo_violations(filled(adj, fill), order)


def check_atom_tree(adj: Adj, atoms, edges, separators, order, fill) -> list[str]:
    """The triangulation is valid; atoms form a tree with the subtree
    property; every edge lies in an atom; the stored clique separators are
    the edge intersections and are cliques of the input."""
    bad = check_triangulation(adj, order, fill)
    if bad:
        return bad
    nodes = [frozenset(A) for A in atoms]
    bad = _tree_violations(nodes, list(edges), adj)
    if bad:
        return bad
    where: dict[str, set[int]] = {}
    for j, A in enumerate(nodes):
        for v in A:
            where.setdefault(v, set()).add(j)
    for a in adj:
        for b in adj[a]:
            if a < b and not where[a] & where[b]:
                return [f"edge {a}-{b} lies in no atom"]
    got = {nodes[p - 1] & nodes[q - 1] for p, q in edges}
    if set(map(frozenset, separators)) != got:
        return ["stored clique separators differ from the edge intersections"]
    for S in got:
        members = sorted(S)
        if any(b not in adj[a] for i, a in enumerate(members) for b in members[i + 1:]):
            return [f"separator {members} is not a clique"]
    return []


def check_generators(cadj: Adj, order, gen_cliques, gen_separators) -> list[str]:
    """Generators of the complement: the ordering is a peo of the complement
    ``cadj``, and the closed (open) later neighborhoods of the listed
    vertices are exactly its maximal cliques (minimal separators)."""
    bad = peo_violations(cadj, order)
    if bad:
        return bad
    if len(gen_cliques) != len(gen_separators) + 1:
        return ["generator counts are off"]
    want_cliques, want_seps = peo_cliques(cadj, order)
    _, later = _later(cadj, order)
    if {frozenset(later[v] | {v}) for v in gen_cliques} != want_cliques:
        return ["clique generators do not give the maximal cliques"]
    if {frozenset(later[v]) for v in gen_separators} != want_seps:
        return ["separator generators do not give the minimal separators"]
    return []
