"""Clique-tree construction.

Builders come in several flavors: from an arbitrary perfect elimination
ordering, from a perfect moplex ordering (which completes each maximal clique
before starting the next, enabling a simpler new-clique test), fused with the
label searches, and the complement pair: one minimizing search on g yields
the generators of the complement's maximal cliques and minimal separators,
and the complement's clique tree is read off them, without ever
materializing complement edges.

The fused builders share two loops, each with one switch. ``_mls_tree``
runs the search on the input graph for ``mls_clique_tree`` and
``dcl_mls_clique_tree``; its switch is the new-node rule, the set test or
the label test for structures that detect clique boundaries with labels.
``_mlsm_tree`` runs the triangulating search for the clique tree of the
filled graph and the atom tree (``chordalkit.decomposition``); its switch is
the graph in which a boundary separator must be a clique to open a node.
All tree assembly is ``_TreeBuilder``'s.

Clique indices are 1-based and append-only; node 1 starts empty and grows.
Tree edges pair clique indices; each edge's intersection is a minimal
separator of the (possibly complement) chordal graph.
"""

from __future__ import annotations

from itertools import filterfalse
from types import SimpleNamespace
from typing import Callable, Sequence

from . import debug
from .errors import (
    ComplementNotChordalError,
    DebugInvariantError,
    NotAPeoError,
    NotChordalError,
    NotMCCompError,
)
from .graph import (
    Graph,
    Ordering,
    VertexSet,
    is_clique_in,
    materialize_complement,
    require_complement_connected,
    require_connected,
)
from .labeling import (
    LabelingStructure,
    require_complement_reversing,
    require_dcl,
    structure_by_token,
)
from .record import Record, field
from .search import LabelSearch, SearchTrace, TieBreak, TriangulationResult


class CliqueTreeResult(Record):
    """Cliques K_1..K_s, tree edges on 1-based indices, the deduplicated
    separator set, the clique each vertex was filed into, and the ordering
    that produced everything."""

    cliques: tuple[VertexSet, ...]
    tree_edges: tuple[tuple[int, int], ...]
    separators: frozenset[VertexSet]
    clique_of: dict[int, int]
    ordering: Ordering
    trace: SearchTrace | None = field(default=None, compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.cliques)

    def clique(self, j: int) -> VertexSet:
        """Clique with 1-based index j."""
        return self.cliques[j - 1]

    def edge_separator(self, p: int, q: int) -> VertexSet:
        return self.clique(p) & self.clique(q)


class GeneratorsResult(Record):
    """Vertices generating the maximal cliques / minimal separators of the
    complement graph: closed (resp. open) higher neighborhoods in the
    complement of the listed vertices, taken in order, are exactly those."""

    ordering: Ordering
    gen_cliques: tuple[int, ...]
    gen_separators: tuple[int, ...]
    trace: SearchTrace | None = field(default=None, compare=False, repr=False)


def _anchor(sep: VertexSet, pos, x: int) -> int:
    """The anchor of x's step: the vertex p of x's processed neighborhood
    sep with the smallest position (x itself when sep is empty, where the
    step has nothing to check or open). A node opened for sep hangs off
    p's node, and p is the pivot of the follower check of Tarjan &
    Yannakakis: sep - {p} must lie in N(p), i.e. ``len(sep - N(p)) <= 1``
    since p is not in N(p), which is O(|sep|). Run in decreasing position
    order, it first fails at the same step as a pairwise clique test: if
    sep(x) is the first non-clique but sep(x) - {p} lies in N(p), its
    non-adjacent pair lies in sep(p), and p was processed earlier. It may
    skip a step that opens no node and whose sep equals the current node,
    a known clique (opened from a checked sep, every later member joined
    by such a step): the check would pass, and the node stays a clique."""
    return min(sep, key=pos.__getitem__) if sep else x


class _TreeBuilder:
    """Bookkeeping shared by every builder: the growing clique list, tree
    edges, separator store (canonical frozensets, so duplicates collapse),
    the vertex-to-clique map, and the current node ``at``, which each
    vertex joins, after its step opens a node, if it does. The peo walker
    and the atom-tree builder (whose nodes are atoms) may move ``at`` back
    to an earlier node."""

    def __init__(self) -> None:
        self.cliques: list[set[int]] = [set()]
        self.edges: list[tuple[int, int]] = []
        self.seps: set[VertexSet] = set()
        self.clique_of: dict[int, int] = {}
        self.at = 1

    def current(self) -> set[int]:
        return self.cliques[self.at - 1]

    def open(self, sep: VertexSet, p: int) -> None:
        """Open a node for sep under the node of its anchor p (``_anchor``)."""
        self.cliques.append(set(sep))
        self.at = len(self.cliques)
        self.edges.append((self.clique_of[p], self.at))
        self.seps.add(sep)

    def join(self, x: int) -> None:
        self.cliques[self.at - 1].add(x)
        self.clique_of[x] = self.at

    def result(self, ordering: Ordering, trace: SearchTrace | None = None) -> CliqueTreeResult:
        return CliqueTreeResult(
            cliques=tuple(frozenset(c) for c in self.cliques),
            tree_edges=tuple(self.edges),
            separators=frozenset(self.seps),
            clique_of=dict(self.clique_of),
            ordering=ordering,
            trace=trace,
        )


def _debug_check_partial(
    builder: _TreeBuilder,
    adjacent: Callable[[int, int], bool],
    numbered: Sequence[int],
    pos,
) -> None:
    """Oracle-backed mid-run check (debug mode, small n only): the tree so
    far passes ``oracle.validate_clique_tree`` on the processed subgraph,
    and every processed vertex's closed higher neighborhood sits inside its
    clique."""
    from . import oracle

    verts = sorted(numbered)
    remap = {v: i for i, v in enumerate(verts)}
    sub = Graph(
        [str(v) for v in verts],
        [
            (remap[a], remap[b])
            for ai, a in enumerate(verts)
            for b in verts[ai + 1 :]
            if adjacent(a, b)
        ],
    )
    tree = SimpleNamespace(
        cliques=tuple(frozenset(remap[v] for v in c) for c in builder.cliques),
        tree_edges=tuple(builder.edges),
        separators=frozenset(frozenset(remap[v] for v in s) for s in builder.seps),
    )
    violations = oracle.validate_clique_tree(sub, tree)
    if violations:
        raise DebugInvariantError(f"partial clique tree: {'; '.join(violations)}")
    for y in numbered:
        hood = {z for z in numbered if adjacent(y, z) and pos[z] > pos[y]} | {y}
        if not hood <= builder.cliques[builder.clique_of[y] - 1]:
            raise DebugInvariantError(
                f"closed higher neighborhood of {y} escapes its clique"
            )


def _debug_step(builder: _TreeBuilder, run: LabelSearch, x: int, sep: VertexSet) -> None:
    """The engine builders' debug hooks after x's step, run in debug mode
    only: the label test that chose the step agrees with the set test
    (x's node is sep plus x), and the partial tree passes
    ``_debug_check_partial`` on the run's adjacency."""
    if builder.current() != sep | {x}:
        raise DebugInvariantError(f"label test and set test disagree at position {run.pos[x]}")
    if run.n <= debug.ORACLE_CHECK_MAX_N:
        _debug_check_partial(builder, lambda a, b: b in run.hood(a), run.alpha[run.pos[x]:], run.pos)


# ---------------------------------------------------------------------------
# builders from a given ordering


def clique_tree_from_peo(h: Graph, alpha: Ordering) -> CliqueTreeResult:
    """Clique tree and minimal separators of a connected chordal graph from
    an arbitrary perfect elimination ordering.

    Walks positions n down to 1; the processed neighborhood S of each vertex
    either equals an existing node (the vertex joins it) or opens a new node
    hanging off the node of S's earliest vertex, recording S as a separator.
    A non-clique S (i.e. the ordering is not a peo, e.g. the graph is not
    chordal) raises.
    """
    return _walk_ordering(h, alpha, join_parent=True)


def clique_tree_from_pmo(h: Graph, alpha: Ordering, *, validate: bool = False) -> CliqueTreeResult:
    """Clique tree from a clique-completing peo (equivalently, a perfect
    moplex ordering): the simplified new-node test compares the processed
    neighborhood against the current node only. Cliques other than the
    current one are maximal at every intermediate step.

    With validate on, the finished node set is checked against the exact
    maximal cliques and a mismatch raises (the ordering was not
    clique-completing); otherwise the precondition is trusted.
    """
    result = _walk_ordering(h, alpha, join_parent=False)
    if validate:
        from . import oracle

        if set(result.cliques) != oracle.maximal_cliques(h):
            raise NotMCCompError("ordering does not complete maximal cliques one by one")
    return result


def _walk_ordering(h: Graph, alpha: Ordering, join_parent: bool) -> CliqueTreeResult:
    """The walk of both builders above, positions n down to 1. Each vertex
    joins the current node, which with join_parent (an arbitrary peo) first
    moves to the node of the earliest vertex of the processed neighborhood
    S; when that node is not S, the vertex opens a new node for S. After
    the length check, errors come in walk order: connectivity is checked
    only at a stranded vertex (an empty S after the first), or on no vertex."""
    if len(alpha) != h.n:
        raise ValueError("ordering length does not match the graph")
    if not h.n:
        require_connected(h)
    builder = _TreeBuilder()
    adj, seq, pos = h.adj, alpha.seq, alpha.pos
    done: set[int] = set()
    checking = debug.enabled() and h.n <= debug.ORACLE_CHECK_MAX_N
    for i in range(h.n, 0, -1):
        x = seq[i - 1]
        sep = adj[x] & done
        p = _anchor(sep, pos, x)
        if len(sep - adj[p]) > 1:
            raise NotAPeoError(
                f"processed neighborhood of {h.names[x]!r} at position {i} is not a clique"
            )
        if i < h.n:
            if not sep:
                # a peo of a connected graph never strands a vertex
                require_connected(h)
                raise NotAPeoError(f"vertex {h.names[x]!r} at position {i} has no later neighbor")
            if join_parent:
                builder.at = builder.clique_of[p]
        if builder.current() != sep:
            builder.open(sep, p)
        builder.join(x)
        done.add(x)
        if checking:
            _debug_check_partial(builder, h.adjacent, seq[i - 1:], pos)
    return builder.result(alpha)


# ---------------------------------------------------------------------------
# builders fused with the label search


def mls_clique_tree(
    h: Graph,
    structure: LabelingStructure,
    tiebreak: TieBreak | None = None,
) -> CliqueTreeResult:
    """Run the moplex-refined label search and build the clique tree on the
    fly with the set-based new-node test (``_mls_tree``). Works for every
    labeling structure satisfying the inclusion condition."""
    return _mls_tree(LabelSearch(h, structure, tiebreak), label_test=False)


def dcl_mls_clique_tree(
    h: Graph,
    structure: LabelingStructure,
    tiebreak: TieBreak | None = None,
    *,
    enforce_dcl: bool = True,
) -> CliqueTreeResult:
    """Like mls_clique_tree but the new-node test is purely on labels: a new
    clique starts exactly when the chosen label does not exceed the previous
    one. Sound only for structures that detect new cliques with labels; with
    enforce_dcl off the run proceeds regardless and the result can be invalid
    (useful to reproduce the failure of structures that lack the property)."""
    if enforce_dcl:
        require_dcl(structure)
    return _mls_tree(LabelSearch(h, structure, tiebreak), label_test=True, checked=enforce_dcl)


def _mls_tree(run: LabelSearch, label_test: bool, checked: bool = True) -> CliqueTreeResult:
    """The loop of both builders above, on the run's graph h: a step opens a
    node when its new-node rule says so, the label test
    (``LabelSearch.boundary``) or the set test (the processed neighborhood
    S differs from the current node). Only a step that may open a node is
    anchored and follower-checked: one that opens none while S equals the
    current node, a known clique, joins it unchecked (``_anchor``). Under
    the set test ``known`` never clears, and S is compared with the node
    once, by the rule itself. ``checked`` off disarms the debug step check,
    which a label test trusted past its gate would fail."""
    h = run.g
    adj, done, pos, boundary = h.adj, run.done, run.pos, run.boundary
    checking = run.debug and checked
    builder = _TreeBuilder()
    known = True  # the current node is a known clique
    for _, x in run.steps(True):
        sep = adj[x] & done
        new = boundary(x) if label_test else sep != builder.current()
        if new or not known or label_test and sep != builder.current():
            p = _anchor(sep, pos, x)
            if len(sep - adj[p]) > 1:
                raise NotChordalError(
                    f"processed neighborhood of {h.names[x]!r} is not a clique; input not chordal"
                )
            if new:
                builder.open(sep, p)
            known = new
        builder.join(x)
        if checking:
            _debug_step(builder, run, x, sep)
    return builder.result(run.ordering(), run.trace)


def _mlsm_tree(g: Graph, structure: LabelingStructure, tiebreak: TieBreak | None,
               clique_in: Graph | None) -> tuple[CliqueTreeResult, TriangulationResult]:
    """The loop of the builders fused with the triangulating search
    (``chordalkit.decomposition``): the moplex-refined search on g fills it
    to a chordal H, whose tree it builds with the label test, and returns
    that tree and the triangulation. At a label boundary the separator S
    opens a node when it is a clique in ``clique_in`` (always when that is
    None, for the clique tree of H; g for the atom tree), and otherwise the
    step joins its anchor's node. H is chordal, so no step is
    follower-checked, and only a boundary reads S, but for the debug step
    check of the clique tree of H."""
    require_dcl(structure)
    run = LabelSearch(g, structure, tiebreak, triangulate=True)
    hood, done, pos, boundary = run.hood, run.done, run.pos, run.boundary
    checking = run.debug and clique_in is None
    builder = _TreeBuilder()
    for _, x in run.steps(True):
        if boundary(x):
            sep = frozenset(hood(x) & done)
            p = _anchor(sep, pos, x)
            if clique_in is None or is_clique_in(clique_in, sep):
                builder.open(sep, p)
            else:
                builder.at = builder.clique_of[p]
        builder.join(x)
        if checking:
            _debug_step(builder, run, x, frozenset(hood(x) & done))
    tri = run.triangulation()
    return builder.result(tri.ordering), tri


# ---------------------------------------------------------------------------
# complement builders


def complement_mls_clique_tree(
    g: Graph,
    structure: LabelingStructure,
    tiebreak: TieBreak | None = None,
) -> CliqueTreeResult:
    """Clique tree and minimal separators of the complement of g, read off
    the ``complement_mls_generators`` run once ``_require_complement_peo``
    has checked its ordering. The complement is never built: walking
    positions n down to 1, each separator generator x opens a node for its
    later complement neighborhood S under its follower's node, and every
    vertex joins the last node. Each vertex after x is x's complement
    neighbor or its neighbor in g, so listing S costs O(|S| + deg x), and
    the tree O(n + m + sum |K| + sum |S|) over its cliques and separators.
    """
    gens = complement_mls_generators(g, structure, tiebreak)
    _require_complement_peo(g, gens.ordering)
    adj, seq, pos = g.adj, gens.ordering.seq, gens.ordering.pos
    opens = set(gens.gen_separators)
    builder = _TreeBuilder()
    for x in reversed(seq):
        if x in opens:
            sep = list(filterfalse(adj[x].__contains__, seq[pos[x]:]))
            if not sep:
                raise ComplementNotChordalError("empty boundary separator mid-run")
            builder.open(frozenset(sep), sep[0])  # under x's follower's node
        builder.join(x)
    if debug.enabled() and g.n <= debug.ORACLE_CHECK_MAX_N:
        _debug_check_partial(builder, lambda a, b: a != b and b not in adj[a], seq, pos)
    return builder.result(gens.ordering, gens.trace)


def _require_complement_peo(g: Graph, alpha: Ordering) -> None:
    """Raise ComplementNotChordal unless alpha is a perfect elimination
    ordering of g's complement: the follower test of Tarjan & Yannakakis
    (1984), read on g's edges in O(n + m). The follower p of x is x's first
    later complement neighbor, and x's other later complement neighbors
    must be complement neighbors of p, i.e. p's later neighbors in g must
    all be neighbors of x. Checked in decreasing position order, the first
    failure is at the first non-clique (see ``_anchor``)."""
    adj, seq, n = g.adj, alpha.seq, g.n
    # the scan from x's successor skips only neighbors: O(deg x + 1)
    follower = [next(filterfalse(adj[x].__contains__, map(seq.__getitem__, range(i, n))), None)
                for i, x in enumerate(seq, 1)]
    followed = set(follower)
    later: dict[int, set[int]] = {}  # a follower's later neighbors in g
    done: set[int] = set()
    for i in range(n, 0, -1):
        x, p = seq[i - 1], follower[i - 1]
        if p is not None and not later[p] <= adj[x]:
            raise ComplementNotChordalError(
                f"complement neighborhood of {g.names[x]!r} is not a complement clique"
            )
        if x in followed:
            later[x] = adj[x] & done
        done.add(x)


def _debug_equal_label_boundary(run: LabelSearch, g: Graph, x: int) -> bool:
    """Debug hook of the complement run (small n), at x's step: a vertex
    unnumbered before x (x included) has the previous minimal label, in the
    run's shadow ``ScanQueue``, exactly when its complement neighborhood
    among the vertices numbered before x equals the previous vertex's closed
    one, the clique that a clique-completing ordering is building. That
    holds on co-chordal inputs only, so a disagreement raises only when the
    oracle finds the complement chordal; otherwise the hook returns False,
    to be disarmed, and ``_require_complement_peo`` reports the input."""
    from . import oracle

    i = run.pos[x]
    before = set(run.alpha[i + 1:])
    current = before.difference(g.adj[run.alpha[i + 1]])  # the previous vertex is in it
    shadow = run.shadow
    assert shadow is not None
    for y in range(run.n):
        if y in run.done and y != x:
            continue
        if shadow.continues(y) != (before.difference(g.adj[y]) == current):
            if not oracle.is_chordal(materialize_complement(g)):
                return False
            raise DebugInvariantError(
                f"equal-label test and clique-boundary test disagree on vertex {y}"
            )
    return True


def complement_mls_generators(
    g: Graph,
    structure: LabelingStructure,
    tiebreak: TieBreak | None = None,
) -> GeneratorsResult:
    """Generators of the complement's maximal cliques and minimal separators
    w.r.t. the computed ordering, from one minimizing search that never
    builds the complement: it reads g's rows, or on a graph with more
    edges than its complement the complement's rows, one set difference
    each (see ``LabelSearch``), O(n + min(m, m')) interpreted work over
    the m' complement edges. Chordality of the
    complement is a trusted precondition here; ``complement_mls_clique_tree``
    and the CLI check it on the result's ordering with
    ``_require_complement_peo``, in O(n + m)."""
    require_complement_connected(g)
    require_complement_reversing(structure)
    run = LabelSearch(g, structure, tiebreak, minimize=True)
    armed = run.shadow is not None  # the equal-label debug hook, until the input is found at fault
    gen_cli: list[int] = []
    gen_sep: list[int] = []
    for i, x in run.steps(True):
        if run.boundary(x):
            gen_cli.append(run.alpha[i + 1])  # type: ignore[arg-type]
            gen_sep.append(x)
        if armed and i < g.n:
            armed = _debug_equal_label_boundary(run, g, x)
    gen_cli.append(run.alpha[1])  # type: ignore[arg-type]
    return GeneratorsResult(run.ordering(), tuple(gen_cli), tuple(gen_sep), run.trace)


def extract_generators(result: CliqueTreeResult) -> GeneratorsResult:
    """Read the generators off a clique-completing tree result: each clique's
    earliest-position vertex generates it; each non-root clique's latest
    vertex outside its opening separator generates that separator."""
    pos = result.ordering.pos
    gen_cli = [min(K, key=lambda v: pos[v]) for K in result.cliques]
    opened_sep = {q: result.edge_separator(p, q) for p, q in result.tree_edges}
    gen_sep = [
        max(result.clique(q) - opened_sep[q], key=lambda v: pos[v])
        for q in sorted(opened_sep)
    ]
    return GeneratorsResult(result.ordering, tuple(gen_cli), tuple(gen_sep))


# ---------------------------------------------------------------------------
# the two classic total-order structures by token


def fast_clique_tree(h: Graph, token: str) -> CliqueTreeResult:
    """``dcl_mls_clique_tree`` with the structure named by token, 'mcs' or
    'lexbfs', and lowest-index tie-breaking: for mcs the clique tree of
    Tarjan & Yannakakis (1984). It costs O((n + m) log n). It is that call,
    so the result carries the run's trace, built only when read; result
    equality and ``clique_tree_json`` ignore it."""
    if token not in ("mcs", "lexbfs"):
        raise ValueError("fast path supports 'mcs' and 'lexbfs' only")
    return dcl_mls_clique_tree(h, structure_by_token(token))
