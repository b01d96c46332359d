"""The label-search engine: plain and moplex-refined searches, and their
triangulating counterparts that add fill edges on the fly.

One loop, ``LabelSearch.steps``, runs every search. It numbers vertices from
position n down to 1, at each step choosing an unnumbered vertex with maximal
label (no other unnumbered label compares strictly greater), handing the step
to the caller's loop body (the per-step sink: clique tree, generators, atom
tree, or nothing for a bare ordering), then increasing the labels of affected
unnumbered vertices with the current position. It is generic over any
labeling structure that satisfies the inclusion condition, checked when a
run is built. On chordal inputs the plain searches emit perfect elimination
orderings; the moplex variants additionally emit perfect moplex orderings;
the triangulating variants emit minimal elimination / moplex orderings
together with the filled graph.

Costs: every search selects through one queue; its triangulating label
increase asks the same queue which vertices the chosen vertex reaches, and
the builders' label test asks it whether the chosen label continues the
previous one (strictly greater when maximizing, equal when minimizing),
which the moplex rule prefers. The engine stores no labels: a step hands
the chosen vertex's unnumbered neighbors, one set difference, to the
queue's one ``bump``, and the queue answers the label test from its blocks
in O(1), with no label comparison, for every built-in structure. The
four built-in structures bring their own selection queues, whose designs
and costs ``chordalkit.selection`` states; with ``LowestIndex`` a plain
search costs O((n + m) log n) with any of the three total orders, the log
being the heaps': an mcs increase moves a vertex between count buckets.
A minimizing search on a graph with more edges m than its complement's m'
(4m > n(n - 1)) selects on the complement side when its structure has a
queue: the queue maximizes, and a step bumps x's complement row less the
numbered vertices, two set differences in C (``ComplementView.neighbors``).
Such a search does O(n + min(m, m')) interpreted work instead of O(n + m),
plus O(n) in C per step (``LabelSearch``). Any
other structure gets a ``ScanQueue``, the one place labels are kept: it
applies the structure's increase, scans the unnumbered labels, O(n)
comparisons per step, and searches once per candidate target,
O(n (n + m)) per step. The three total queues find the reach targets with
one walk up their label classes over vertex bitsets, O(n) operations on
n-bit ints per step. The whole search then costs O(n^3 / w) word
operations; MCS-M and LEX M take O(nm). MNS runs one bitset search per
label block of its queue, O(blocks^2) mask tests per step at worst. A
trace is built when its entries are first read (``SearchTrace``).
Connectivity is the engine's to check: when a triangulating run or one on
no vertex is built, else at the step that strands a vertex, which on a
connected graph names a broken inclusion condition (``LabelSearch``).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from . import debug
from .errors import DebugInvariantError, IcViolationError, ScriptConflictError
from .graph import (
    ComplementView,
    Graph,
    Ordering,
    require_connected,
)
from .labeling import Cmp, Label, LabelingStructure, lab, require_ic
from .record import Record
from .rng import SplitMix64
from .selection import BucketQueue, OrderedPartition


# ---------------------------------------------------------------------------
# tie-break policies


class TieBreak:
    """Chooses among equally acceptable candidates. Policies never override
    the label rule: they only pick within the legal candidate set.

    ``start(g, queue)`` begins one run and returns its pick: a callable
    with no arguments that returns a vertex of the queue's extreme label
    class (for mns, the union of its extreme classes narrowed by prefer),
    which is the whole candidate set at that step."""

    def start(self, g: Graph | ComplementView, queue: BucketQueue | OrderedPartition | ScanQueue) -> Callable[[], int]:
        raise NotImplementedError


class LowestIndex(TieBreak):
    """Deterministic default: smallest vertex index wins. The pick is the
    queue's own ``lowest``."""

    def start(self, g, queue):
        return queue.lowest

    def __repr__(self):
        return "LowestIndex()"


class SeededRandom(TieBreak, Record):
    """Seeded uniform pick: the ``rng.below(k)``-th smallest member of the
    extreme class of k vertices, drawn from a SplitMix64 stream. Each pick
    copies and sorts the class, O(k log k) per step, so on inputs with
    large classes (a star) a run costs O(n^2 log n) where ``LowestIndex``
    reads the queue's heap."""

    seed: int

    def start(self, g, queue):
        rng = SplitMix64(self.seed)

        def pick() -> int:
            ordered = sorted(queue.extreme())
            return ordered[rng.below(len(ordered))]

        return pick


class ScriptedOrder(TieBreak, Record):
    """Explicit pick sequence by vertex name, first pick first (so the list
    reads from position n downward). A scripted vertex that is not a legal
    candidate at its turn is an error, never a silent override; after the
    script runs out, lowest index takes over."""

    picks: tuple[str, ...]

    def __init__(self, picks: Iterable[str]):
        object.__setattr__(self, "picks", tuple(picks))

    def start(self, g, queue):
        seen = set()
        indices = []
        for name in self.picks:
            if name in seen:
                raise ScriptConflictError(f"script names vertex {name!r} twice")
            seen.add(name)
            indices.append(g.index(name))
        script, names = iter(indices), g.names

        def pick() -> int:
            wanted = next(script, None)
            if wanted is None:
                return queue.lowest()
            if wanted not in queue.extreme():
                raise ScriptConflictError(
                    f"scripted vertex {names[wanted]!r} is not a legal choice here"
                )
            return wanted

        return pick


# ---------------------------------------------------------------------------
# traces and results


class TraceEntry(Record):
    i: int
    vertex: int
    label: Label
    increased: tuple[int, ...]
    fill: tuple[tuple[int, int], ...] = ()


class SearchTrace:
    """One entry per completed step of a search, from position n down: the
    vertex numbered i, its label when chosen, the vertices whose labels it
    increased (ascending) and the fill edges of the step.

    The search records nothing per step. A run's trace keeps its structure,
    positions, count of completed steps, fill edges in insertion order and
    the adjacency its labels grew along (g, or the filled graph H once a
    triangulating run has made it), and builds ``entries`` on first read,
    after which it keeps only those. Step i's vertex x increased its
    neighbors placed below i, and its label is ``lab`` of the positions of
    its neighbors placed above i: a label is the fold of the positions at
    which it grew. Its fill edges are the next ones in insertion order that
    contain x, the very tuples the result holds. Reading costs
    O((n + m + |fill|) log n) with a built-in structure, whose labels
    ``lab`` builds in one step."""

    __hash__ = None  # type: ignore[assignment]

    def __init__(self, structure: str, entries: list[TraceEntry] | None = None):
        self.structure = structure
        self._entries: list[TraceEntry] | None = [] if entries is None else entries
        self._source: tuple | None = None

    @classmethod
    def _lazy(cls, structure: LabelingStructure, *source) -> SearchTrace:
        """A trace whose entries are built on first read from ``source``:
        (the neighbors function of the adjacency the labels grew along, seq
        and pos as in ``Ordering``, the completed steps, the fill edges)."""
        trace = cls(structure.name)
        trace._entries, trace._source = None, (structure, *source)
        return trace

    @property
    def entries(self) -> list[TraceEntry]:
        if self._entries is None:
            structure, hood, seq, pos, steps, fill = self._source  # type: ignore[misc]
            entries, k = [], 0
            for i in range(len(pos), len(pos) - steps, -1):
                x = seq[i - 1]
                hx = hood(x)
                j = k
                while j < len(fill) and x in fill[j]:
                    j += 1
                label = lab(structure, [pos[y] for y in hx if pos[y] > i])
                increased = tuple(sorted([y for y in hx if pos[y] < i]))
                entries.append(TraceEntry(i, x, label, increased, tuple(fill[k:j])))
                k = j
            self._entries, self._source = entries, None
        return self._entries

    def final_labels(self) -> dict[int, Label]:
        return {e.vertex: e.label for e in self.entries}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.structure, self.entries) == (other.structure, other.entries)  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        return f"SearchTrace(structure={self.structure!r}, entries={self.entries!r})"


class TriangulationResult(Record):
    """An ordering, the input graph plus its fill (chordal), and the fill
    edges in insertion order, which the result JSON keeps.

    The graph is frozen from the adjacency sets that made it: a
    triangulating search's overlay, or the elimination game's sets. That
    costs O(n + m + |fill|), with no edge list rebuilt, and shares the
    input's names and name index."""

    ordering: Ordering
    graph: Graph
    fill_edges: tuple[tuple[int, int], ...]


# ---------------------------------------------------------------------------
# engine core


class ScanQueue:
    """The selection queue of a structure without one of its own, and the
    only place the engine keeps labels: ``bump`` applies the structure's
    ``inc`` to them, and every other call scans them. Selection costs O(n)
    label comparisons per step when the extreme labels are few; ``reach``
    runs one search per candidate target, O(n (n + m)) per step; the label
    test compares two labels. With ``CHORDALKIT_DEBUG=1`` the search also
    runs one next to any other queue, fed the same calls (a flipped run's
    bumps read g's rows), as the debug hooks' reference, and ``bump``
    checks that every label grows."""

    def __init__(self, structure: LabelingStructure, g: Graph | ComplementView, minimize: bool):
        self.structure = structure
        self.g = g
        self.labels: list[Label] = [structure.initial() for _ in range(g.n)]
        self.numbered = [False] * g.n
        self.minimize = minimize
        self.prefer = False  # the moplex rule
        self.prev: Label = structure.initial()  # the last removed vertex's label
        self.continuing = Cmp.EQUAL if minimize else Cmp.LESS  # compare(prev, a label continuing it)
        self.check = debug.enabled()

    def remove(self, v: int) -> None:
        self.numbered[v] = True
        self.prev = self.labels[v]

    def bump(self, vs: Iterable[int], i: int) -> None:
        labels, inc, cmp = self.labels, self.structure.inc, self.structure.compare
        for y in vs:
            old = labels[y]
            new = labels[y] = inc(old, i)
            if self.check and cmp(old, new) not in (Cmp.LESS, Cmp.EQUAL):
                raise DebugInvariantError(
                    f"label of vertex {y} did not grow under inc at position {i}"
                )

    def continues(self, x: int) -> bool:
        return self.structure.compare(self.prev, self.labels[x]) is self.continuing

    def extreme(self) -> list[int]:
        """The unnumbered vertices whose label no other unnumbered label
        beats (strictly greater, or strictly less with minimize), in
        ascending order. ``prefer`` narrows them to those whose label
        continues the last removed one when that leaves any: for a total
        order all of them carry one label and it keeps them all or none."""
        beats = Cmp.GREATER if not self.minimize else Cmp.LESS
        loses = Cmp.LESS if not self.minimize else Cmp.GREATER
        cmp, labels = self.structure.compare, self.labels
        cands: list[int] = []
        for v in range(len(labels)):
            if self.numbered[v]:
                continue
            lv, survivors = labels[v], []
            for c in cands:
                r = cmp(labels[c], lv)
                if r is beats:
                    break
                if r is not loses:
                    survivors.append(c)
            else:
                survivors.append(v)
                cands = survivors
        if self.prefer:
            narrowed = [v for v in cands if self.continues(v)]
            if narrowed:
                return narrowed
        return cands

    def lowest(self) -> int:
        return min(self.extreme())

    def reach(self, x: int, nb: list[int]) -> list[int]:
        """The triangulating search's targets from x in ascending order, by
        one DFS from x per unnumbered y through unnumbered vertices labeled
        strictly below y, over g's adjacency sets; ``nb`` goes unread."""
        g = self.g
        assert isinstance(g, Graph)
        cmp, labels, numbered = self.structure.compare, self.labels, self.numbered
        less = Cmp.LESS
        targets: list[int] = []
        for y in range(g.n):
            if y == x or numbered[y]:
                continue
            ly, reachable, seen, stack = labels[y], False, {x}, [x]
            while stack and not reachable:
                u = stack.pop()
                for w in g.adj[u]:
                    if w == y:
                        reachable = True
                        break
                    if w in seen or numbered[w] or w == x:
                        continue
                    if cmp(labels[w], ly) is less:
                        seen.add(w)
                        stack.append(w)
            if reachable:
                targets.append(y)
        return targets


class LabelSearch:
    """One label search on g: the numbered set, candidate selection under a
    partial order, the debug hooks, and the loop ``steps`` that every
    search function runs, adding its per-step rule as the loop body.

    Building a run gates the inclusion condition (``require_ic``) before
    any state is made. The run stores no labels. Selection, the
    triangulating reach targets and the builders' label test all come from
    one queue: the structure's selection queue (``chordalkit.selection``),
    or a ``ScanQueue``, which keeps the labels, when it has none.

    Labels mirror the processed neighborhoods, ``hood(x) & done`` with the
    numbered vertices ``done``, in one adjacency: ``hood`` reads g's
    adjacency sets (a ``ComplementView``'s ``neighbors``), or a
    triangulating run's ``overlay`` (g's adjacency plus the fill so far)
    and then H's.

    A plain minimizing run on a Graph with more edges than its complement
    (4m > n(n - 1)), whose structure has its own queue, is flipped: its
    queue maximizes over complement labels, fed each step's complement row
    less ``done`` (``rows``). A vertex's complement label folds the
    numbered vertices outside its g-label, and the four built-ins are
    complement-reversing, so at every step the least g-labels are the
    greatest complement labels and the extreme class is the same. A label
    equal to the last removed one is then one that grew from the same
    block at the last bump, which the queue's twin test (``twinned``)
    answers. ``hood``, the trace, the debug shadow (fed g's rows) and
    every error stay on the g side.

    A maximizing run checks connectivity (``require_connected``) when built,
    after the inclusion condition and before the script's names, if it
    triangulates or g is empty; otherwise at the first step i < n whose
    vertex has no numbered neighbor, which under the inclusion condition
    comes only on a disconnected g, once the first component is done. Such
    a step on a connected g ends the run with ``IcViolationError``: the
    structure broke the condition beyond its bounded check.
    """

    def __init__(
        self,
        g: Graph | ComplementView,
        structure: LabelingStructure,
        tiebreak: TieBreak | None = None,
        *,
        minimize: bool = False,
        triangulate: bool = False,
    ):
        require_ic(structure)
        n = g.n
        if not minimize and (triangulate or not n):  # a search of O(nm), or none
            require_connected(g)
        self.g = g
        self.structure = structure
        self.minimize = minimize
        self.n = n
        self.done: set[int] = set()
        # a minimizing run on a graph denser than its complement selects on
        # the complement side (see above)
        dense = minimize and not triangulate and isinstance(g, Graph) and 4 * g.m > n * (n - 1)
        queue = structure._selection_queue(n, minimize and not dense)
        self.flip = dense and queue is not None
        self.queue: BucketQueue | OrderedPartition | ScanQueue = queue or ScanQueue(structure, g, minimize)
        self.continues = self.queue.twinned if self.flip else self.queue.continues
        self.pick = (tiebreak or LowestIndex()).start(g, self.queue)
        self.alpha: list[int | None] = [None] * (n + 1)  # 1-based positions
        self.pos = [0] * n
        self.completed = 0  # steps whose labels have grown
        self._ordering: Ordering | None = None  # made once the run is complete
        self.overlay: list[set[int]] | None = [set(s) for s in g.adj] if triangulate else None
        self.hood = (self.overlay.__getitem__ if self.overlay is not None
                     else g.adj.__getitem__ if isinstance(g, Graph) else g.neighbors)
        # the rows whose unnumbered members a step bumps
        self.rows = ComplementView(g).neighbors if self.flip else self.hood  # type: ignore[arg-type]
        self.fill: list[tuple[int, int]] = []
        # vertex bitset adjacency, for the queue's reach
        self.nb = [sum(1 << w for w in s) for s in g.adj] if triangulate else None
        self.debug = debug.enabled()
        # the debug hooks' reference: a ScanQueue fed the same calls
        self.shadow = (ScanQueue(structure, g, minimize)
                       if self.debug and n <= debug.LABEL_CHECK_MAX_N else None)

    @property
    def trace(self) -> SearchTrace:
        """The trace of the steps completed so far, built when read. It keeps
        ``hood`` (H's once frozen), the positions, the fill edges and the
        structure, never the run, its queue or its bitsets; once complete,
        the positions of ``ordering()``, which the result holds too."""
        order = self.ordering() if self.completed == self.n else None
        seq, pos = (self.alpha[1:], self.pos) if order is None else (order.seq, order.pos)
        return SearchTrace._lazy(self.structure, self.hood, seq, pos, self.completed, self.fill)

    # -- the search loop

    def steps(self, prefer: bool = False) -> Iterator[tuple[int, int]]:
        """Run the search, yielding (i, x) once x is chosen and numbered i;
        the caller's loop body is the per-step sink. The tie-break's pick
        chooses x from the queue's extreme class, after the debug hooks
        check that class against the shadow's; ``prefer``, the moplex rule,
        narrows the class to the labels that continue the previous one
        (see ``boundary``) when any do. The queue still holds x during the
        body, so ``boundary`` compares x's label with the previous
        vertex's. Then the queue removes x and takes, in one ``bump``, the
        vertices whose labels grow: x's unnumbered neighbors, or
        (triangulating) the targets of ``inc_targets``, whose fill the step
        adds to the overlay."""
        queue, shadow, pick = self.queue, self.shadow, self.pick
        queue.prefer = prefer
        if shadow is not None:
            shadow.prefer = prefer
        g, alpha, pos, done, overlay, fill = self.g, self.alpha, self.pos, self.done, self.overlay, self.fill
        hood, rows, flip, n, maximize = self.hood, self.rows, self.flip, self.n, not self.minimize
        for i in range(n, 0, -1):
            if shadow is not None:
                self._assert_label_order(i)
                self._assert_queue_candidates(i)
            x = pick()
            hx = rows(x)
            if maximize and i < n and hx.isdisjoint(done):
                # g is disconnected, or the structure breaks the inclusion
                # condition beyond its bounded check; a triangulating run
                # checked connectivity when it was built
                if overlay is None:
                    require_connected(g)
                raise IcViolationError(f"{self.structure.name} broke the inclusion condition: vertex "
                                       f"{g.names[x]!r} at position {i} has no numbered neighbor")
            alpha[i] = x
            pos[x] = i
            done.add(x)
            yield i, x
            queue.remove(x)
            if shadow is not None:
                shadow.remove(x)
            if overlay is None:
                ys = hx - done
            else:
                ys = self.inc_targets(x, i)
                # every fill edge has x as one end, and every other target
                # is already x's neighbor
                adj = g.adj[x]
                overlay[x].update(ys)
                for y in ys:
                    if y not in adj:
                        overlay[y].add(x)
                        fill.append((x, y) if x < y else (y, x))
            queue.bump(ys, i)
            if shadow is not None:
                shadow.bump(hood(x) - done if flip else ys, i)
            self.completed += 1

    def boundary(self, x: int) -> bool:
        """The builders' label test: x, just chosen, starts a new clique
        unless it is the first vertex or its label continues the previous
        one, being greater (a maximizing run, for dcl structures) or equal
        (a minimizing run, for complement-reversing ones). The queue
        answers it from the blocks, in O(1)."""
        if self.pos[x] == self.n:
            return False
        new = not self.continues(x)
        shadow = self.shadow
        if shadow is not None and new == shadow.continues(x):
            raise DebugInvariantError(
                f"iteration {self.pos[x]}: the queue's {'equal' if self.minimize else 'less'} "
                f"label test disagrees with the label scan on vertex {x}"
            )
        return new

    # -- label updates

    def inc_targets(self, x: int, i: int) -> list[int]:
        """The triangulating label increase's targets, in ascending vertex
        order: an unnumbered y (distinct from x) qualifies when the original
        graph has a path from x to y through unnumbered internal vertices
        all labeled strictly below y's label (a plain edge qualifies with
        no internal vertices). Paths run on original edges only; fill is
        recorded, never searched through (searching the overlay would
        change nothing anyway: every fill edge keeps a numbered endpoint,
        and path internals must be unnumbered).

        The queue finds the targets (``reach``; ``chordalkit.selection``
        and ``ScanQueue`` state the designs and costs). With
        ``CHORDALKIT_DEBUG=1`` and small n every step is checked against a
        ``ScanQueue``'s per-target search."""
        targets = self.queue.reach(x, self.nb)
        if self.shadow is not None:
            want = self.shadow.reach(x, self.nb)
            if targets != want:
                raise DebugInvariantError(
                    f"iteration {i}: block reach search finds {targets} but the "
                    f"per-target scan finds {want}"
                )
        return targets

    # -- results

    def ordering(self) -> Ordering:
        if self._ordering is None:
            self._ordering = Ordering(self.alpha[1:])  # type: ignore[arg-type]
        return self._ordering

    def triangulation(self) -> TriangulationResult:
        """The finished triangulating run: its ordering and filled graph H,
        which is the overlay frozen under g's names, O(n + m + |fill|).
        ``hood``, and so the run's trace, reads H from then on."""
        g = self.g
        assert isinstance(g, Graph) and self.overlay is not None
        h = Graph._from_adj(g.names, g._index, self.overlay)
        self.hood = h.adj.__getitem__
        return TriangulationResult(self.ordering(), h, tuple(self.fill))

    # -- debug hooks

    def _assert_queue_candidates(self, i: int) -> None:
        """The queue's extreme class must be the candidate set the shadow
        ``ScanQueue`` finds under the same prefer rule and previous label."""
        got, want = set(self.queue.extreme()), set(self.shadow.extreme())  # type: ignore[union-attr]
        if got != want:
            raise DebugInvariantError(
                f"iteration {i}: selection queue offers {sorted(got)} but the "
                f"label scan finds {sorted(want)}"
            )

    def _assert_label_order(self, i: int) -> None:
        """Processed-neighborhood inclusions must be reflected in the label
        order: strict inclusion forces strictly smaller, equality forces
        equal labels."""
        done, labels = self.done, self.shadow.labels  # type: ignore[union-attr]
        unnumbered = [v for v in range(self.n) if v not in done]
        hoods = {y: frozenset(self.hood(y) & done) for y in unnumbered}
        for y in unnumbered:
            for z in unnumbered:
                if y == z:
                    continue
                r = self.structure.compare(labels[y], labels[z])
                if hoods[y] < hoods[z] and r is not Cmp.LESS:
                    raise DebugInvariantError(
                        f"iteration {i}: processed neighborhood of {y} is strictly "
                        f"inside that of {z} but labels compare {r.value}"
                    )
                if hoods[y] == hoods[z] and r is not Cmp.EQUAL:
                    raise DebugInvariantError(
                        f"iteration {i}: equal processed neighborhoods of {y},{z} "
                        f"but labels compare {r.value}"
                    )


# ---------------------------------------------------------------------------
# drivers


def mls(
    g: Graph,
    structure: LabelingStructure,
    tiebreak: TieBreak | None = None,
    *,
    minimize: bool = False,
) -> tuple[Ordering, SearchTrace]:
    """Plain maximal-label search (minimal with minimize=True, which runs the
    search under the dual label order). A maximizing search rejects a
    disconnected g where it strands a vertex, a minimizing one up front."""
    run = _run(g, structure, tiebreak, False, minimize=minimize)
    return run.ordering(), run.trace


def moplex_mls(
    g: Graph,
    structure: LabelingStructure,
    tiebreak: TieBreak | None = None,
) -> tuple[Ordering, SearchTrace]:
    """Maximal-label search preferring, among maximal labels, one that
    continues (strictly exceeds) the previous label whenever possible. On a
    chordal input the result is a perfect moplex ordering."""
    run = _run(g, structure, tiebreak, True)
    return run.ordering(), run.trace


def _run(
    g: Graph,
    structure: LabelingStructure,
    tiebreak: TieBreak | None,
    prefer: bool,
    *,
    minimize: bool = False,
    triangulate: bool = False,
) -> LabelSearch:
    """A whole search with no per-step sink (a minimizing one checks connectivity first)."""
    if minimize:
        require_connected(g)
    run = LabelSearch(g, structure, tiebreak, minimize=minimize, triangulate=triangulate)
    for _ in run.steps(prefer):
        pass
    return run


def mlsm(
    g: Graph,
    structure: LabelingStructure,
    tiebreak: TieBreak | None = None,
) -> tuple[TriangulationResult, SearchTrace]:
    """Triangulating search: the ordering is a minimal elimination ordering
    and the returned graph is the associated minimal triangulation."""
    run = _run(g, structure, tiebreak, False, triangulate=True)
    return run.triangulation(), run.trace


def moplex_mlsm(
    g: Graph,
    structure: LabelingStructure,
    tiebreak: TieBreak | None = None,
) -> tuple[TriangulationResult, SearchTrace]:
    """Triangulating search with the moplex preference rule: the ordering is
    additionally a perfect moplex ordering of the output triangulation."""
    run = _run(g, structure, tiebreak, True, triangulate=True)
    return run.triangulation(), run.trace


def triangulation_from_ordering(g: Graph, alpha: Ordering) -> TriangulationResult:
    """Elimination game: saturate the not-yet-processed neighborhood of each
    vertex in position order, accumulating fill edges.

    The fill comes in the pair order of the game: by eliminated vertex, then
    by each later neighbour a ascending, then by partner ascending. Each a
    finds its missing partners with one set difference (the later
    neighbours after a, minus a's adjacency), so the interpreted work is
    O(n + m + |fill|) steps plus a sort of each later neighbourhood, and the
    filled graph is frozen from the game's own adjacency sets."""
    if len(alpha) != g.n:
        raise ValueError("ordering length does not match the graph")
    pos = alpha.pos
    adj = [set(s) for s in g.adj]
    fill: list[tuple[int, int]] = []
    for x in alpha.seq:
        px = pos[x]
        later = sorted([y for y in adj[x] if pos[y] > px])
        rest = set(later)
        for a in later:
            rest.discard(a)
            missing = rest - adj[a]
            if missing:
                adj[a] |= missing
                for b in sorted(missing):
                    adj[b].add(a)
                    fill.append((a, b))
    h = Graph._from_adj(g.names, g._index, adj)
    return TriangulationResult(alpha, h, tuple(fill))
