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
the chosen vertex and its unnumbered neighbors, one set difference, to the
queue's one ``bump``, its one queue call, which removes the vertex and
grows the neighbors' labels, and the queue answers the label test from its
blocks in O(1), with no label comparison, for every built-in structure.
The debug checks (``CHORDALKIT_DEBUG=1``, small n) live in a checking
queue around the structure's (``_CheckedQueue``), so with them off a step
tests nothing for them. The four built-in structures bring their own
selection queues, whose designs and costs ``chordalkit.selection``
states; with ``LowestIndex`` a plain
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

from itertools import permutations
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
    test compares two labels. With ``CHORDALKIT_DEBUG=1`` and small n the
    search also runs one next to any queue, as the reference of the
    checking queue (``_CheckedQueue``), and ``bump`` checks that every
    label grows."""

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

    def bump(self, x: int, vs: Iterable[int], i: int) -> None:
        labels, inc, cmp = self.labels, self.structure.inc, self.structure.compare
        self.numbered[x] = True
        self.prev = labels[x]
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


class _CheckedQueue:
    """The queue that a debug run drives (``CHORDALKIT_DEBUG=1`` and n at
    most ``debug.LABEL_CHECK_MAX_N``): the run's own, its every answer
    checked against the run's shadow ``ScanQueue``, which ``bump`` feeds
    the same bumps (a flipped run's read g's rows off ``hood``). Before
    each pick, the shadow's labels must order the processed neighborhoods
    and the queue's extreme class must be the shadow's; the label test and
    the reach targets must be the shadow's too. Built from the run, it
    keeps the run's parts but not the run, so a finished run leaves no
    cycle behind."""

    def __init__(self, run: LabelSearch):
        self.queue, self.shadow, self._pick = run.queue, run.shadow, run.pick
        self.hood, self.done, self.flip = run.hood, run.done, run.flip
        self._test = run.queue.twinned if run.flip else run.queue.continues  # the run's label test
        self.i = run.n  # the step under way

    def pick(self) -> int:
        """The run's pick, after the label order check and the candidate
        check: the queue's extreme class must be the one the shadow finds
        under the same prefer rule and previous label."""
        self._assert_label_order()
        self.shadow.prefer = self.queue.prefer
        got, want = set(self.queue.extreme()), set(self.shadow.extreme())
        if got != want:
            raise DebugInvariantError(f"iteration {self.i}: selection queue offers {sorted(got)} but the "
                                      f"label scan finds {sorted(want)}")
        return self._pick()

    def continues(self, x: int) -> bool:
        got = self._test(x)
        if got != self.shadow.continues(x):
            raise DebugInvariantError(
                f"iteration {self.i}: the queue's {'equal' if self.shadow.minimize else 'less'} "
                f"label test disagrees with the label scan on vertex {x}")
        return got

    twinned = continues  # a flipped run's label test: the queue's twinned, checked

    def reach(self, x: int, nb: list[int]) -> list[int]:
        targets, want = self.queue.reach(x, nb), self.shadow.reach(x, nb)
        if targets != want:
            raise DebugInvariantError(f"iteration {self.i}: block reach search finds {targets} but the "
                                      f"per-target scan finds {want}")
        return targets

    def bump(self, x: int, ys: Iterable[int], i: int) -> None:
        self.queue.bump(x, ys, i)
        self.shadow.bump(x, self.hood(x) - self.done if self.flip else ys, i)  # type: ignore[operator]
        self.i = i - 1

    def _assert_label_order(self) -> None:
        """Processed-neighborhood inclusions must be reflected in the
        shadow's label order: strict inclusion forces strictly smaller,
        equality forces equal labels."""
        done, labels, compare = self.done, self.shadow.labels, self.shadow.structure.compare
        unnumbered = [v for v in range(len(labels)) if v not in done]
        hoods = {y: frozenset(self.hood(y) & done) for y in unnumbered}  # type: ignore[operator]
        for y, z in permutations(unnumbered, 2):
            r = compare(labels[y], labels[z])
            if hoods[y] < hoods[z] and r is not Cmp.LESS:
                raise DebugInvariantError(f"iteration {self.i}: processed neighborhood of {y} is strictly "
                                          f"inside that of {z} but labels compare {r.value}")
            if hoods[y] == hoods[z] and r is not Cmp.EQUAL:
                raise DebugInvariantError(f"iteration {self.i}: equal processed neighborhoods of {y},{z} "
                                          f"but labels compare {r.value}")


class LabelSearch:
    """One label search on g: the numbered set, candidate selection under a
    partial order, and the loop ``steps`` that every search function runs,
    adding its per-step rule as the loop body.

    Building a run gates the inclusion condition (``require_ic``) before
    any state is made. The run stores no labels. Selection, the
    triangulating reach targets and the builders' label test all come from
    one queue: the structure's selection queue (``chordalkit.selection``),
    or a ``ScanQueue``, which keeps the labels, when it has none. With
    ``CHORDALKIT_DEBUG=1`` and small n the run keeps a second
    ``ScanQueue``, its ``shadow``, and drives that queue through a
    ``_CheckedQueue``, where the debug hooks live; otherwise it drives the
    queue itself and no step tests anything for them.

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
    answers. ``hood``, the trace, the shadow (fed g's rows) and every
    error stay on the g side.

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
        # the debug hooks' reference: a ScanQueue fed the same bumps
        self.shadow = (ScanQueue(structure, g, minimize)
                       if self.debug and n <= debug.LABEL_CHECK_MAX_N else None)
        self._driven = self.queue  # the queue the steps drive
        if self.shadow is not None:
            self._driven = _CheckedQueue(self)
            self.pick = self._driven.pick
        self.continues = self._driven.twinned if self.flip else self._driven.continues

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
        chooses x from the queue's extreme class; ``prefer``, the moplex
        rule, narrows the class to the labels that continue the previous one
        (see ``boundary``) when any do. The queue still holds x during the
        body, so ``boundary`` compares x's label with the previous
        vertex's. Then one ``bump`` removes x from the queue and grows the
        labels of x's unnumbered neighbors, or (triangulating) of the
        targets of ``inc_targets``, whose fill the step adds to the overlay.
        That is the step's one queue call; with a shadow, the checking
        queue checks the step (``_CheckedQueue``), and nothing here does."""
        self.queue.prefer = prefer
        pick, bump = self.pick, self._driven.bump
        g, alpha, pos, done, overlay, fill = self.g, self.alpha, self.pos, self.done, self.overlay, self.fill
        rows, n, maximize = self.rows, self.n, not self.minimize
        for i in range(n, 0, -1):
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
            if overlay is None:
                bump(x, hx - done, i)
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
                bump(x, ys, i)
            self.completed += 1

    def boundary(self, x: int) -> bool:
        """The builders' label test: x, just chosen, starts a new clique
        unless it is the first vertex or its label continues the previous
        one, being greater (a maximizing run, for dcl structures) or equal
        (a minimizing run, for complement-reversing ones). The queue
        answers it from the blocks, in O(1) (a maximizing lexdfs queue,
        which only an unchecked dcl run asks, scans the step's twins); with
        a shadow, the checking queue checks its answer."""
        return self.pos[x] != self.n and not self.continues(x)

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
        and ``ScanQueue`` state the designs and costs). With a shadow, the
        checking queue checks them against its per-target search."""
        return self._driven.reach(x, self.nb)  # type: ignore[arg-type]

    # -- results

    def ordering(self) -> Ordering:
        if self._ordering is None:
            self._ordering = Ordering._of(self.alpha[1:], self.pos)  # type: ignore[arg-type]
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
