"""The label-search engine: plain and moplex-refined searches, and their
triangulating counterparts that add fill edges on the fly.

One loop, ``LabelSearch.steps``, runs every search. It numbers vertices from
position n down to 1, at each step choosing an unnumbered vertex with maximal
label (no other unnumbered label compares strictly greater), handing the step
to the caller's loop body (the per-step sink: clique tree, generators, atom
tree, or nothing for a bare ordering), then increasing the labels of affected
unnumbered vertices with the current position. It is generic over any
labeling structure that satisfies the inclusion condition. On chordal inputs
the plain searches emit perfect elimination orderings; the moplex variants
additionally emit perfect moplex orderings; the triangulating variants emit
minimal elimination / moplex orderings together with the filled graph.

Costs: every search selects through one queue, and its triangulating
label increase asks the same queue which vertices the chosen vertex
reaches. The four built-in structures bring their own selection queues,
whose designs and costs ``chordalkit.selection`` states. Any other
structure gets a ``ScanQueue``: it scans the unnumbered labels, O(n)
comparisons per step, and searches once per candidate target,
O(n (n + m)) per step. The labels themselves are still stored: an mcs
increase is O(1), but a lexbfs or lexdfs increase copies the tuple,
O(|label|), so the increases of a search cost O(sum of deg(v)^2). The
three total queues find the reach targets with one walk up their label
classes over vertex bitsets, O(n) operations on n-bit ints per step. The
whole search then costs O(n^3 / w) word operations, with w the word
size; MCS-M and LEX M take O(nm). MNS runs one bitset search per label
block of its queue, O(blocks^2) mask tests per step at worst.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from . import debug
from .errors import DebugInvariantError, ScriptConflictError
from .graph import (
    ComplementView,
    Graph,
    Ordering,
    require_connected,
)
from .labeling import Cmp, Label, LabelingStructure, require_ic
from .rng import SplitMix64
from .selection import OrderedPartition


# ---------------------------------------------------------------------------
# tie-break policies


class TieBreak:
    """Chooses among equally acceptable candidates. Policies never override
    the label rule: they only pick within the legal candidate set."""

    def start(self, g: Graph | ComplementView) -> "_Picker":
        raise NotImplementedError


class _Picker:
    def pick(self, queue: OrderedPartition | ScanQueue) -> int:
        """Pick from the queue's extreme label class (for mns, the union of
        its extreme classes narrowed by prefer): the whole candidate set."""
        raise NotImplementedError


class LowestIndex(TieBreak):
    """Deterministic default: smallest vertex index wins."""

    def start(self, g):
        return _LowestPicker()

    def __repr__(self):
        return "LowestIndex()"


class _LowestPicker(_Picker):
    def pick(self, queue):
        return queue.lowest()


@dataclass(frozen=True)
class SeededRandom(TieBreak):
    seed: int

    def start(self, g):
        return _SeededPicker(self.seed)


class _SeededPicker(_Picker):
    def __init__(self, seed: int):
        self.rng = SplitMix64(seed)

    def pick(self, queue):
        ordered = sorted(queue.extreme())
        return ordered[self.rng.below(len(ordered))]


@dataclass(frozen=True)
class ScriptedOrder(TieBreak):
    """Explicit pick sequence by vertex name, first pick first (so the list
    reads from position n downward). A scripted vertex that is not a legal
    candidate at its turn is an error, never a silent override; after the
    script runs out, lowest index takes over."""

    picks: tuple[str, ...]

    def __init__(self, picks: Iterable[str]):
        object.__setattr__(self, "picks", tuple(picks))

    def start(self, g):
        seen = set()
        indices = []
        for name in self.picks:
            if name in seen:
                raise ScriptConflictError(f"script names vertex {name!r} twice")
            seen.add(name)
            indices.append(g.index(name))
        return _ScriptedPicker(indices, g.names)


class _ScriptedPicker(_Picker):
    def __init__(self, script: list[int], names):
        self.script = script
        self.names = names
        self.at = 0

    def pick(self, queue):
        if self.at >= len(self.script):
            return queue.lowest()
        wanted = self.script[self.at]
        self.at += 1
        if wanted not in queue.extreme():
            raise ScriptConflictError(
                f"scripted vertex {self.names[wanted]!r} is not a legal choice here"
            )
        return wanted


# ---------------------------------------------------------------------------
# traces and results


@dataclass(frozen=True)
class TraceEntry:
    i: int
    vertex: int
    label: Label
    increased: tuple[int, ...]
    fill: tuple[tuple[int, int], ...] = ()


@dataclass
class SearchTrace:
    structure: str
    entries: list[TraceEntry] = field(default_factory=list)

    def final_labels(self) -> dict[int, Label]:
        return {e.vertex: e.label for e in self.entries}


@dataclass(frozen=True)
class TriangulationResult:
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
    """The selection queue of a structure without one of its own: the queue
    protocol answered by scanning the run's ``labels`` and ``numbered``
    lists, which it reads and never copies. So ``remove`` only keeps the
    removed vertex's label for ``prefer``, and ``bump`` has nothing to do.
    Selection costs O(n) label comparisons per step when the extreme labels
    are few; ``reach`` runs one search per candidate target, O(n (n + m))
    per step. A fresh one is also the debug reference for every queue."""

    def __init__(self, structure: LabelingStructure, g: Graph | ComplementView,
                 labels: list[Label], numbered: list[bool], minimize: bool):
        self.structure = structure
        self.g = g
        self.labels = labels
        self.numbered = numbered
        self.minimize = minimize
        self.prefer: str | None = None
        self.prev: Label = structure.initial()  # the last removed vertex's label

    def remove(self, v: int) -> None:
        self.prev = self.labels[v]

    def bump(self, vs: Iterable[int], i: int) -> None:
        """The run has already increased the labels it reads."""

    def extreme(self) -> list[int]:
        """The unnumbered vertices whose label no other unnumbered label
        beats (strictly greater, or strictly less with minimize), in
        ascending order. ``prefer`` narrows them to those comparing Greater
        than (or Equal to) the last removed label when that leaves any: for
        a total order all of them carry one label and it keeps them all."""
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
        if self.prefer is not None:
            want = Cmp.GREATER if self.prefer == "greater" else Cmp.EQUAL
            narrowed = [v for v in cands if cmp(labels[v], self.prev) is want]
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
                    if cmp(labels[w], ly) is Cmp.LESS:
                        seen.add(w)
                        stack.append(w)
            if reachable:
                targets.append(y)
        return targets


class LabelSearch:
    """One label search on g: labels, the numbered set, candidate selection
    under a partial order, the debug hooks, and the loop ``steps`` that
    every driver runs, adding its per-step rule as the loop body.

    Selection and the triangulating reach targets come from one queue: the
    structure's selection queue (``chordalkit.selection``), or a
    ``ScanQueue`` over the run's labels when it has none.

    Labels mirror the processed neighborhoods in g (for complement runs, g
    is the base graph), or, in a triangulating run, in the filled graph,
    which the run keeps as ``overlay`` (g's adjacency plus the fill so far)
    next to the fill edges in insertion order. The label-order debug hook
    reads the same adjacency.
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
        self.g = g
        self.structure = structure
        self.minimize = minimize
        self.picker = (tiebreak or LowestIndex()).start(g)
        n = g.n
        self.n = n
        self.labels: list[Label] = [structure.initial() for _ in range(n)]
        self.numbered = [False] * n
        self.queue: OrderedPartition | ScanQueue = (
            structure._selection_queue(n, minimize) or self._scan())
        self.alpha: list[int | None] = [None] * (n + 1)  # 1-based positions
        self.pos = [0] * n
        self.prev_label: Label = structure.initial()
        self.trace = SearchTrace(structure.name)
        self.overlay: list[set[int]] | None = [set(s) for s in g.adj] if triangulate else None
        self.fill: list[tuple[int, int]] = []
        # vertex bitset adjacency, for the queue's reach
        self.nb = [sum(1 << w for w in s) for s in g.adj] if triangulate else None
        self.debug = debug.enabled()

    def _scan(self) -> ScanQueue:
        return ScanQueue(self.structure, self.g, self.labels, self.numbered, self.minimize)

    # -- the search loop

    def steps(self, prefer: str | None = None) -> Iterator[tuple[int, int]]:
        """Run the search, yielding (i, x) once x is chosen and numbered i
        and before the labels grow; the caller's loop body is the per-step
        sink. Then the step increases the labels, plainly or (triangulating)
        along ``inc_targets``, adding its fill to the overlay, and records
        the trace entry. ``prev_label`` is the previous vertex's label
        throughout the body."""
        self.queue.prefer = prefer
        overlay = self.overlay
        for i in range(self.n, 0, -1):
            x = self.choose(i)
            self.assign(x, i)
            yield i, x
            if overlay is None:
                increased, fill = self.inc_plain(x, i), ()
            else:
                increased, fill = self.inc_targets(x, i)
                # every fill edge has x as one end, and every other target
                # is already x's neighbor
                overlay[x].update(increased)
                for a, b in fill:
                    overlay[b if a == x else a].add(x)
                self.fill.extend(fill)
            self.trace.entries.append(
                TraceEntry(i, x, self.labels[x], tuple(increased), tuple(fill))
            )
            self.prev_label = self.labels[x]

    def boundary(self, x: int, want: Cmp) -> bool:
        """The builders' label test: x, just chosen, starts a new clique
        unless it is the first vertex or the previous label compares ``want``
        (LESS with dcl structures, EQUAL in complement runs) to x's label."""
        return self.pos[x] < self.n and self.structure.compare(self.prev_label, self.labels[x]) is not want

    # -- candidate selection

    def choose(self, i: int) -> int:
        if self.debug and self.n <= debug.LABEL_CHECK_MAX_N:
            self._assert_label_order(i)
            self._assert_queue_candidates(i)
        return self.picker.pick(self.queue)

    def assign(self, x: int, i: int) -> None:
        self.alpha[i] = x
        self.pos[x] = i
        self.numbered[x] = True
        self.queue.remove(x)

    # -- label updates

    def inc_plain(self, x: int, i: int) -> list[int]:
        """Increase the labels of the unnumbered neighbors of x in g."""
        numbered = self.numbered
        out = [y for y in sorted(self.g.neighbors(x)) if not numbered[y]]
        self._bump_all(out, i)
        return out

    def inc_targets(self, x: int, i: int) -> tuple[list[int], list[tuple[int, int]]]:
        """Triangulating label increase: an unnumbered y (distinct from x)
        qualifies when the original graph has a path from x to y through
        unnumbered internal vertices all labeled strictly below y's label (a
        plain edge qualifies with no internal vertices). Returns the targets
        in ascending vertex order, bumps their labels, and returns the new
        fill edges among them in the same order. Paths run on original edges
        only; fill is recorded, never searched through (searching the
        overlay would change nothing anyway: every fill edge keeps a
        numbered endpoint, and path internals must be unnumbered).

        The queue finds the targets (``reach``; ``chordalkit.selection``
        and ``ScanQueue`` state the designs and costs). With
        ``CHORDALKIT_DEBUG=1`` and small n every step is checked against a
        ``ScanQueue``'s per-target search."""
        targets = self.queue.reach(x, self.nb)
        if self.debug and self.n <= debug.LABEL_CHECK_MAX_N:
            self._assert_reach_targets(i, x, targets)
        adj = self.g.adj[x]
        fill = [(x, y) if x < y else (y, x) for y in targets if y not in adj]
        self._bump_all(targets, i)
        return targets, fill

    def _bump_all(self, ys: list[int], i: int) -> None:
        """Increase the labels of ys at position i, then hand them all to the
        queue in the step's one ``bump``, after the step's ``remove``; the
        queue is settled when it returns."""
        labels, inc = self.labels, self.structure.inc
        for y in ys:
            old = labels[y]
            new = labels[y] = inc(old, i)
            if self.debug and self.structure.compare(old, new) not in (Cmp.LESS, Cmp.EQUAL):
                raise DebugInvariantError(
                    f"label of vertex {y} did not grow under inc at position {i}"
                )
        self.queue.bump(ys, i)

    # -- results

    def ordering(self) -> Ordering:
        return Ordering(self.alpha[1:])  # type: ignore[arg-type]

    def triangulation(self) -> TriangulationResult:
        """The finished triangulating run: its ordering and filled graph,
        which is the overlay frozen under g's names, O(n + m + |fill|)."""
        g = self.g
        assert isinstance(g, Graph) and self.overlay is not None
        h = Graph._from_adj(g.names, g._index, self.overlay)
        return TriangulationResult(self.ordering(), h, tuple(self.fill))

    # -- debug hooks

    def _assert_queue_candidates(self, i: int) -> None:
        """The queue's extreme class must be the candidate set a fresh
        ``ScanQueue`` finds under the same prefer rule and previous label."""
        scan = self._scan()
        scan.prefer, scan.prev = self.queue.prefer, self.prev_label
        got, want = set(self.queue.extreme()), set(scan.extreme())
        if got != want:
            raise DebugInvariantError(
                f"iteration {i}: selection queue offers {sorted(got)} but the "
                f"label scan finds {sorted(want)}"
            )

    def _assert_reach_targets(self, i: int, x: int, targets: list[int]) -> None:
        """The queue's reach must find the targets a fresh ``ScanQueue``'s
        per-target search finds."""
        want = self._scan().reach(x, self.nb)
        if targets != want:
            raise DebugInvariantError(
                f"iteration {i}: block reach search finds {targets} but the "
                f"per-target scan finds {want}"
            )

    def _assert_label_order(self, i: int) -> None:
        """Processed-neighborhood inclusions must be reflected in the label
        order: strict inclusion forces strictly smaller, equality forces
        equal labels."""
        unnumbered = [v for v in range(self.n) if not self.numbered[v]]
        hood = self.g.neighbors if self.overlay is None else self.overlay.__getitem__
        hoods = {
            y: frozenset(z for z in hood(y) if self.numbered[z])
            for y in unnumbered
        }
        for y in unnumbered:
            for z in unnumbered:
                if y == z:
                    continue
                r = self.structure.compare(self.labels[y], self.labels[z])
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
    search under the dual label order)."""
    run = _run(g, structure, tiebreak, None, minimize=minimize)
    return run.ordering(), run.trace


def moplex_mls(
    g: Graph,
    structure: LabelingStructure,
    tiebreak: TieBreak | None = None,
) -> tuple[Ordering, SearchTrace]:
    """Maximal-label search preferring, among maximal labels, one strictly
    greater than the previously chosen label whenever possible. On a chordal
    input the result is a perfect moplex ordering."""
    run = _run(g, structure, tiebreak, "greater")
    return run.ordering(), run.trace


def _run(
    g: Graph,
    structure: LabelingStructure,
    tiebreak: TieBreak | None,
    prefer: str | None,
    *,
    minimize: bool = False,
    triangulate: bool = False,
) -> LabelSearch:
    """A whole search with no per-step sink."""
    require_connected(g)
    require_ic(structure)
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
    run = _run(g, structure, tiebreak, None, triangulate=True)
    return run.triangulation(), run.trace


def moplex_mlsm(
    g: Graph,
    structure: LabelingStructure,
    tiebreak: TieBreak | None = None,
) -> tuple[TriangulationResult, SearchTrace]:
    """Triangulating search with the moplex preference rule: the ordering is
    additionally a perfect moplex ordering of the output triangulation."""
    run = _run(g, structure, tiebreak, "greater", triangulate=True)
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
