"""Selection queues: the unnumbered vertices grouped by label, kept in label
order as labels grow, so a search reads its extreme label class and that
class's lowest index without comparing labels.

Every built-in structure has one. Count labels (mcs) keep the count buckets
of Tarjan & Yannakakis (1984), indexed by count (``BucketQueue``). The
other three are one ordered partition: blocks of equal labels, linked in
label order, each finding its lowest index with a lazy min-heap (Habib,
McConnell, Paul & Viennot 2000). List labels (lexbfs) refine the partition
at each step, each bumped block's twin linked just above it (Rose, Tarjan &
Lueker 1976); prepended list labels (lexdfs) run the same bump with each
twin linked on top instead, since a lexdfs increase lifts every bumped
label above all the others (Corneil & Krueger 2008); and set labels (mns)
keep the lexbfs partition with an int bitmask per block. For the three
total orders selection and label increase cost O(log n) amortized. Set
labels are a partial order, so the mns queue keeps its maximal blocks
between steps, each other block holding a witness that dominates it: a step
costs O(twins) mask tests, plus O(maximal blocks) per block whose witness
empties. It applies the search's moplex rule (``prefer``) itself. Custom
structures get ``chordalkit.search.ScanQueue``, which keeps their labels
and answers the same calls by scanning them. All queues are driven by the
same calls, each step making one ``remove`` of the vertex it numbers, then
exactly one ``bump``, possibly empty, with every vertex whose label grows
at position i. ``bump`` returns with the queue settled, so ``lowest`` (or
``extreme``) selects by reading it. With ``minimize`` they read the least
class instead of the greatest. The engine gets them through
``LabelingStructure._selection_queue``.

The queues also answer the one label test of the clique-tree builders,
so the search keeps no labels: ``continues(x)`` says whether x's label,
for x in the extreme class, continues the label of the last removed
vertex, that is, is strictly greater than it (maximizing) or equal to it
(minimizing). A new clique starts exactly where the chosen label does not
continue the previous one, and the moplex rule, ``prefer``, prefers the
extreme labels that do. Each queue reads the block that ``remove``
recorded: equal labels share a block, and a vertex grew past it,
maximizing, when the last ``bump`` moved it to that block's twin (lexbfs
and mns, in O(1): a set label strictly containing a maximal one holds the
step's position, so it is that label's twin) or to any of the step's
twins (lexdfs, which reads them off ``twins``). The mcs queue compares
counts. A minimizing search on a graph denser than its complement runs a
maximizing queue over complement labels (see
``chordalkit.search.LabelSearch``) and asks the twin test ``twinned(x)``
instead: whether x is in the twin of the block that the last removed
vertex left, i.e. x's complement label is that vertex's plus the last
position, which is exactly x's g-label being equal to that vertex's. For
lexbfs and mns that is the maximizing ``continues``, and for mcs a count
one above the last; the lexdfs ``continues`` accepts any of the step's
twins, which it reads off the same ``twins`` map. The answers are
booleans because this module sits below ``chordalkit.labeling`` and its
``Cmp``.

Every queue also answers the triangulating search's reach question with
``reach``: which unnumbered vertices the chosen vertex reaches through
vertices labeled below them. Every queue's classes form a chain in list
label order, which for set labels extends strict inclusion, so the mcs
buckets and ``OrderedPartition.reach`` walk it once from the bottom
(``_reach``), and ``InclusionPartition.reach`` walks it once too, searching
each block from the blocks it dominates. ``ScanQueue.reach`` searches once
per candidate target instead.

The ordered partitions create blocks by refinement and never revive them,
so block ids count up in creation order and are never reused. An emptied
block is unlinked and its state released (member set and heap; for mns also its mask and witness
links, once ``bump`` settles the step), so the per-block lists keep
one small entry per block ever created: at most one per label increase,
O(n + m + fill) over a search.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from typing import Iterable, Iterator


class OrderedPartition:
    """List labels: blocks of equal labels, linked in label order.

    ``bump`` takes all of a step's label increases in one call and
    returns with the queue settled. It moves each vertex y bumped at
    position i into its block's twin, made at the step's first bump from
    that block and cached for the step in ``twins``, and linked just above
    the block: every live label holds only positions above i, so
    label + (i,) is the immediate successor of label among them. No vertex
    ever re-enters a block it left, so each block finds its lowest index
    with a lazy min-heap that every arrival is pushed onto: an entry is
    live iff its vertex is still in the block. Block ids index flat lists,
    so no object cycles are built. ``prefer`` is set by the search; only
    the mns queue reads it, since a total order's extreme class carries
    one label, which continues the last one or not. Selection and label
    increase cost O(log n) amortized."""

    __slots__ = ("members", "heaps", "up", "down", "block_of", "top", "bottom",
                 "minimize", "twins", "prefer", "last", "__weakref__")

    def __init__(self, n: int, minimize: bool = False):
        self.members: list[set[int] | None] = [set(range(n))]
        self.heaps: list[list[int] | None] = [list(range(n))]  # sorted, so a heap
        self.up = [-1]  # next greater block, -1 above the greatest
        self.down = [-1]  # next smaller block, -1 below the least
        self.block_of = [0] * n
        self.top = 0
        self.bottom = 0
        self.minimize = minimize
        self.twins: dict[int, int] = {}  # block -> its target at this step
        self.prefer = False  # the moplex rule
        self.last = 0  # the last removed vertex's block

    def remove(self, v: int) -> None:
        b = self.last = self.block_of[v]
        members = self.members[b]
        members.discard(v)
        if not members:
            self._unlink(b)

    def bump(self, vs: Iterable[int], i: int) -> None:
        self.twins.clear()
        members, heaps, block_of, twins = self.members, self.heaps, self.block_of, self.twins
        for v in vs:
            b = block_of[v]
            t = twins.get(b)
            if t is None:
                t = twins[b] = self._new_block(b)
            old = members[b]
            old.discard(v)
            members[t].add(v)
            heappush(heaps[t], v)
            block_of[v] = t
            if not old:
                self._unlink(b)

    def _new_block(self, below: int) -> int:
        """A new empty block, linked just above ``below``."""
        t, above = len(self.members), self.up[below]
        self.members.append(set())
        self.heaps.append([])
        self.up.append(above)
        self.down.append(below)
        self.up[below] = t
        if above == -1:
            self.top = t
        else:
            self.down[above] = t
        return t

    def _unlink(self, b: int) -> None:
        below, above = self.down[b], self.up[b]
        if below == -1:
            self.bottom = above
        else:
            self.up[below] = above
        if above == -1:
            self.top = below
        else:
            self.down[above] = below
        self.members[b] = self.heaps[b] = None

    def extreme(self) -> set[int]:
        """The extreme label class (do not mutate)."""
        return self.members[self.bottom if self.minimize else self.top]

    def lowest(self) -> int:
        """The lowest index in the extreme label class."""
        return self._lowest_of(self.bottom if self.minimize else self.top)

    def _lowest_of(self, b: int) -> int:
        members, heap = self.members[b], self.heaps[b]
        while heap[0] not in members:
            heappop(heap)
        return heap[0]

    def continues(self, x: int) -> bool:
        """Whether x's label, for x in the extreme class, continues the
        last removed vertex's (the initial label before any removal).
        Minimizing, that is equality: x is in the block that vertex left,
        as a twin's label holds a position that no older label holds.
        Maximizing, it is strictly greater: x's label did not exceed it
        before the step's bump, so x grew past it exactly when it moved
        from that vertex's block to the block's twin. Set labels (mns)
        read the same test (see ``InclusionPartition._narrowed``)."""
        b = self.block_of[x]
        return b == self.last if self.minimize else b == self.twins.get(self.last)

    def twinned(self, x: int) -> bool:
        """The twin test: whether x is in the twin of the block that the
        last removed vertex left, i.e. shared its label and grew at the
        last bump. The maximizing ``continues`` of lexbfs and mns."""
        return self.block_of[x] == self.twins.get(self.last)

    def reach(self, x: int, nb: list[int]) -> list[int]:
        """The triangulating search's targets from x (see ``_reach``)."""
        return _reach(self._chain(), x, nb)

    def _chain(self) -> Iterator[set[int]]:
        b = self.bottom
        while b != -1:
            yield self.members[b]  # type: ignore[misc]
            b = self.up[b]


class BucketQueue:
    """Count labels (mcs): the buckets of Tarjan & Yannakakis (1984).

    ``count[v]`` is v's label. Each count up to the greatest has a member
    set and a lazy min-heap, live while its vertex is in the set (counts
    only grow; an emptied count clears its heap). ``top``, the extreme
    non-empty count, rises at most one per bump and skips emptied counts,
    O(n) moves in all, so a bump costs a set move and a push per vertex."""

    __slots__ = ("count", "members", "heaps", "top", "minimize", "prefer", "last", "__weakref__")

    def __init__(self, n: int, minimize: bool = False):
        self.count = [0] * n
        self.members: list[set[int]] = [set(range(n))]  # by count
        self.heaps: list[list[int]] = [list(range(n))]  # by count; sorted, so a heap
        self.top = 0
        self.minimize = minimize
        self.prefer = False  # the moplex rule
        self.last = 0  # the last removed vertex's count

    def remove(self, v: int) -> None:
        c = self.last = self.count[v]
        members = self.members[c]
        members.discard(v)
        if not members:
            self.heaps[c].clear()

    def bump(self, vs: Iterable[int], i: int) -> None:
        count, members, heaps = self.count, self.members, self.heaps
        for v in vs:
            c = count[v]
            old = members[c]
            old.discard(v)
            if not old:
                heaps[c].clear()
            c = count[v] = c + 1
            if c == len(members):
                members.append(set())
                heaps.append([])
            members[c].add(v)
            heappush(heaps[c], v)
        t, skip = self.top, 1 if self.minimize else -1
        if skip < 0 and t + 1 < len(members) and members[t + 1]:
            t += 1  # the greatest count rose
        while not members[t] and 0 <= t + skip < len(members):
            t += skip  # past an emptied count
        self.top = t

    def extreme(self) -> set[int]:
        return self.members[self.top]

    def lowest(self) -> int:
        members, heap = self.members[self.top], self.heaps[self.top]
        while heap[0] not in members:
            heappop(heap)
        return heap[0]

    def continues(self, x: int) -> bool:
        return self.count[x] == self.last if self.minimize else self.count[x] > self.last

    def twinned(self, x: int) -> bool:
        """The twin test of ``OrderedPartition.twinned``, on counts."""
        return self.count[x] == self.last + 1

    def reach(self, x: int, nb: list[int]) -> list[int]:
        """The triangulating search's targets from x (see ``_reach``)."""
        return _reach(filter(None, self.members), x, nb)


def _reach(classes: Iterable[set[int]], x: int, nb: list[int]) -> list[int]:
    """The triangulating search's targets from x in ascending order, given
    the label classes bottom up: the vertices y that x reaches through
    vertices labeled strictly below y. ``nb[v]`` is v's neighborhood as a
    vertex bitset; call it between the step's removal of x and its bumps.
    A class allows the classes below it on a path, so the region x reaches
    through them grows on the way up, and a class's targets are its
    members adjacent to x or to the region. A step costs O(n) operations
    on n-bit ints: a union per vertex added to the region, a bit per member."""
    allowed = region = hit = 0
    near = nb[x]  # the neighbors of x and of the region
    for members in classes:
        bits = 0
        for v in members:
            bits |= 1 << v
        new = bits & near
        hit |= new
        allowed |= bits
        if new:
            near, region = _spread(new, near, region, allowed, nb)
    return _vertices(hit)


def _spread(new: int, near: int, region: int, allowed: int, nb: list[int]) -> tuple[int, int]:
    """Add the vertex bitset ``new`` to ``region`` and grow the region
    through ``allowed`` until no allowed neighbor is left out. ``near``
    holds the neighbors of x and of the region, and grows along. Returns
    (near, region)."""
    while new:
        region |= new
        grown = 0
        while new:
            low = new & -new
            grown |= nb[low.bit_length() - 1]
            new ^= low
        near |= grown
        new = grown & allowed & ~region
    return near, region


def _vertices(bits: int) -> list[int]:
    """The vertices in a vertex bitset, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


class StackPartition(OrderedPartition):
    """Lexdfs labels: an ordered partition whose twins go on top.

    Bumping y at position i prepends i to its label. Every live label holds
    only positions above i, and lexdfs ranks a smaller leading position
    higher, so each bumped label rises above every label not bumped at this
    step, while two bumped labels keep their order. The twins of a step's
    source blocks are therefore linked above the top block, in the order of
    their sources. Blocks only ever enter at the top, so the block order is
    creation order, which is id order. ``bump`` is the ordered partition's,
    run over the step's vertices sorted by block, with ``_new_block``
    linking each twin on top: the twins are made, and so stacked, in their
    sources' order. The shared bump records the step's twins as the values
    of ``twins``, so a vertex grew past the last removed label, maximizing,
    exactly when it is in one of them: that is ``continues``, strictly
    greater, a scan of the step's twins (only a dcl run with its gate off
    asks it). The twin test (``twinned``) is narrower: the twin of the
    block that the last removed vertex left."""

    __slots__ = ()

    def continues(self, x: int) -> bool:
        b = self.block_of[x]
        return b == self.last if self.minimize else b in self.twins.values()

    def bump(self, vs: Iterable[int], i: int) -> None:
        super().bump(sorted(vs, key=self.block_of.__getitem__), i)

    def _new_block(self, below: int) -> int:
        return super()._new_block(self.top)


class _Witnessed(set):
    """The blocks that one block, its owner, witnesses."""

    __slots__ = ("owner",)


class InclusionPartition(OrderedPartition):
    """Set labels (mns): the ordered partition, with each block's label kept
    as an int bitmask of its positions and its extreme blocks (maximal, or
    minimal with ``minimize``) kept between steps.

    Equal position sets are equal list labels, so the blocks are the
    equal-label classes of mns and no two live blocks share a mask. A
    twin's mask is its source's plus bit i (``bump`` keeps i as ``step``
    for ``_new_block``), which no other block holds, so a twin never
    dominates an older block, and dominates a twin exactly when its source
    dominates that twin's source. Each live non-extreme block keeps a
    witness, a live block that strictly dominates it. ``bump`` settles the
    step:

    - the twin of an extreme source is extreme, unless (minimizing) the
      source survives and witnesses it; maximizing, a surviving extreme
      source leaves the extreme set, witnessed by its twin;
    - another twin is witnessed by the twin of its source's witness or
      (minimizing) by that witness, else tested against the step's
      extreme twins (all extreme blocks, minimizing);
    - an emptied block hands the blocks it witnesses to its twin
      (maximizing) or its own witness, else they are re-tested against the
      extreme set, in popcount order (descending when maximizing) so that
      dominators are settled first.

    ``lowest`` reads a lazy heap of (lowest index, block) over the extreme
    set, pushed as a block enters it; an entry whose block has left the set
    is dropped, and one whose vertex has left moves up to the block's new
    lowest, as no vertex enters an older block. The label test is the ordered
    partition's, read off ``twins`` with no mask test, and ``prefer`` reads
    the same block: at most one extreme block continues the last removed
    vertex's label, the block it left (minimizing) or that block's twin
    (maximizing), and ``prefer`` keeps that block alone when it is extreme
    (``_narrowed``). A step costs
    O(twins) mask tests, plus O(extreme blocks) per block re-tested.

    The blocks and masks also serve the triangulating search: ``reach``
    finds a step's targets with one bitset search per live block, each
    starting from the regions of the blocks it dominates, and keeps each
    live block's maximal dominated blocks for the next step."""

    __slots__ = ("mask", "ext", "order", "held", "home", "step", "emptied", "covers")

    def __init__(self, n: int, minimize: bool = False):
        super().__init__(n, minimize)
        self.mask = [0]  # by block id, parallel to members
        self.ext = {0: 0}  # extreme block -> its mask
        self.order = [(0, 0)]  # the lazy heap of (lowest index, extreme block)
        # by block id: the blocks it witnesses; if not extreme, the set holding it
        self.held: list[_Witnessed | None] = [None]
        self.home: list[_Witnessed | None] = [None]
        self.emptied: list[int] = []  # this step's emptied blocks
        self.covers: dict[int, list[int]] = {}  # reach: live block -> its covers

    def bump(self, vs: Iterable[int], i: int) -> None:
        self.step = i
        super().bump(vs, i)
        self._settle()

    def _new_block(self, below: int) -> int:
        self.mask.append(self.mask[below] | 1 << self.step)
        self.held.append(None)
        self.home.append(None)
        return super()._new_block(below)

    def _unlink(self, b: int) -> None:
        super()._unlink(b)
        self.mask[b] = 0
        self.emptied.append(b)

    def _witness(self, b: int, w: int) -> None:
        """Record that w strictly dominates b."""
        s = self.held[w]
        if s is None:
            s = self.held[w] = _Witnessed()
            s.owner = w
        s.add(b)
        self.home[b] = s

    def _give(self, w: _Witnessed, t: int) -> None:
        """Hand the blocks in w to t, relinking the smaller of w and t's own."""
        into = self.held[t]
        if into is None or len(into) < len(w):
            w, into = into, w  # type: ignore[assignment]
            into.owner, self.held[t] = t, into
        if w:
            for b in w:
                self.home[b] = into
            into |= w

    def _settle(self) -> None:
        """Apply the step's removal and bumps by the rules above."""
        mask, members, ext, minimize = self.mask, self.members, self.ext, self.minimize
        held, home, order, grown = self.held, self.home, self.order, {}
        fresh = self.twins  # this step's source -> twin
        tested: list[int] = []
        orphans: list[int] = []
        # emptied blocks leave ext only in the loop after this one
        for s, t in fresh.items():
            if minimize and members[s]:
                self._witness(t, s)
            elif s in ext:
                ext[t] = grown[t] = mask[t]
                heappush(order, (self._lowest_of(t), t))
                if members[s]:
                    del ext[s]
                    self._witness(s, t)
            else:
                w = home[s].owner  # type: ignore[union-attr]
                if minimize and members[w]:
                    self._witness(t, w)
                elif w in fresh:
                    self._witness(t, fresh[w])
                else:
                    (orphans if minimize else tested).append(t)
        for d in self.emptied:
            h = home[d] if ext.pop(d, None) is None else None
            home[d] = None
            if h is not None:
                h.discard(d)
            w, held[d] = held[d], None
            if not w:
                continue
            if not minimize and d in fresh:
                self._give(w, fresh[d])
            elif h is not None and members[h.owner]:
                self._give(w, h.owner)
            else:
                orphans += w
        for pool, group in ((grown, tested), (ext, orphans)):
            group = [b for b in group if members[b]]
            group.sort(key=lambda b: mask[b].bit_count(), reverse=not minimize)
            for b in group:
                m = mask[b]
                for e, k in reversed(pool.items()):  # newest first
                    if k & m == (k if minimize else m):
                        self._witness(b, e)
                        break
                else:
                    ext[b] = pool[b] = m
                    heappush(order, (self._lowest_of(b), b))
        self.emptied.clear()

    def _narrowed(self) -> int | None:
        """The one extreme block whose label continues the last removed
        vertex's, when ``prefer`` is on and there is one: minimizing, the
        block that vertex left; maximizing, that block's twin.

        Let E be the block that the vertex x removed at step i left, and L
        its mask. Maximizing, a live block whose mask strictly contains L
        holds bit i: an older one was live beside E and would have
        dominated it, yet E was maximal. So it is a twin s + {i} with s
        containing L, and s = E, as E was maximal. E's twin is thus the
        only label that continues x's, and it is extreme whenever it
        exists, since its source was. Minimizing, equal masks are the same
        block, since no two live blocks share a mask, and a twin holds bit
        i, which L does not."""
        if not self.prefer:
            return None
        b = self.last if self.minimize else self.twins.get(self.last)
        return b if b in self.ext else None

    def extreme(self) -> set[int]:
        """The union of the extreme label classes (maximal, or minimal with
        minimize), narrowed by ``prefer`` (do not mutate)."""
        b = self._narrowed()
        if b is None and len(self.ext) > 1:
            return set().union(*(self.members[e] for e in self.ext))
        return self.members[next(iter(self.ext)) if b is None else b]

    def reach(self, x: int, nb: list[int]) -> list[int]:
        """The triangulating search's targets from x in ascending order:
        the vertices y that x reaches through vertices whose labels are
        strict subsets of y's. ``nb[v]`` is v's neighborhood as a vertex
        bitset. Call it once per step, between the step's removal of x and
        its bumps.

        The live blocks are walked up the chain, bottom first. The chain is
        in list label order, and a strict superset, read as positions in
        decreasing order, is lex-greater, so a block B comes after every
        block it dominates (whose mask is a strict subset of its own). The
        members of those blocks are the vertices B allows on a path, and
        the region x reaches through them contains every dominated block's
        region. So B starts from the allowed vertices and regions of its
        covers, the maximal blocks it dominates, each standing for
        everything below it, and grows its region through the bitsets. B's
        targets are its members adjacent to x or to its region.

        A block's covers are kept for the next call. Masks never change,
        and a block made by the bumps in between holds their position,
        which no older block holds, so an older block dominates only blocks
        it dominated then: its covers are its kept ones, each emptied one
        replaced by its own. A new block finds its covers among the blocks
        walked before it, from the nearest down: a block that passes the
        mask test rules out, in one bitset step, every block it dominates,
        and one of equal or larger popcount fails the test by itself. A
        step costs O(blocks^2) mask tests at worst, plus one bitset union
        per vertex added to a region."""
        members, mask, up = self.members, self.mask, self.up
        nx, hit = nb[x], 0
        covers, kept, rank = self.covers, {}, {}
        blocks: list[int] = []  # by rank: the live blocks, bottom up
        masks: list[int] = []  # by rank
        below: list[int] = []  # by rank: a bitset of the ranks at or below it
        # by rank: (its members and allowed vertices, its region, the
        # neighbors of x and of the region)
        summary: list[tuple[int, int, int]] = []
        b = self.bottom
        while b != -1:
            j, m, bits = len(blocks), mask[b], 0
            for v in members[b]:
                bits |= 1 << v
            allowed = region = 0
            near, down, mine = nx, 1 << j, []
            if b in covers:
                ranks, stack = [], list(covers[b])
                while stack:
                    c = stack.pop()
                    if c in rank:
                        ranks.append(rank[c])
                    else:  # emptied since
                        stack += covers[c]
                found = sorted(ranks, reverse=True)
            else:
                found, outside = [], ~m
                rest = (1 << j) - 1  # the ranks not yet ruled in or out
                while rest:
                    t = rest.bit_length() - 1
                    if masks[t] & outside:
                        rest ^= 1 << t
                    else:
                        found.append(t)
                        rest &= ~below[t]
            for t in found:
                if not down >> t & 1:
                    ka, kr, kn = summary[t]
                    allowed |= ka
                    region |= kr
                    near |= kn
                    down |= below[t]
                    mine.append(blocks[t])
            new = near & allowed & ~region
            if new:
                near, region = _spread(new, near, region, allowed, nb)
            hit |= bits & near
            rank[b] = j
            kept[b] = mine
            blocks.append(b)
            masks.append(m)
            below.append(down)
            summary.append((allowed | bits, region, near))
            b = up[b]
        self.covers = kept
        return _vertices(hit)

    def lowest(self) -> int:
        b = self._narrowed()
        if b is not None:
            return self._lowest_of(b)
        order, ext, members = self.order, self.ext, self.members
        while True:
            v, b = order[0]
            if b not in ext:
                heappop(order)
            elif v in members[b]:
                return v
            else:  # v has left b: b's entry moves up to its new lowest
                heapreplace(order, (self._lowest_of(b), b))
