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
keep the lexbfs partition with each block's position set. For the three
total orders selection and label increase cost O(log n) amortized. Set
labels are a partial order, so the mns queue keeps the inclusion diagram
of its blocks between steps, each block linked to the blocks whose labels
cover its own and to those whose labels its own covers; its extreme blocks
are those with nothing above them. ``bump`` updates the diagram as it moves
vertices to their twins: a step costs mask tests among its twins and
between the neighbors of each block it empties (see
``InclusionPartition``). It applies the search's moplex rule (``prefer``)
itself. Custom
structures get ``chordalkit.search.ScanQueue``, which keeps their labels
and answers the same calls by scanning them. All queues are driven by the
same calls, each step making exactly one ``bump(x, vs, i)``: it removes x,
the vertex the step numbers at position i, then grows the labels of vs,
possibly none, every vertex whose label grows at i. ``bump`` returns with
the queue settled, so ``lowest`` (or ``extreme``) selects by reading it.
With ``minimize`` they read the least class instead of the greatest. The
engine gets them through ``LabelingStructure._selection_queue``.

The queues also answer the one label test of the clique-tree builders,
so the search keeps no labels: ``continues(x)`` says whether x's label,
for x in the extreme class, continues the label of the last removed
vertex, that is, is strictly greater than it (maximizing) or equal to it
(minimizing). A new clique starts exactly where the chosen label does not
continue the previous one, and the moplex rule, ``prefer``, prefers the
extreme labels that do. Each queue reads the block that ``bump``
recorded as it removed that vertex: equal labels share a block, and a
vertex grew past it, maximizing, when the last ``bump`` moved it to that
block's twin (lexbfs and mns, in O(1): a set label strictly containing a
maximal one holds the step's position, so it is that label's twin) or to
any of the step's twins (lexdfs, which reads them off ``twins``). The
mcs queue compares counts. A minimizing search on a graph denser than its
complement runs a maximizing queue over complement labels (see
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
each block from the blocks it covers in the diagram. ``ScanQueue.reach``
searches once per candidate target instead.

The ordered partitions create blocks by refinement and never revive them,
so block ids count up in creation order and are never reused. An emptied
block is unlinked and its state released (member set and heap; for mns
also its mask and diagram links, once ``bump`` settles the step), so the
per-block lists keep one small entry per block ever created: at most one
per label increase, O(n + m + fill) over a search.
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

    def bump(self, x: int, vs: Iterable[int], i: int) -> None:
        members, heaps, block_of, twins = self.members, self.heaps, self.block_of, self.twins
        b = self.last = block_of[x]
        old = members[b]
        old.discard(x)
        if not old:
            self._unlink(b)
        twins.clear()
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

    def bump(self, x: int, vs: Iterable[int], i: int) -> None:
        count, members, heaps = self.count, self.members, self.heaps
        c = self.last = count[x]
        old = members[c]
        old.discard(x)
        if not old:
            heaps[c].clear()
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
    vertex bitset; call it before the step's bump, which removes x: x
    may still be in its class, and is never a target.
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
    return _vertices(hit & ~(1 << x))


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

    def bump(self, x: int, vs: Iterable[int], i: int) -> None:
        super().bump(x, sorted(vs, key=self.block_of.__getitem__), i)

    def _new_block(self, below: int) -> int:
        return super()._new_block(self.top)


class InclusionPartition(OrderedPartition):
    """Set labels (mns): the ordered partition, with each block's label kept
    as the set of its positions (``mask``), and the strict inclusions
    between the live blocks' masks kept as their covering graph:
    ``above[b]`` holds the blocks whose masks cover b's (contain it, with
    no live mask between), ``below[b]`` the blocks whose masks b's covers.
    The extreme blocks (``ext``) are those with nothing above them
    (nothing below, with ``minimize``).

    Equal position sets are equal list labels, so the blocks are the
    equal-label classes of mns and no two live blocks share a mask. A
    twin's mask is its source's plus i, which no older block holds. So a
    twin lies above no older block, covers its source, and covers another
    twin exactly when that twin's source is least among the step's sources
    strictly containing its own; the older blocks keep their covers.
    ``bump`` settles the step by these rules (``_settle``): it links each
    twin above its source and to the other twins (``_link_twins``), then
    drops each emptied block, linking its lower neighbors to its upper ones
    where no other block lies between (``_between``).

    ``lowest`` reads a lazy heap of (index, block) over the extreme set,
    each entry at most its block's lowest index, pushed as the block enters
    the set; an entry whose block has left the set is dropped, and one
    whose vertex has left moves up to the block's new lowest, as no vertex
    enters an older block. The label test is the ordered partition's, read
    off ``twins`` with no mask test, and ``prefer`` reads the same block:
    at most one extreme block continues the last removed vertex's label,
    the block it left (minimizing) or that block's twin (maximizing), and
    ``prefer`` keeps that block alone when it is extreme (``_narrowed``).

    A step costs O(twins^2) mask tests among its twins at worst, O(twins)
    when their sources nest, plus one ``_between`` test per pair of an
    emptied block's lower and old upper neighbors, of
    min(|above|, |below|) mask tests. A mask test costs O(|label|) set
    lookups, and a twin's mask a copy of its source's only when the source
    lives on. ``reach`` reads the graph too: one bitset search per live
    block, each starting from the regions of the blocks it covers."""

    __slots__ = ("mask", "above", "below", "ext", "order")

    def __init__(self, n: int, minimize: bool = False):
        super().__init__(n, minimize)
        # by block id, parallel to members: its positions, its upper and
        # its lower covers; None once the block is dropped
        self.mask: list[set[int]] = [set()]
        self.above: list[set[int]] = [set()]
        self.below: list[set[int]] = [set()]
        self.ext = {0}  # the extreme blocks
        self.order = [(0, 0)]  # the lazy heap of (index, extreme block)

    def bump(self, x: int, vs: Iterable[int], i: int) -> None:
        super().bump(x, vs, i)
        self._settle(i)

    def _settle(self, i: int) -> None:
        """Link the step's twins, drop its emptied blocks and update the
        extreme set. Maximizing, a live source leaves it, under its twin,
        and a block enters it only as a twin or as a lower neighbor of an
        emptied extreme block; minimizing, only as an upper neighbor of an
        emptied extreme block.

        An emptied source hands its position set to its twin, adding i, as
        it is dropped. Until then the twin holds {i} alone: the step links
        twins by their sources' masks, and asks of a twin's mask only
        whether it lies inside an older block's, which no twin does."""
        mask, above, below, members, ext = self.mask, self.above, self.below, self.members, self.ext
        fresh, minimize, bit = self.twins, self.minimize, {i}  # this step's source -> twin
        dropped = []
        for s, t in fresh.items():  # the twins were made in this order
            if members[s]:
                mask.append(mask[s] | bit)
            else:
                mask.append(bit)
                dropped.append(s)
            above.append(set())
            below.append({s})
            above[s].add(t)
        if len(fresh) > 1:
            self._link_twins(sorted(fresh, key=lambda s: len(mask[s])))
        if minimize:
            side, enter = below, []
        else:
            side, enter = above, list(fresh.values())
            ext.difference_update(fresh)
        if len(dropped) > 1:  # supersets first, for the twin rule below
            dropped.sort(key=lambda s: len(mask[s]), reverse=True)
        if not members[self.last] and self.last not in fresh:
            dropped.insert(0, self.last)  # first, so no dropped block lies under another's twin
        for d in dropped:
            ext.discard(d)
            ups, downs, m = above[d], below[d], mask[d]
            above[d] = below[d] = mask[d] = None  # type: ignore[call-overload]
            for a in ups:
                below[a].discard(d)
            t = fresh.get(d)
            for b in downs:
                over = above[b]
                over.discard(d)
                for a in ups:
                    # the twin rule: between b and d's twin lies only b's
                    # own twin, as every source below d is still linked
                    if b in fresh if a == t else over and self._between(b, a):
                        continue
                    over.add(a)
                    below[a].add(b)
            if not (downs if minimize else ups):
                enter += ups if minimize else downs
            if t is not None:  # d hands its positions to its twin
                m.add(i)
                mask[t] = m
        order, heaps = self.order, self.heaps
        for b in enter:
            if members[b] and not side[b] and b not in ext:
                ext.add(b)
                heappush(order, (heaps[b][0], b))  # type: ignore[index]

    def _between(self, b: int, a: int) -> bool:
        """Whether a block's mask lies strictly between b's and a's, given
        that a's contains b's: one of b's upper neighbors or one of a's
        lower neighbors, tested on whichever side has fewer."""
        mask, over, under = self.mask, self.above[b], self.below[a]
        if len(over) <= len(under):
            k = mask[a]
            for c in over:
                if mask[c] < k:
                    return True
        else:
            m = mask[b]
            for c in under:
                if m < mask[c]:
                    return True
        return False

    def _link_twins(self, sources: list[int]) -> None:
        """Link each of a step's twins to its covers among them, given
        their sources by ascending mask size: a block covering a twin's
        mask holds i, so it is a twin, and twins nest as their sources do.
        Each source, largest first, tests the larger ones in order; a
        containing mask found there gives a cover, and rules out every
        source above that one. A source with nothing above it but its own
        twin tests none."""
        mask, above, below, twins = self.mask, self.above, self.below, self.twins
        ups = [0] * len(sources)  # by index: the sources above it, as a bitset of indices
        for j in range(len(sources) - 2, -1, -1):
            s = sources[j]
            if len(above[s]) == 1:
                continue
            m, t, rest = mask[s], twins[s], (1 << len(sources)) - (2 << j)
            while rest:
                low = rest & -rest
                k = low.bit_length() - 1
                if m < mask[sources[k]]:
                    u = twins[sources[k]]
                    above[t].add(u)
                    below[u].add(t)
                    ups[j] |= low | ups[k]
                    rest &= ~ups[j]
                else:
                    rest ^= low

    def _narrowed(self) -> int | None:
        """The one extreme block whose label continues the last removed
        vertex's, when ``prefer`` is on and there is one: minimizing, the
        block that vertex left; maximizing, that block's twin.

        Let E be the block that the vertex x removed at step i left, and L
        its mask. Maximizing, a live block whose mask strictly contains L
        holds i: an older one was live beside E and would have dominated
        it, yet E was maximal. So it is a twin s + {i} with s containing
        L, and s = E, as E was maximal. E's twin is thus the only label
        that continues x's, and it is extreme whenever it exists, since its
        source was. Minimizing, equal masks are the same block, since no
        two live blocks share a mask, and a twin holds i, which L does
        not."""
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
        bitset. Call it once per step, before the step's bump, which
        removes x; x is never a target.

        The live blocks are walked up the chain, bottom first. The chain is
        in list label order, and a strict superset, read as positions in
        decreasing order, is lex-greater, so a block B comes after every
        block it dominates (whose mask is a strict subset of its own). The
        members of those blocks are the vertices B allows on a path, and
        the region x reaches through them contains every dominated block's
        region. So B starts from the allowed vertices and regions of the
        blocks it covers (``below[B]``), each standing for everything below
        it, and grows its region through the bitsets. B's targets are its
        members adjacent to x or to its region. A step costs three unions
        per covering pair, plus one bitset union per vertex added to a
        region."""
        members, below, up = self.members, self.below, self.up
        nx, hit = nb[x], 0
        # by block: (its members and allowed vertices, its region, the
        # neighbors of x and of the region)
        summary: dict[int, tuple[int, int, int]] = {}
        b = self.bottom
        while b != -1:
            bits = allowed = region = 0
            for v in members[b]:  # type: ignore[union-attr]
                bits |= 1 << v
            near = nx
            for c in below[b]:
                ka, kr, kn = summary[c]
                allowed |= ka
                region |= kr
                near |= kn
            new = near & allowed & ~region
            if new:
                near, region = _spread(new, near, region, allowed, nb)
            hit |= bits & near
            summary[b] = (allowed | bits, region, near)
            b = up[b]
        return _vertices(hit & ~(1 << x))

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
