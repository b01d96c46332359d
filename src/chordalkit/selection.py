"""Selection queues: the unnumbered vertices grouped by label, kept in label
order as labels grow, so a search reads its extreme label class and that
class's lowest index without comparing labels.

Each built-in structure has one: count labels (mcs) use a bucket queue
(Tarjan & Yannakakis 1984), list labels (lexbfs) an ordered partition
refined at each step (Rose, Tarjan & Lueker 1976), prepended list labels
(lexdfs) the same partition with each step's twins stacked on top, since a
lexdfs increase lifts every bumped label above all the others (Corneil &
Krueger 2008), and set labels (mns) the lexbfs partition with an int
bitmask per block. Set labels are a partial order, so the mns queue finds
its maximal blocks by one walk over the blocks, O(blocks x maximal blocks)
mask tests per step, and applies the search's ``prefer`` rule itself.
Custom structures scan instead. All queues are driven by the same calls:
``remove`` when a vertex is numbered, ``bump`` when the labels of some
vertices are increased at position i, and ``lowest`` (or ``extreme``) to
select. With ``minimize`` they read the least class instead of the
greatest. The generic engine (through
``LabelingStructure._selection_queue``) and ``fast_clique_tree`` share them.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable


class BucketQueue:
    """Count labels: bucket k holds the unnumbered vertices labeled k.

    ``label`` is read by callers; bump ignores the position. A bump moves a
    vertex up one bucket, so no vertex ever re-enters a bucket it left. Each
    bucket therefore finds its lowest index with a lazy min-heap that every
    arrival is pushed onto: an entry is live iff its vertex is still in the
    bucket's set. Selection costs O(log n) amortized per step and label
    increase."""

    __slots__ = ("label", "members", "heaps", "top", "bottom", "minimize")

    def __init__(self, n: int, minimize: bool = False):
        self.label = [0] * n
        self.members: list[set[int]] = [set(range(n))]
        self.heaps: list[list[int]] = [list(range(n))]  # sorted, so a heap
        self.top = 0
        self.bottom = 0
        self.minimize = minimize

    def remove(self, v: int) -> None:
        self.members[self.label[v]].discard(v)

    def bump(self, vs: Iterable[int], i: int) -> None:
        label, members, heaps = self.label, self.members, self.heaps
        top = self.top
        for v in vs:
            k = label[v]
            members[k].discard(v)
            k += 1
            label[v] = k
            if k == len(members):
                members.append({v})
                heaps.append([v])
            else:
                members[k].add(v)
                heappush(heaps[k], v)
            if k > top:
                top = k
        self.top = top

    def extreme(self) -> set[int]:
        """The extreme label class (do not mutate)."""
        return self.members[self.label[self.lowest()]]

    def lowest(self) -> int:
        """The lowest index in the extreme label class."""
        # vertices only move up, so the least non-empty bucket never moves
        # down; the greatest moves up only through bump, which raises top
        members = self.members
        if self.minimize:
            k = self.bottom
            while not members[k]:
                k += 1
            self.bottom = k
        else:
            k = self.top
            while not members[k]:
                k -= 1
            self.top = k
        bucket, heap = members[k], self.heaps[k]
        while heap[0] not in bucket:
            heappop(heap)
        return heap[0]


class OrderedPartition:
    """List labels: blocks of equal labels, linked in label order.

    Bumping y at position i moves it into a twin of its block, linked just
    above that block: every live label holds only positions above i, so
    label + (i,) is the immediate successor of label among them. A block
    gains members only during the step that created it, so its lowest index
    comes from its members sorted once, at its first query, and a cursor
    that skips the members that have left. Block ids index flat lists and
    emptied ids are reused, so no object cycles are built and the lists
    stay at most as long as the most blocks alive at once. Selection and
    label increase cost O(log n) amortized."""

    __slots__ = ("members", "up", "down", "order", "cursor", "block_of", "top", "bottom",
                 "minimize", "free", "twins", "step")

    def __init__(self, n: int, minimize: bool = False):
        self.members: list[set[int]] = [set(range(n))]
        self.up = [-1]  # next greater block, -1 above the greatest
        self.down = [-1]  # next smaller block, -1 below the least
        self.order: list[list[int] | None] = [None]
        self.cursor = [0]
        self.block_of = [0] * n
        self.top = 0
        self.bottom = 0
        self.minimize = minimize
        self.free: list[int] = []
        self.twins: dict[int, int] = {}  # block -> its twin at this step
        self.step = 0

    def remove(self, v: int) -> None:
        b = self.block_of[v]
        members = self.members[b]
        members.discard(v)
        if not members:
            self._unlink(b)

    def bump(self, vs: Iterable[int], i: int) -> None:
        if i != self.step:
            self.step = i
            self.twins.clear()
        members, block_of, twins = self.members, self.block_of, self.twins
        for v in vs:
            b = block_of[v]
            t = twins.get(b)
            if t is None:
                t = twins[b] = self._new_block(b)
            old = members[b]
            old.discard(v)
            members[t].add(v)
            block_of[v] = t
            if not old:
                self._unlink(b)

    def _new_block(self, below: int) -> int:
        """A new empty block, linked just above ``below``."""
        above = self.up[below]
        if self.free:
            t = self.free.pop()
            self.members[t] = set()
            self.order[t] = None
            self.cursor[t] = 0
            self.up[t] = above
            self.down[t] = below
        else:
            t = len(self.members)
            self.members.append(set())
            self.order.append(None)
            self.cursor.append(0)
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
        self.order[b] = None
        self.twins.pop(b, None)
        self.free.append(b)

    def extreme(self) -> set[int]:
        """The extreme label class (do not mutate)."""
        return self.members[self.bottom if self.minimize else self.top]

    def lowest(self) -> int:
        """The lowest index in the extreme label class."""
        return self._lowest_of(self.bottom if self.minimize else self.top)

    def _lowest_of(self, b: int) -> int:
        members = self.members[b]
        order = self.order[b]
        if order is None:
            order = self.order[b] = sorted(members)
        c = self.cursor[b]
        while order[c] not in members:
            c += 1
        self.cursor[b] = c
        return order[c]


class StackPartition(OrderedPartition):
    """Lexdfs labels: an ordered partition whose twins go on top.

    Bumping y at position i prepends i to its label. Every live label holds
    only positions above i, and lexdfs ranks a smaller leading position
    higher, so each bumped label rises above every label not bumped at this
    step, while two bumped labels keep their order. The twins of a step's
    source blocks are therefore linked above the top block, in the order of
    their sources. Blocks only ever enter at the top, so the block order is
    creation order and a creation counter ranks the blocks. A step may bump
    one vertex per call, so ``bump`` only gathers the vertices; the next
    ``lowest`` or ``extreme`` groups them by block, sorts the k source
    blocks by rank and places their twins, O(k log k). Removal, emptied
    blocks and the lowest-index cursor are the ordered partition's."""

    __slots__ = ("rank", "created", "pending")

    def __init__(self, n: int, minimize: bool = False):
        super().__init__(n, minimize)
        self.rank = [0]  # by block id, parallel to members
        self.created = 1
        self.pending: list[int] = []

    def bump(self, vs: Iterable[int], i: int) -> None:
        self.pending.extend(vs)

    def _new_block(self, below: int) -> int:
        t = super()._new_block(below)
        if t == len(self.rank):
            self.rank.append(self.created)
        else:
            self.rank[t] = self.created
        self.created += 1
        return t

    def _place(self) -> None:
        """Move the gathered vertices into twins of their blocks, linked on
        top in ascending rank of the source blocks."""
        members, block_of = self.members, self.block_of
        groups: dict[int, list[int]] = {}
        for v in self.pending:
            b = block_of[v]
            if b in groups:
                groups[b].append(v)
            else:
                groups[b] = [v]
        self.pending.clear()
        # sources are all ranked before the first twin reuses a freed id
        for b in sorted(groups, key=self.rank.__getitem__):
            t = self._new_block(self.top)
            old, moved = members[b], groups[b]
            old.difference_update(moved)
            members[t].update(moved)
            for v in moved:
                block_of[v] = t
            if not old:
                self._unlink(b)

    def extreme(self) -> set[int]:
        if self.pending:
            self._place()
        return OrderedPartition.extreme(self)

    def lowest(self) -> int:
        if self.pending:
            self._place()
        return OrderedPartition.lowest(self)


class InclusionPartition(OrderedPartition):
    """Set labels (mns): the ordered partition, with each block's label kept
    as an int bitmask of its positions.

    Two sets of positions are equal exactly when the list labels built from
    them are, so the blocks are the equal-label classes of mns, and the
    partition's order is a linear extension of inclusion (Rose, Tarjan &
    Lueker 1976): every strict superset of a block's label lies above it.
    A twin's mask is its source's mask plus bit i. Selection walks the
    blocks once, from the top down (from the bottom up with ``minimize``),
    and tests each block against the maximal (minimal) blocks found so far
    with one int AND: if a block has a strict superset (subset), one of
    them is maximal (minimal) and already found. ``prefer``, set by the
    search, then keeps the found blocks whose label strictly contains
    ("greater") or equals ("equal") the label of the last removed vertex,
    when that leaves any. A step costs O(blocks x extreme blocks) mask
    tests."""

    __slots__ = ("mask", "prefer", "prev")

    def __init__(self, n: int, minimize: bool = False):
        super().__init__(n, minimize)
        self.mask = [0]  # by block id, parallel to members
        self.prefer: str | None = None
        self.prev = 0  # the last removed vertex's mask

    def remove(self, v: int) -> None:
        self.prev = self.mask[self.block_of[v]]
        super().remove(v)

    def _new_block(self, below: int) -> int:
        m = self.mask[below] | 1 << self.step
        t = super()._new_block(below)
        if t == len(self.mask):
            self.mask.append(m)
        else:
            self.mask[t] = m
        return t

    def _extreme_classes(self) -> list[int]:
        """The maximal blocks (minimal with minimize)."""
        mask = self.mask
        found: list[int] = []
        kept: list[int] = []  # their masks
        if self.minimize:
            b, step = self.bottom, self.up
            while b != -1:
                m = mask[b]
                for k in kept:
                    if k & m == k:
                        break
                else:
                    found.append(b)
                    kept.append(m)
                b = step[b]
        else:
            b, step = self.top, self.down
            while b != -1:
                m = mask[b]
                for k in kept:
                    if k & m == m:
                        break
                else:
                    found.append(b)
                    kept.append(m)
                b = step[b]
        return found

    def _classes(self) -> list[int]:
        """The extreme blocks, narrowed by ``prefer``."""
        found = self._extreme_classes()
        if self.prefer is not None:
            mask, prev = self.mask, self.prev
            if self.prefer == "greater":
                narrowed = [b for b in found if mask[b] & prev == prev and mask[b] != prev]
            else:
                narrowed = [b for b in found if mask[b] == prev]
            if narrowed:
                return narrowed
        return found

    def extreme(self) -> set[int]:
        """The union of the extreme label classes, narrowed by ``prefer``
        (do not mutate)."""
        classes = self._classes()
        if len(classes) == 1:
            return self.members[classes[0]]
        return set().union(*(self.members[b] for b in classes))

    def lowest(self) -> int:
        return min(self._lowest_of(b) for b in self._classes())


SelectionQueue = BucketQueue | OrderedPartition
