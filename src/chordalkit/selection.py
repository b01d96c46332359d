"""Selection queues: the unnumbered vertices grouped by label, kept in label
order as labels grow, so a search reads its extreme label class and that
class's lowest index without comparing labels.

Every built-in structure has one, and all four are one ordered partition:
blocks of equal labels, linked in label order, each finding its lowest
index with a lazy min-heap (Habib, McConnell, Paul & Viennot 2000). Count
labels (mcs) keep one block per count in use, the buckets of Tarjan &
Yannakakis (1984); list labels (lexbfs) refine the partition at each step,
each bumped block's twin linked just above it (Rose, Tarjan & Lueker 1976);
prepended list labels (lexdfs) stack each step's twins on top, since a
lexdfs increase lifts every bumped label above all the others (Corneil &
Krueger 2008); and set labels (mns) keep the lexbfs partition with an int
bitmask per block. For the three total orders selection and label increase
cost O(log n) amortized. Set labels are a partial order, so the mns queue
finds its maximal blocks by one walk over the blocks, O(blocks x maximal
blocks) mask tests per step, and applies the search's ``prefer`` rule
itself. Custom structures scan instead. All queues are driven by the same
calls: ``remove`` when a vertex is numbered, ``bump`` when the labels of
some vertices are increased at position i, and ``lowest`` (or ``extreme``)
to select. With ``minimize`` they read the least class instead of the
greatest. The generic engine (through
``LabelingStructure._selection_queue``) and ``fast_clique_tree`` share them.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable


class OrderedPartition:
    """List labels: blocks of equal labels, linked in label order.

    Bumping y at position i moves it into the block ``_target`` names for
    its block, cached for the step in ``twins``. Here that is a twin linked
    just above the block: every live label holds only positions above i, so
    label + (i,) is the immediate successor of label among them. No vertex
    ever re-enters a block it left, so each block finds its lowest index
    with a lazy min-heap that every arrival is pushed onto: an entry is
    live iff its vertex is still in the block. Block ids index flat lists
    and emptied ids are reused, so no object cycles are built and the lists
    stay at most as long as the most blocks alive at once. ``prefer`` is
    set by the search; only the mns queue reads it. Selection and label
    increase cost O(log n) amortized."""

    __slots__ = ("members", "heaps", "up", "down", "block_of", "top", "bottom",
                 "minimize", "free", "twins", "step", "prefer")

    def __init__(self, n: int, minimize: bool = False):
        self.members: list[set[int]] = [set(range(n))]
        self.heaps: list[list[int] | None] = [list(range(n))]  # sorted, so a heap
        self.up = [-1]  # next greater block, -1 above the greatest
        self.down = [-1]  # next smaller block, -1 below the least
        self.block_of = [0] * n
        self.top = 0
        self.bottom = 0
        self.minimize = minimize
        self.free: list[int] = []
        # block -> its target at this step. A block freed during the step
        # keeps its entry, unread: a vertex is bumped at most once a step,
        # and a reused id holds only vertices bumped already
        self.twins: dict[int, int] = {}
        self.step = 0
        self.prefer: str | None = None

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
        members, heaps, block_of, twins = self.members, self.heaps, self.block_of, self.twins
        for v in vs:
            b = block_of[v]
            t = twins.get(b)
            if t is None:
                t = twins[b] = self._target(b)
            old = members[b]
            old.discard(v)
            members[t].add(v)
            heappush(heaps[t], v)
            block_of[v] = t
            if not old:
                self._unlink(b)

    def _target(self, b: int) -> int:
        """The block that b's bumped vertices move to at this step."""
        return self._new_block(b)

    def _new_block(self, below: int) -> int:
        """A new empty block, linked just above ``below``."""
        above = self.up[below]
        if self.free:
            t = self.free.pop()
            self.members[t] = set()
            self.heaps[t] = []
            self.up[t] = above
            self.down[t] = below
        else:
            t = len(self.members)
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
        self.heaps[b] = None
        self.free.append(b)

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


class BucketQueue(OrderedPartition):
    """Count labels (mcs): the ordered partition with one block per count
    in use, linked in count order, so its blocks are the buckets of Tarjan
    & Yannakakis (1984). A bumped vertex moves to the block just above its
    own when that block counts one more, and otherwise to a new block
    linked between the two. A block may gain members over many steps; the
    lazy heaps need only that no vertex comes back to a block it left."""

    __slots__ = ("count",)

    def __init__(self, n: int, minimize: bool = False):
        super().__init__(n, minimize)
        self.count = [0]  # by block id, parallel to members

    def _target(self, b: int) -> int:
        above, count = self.up[b], self.count
        c = count[b] + 1
        if above != -1 and count[above] == c:
            return above
        t = self._new_block(b)
        if t == len(count):
            count.append(c)
        else:
            count[t] = c
        return t


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
    blocks and the lazy heaps are the ordered partition's; a twin's heap is
    seeded with its members sorted."""

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
        members, heaps, block_of = self.members, self.heaps, self.block_of
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
            heaps[t] = sorted(moved)
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

    __slots__ = ("mask", "prev")

    def __init__(self, n: int, minimize: bool = False):
        super().__init__(n, minimize)
        self.mask = [0]  # by block id, parallel to members
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
