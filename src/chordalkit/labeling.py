"""Labeling structures: the (labels, order, initial, increase) quadruple that
parameterizes the label searches, with the four classic instances and bounded
verifiers for the structural properties the algorithms rely on.

A structure must satisfy the inclusion condition: folding the increase
operation over a strictly larger set of positions yields a strictly greater
label. Built-ins carry hard-coded property flags; user-defined structures are
flagged Unknown and get verified exhaustively at a small bound. The engine
gates the inclusion condition when a run is built (``LabelSearch``), and the
builders' label-test gates (dcl, complement-reversing) check it first.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations
from typing import Any, Iterable

from .errors import IcViolationError, NonDclStructureError, NotComplementReversingError
from .record import Record
from .selection import BucketQueue, InclusionPartition, OrderedPartition, StackPartition

Label = Any

DEFAULT_CHECK_BOUND = 8
CHECK_BOUND_CAP = 12


class Cmp(Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


class Tri(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class LabelingStructure:
    """Interface: initial(), inc(label, i), compare(a, b) -> Cmp.

    compare must behave as a partial order on the labels actually produced;
    Equal means value equality of labels. One queue answers selection, the
    builders' label test and the triangulating reach question, a
    built-in's own selection queue or, for any custom structure, a scan of
    the labels, which only that scan keeps.
    """

    name: str = "custom"
    ic_known: Tri = Tri.UNKNOWN
    dcl_known: Tri = Tri.UNKNOWN
    complement_reversing_known: Tri = Tri.UNKNOWN

    def initial(self) -> Label:
        raise NotImplementedError

    def inc(self, label: Label, i: int) -> Label:
        raise NotImplementedError

    def compare(self, a: Label, b: Label) -> Cmp:
        raise NotImplementedError

    def render(self, label: Label):
        """JSON-friendly rendering of a label."""
        return repr(label)

    def _fold(self, positions: list[int]) -> Label:
        """Internal: the increase folded over positions given in strictly
        decreasing order (see ``lab``). The built-ins build the label in
        one step instead, so that reading a trace copies no label."""
        value = self.initial()
        for i in positions:
            value = self.inc(value, i)
        return value

    def _selection_queue(self, n: int, minimize: bool) -> BucketQueue | OrderedPartition | None:
        """Internal: the selection queue that the search reads for selection,
        the label test and the triangulating reach targets. Each queue
        hard-codes one built-in structure's increase (see
        ``chordalkit.selection``), so custom structures return None and the
        search keeps and scans their labels in a
        ``chordalkit.search.ScanQueue``."""
        return None

    def __repr__(self) -> str:
        return f"<structure {self.name}>"


# what the built-in compare functions return, read once rather than per call
_LESS, _EQUAL, _GREATER, _INCOMPARABLE = Cmp.LESS, Cmp.EQUAL, Cmp.GREATER, Cmp.INCOMPARABLE


def _lex_compare(a: tuple[int, ...], b: tuple[int, ...], reverse_ints: bool) -> Cmp:
    # element-wise lexicographic; a proper prefix is less than its extension
    for x, y in zip(a, b):
        if x != y:
            less = (x > y) if reverse_ints else (x < y)
            return _LESS if less else _GREATER
    if len(a) == len(b):
        return _EQUAL
    return _LESS if len(a) < len(b) else _GREATER


def _render_list(label: tuple[int, ...]) -> str:
    return "(" + ",".join(str(x) for x in label) + ")"


class _Mcs(LabelingStructure):
    name = "mcs"
    ic_known = Tri.YES
    dcl_known = Tri.YES
    complement_reversing_known = Tri.YES

    def initial(self) -> int:
        return 0

    def inc(self, label: int, i: int) -> int:
        return label + 1

    def _fold(self, positions: list[int]) -> int:
        return len(positions)

    def compare(self, a: int, b: int) -> Cmp:
        if a == b:
            return _EQUAL
        return _LESS if a < b else _GREATER

    def _selection_queue(self, n: int, minimize: bool) -> BucketQueue:
        return BucketQueue(n, minimize)

    def render(self, label: int) -> int:
        return label


class _LexBfs(LabelingStructure):
    name = "lexbfs"
    ic_known = Tri.YES
    dcl_known = Tri.YES
    complement_reversing_known = Tri.YES

    def initial(self) -> tuple[int, ...]:
        return ()

    def inc(self, label: tuple[int, ...], i: int) -> tuple[int, ...]:
        return label + (i,)

    def _fold(self, positions: list[int]) -> tuple[int, ...]:
        return tuple(positions)

    def compare(self, a, b) -> Cmp:
        return _lex_compare(a, b, reverse_ints=False)

    def _selection_queue(self, n: int, minimize: bool) -> OrderedPartition:
        return OrderedPartition(n, minimize)

    def render(self, label) -> str:
        return _render_list(label)


class _LexDfs(LabelingStructure):
    name = "lexdfs"
    ic_known = Tri.YES
    dcl_known = Tri.NO
    complement_reversing_known = Tri.YES

    def initial(self) -> tuple[int, ...]:
        return ()

    def inc(self, label: tuple[int, ...], i: int) -> tuple[int, ...]:
        return (i,) + label

    def _fold(self, positions: list[int]) -> tuple[int, ...]:
        return tuple(reversed(positions))

    def compare(self, a, b) -> Cmp:
        # integer order reversed: larger numbers sort first, i.e. are "smaller"
        return _lex_compare(a, b, reverse_ints=True)

    def _selection_queue(self, n: int, minimize: bool) -> StackPartition:
        return StackPartition(n, minimize)

    def render(self, label) -> str:
        return _render_list(label)


class _Mns(LabelingStructure):
    name = "mns"
    ic_known = Tri.YES
    dcl_known = Tri.YES
    complement_reversing_known = Tri.YES

    def initial(self) -> frozenset[int]:
        return frozenset()

    def inc(self, label: frozenset[int], i: int) -> frozenset[int]:
        return label | {i}

    def _fold(self, positions: list[int]) -> frozenset[int]:
        return frozenset(positions)

    def compare(self, a, b) -> Cmp:
        if a == b:
            return _EQUAL
        if a < b:
            return _LESS
        if a > b:
            return _GREATER
        return _INCOMPARABLE

    def _selection_queue(self, n: int, minimize: bool) -> InclusionPartition:
        return InclusionPartition(n, minimize)

    def render(self, label) -> str:
        return "{" + ",".join(str(x) for x in sorted(label)) + "}"


def mcs() -> LabelingStructure:
    return _Mcs()


def lexbfs() -> LabelingStructure:
    return _LexBfs()


def lexdfs() -> LabelingStructure:
    return _LexDfs()


def mns() -> LabelingStructure:
    return _Mns()


BUILTIN_TOKENS = ("mcs", "lexbfs", "lexdfs", "mns")


def structure_by_token(token: str) -> LabelingStructure:
    factories = {"mcs": mcs, "lexbfs": lexbfs, "lexdfs": lexdfs, "mns": mns}
    if token not in factories:
        raise KeyError(f"unknown structure token {token!r}; expected one of {BUILTIN_TOKENS}")
    return factories[token]()


class RevStructure(LabelingStructure):
    """Same labels and increase, dual order: Less and Greater swap.

    The dual of an inclusion-condition structure violates that condition by
    construction, so all property flags are Unknown; this object exists for
    order-level reasoning and tests, not as a search-engine input
    (``LabelSearch`` rejects it).
    """

    def __init__(self, base: LabelingStructure):
        self.base = base
        self.name = f"rev({base.name})"

    def initial(self):
        return self.base.initial()

    def inc(self, label, i):
        return self.base.inc(label, i)

    def compare(self, a, b) -> Cmp:
        r = self.base.compare(a, b)
        if r is _LESS:
            return _GREATER
        if r is _GREATER:
            return _LESS
        return r

    def render(self, label):
        return self.base.render(label)


def rev(structure: LabelingStructure) -> LabelingStructure:
    if isinstance(structure, RevStructure):
        return structure.base
    return RevStructure(structure)


def lab(structure: LabelingStructure, positions: Iterable[int]) -> Label:
    """Fold the increase operation over positions in strictly decreasing order."""
    return structure._fold(sorted(set(positions), reverse=True))


class PropertyWitness(Record):
    """Counterexample to one of the bounded property checks. Replaying the
    two sets through lab reproduces the offending comparison."""

    prop: str
    n: int
    i: int | None
    set_small: tuple[int, ...]
    set_large: tuple[int, ...]
    observed: Cmp

    def to_json(self) -> dict:
        return {
            "property": self.prop,
            "n": self.n,
            "i": self.i,
            "I": list(self.set_small),
            "I_prime": list(self.set_large),
            "comparison": self.observed.value,
        }


def replay_witness(structure: LabelingStructure, w: PropertyWitness) -> bool:
    """True iff the witness still exhibits the violation on this structure."""
    small, large = set(w.set_small), set(w.set_large)
    if w.prop == "ic":
        got = structure.compare(lab(structure, small), lab(structure, large))
        return got == w.observed and got is not Cmp.LESS
    if w.prop == "dcl":
        assert w.i is not None
        got = structure.compare(lab(structure, large), lab(structure, small | {w.i + 1}))
        return small < large and got == w.observed == Cmp.LESS
    if w.prop == "complement-reversing":
        assert w.i is not None
        universe = set(range(w.i, w.n + 1))
        if structure.compare(lab(structure, small), lab(structure, large)) not in (Cmp.LESS, Cmp.EQUAL):
            return False
        got = structure.compare(lab(structure, universe - large), lab(structure, universe - small))
        return got == w.observed and got not in (Cmp.LESS, Cmp.EQUAL)
    raise ValueError(f"unknown property {w.prop!r}")


def _subsets_ordered(universe: tuple[int, ...]) -> list[tuple[int, ...]]:
    # ascending by (size, elements): deterministic witness search order
    out: list[tuple[int, ...]] = []
    for k in range(len(universe) + 1):
        out.extend(combinations(universe, k))
    return out


def _check_bound(n_max: int) -> None:
    if not (1 <= n_max <= CHECK_BOUND_CAP):
        raise ValueError(f"n_max must be in [1, {CHECK_BOUND_CAP}]")


def check_ic(structure: LabelingStructure, n_max: int) -> PropertyWitness | None:
    """Exhaustive inclusion-condition check over subsets of [1, n_max]:
    every proper subset must compare strictly Less. None means pass."""
    _check_bound(n_max)
    universe = tuple(range(1, n_max + 1))
    subsets = _subsets_ordered(universe)
    labs = {s: lab(structure, s) for s in subsets}
    for large in subsets:
        for small in _subsets_ordered(large):
            if small == large:
                continue
            got = structure.compare(labs[small], labs[large])
            if got is not Cmp.LESS:
                return PropertyWitness("ic", n_max, None, small, large, got)
    return None


def check_dcl(structure: LabelingStructure, n_max: int) -> PropertyWitness | None:
    """Clique-boundary label test soundness: for nested I, I' inside
    [i+2, n], the label of I' may only drop below that of I + {i+1} when
    I = I'. Returns the first witness in (n, i, I, I') order, or None."""
    _check_bound(n_max)
    for n in range(2, n_max + 1):
        for i in range(1, n):
            universe = tuple(range(i + 2, n + 1))
            subsets = _subsets_ordered(universe)
            labs = {s: lab(structure, s) for s in subsets}
            for small in subsets:
                small_set = set(small)
                bumped = lab(structure, small_set | {i + 1})
                for large in subsets:
                    if not (small_set < set(large)):
                        continue
                    got = structure.compare(labs[large], bumped)
                    if got is Cmp.LESS:
                        return PropertyWitness("dcl", n, i, small, large, got)
    return None


def check_complement_reversing(structure: LabelingStructure, n_max: int) -> PropertyWitness | None:
    """Order-reversal under complementation within [i, n]: whenever
    lab(I) <= lab(I'), the complements must compare the other way round."""
    _check_bound(n_max)
    for n in range(1, n_max + 1):
        for i in range(1, n + 1):
            universe = tuple(range(i, n + 1))
            subsets = _subsets_ordered(universe)
            labs = {s: lab(structure, s) for s in subsets}
            comp = {s: tuple(sorted(set(universe) - set(s))) for s in subsets}
            for small in subsets:
                for large in subsets:
                    if structure.compare(labs[small], labs[large]) not in (Cmp.LESS, Cmp.EQUAL):
                        continue
                    got = structure.compare(labs[comp[large]], labs[comp[small]])
                    if got not in (Cmp.LESS, Cmp.EQUAL):
                        return PropertyWitness("complement-reversing", n, i, small, large, got)
    return None


# property -> (bounded check, the structure's hard-coded Tri flag, error,
# message when the flag says NO, the check's name when it fails)
_GATES = {
    "ic": (check_ic, "ic_known", IcViolationError,
           "does not satisfy the inclusion condition", "inclusion-condition"),
    "dcl": (check_dcl, "dcl_known", NonDclStructureError,
            "cannot detect new cliques with labels", "clique-detection"),
    "complement-reversing": (check_complement_reversing, "complement_reversing_known",
                             NotComplementReversingError,
                             "is not complement-reversing", "complement-reversing"),
}


def check_report(structure: LabelingStructure, prop: str, n_max: int) -> dict:
    """JSON report for a bounded property check: {property, bound, result, witness?}."""
    if prop not in _GATES:
        raise ValueError(f"unknown property {prop!r}")
    witness = _GATES[prop][0](structure, n_max)
    report = {
        "property": prop,
        "structure": structure.name,
        "bound": n_max,
        "result": "pass" if witness is None else "fail",
    }
    if witness is not None:
        report["witness"] = witness.to_json()
    return report


def _require(prop: str, structure: LabelingStructure) -> None:
    """Gate for the search engine: built-ins pass or fail on their flag,
    unknown structures get one exhaustive check of prop up to
    ``DEFAULT_CHECK_BOUND`` vertices (cached on the instance). ``LabelSearch``
    gates "ic" when a run is built, and the label-test gates check it first."""
    if prop != "ic":
        _require("ic", structure)
    check, flag, error, known_no, noun = _GATES[prop]
    known = getattr(structure, flag)
    if known is Tri.YES:
        return
    if known is Tri.NO:
        raise error(f"{structure.name} {known_no}")
    cache = f"_{flag}_checked"
    passed = getattr(structure, cache, None)
    if passed is None:
        passed = check(structure, DEFAULT_CHECK_BOUND) is None
        try:
            setattr(structure, cache, passed)
        except AttributeError:
            pass
    if not passed:
        raise error(f"{structure.name} failed the bounded {noun} check (n_max={DEFAULT_CHECK_BOUND})")


def require_ic(structure: LabelingStructure) -> None:
    _require("ic", structure)


def require_dcl(structure: LabelingStructure) -> None:
    _require("dcl", structure)


def require_complement_reversing(structure: LabelingStructure) -> None:
    _require("complement-reversing", structure)
