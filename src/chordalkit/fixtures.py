"""Small handmade graphs with scripted searches and their frozen outcomes.

Each fixture bundles an edge list, a target ordering (the script drives the
tie-breaks so the run is fully reproducible), and the expected final labels
or fills for that run. These pin the exact behaviors that motivated the
algorithms: a depth-first label order failing to detect clique boundaries
on fig1_h, the same structure detecting them on the complement (fig3_g),
order-breaking examples on non-chordal inputs (fig4_g through fig6_g).
"""

from __future__ import annotations

from .graph import Graph, from_edge_list
from .record import Record, field


class Fixture(Record):
    name: str
    edges: tuple[tuple[str, str], ...]
    # script = the ordering to reproduce, position 1 first
    script: tuple[str, ...] = ()
    structure: str = ""
    # expected final labels (rendered) for the scripted max-label run
    final_labels: dict[str, object] = field(default_factory=dict)
    # expected final labels for the scripted min-label (complement) run
    complement_final_labels: dict[str, object] = field(default_factory=dict)
    note: str = ""

    def graph(self) -> Graph:
        return from_edge_list(self.edges)

    def edge_list_text(self) -> str:
        return "".join(f"{a} {b}\n" for a, b in self.edges)


FIXTURES: dict[str, Fixture] = {
    fx.name: fx
    for fx in [
        Fixture(
            name="fig1_h",
            edges=(("f", "a"), ("a", "b"), ("b", "f"), ("f", "e"), ("e", "c"), ("c", "d"), ("d", "e")),
            script=("a", "b", "c", "d", "e", "f"),
            structure="lexdfs",
            final_labels={
                "a": "(2,6)",
                "b": "(6)",
                "c": "(4,5)",
                "d": "(5)",
                "e": "(6)",
                "f": "()",
            },
            note="six-vertex chordal graph with maximal cliques {a,b,f}, {c,d,e}, {e,f}",
        ),
        Fixture(
            name="fig3_g",
            edges=(("a", "c"), ("a", "d"), ("a", "e"), ("b", "c"), ("b", "d"), ("b", "e"), ("c", "f"), ("d", "f")),
            script=("a", "b", "c", "d", "e", "f"),
            structure="lexdfs",
            complement_final_labels={
                "a": "(3,4,5)",
                "b": "(3,4,5)",
                "c": "(6)",
                "d": "(6)",
                "e": "()",
                "f": "()",
            },
            note="complement of fig1_h; clique boundaries fall at iterations 4 and 2",
        ),
        Fixture(
            name="fig4_g",
            edges=(("1", "2"), ("1", "4"), ("2", "3"), ("2", "5"), ("3", "5"), ("4", "5")),
            script=("1", "2", "3", "4", "5"),
            structure="lexbfs",
            final_labels={"1": "(4,2)", "2": "(5,3)", "3": "(5)", "4": "(5)", "5": "()"},
            note="non-chordal; the scripted breadth-first run fills {2,4},{3,4}, not minimally",
        ),
        Fixture(
            name="fig5_g",
            edges=(
                ("1", "2"), ("1", "4"), ("1", "6"), ("2", "3"), ("2", "7"),
                ("3", "4"), ("3", "6"), ("4", "5"), ("5", "6"), ("6", "7"),
            ),
            script=("1", "2", "3", "4", "5", "6", "7"),
            structure="lexdfs",
            final_labels={
                "1": "(2,4,6)",
                "2": "(3,7)",
                "3": "(4,6)",
                "4": "(5)",
                "5": "(6)",
                "6": "(7)",
                "7": "()",
            },
            note="non-chordal; separators inside N[1] are incomparable under inclusion",
        ),
        Fixture(
            name="fig6_g",
            edges=(("1", "5"), ("2", "3"), ("2", "6"), ("3", "5"), ("4", "5"), ("5", "6")),
            script=("1", "2", "3", "4", "5", "6"),
            structure="lexdfs",
            final_labels={"1": "(5)", "2": "(3,6)", "3": "(5)", "4": "(5)", "5": "(6)", "6": "()"},
            note="non-chordal; components outside N[1] are not numbered consecutively",
        ),
    ]
}


def fixtures() -> dict[str, Fixture]:
    return dict(FIXTURES)


def fixture(name: str) -> Fixture:
    return FIXTURES[name]


def graph(name: str) -> Graph:
    return FIXTURES[name].graph()
