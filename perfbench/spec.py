"""What the benchmark runs and reports: workloads, their cases, the census
that covers every layer in a traced run, and the metric manifest that
BENCHMARK.json is written from.

A graph key is ``<family>-<n>``. Families map onto generators in
``inputs.py``; sizes within one family form a doubling series, and every
series with at least three sizes gets a fitted scaling exponent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

DEFAULT_SEED = 1
SETUP_REPS = 3
RUN_SECONDS = 20
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Every public product the benchmark times, as "<module>.<function>".
FUNCTIONS = (
    "graph.load_graph",
    "search.mls",
    "search.moplex_mls",
    "search.mlsm",
    "search.moplex_mlsm",
    "search.triangulation_from_ordering",
    "cliquetree.fast_clique_tree",
    "cliquetree.mls_clique_tree",
    "cliquetree.dcl_mls_clique_tree",
    "cliquetree.clique_tree_from_peo",
    "cliquetree.complement_mls_clique_tree",
    "cliquetree.complement_mls_generators",
    "decomposition.dcl_atom_tree",
    "decomposition.dcl_mlsm_clique_tree",
    "decomposition.atom_tree_from_clique_tree",
    "serialize.clique_tree_json",
    "serialize.atom_tree_json",
    "serialize.triangulation_json",
    "serialize.dumps",
)
CLI_SUBCOMMANDS = ("cliquetree", "triangulate", "atoms")

NOT_CHORDAL = "NotChordal"
HOLE_DEFECT = "fast_clique_tree returns a tree on a non-chordal input instead of raising NotChordal"


@dataclass(frozen=True)
class Case:
    """One library call: ``fn`` on the graph ``graph``, with the structure
    ``token`` where the function takes one."""

    fn: str
    graph: str
    token: str = ""
    expect: str = "ok"  # or NOT_CHORDAL
    known_defect: str = ""  # why a failure of this case is expected at seed

    @property
    def family(self) -> str:
        return self.graph.rsplit("-", 1)[0]

    @property
    def n(self) -> int:
        return int(self.graph.rsplit("-", 1)[1])

    @property
    def series(self) -> str:
        """``<fn>[.<token>].<family>``: cases sharing it form a size series."""
        return ".".join(p for p in (self.fn, self.token, self.family) if p)

    @property
    def id(self) -> str:
        return f"{self.series}@{self.n}"


@dataclass(frozen=True)
class CliCase:
    """One ``python -m chordalkit`` child. ``flags`` may name ``{peo}``,
    replaced by the file holding the fast path's ordering of the input."""

    sub: str
    graph: str
    flags: tuple[str, ...]
    expect: str = "ok"

    @property
    def id(self) -> str:
        return f"cli.{self.sub}[{' '.join(self.flags)}]@{self.graph}"


def _each(fns, graphs, tokens=("",), **kw) -> list[Case]:
    return [Case(fn, g, t, **kw) for fn in fns for t in tokens for g in graphs]


def _sizes(family: str, ns) -> list[str]:
    return [f"{family}-{n}" for n in ns]


FAST = _sizes("chordal8", (4000, 8000, 16000))
GENERIC = _sizes("chordal4", (60, 120, 240))
STARS = _sizes("star", (1000, 2000, 4000))
PATHS = _sizes("path", (2500, 5000, 10000))
CLIQUES = _sizes("complete", (40, 80, 160))
COCHORDAL = _sizes("cochordal", (60, 120, 240))
SPARSE3 = _sizes("connected", (30, 60, 120))
SPARSE2 = SPARSE3[:2]

WORKLOADS: dict[str, dict] = {
    "chordal": {
        "why": "seeded chordal graphs: selection and clique-tree assembly dominate; "
        "fast path, generic builders, from-peo, parse/serialize and CLI; no triangulating search",
        "cases": (
            _each(["graph.load_graph"], FAST)
            + _each(["cliquetree.fast_clique_tree"], FAST, ("mcs", "lexbfs"))
            + _each(["serialize.clique_tree_json", "serialize.dumps"], FAST)
            + _each(["cliquetree.mls_clique_tree"], GENERIC, ("mcs", "lexbfs", "mns"))
            + _each(["cliquetree.dcl_mls_clique_tree"], GENERIC, ("mcs",))
            + _each(["search.moplex_mls"], GENERIC, ("mns",))
            # cross-checked against dcl_mls_clique_tree with the same structure
            + _each(["cliquetree.fast_clique_tree"], GENERIC[-1:], ("mcs", "lexbfs"))
            + _each(["cliquetree.clique_tree_from_peo"], FAST[:1])
        ),
        "cli": (
            CliCase("cliquetree", GENERIC[-1], ("--structure", "mcs")),
            CliCase("cliquetree", FAST[0], ("--from-peo", "{peo}")),
        ),
    },
    "adversarial": {
        "why": "stars, paths, cliques, co-chordal and holed inputs; failed>0 at seed because "
        "fast_clique_tree returns a tree on a holed (non-chordal) graph instead of raising NotChordal",
        "cases": (
            _each(["cliquetree.fast_clique_tree"], STARS + PATHS, ("mcs", "lexbfs"))
            + _each(["cliquetree.clique_tree_from_peo"], CLIQUES)
            + _each(["cliquetree.fast_clique_tree", "cliquetree.mls_clique_tree"], CLIQUES, ("mcs",))
            + _each(["cliquetree.complement_mls_generators"], COCHORDAL, ("mcs", "lexdfs"))
            + _each(["cliquetree.complement_mls_clique_tree"], COCHORDAL, ("lexdfs",))
            + _each(["cliquetree.mls_clique_tree"], ["holed4-200"], ("mcs",), expect=NOT_CHORDAL)
            + _each(
                ["cliquetree.fast_clique_tree"], ["holed8-8000"], ("mcs", "lexbfs"),
                expect=NOT_CHORDAL, known_defect=HOLE_DEFECT,
            )
        ),
        "cli": (
            CliCase("cliquetree", "holed4-200", ("--structure", "mcs"), expect=NOT_CHORDAL),
            CliCase("cliquetree", CLIQUES[1], ("--from-peo", "{peo}")),
        ),
    },
    "triangulate": {
        "why": "sparse non-chordal graphs (m about 3n): the triangulating reach search "
        "(inc_targets) dominates and selection is a small share",
        "cases": (
            _each(["graph.load_graph"], SPARSE3)
            + _each(["search.moplex_mlsm", "decomposition.dcl_atom_tree", "search.mls"], SPARSE3, ("mcs",))
            + _each(["search.triangulation_from_ordering"], SPARSE3)
            + _each(["search.moplex_mlsm"], SPARSE2, ("lexbfs", "mns"))
            + _each(["search.mlsm"], SPARSE2, ("mcs",))
            + _each(["decomposition.dcl_mlsm_clique_tree"], SPARSE2, ("lexbfs",))
            + _each(["decomposition.atom_tree_from_clique_tree"], SPARSE2)
            + _each(["serialize.atom_tree_json", "serialize.triangulation_json", "serialize.dumps"], SPARSE3)
        ),
        "cli": (
            CliCase("atoms", SPARSE3[1], ("--structure", "mcs")),
            CliCase("triangulate", SPARSE3[1], ("--structure", "lexbfs", "--tree")),
        ),
    },
}

# Census: in traced runs, each function without a size series of its own in
# the workload runs on tiny graphs, and each subcommand the workload never
# starts runs once, so every per-layer metric is measured on every workload.
# End-to-end metrics never include census calls.
_TINY_CHORDAL = _sizes("tinychordal", (16, 32, 64))
_TINY_SPARSE = _sizes("tinyconnected", (16, 32, 64))
_TINY_COCHORDAL = _sizes("tinycochordal", (16, 32, 64))
CENSUS_INPUT = {
    "graph.load_graph": (_TINY_CHORDAL, ""),
    "search.mls": (_TINY_SPARSE, "mcs"),
    "search.moplex_mls": (_TINY_SPARSE, "mcs"),
    "search.mlsm": (_TINY_SPARSE, "mcs"),
    "search.moplex_mlsm": (_TINY_SPARSE, "mcs"),
    "search.triangulation_from_ordering": (_TINY_SPARSE, ""),
    "cliquetree.fast_clique_tree": (_TINY_CHORDAL, "mcs"),
    "cliquetree.mls_clique_tree": (_TINY_CHORDAL, "mcs"),
    "cliquetree.dcl_mls_clique_tree": (_TINY_CHORDAL, "mcs"),
    "cliquetree.clique_tree_from_peo": (_TINY_CHORDAL, ""),
    "cliquetree.complement_mls_clique_tree": (_TINY_COCHORDAL, "lexdfs"),
    "cliquetree.complement_mls_generators": (_TINY_COCHORDAL, "mcs"),
    "decomposition.dcl_atom_tree": (_TINY_SPARSE, "mcs"),
    "decomposition.dcl_mlsm_clique_tree": (_TINY_SPARSE, "lexbfs"),
    "decomposition.atom_tree_from_clique_tree": (_TINY_SPARSE, ""),
    "serialize.clique_tree_json": (_TINY_CHORDAL, ""),
    "serialize.atom_tree_json": (_TINY_SPARSE, ""),
    "serialize.triangulation_json": (_TINY_SPARSE, ""),
    "serialize.dumps": (_TINY_CHORDAL, ""),
}
CENSUS_CLI = {
    "cliquetree": CliCase("cliquetree", _TINY_CHORDAL[-1], ("--structure", "mcs")),
    "atoms": CliCase("atoms", _TINY_SPARSE[-1], ("--structure", "mcs")),
    "triangulate": CliCase("triangulate", _TINY_SPARSE[-1], ("--structure", "mcs")),
}


def series_sizes(cases) -> dict[str, list[Case]]:
    """Series name -> its expect-ok cases, for series of at least 3 sizes."""
    by: dict[str, list[Case]] = {}
    for c in cases:
        if c.expect == "ok":
            by.setdefault(c.series, []).append(c)
    return {s: sorted(cs, key=lambda c: c.n) for s, cs in by.items() if len({c.n for c in cs}) >= 3}


def census(workload: str) -> tuple[list[Case], list[CliCase]]:
    spec = WORKLOADS[workload]
    covered = {cs[0].fn for cs in series_sizes(spec["cases"]).values()}
    lib = [
        Case(fn, g, CENSUS_INPUT[fn][1])
        for fn in FUNCTIONS
        if fn not in covered
        for g in CENSUS_INPUT[fn][0]
    ]
    subs = {c.sub for c in spec["cli"]}
    cli = [CENSUS_CLI[s] for s in CLI_SUBCOMMANDS if s not in subs]
    return lib, cli


# Families whose cost varies most with the seed's draw get several graphs
# per size, drawn from sub-seeds. Every pass runs a case on each replica, and
# the case's time is the mean over the replicas of each one's median, so it
# averages R graphs instead of resting on one.
REPLICAS = {"connected": 8, "chordal4": 4, "holed4": 4, "cochordal": 4}


def replica(key: str, r: int) -> str:
    """Graph key of replica r of ``key``: ``<family>~<r>-<n>`` for r > 0."""
    family, n = key.rsplit("-", 1)
    r %= REPLICAS.get(family, 1)
    return f"{family}~{r}-{n}" if r else key


def replicas(key: str) -> list[str]:
    return [replica(key, r) for r in range(REPLICAS.get(key.rsplit("-", 1)[0], 1))]


def graphs_of(workload: str) -> list[str]:
    """Every input graph the workload needs; the tiny census graphs always,
    since the warm-up runs every function on them."""
    spec = WORKLOADS[workload]
    keys = [c.graph for c in spec["cases"]] + [c.graph for c in spec["cli"]]
    keys += _TINY_CHORDAL + _TINY_SPARSE + _TINY_COCHORDAL
    return sorted({r for k in keys for r in replicas(k)})


# ---------------------------------------------------------------------------
# metric manifest

END_TO_END = (
    ("setup_s", "s", 0.25),
    ("lib_s", "s", 0.2),
    ("case_geomean_s", "s", 0.2),
    ("cli_s", "s", 0.2),
    ("scaling_exponent_max", "slope", 0.25),
    ("peak_rss_mb", "MB", 0.1),
)


def per_layer() -> list[tuple[str, str]]:
    out = []
    for fn in FUNCTIONS:
        out += [(f"{fn}.s", "s"), (f"{fn}.calls", "count"), (f"{fn}.failed", "count"), (f"{fn}.exponent", "slope")]
    for sub in CLI_SUBCOMMANDS:
        out += [(f"cli.{sub}.s", "s"), (f"cli.{sub}.overhead_s", "s")]
    out += [("check.s", "s"), ("trace.overhead_frac", "ratio")]
    return out


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": spec["why"]} for w, spec in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": "lower", "bound": bound} for name, unit, bound in END_TO_END
        ],
        "per_layer": [{"name": name, "unit": unit, "better": "lower"} for name, unit in per_layer()],
    }
