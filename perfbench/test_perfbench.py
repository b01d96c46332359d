"""Self-tests for the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checker  # noqa: E402
import inputs  # noqa: E402
import spec  # noqa: E402
import stats  # noqa: E402
from chordalkit.cliquetree import fast_clique_tree  # noqa: E402
from chordalkit.graph import parse_edge_list  # noqa: E402


def test_generators_are_deterministic_per_seed():
    for key in ("chordal4-75", "connected-50", "cochordal-75", "holed4-300", "tinycochordal-16"):
        first = inputs.edges_for(key, 7)
        assert inputs.edges_for(key, 7) == first
        assert inputs.edges_for(key, 8) != first


def test_holed_graph_gains_an_induced_four_cycle():
    base, holed = inputs.edges_for("chordal4-300", 3), inputs.edges_for("holed4-300", 3)
    assert holed[: len(base)] == base
    added = holed[len(base):]
    assert added[1:] == [("h0", "h1"), ("h1", "h2"), ("h2", "h3"), ("h3", "h0")]
    assert added[0][1] == "h0" and not added[0][0].startswith("h")


def test_exponent_fit_recovers_known_slopes():
    sizes = [1000, 2000, 4000, 8000]
    assert abs(stats.loglog_slope(sizes, [3e-6 * n for n in sizes]) - 1.0) < 1e-9
    assert abs(stats.loglog_slope(sizes, [5e-9 * n * n for n in sizes]) - 2.0) < 1e-9


# a triangle a-b-c with a pendant d on c: cliques {a,b,c} and {c,d}
PAW = {"a": {"b", "c"}, "b": {"a", "c"}, "c": {"a", "b", "d"}, "d": {"c"}}
PAW_TREE = ([{"a", "b", "c"}, {"c", "d"}], [(1, 2)], [{"c"}], ["a", "b", "d", "c"])


def test_checker_accepts_a_valid_tree():
    assert checker.check_clique_tree(PAW, *PAW_TREE) == []


def test_checker_rejects_a_dropped_edge():
    cliques, _edges, seps, order = PAW_TREE
    assert checker.check_clique_tree(PAW, cliques, [], seps, order)


def test_checker_rejects_a_swapped_vertex():
    _cliques, edges, seps, order = PAW_TREE
    assert checker.check_clique_tree(PAW, [{"a", "b", "d"}, {"c", "d"}], edges, seps, order)


def test_checker_rejects_a_non_peo_ordering():
    cliques, edges, seps, _order = PAW_TREE
    assert checker.peo_violations(PAW, ["c", "a", "b", "d"])
    assert checker.check_clique_tree(PAW, cliques, edges, seps, ["c", "a", "b", "d"])


def test_checker_on_a_generated_tree():
    text = inputs.edge_list_text(inputs.edges_for("chordal8-400", 1))
    g, adj = parse_edge_list(text), checker.parse_edge_list(text)
    t = fast_clique_tree(g, "mcs")
    cliques = [{g.names[v] for v in K} for K in t.cliques]
    seps = [{g.names[v] for v in S} for S in t.separators]
    order = t.ordering.names(g)
    edges = list(t.tree_edges)
    assert checker.check_clique_tree(adj, cliques, edges, seps, order) == []
    assert checker.check_clique_tree(adj, cliques, edges[1:], seps, order)
    a, b = next(((x, y) for x in cliques[0] for y in cliques[1] if y not in cliques[0]))
    swapped = [cliques[0] - {a} | {b}, cliques[1] - {b} | {a}] + cliques[2:]
    assert checker.check_clique_tree(adj, swapped, edges, seps, order)
    assert checker.check_clique_tree(adj, cliques, edges, seps, order[::-1])


def test_manifest_names_units_and_file():
    m = spec.manifest()
    names = [x["name"] for x in m["end_to_end"] + m["per_layer"] + m["workloads"]]
    assert all(spec.METRIC_NAME.match(n) for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", x["unit"]) for x in m["end_to_end"] + m["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in m["workloads"])
    assert all(0 < x["bound"] <= 0.25 for x in m["end_to_end"])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == m


def test_census_covers_every_function_with_a_series():
    for workload, wl in spec.WORKLOADS.items():
        lib, cli = spec.census(workload)
        with_series = {cs[0].fn for cs in spec.series_sizes(list(wl["cases"]) + lib).values()}
        assert with_series == set(spec.FUNCTIONS), workload
        assert {c.sub for c in list(wl["cli"]) + cli} == set(spec.CLI_SUBCOMMANDS), workload
