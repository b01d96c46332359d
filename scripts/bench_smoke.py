#!/usr/bin/env python3
"""Desk-scale smoke benchmark for the near-linear clique-tree paths and the
triangulating search.

Generates a chordal graph with n = 100,000 and roughly a million edges, then
builds its clique tree twice: once with integer count labels (bucket queue)
and once with list labels (partition refinement). The label test against the
previous label costs at most the degree of the chosen vertex, which is what
keeps both runs near-linear; the 10 s budget is the acceptance bar.

It then runs, each under the same 10 s budget: both clique trees of a star
with n = 100,000 (the lowest-index tie-break must stay logarithmic in the
size of a label class), the generic label-test clique tree with count labels
on a chordal graph with n = 20,000 (selection through the structure's bucket
queue), the generic set-test clique tree with lexdfs labels on the same graph
(selection through the stack partition), the generic set-test clique tree
with mns labels on a chordal graph with n = 2,000 (selection through the
inclusion partition), the moplex search with mns labels on a chordal graph
with n = 8,000 (the same partition, narrowed to the step's twins), and the
triangulating moplex search with count labels on a sparse random connected
graph (n = 1,000, edge probability 6/n).

Usage: python scripts/bench_smoke.py [n] [mean-attach]
"""

import sys
import time

from chordalkit.cliquetree import dcl_mls_clique_tree, fast_clique_tree, mls_clique_tree
from chordalkit.graph import from_edge_list
from chordalkit.labeling import lexdfs, mcs, mns
from chordalkit.oracle import GeneratorConfig, gen
from chordalkit.search import moplex_mls, moplex_mlsm


BUDGET_S = 10.0


def timed(describe, fn, *args) -> bool:
    """Run fn(*args), print describe(result, seconds) with the budget
    verdict, and return whether the run stayed within the budget."""
    t1 = time.perf_counter()
    result = fn(*args)
    dt = time.perf_counter() - t1
    status = "ok" if dt < BUDGET_S else "OVER BUDGET"
    print(f"{describe(result, dt)} [{status}]")
    return dt < BUDGET_S


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000
    attach = float(sys.argv[2]) if len(sys.argv) > 2 else 16.0

    t0 = time.perf_counter()
    g = gen(GeneratorConfig(seed=42, n=n, param=attach, family="random-chordal"))
    print(f"generated: n={g.n} m={g.m} in {time.perf_counter() - t0:.2f}s")

    ok = True
    for token in ("mcs", "lexbfs"):
        ok &= timed(
            lambda tree, dt: f"{token:7s}: {tree.size} cliques, {len(tree.separators)} "
                             f"distinct separators in {dt:.2f}s",
            fast_clique_tree, g, token,
        )

    star = from_edge_list([("c", f"v{i}") for i in range(100_000 - 1)])
    for token in ("mcs", "lexbfs"):
        ok &= timed(
            lambda tree, dt: f"star {token}: n={star.n}, {tree.size} cliques in {dt:.2f}s",
            fast_clique_tree, star, token,
        )

    mid = gen(GeneratorConfig(seed=42, n=20_000, param=8.0, family="random-chordal"))
    ok &= timed(
        lambda tree, dt: f"dcl_mls_clique_tree mcs: n={mid.n} m={mid.m}, {tree.size} cliques "
                         f"in {dt:.2f}s",
        dcl_mls_clique_tree, mid, mcs(),
    )
    ok &= timed(
        lambda tree, dt: f"mls_clique_tree lexdfs: n={mid.n} m={mid.m}, {tree.size} cliques "
                         f"in {dt:.2f}s",
        mls_clique_tree, mid, lexdfs(),
    )

    small = gen(GeneratorConfig(seed=42, n=2_000, param=8.0, family="random-chordal"))
    ok &= timed(
        lambda tree, dt: f"mls_clique_tree mns: n={small.n} m={small.m}, {tree.size} cliques "
                         f"in {dt:.2f}s",
        mls_clique_tree, small, mns(),
    )

    chordal8 = gen(GeneratorConfig(seed=42, n=8_000, param=8.0, family="random-chordal"))
    ok &= timed(
        lambda res, dt: f"moplex_mls mns: n={chordal8.n} m={chordal8.m} in {dt:.2f}s",
        moplex_mls, chordal8, mns(),
    )

    sparse = gen(GeneratorConfig(seed=2, n=1000, param=6 / 1000, family="random-connected"))
    ok &= timed(
        lambda res, dt: f"moplex_mlsm mcs: n={sparse.n} m={sparse.m}, "
                        f"{len(res[0].fill_edges)} fill edges in {dt:.2f}s",
        moplex_mlsm, sparse, mcs(),
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
