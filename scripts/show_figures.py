#!/usr/bin/env python3
"""Replay every bundled fixture run and print the resulting labels and trees.

A quick eyeball check that the scripted searches reproduce their frozen
annotations: the depth-first runs on the chordal graph and the non-chordal
counterexamples, the complement run, and the breadth-first fill example.
Exits 1 when any label or the fill example's minimality differs from its
annotation, so CI fails on what the replay shows.
"""

import sys

import chordalkit as ck
from chordalkit import fixtures, serialize
from chordalkit.search import ScriptedOrder, mls, triangulation_from_ordering


def scripted(fx):
    return ScriptedOrder(reversed(fx.script))


def show_label(v, got, want) -> bool:
    """Print v's final label, flagged when it is not the annotated one, and
    return whether it is not."""
    print(f"  {v}: {got}{'' if got == want else '  <-- MISMATCH'}")
    return got != want


def main() -> int:
    mismatches = 0
    for name in ("fig1_h", "fig5_g", "fig6_g"):
        fx = fixtures.fixture(name)
        g = fx.graph()
        alpha, trace = mls(g, ck.lexdfs(), scripted(fx))
        labels = serialize.final_labels(g, ck.lexdfs(), trace)
        print(f"{name}: ordering {alpha.names(g)}")
        for v in fx.script:
            mismatches += show_label(v, labels[v], fx.final_labels[v])

    fx = fixtures.fixture("fig3_g")
    g = fx.graph()
    t = ck.complement_mls_clique_tree(g, ck.lexdfs(), scripted(fx))
    labels = serialize.final_labels(g, ck.lexdfs(), t.trace)
    print(f"{fx.name} (complement run): cliques "
          f"{[sorted(g.names[v] for v in K) for K in t.cliques]}")
    for v in fx.script:
        mismatches += show_label(v, labels[v], fx.complement_final_labels[v])
    gens = ck.complement_mls_generators(g, ck.lexdfs(), scripted(fx))
    print(f"  generators: cliques {[g.names[v] for v in gens.gen_cliques]}, "
          f"separators {[g.names[v] for v in gens.gen_separators]}")

    fx = fixtures.fixture("fig4_g")
    g = fx.graph()
    alpha, _ = mls(g, ck.lexbfs(), scripted(fx))
    tri = triangulation_from_ordering(g, alpha)
    fill = [tuple(sorted((g.names[u], g.names[v]))) for u, v in tri.fill_edges]
    minimal = ck.oracle.is_minimal_triangulation(g, tri.graph)
    mismatches += minimal
    flag = "  <-- MISMATCH" if minimal else ""
    print(f"{fx.name}: breadth-first elimination fill {fill} "
          f"(minimal: {minimal}, expected False){flag}")
    at = ck.dcl_atom_tree(g, ck.mcs())
    print(f"  atoms: {[sorted(g.names[v] for v in A) for A in at.atoms]}")
    if mismatches:
        print(f"{mismatches} mismatches", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
