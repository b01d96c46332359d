import random
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chordalkit.errors import EmptyInputError, ParseError, SelfLoopError
from chordalkit.fixtures import fixture, graph
from chordalkit.graph import (
    ComplementView,
    Graph,
    Ordering,
    complement_is_connected,
    complement_view,
    from_edge_list,
    from_vertices,
    higher_neighborhood,
    induced_subgraph,
    is_connected,
    materialize_complement,
    ordering_from_names,
    parse_edge_list,
)
from chordalkit.oracle import GeneratorConfig, gen
from chordalkit.rng import SplitMix64


def small_graphs(max_n=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = [p for p, keep in zip(pairs, mask) if keep]
        return Graph([f"v{i}" for i in range(n)], edges)

    return build()


class TestConstruction:
    def test_single_edge(self):
        g = from_edge_list([("a", "b")])
        assert g.n == 2 and g.m == 1

    def test_fig1_counts(self):
        g = graph("fig1_h")
        assert g.n == 6 and g.m == 7

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            from_edge_list([("a", "a")])

    @pytest.mark.parametrize("edge,error,message", [
        ((1, 1), SelfLoopError, "self-loop at 'b'"),
        ((5, 5), ParseError, r"edge \(5,5\) out of range"),
        ((-1, -1), ParseError, r"edge \(-1,-1\) out of range"),
    ], ids=["in-range", "past-end", "negative"])
    def test_loop_range_checked_first(self, edge, error, message):
        # no IndexError past the end, no loop at a wrapped negative index
        with pytest.raises(error, match=message) as caught:
            Graph(["a", "b"], [edge])
        assert type(caught.value) is error

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            from_edge_list([])

    def test_equality_with_another_type(self):
        g = from_edge_list([("a", "b")])
        assert g != ("a", "b") and g.__eq__(g.adj) is NotImplemented
        assert g == from_vertices(["a", "b"], [("b", "a")])

    def test_seeded_draw_needs_a_positive_bound(self):
        with pytest.raises(ValueError, match="positive bound"):
            SplitMix64(1).below(0)

    def test_duplicate_edges_collapse(self):
        g = from_edge_list([("a", "b"), ("b", "a"), ("a", "b")])
        assert g.m == 1

    def test_first_appearance_fixes_indices(self):
        g = from_edge_list([("f", "a"), ("a", "b")])
        assert g.names == ("f", "a", "b")

    def test_unknown_name(self):
        g = from_edge_list([("a", "b")])
        with pytest.raises(ParseError):
            g.index("z")

    def test_from_vertices_unknown_edge_end(self):
        with pytest.raises(ParseError, match="'zz'"):
            from_vertices(["a", "b"], [("a", "zz")])

    def test_from_vertices_duplicate_names_first(self):
        with pytest.raises(ParseError, match="^duplicate vertex names$"):
            from_vertices(["a", "a"], [("a", "zz")])

    def test_from_vertices_keeps_isolated_vertices(self):
        g = from_vertices(["a", "b", "c"], [("c", "a"), ("a", "c")])
        assert (g.names, g.m, g.index("b")) == (("a", "b", "c"), 1, 1)
        assert g.adj == (frozenset({2}), frozenset(), frozenset({0}))


def _three_pass_parse(text):
    """Reference: the parser as three passes (collect the pairs, index the
    names, build and check the edges), as (names, m, index, adjacency rows
    in iteration order)."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected two vertex names, got {len(tokens)}")
        pairs.append((tokens[0], tokens[1]))
    if not pairs:
        raise EmptyInputError("empty edge list")
    names, index, edges = [], {}, []
    for a, b in pairs:
        if a == b:
            raise SelfLoopError(f"self-loop at {a!r}")
        for name in (a, b):
            if name not in index:
                index[name] = len(names)
                names.append(name)
        edges.append((index[a], index[b]))
    adj = [set() for _ in names]
    m = 0
    for u, v in edges:
        if v not in adj[u]:
            adj[u].add(v)
            adj[v].add(u)
            m += 1
    return tuple(names), m, index, [list(frozenset(s)) for s in adj]


def _random_edge_text(rng):
    """Edge lines over a name pool big enough to grow adjacency sets past
    their first resize, mixed with comments, blank and whitespace-only
    lines, self-loops and lines of the wrong length, joined by one of five
    line breaks that splitlines knows."""
    pool = [f"v{i}" for i in range(rng.choice((3, 12, 40)))] + ["é", "名前"]
    spaces = (" ", "\t", "  ", " \t ")
    bad_rate = rng.choice((0.0, 0.0, 0.003, 0.02))
    loop_rate = rng.choice((0.0, 0.0, 0.005, 0.02))
    lines = []
    for _ in range(rng.randrange(0, rng.choice((4, 300)))):
        r = rng.random()
        if r < bad_rate:
            lines.append(rng.choice(spaces).join(rng.sample(pool, rng.choice((1, 3)))))
        elif r < bad_rate + loop_rate:
            a = rng.choice(pool)
            lines.append(f"{a}{rng.choice(spaces)}{a}")
        elif r < bad_rate + loop_rate + 0.06:
            lines.append(rng.choice(("", "  ", "\t", "# note", "  # a b", "#")))
        else:
            a, b = rng.sample(pool, 2)
            line = rng.choice(("", " ", "\t")) + a + rng.choice(spaces) + b + rng.choice(("", " ", "\t"))
            if rng.random() < 0.1:
                line += rng.choice(("#", " # c d e", "\t#x"))
            lines.append(line)
    eol = rng.choice(("\n", "\r\n", "\r", "\v", "\u2028"))
    return eol.join(lines) + rng.choice(("", eol))


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return type(exc), str(exc)


def _one_pass(text):
    g = parse_edge_list(text)
    return g.names, g.m, g._index, [list(s) for s in g.adj]


class TestEdgeListFormat:
    def test_comments_and_blanks(self):
        text = "# header\n\na b  # inline\nb c\n"
        g = parse_edge_list(text)
        assert g.n == 3 and g.m == 2

    def test_bad_token_count(self):
        with pytest.raises(ParseError):
            parse_edge_list("a b c\n")

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_three_pass_parser(self, seed):
        # same names, indices, edge count and adjacency iteration order, or
        # the same error type and message
        rng = random.Random(seed)
        for _ in range(10):
            text = _random_edge_text(rng)
            assert _outcome(_one_pass, text) == _outcome(_three_pass_parse, text), text

    def test_bad_line_after_a_self_loop_wins(self):
        with pytest.raises(ParseError, match="^line 3: expected two vertex names, got 3$") as caught:
            parse_edge_list("a b\nb b\nb c d\n")
        assert type(caught.value) is ParseError

    def test_first_self_loop_in_file_order(self):
        with pytest.raises(SelfLoopError, match="^self-loop at 'c'$"):
            parse_edge_list("a b\nc c\nb b\n")

    def test_comments_only_is_empty(self):
        with pytest.raises(EmptyInputError, match="^empty edge list$"):
            parse_edge_list("# only a comment\n\n   # another\n")


def _edge_by_edge_search(g):
    """The search ``is_connected`` ran before its set operations: a stack
    over ``neighbors``, one interpreted step per edge."""
    if g.n == 0:
        return False
    seen = {0}
    stack = [0]
    while stack:
        for w in g.neighbors(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


class TestConnectivity:
    def test_fig1_connected(self):
        assert is_connected(graph("fig1_h"))

    def test_two_isolated(self):
        assert not is_connected(from_vertices(["a", "b"]))

    def test_single_vertex(self):
        assert is_connected(from_vertices(["a"]))

    @pytest.mark.parametrize("g", [
        Graph([], []),
        from_vertices(["a"]),
        from_edge_list([("a", "b"), ("c", "d")]),
        from_edge_list([("a", "b"), ("b", "c"), ("c", "d")]),
        graph("fig1_h"),
        gen(GeneratorConfig(seed=3, n=40, param=3.0, family="random-co-chordal")),
    ], ids=["n0", "n1", "disconnected", "path", "fig1_h", "co-chordal"])
    def test_is_connected_agrees_with_an_edge_by_edge_search(self, g):
        for h in (g, complement_view(g), materialize_complement(g)):
            assert is_connected(h) == _edge_by_edge_search(h)

    @settings(max_examples=60)
    @given(small_graphs())
    def test_is_connected_agrees_with_an_edge_by_edge_search_on_small_graphs(self, g):
        assert is_connected(g) == _edge_by_edge_search(g)
        assert is_connected(complement_view(g)) == _edge_by_edge_search(complement_view(g))

    @settings(max_examples=60)
    @given(small_graphs())
    def test_complement_connectivity_agrees_with_materialization(self, g):
        assert complement_is_connected(g) == is_connected(materialize_complement(g))

    def test_complement_connectivity_scale(self):
        # a set keeps its hash table as it drains, so without a copy every
        # later difference walked all n slots: 2-5 s on each of these
        near_star = from_edge_list([("c", f"v{i}") for i in range(1, 25_000 - 1)] + [("w", "v1")])
        base = gen(GeneratorConfig(seed=1, n=200, param=4.0, family="random-co-chordal"))
        padded = Graph(list(base.names) + [f"z{i}" for i in range(20_000 - base.n)], list(base.edges()))
        # the star's first visit drains the set, and every later one
        # intersects it with a one-vertex row
        star = from_edge_list([("c", f"v{i}") for i in range(1, 25_000)])
        for g, connected in ((near_star, complement_is_connected), (padded, complement_is_connected),
                             (star, is_connected)):
            start = time.perf_counter()
            assert connected(g)
            elapsed = time.perf_counter() - start
            assert elapsed < 0.5, f"n={g.n} took {elapsed:.2f}s"


class TestHigherNeighborhood:
    def test_fig1_open(self):
        g = graph("fig1_h")
        alpha = ordering_from_names(g, list("abcdef"))
        assert higher_neighborhood(g, alpha, g.index("d"), 4) == {g.index("e")}

    def test_last_vertex_empty(self):
        g = graph("fig1_h")
        alpha = ordering_from_names(g, list("abcdef"))
        assert higher_neighborhood(g, alpha, g.index("f"), 6) == frozenset()

    def test_fig1_closed(self):
        g = graph("fig1_h")
        alpha = ordering_from_names(g, list("abcdef"))
        got = higher_neighborhood(g, alpha, g.index("b"), 2, closed=True)
        assert got == {g.index("b"), g.index("f")}

    @settings(max_examples=60)
    @given(small_graphs())
    def test_contained_in_neighborhood(self, g):
        alpha = Ordering(list(range(g.n)))
        for y in range(g.n):
            i = alpha.position_of(y)
            hood = higher_neighborhood(g, alpha, y, i)
            assert hood <= g.neighbors(y)
            assert all(alpha.position_of(z) > i for z in hood)


class TestComplement:
    def test_fig1_ac_flips(self):
        g = graph("fig1_h")
        v = complement_view(g)
        a, c = g.index("a"), g.index("c")
        assert not g.adjacent(a, c) and v.adjacent(a, c)

    def test_no_self_adjacency(self):
        v = complement_view(graph("fig1_h"))
        assert not v.adjacent(2, 2)

    def test_fig3_is_materialized_complement(self):
        h = graph("fig1_h")
        g3 = graph("fig3_g")
        comp = materialize_complement(h)
        for a in g3.names:
            for b in g3.names:
                if a != b:
                    assert g3.adjacent(g3.index(a), g3.index(b)) == comp.adjacent(
                        comp.index(a), comp.index(b)
                    )

    def test_degree_identity(self):
        g = graph("fig1_h")
        v = complement_view(g)
        for x in range(g.n):
            assert v.degree(x) == g.n - 1 - g.degree(x)

    @settings(max_examples=60)
    @given(small_graphs())
    def test_involution(self, g):
        twice = materialize_complement(materialize_complement(g))
        assert twice == g

    @settings(max_examples=60)
    @given(small_graphs())
    def test_view_agrees_with_materialization(self, g):
        v = ComplementView(g)
        comp = materialize_complement(g)
        for a in range(g.n):
            for b in range(g.n):
                assert v.adjacent(a, b) == comp.adjacent(a, b)


def _pair_loop_complement(g):
    """The complement built pair by pair through the edge-list
    constructor: the reference for ``materialize_complement``."""
    return Graph(g.names, [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.adjacent(u, v)])


def _complement_corpus():
    rng = random.Random(29)
    graphs = [Graph((), ()), Graph(["v"], ())]
    for n in (2, 3, 5, 9, 17, 40, 100, 300):
        names = [f"v{i}" for i in range(n)]
        for p in (0.0, 0.05, 0.2, 0.5, 0.8, 0.95, 1.0):
            graphs.append(Graph(names, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
    for seed in range(1, 6):
        for n in (4, 10, 30, 120):
            for family in ("random-co-chordal", "random-split"):
                graphs.append(gen(GeneratorConfig(seed=seed, n=n, param=2.0, family=family)))
    return graphs


def _products(x, structure, tiebreak):
    """A few products on x with their JSON text: the searches' orderings
    and traces, and the trees where the structure and x allow them."""
    from chordalkit import serialize
    from chordalkit.cliquetree import mls_clique_tree
    from chordalkit.decomposition import dcl_atom_tree
    from chordalkit.oracle import is_chordal
    from chordalkit.search import mls, moplex_mlsm

    alpha, trace = mls(x, structure, tiebreak())
    out = [((alpha, trace.entries), serialize.dumps(serialize.trace_json(x, structure, trace)))]
    if structure.name != "lexdfs":
        tri, _ = moplex_mlsm(x, structure, tiebreak())
        out.append((tri, serialize.dumps(serialize.triangulation_json(x, tri))))
        t = dcl_atom_tree(x, structure, tiebreak())
        out.append((t, serialize.dumps(serialize.atom_tree_json(x, t))))
    if is_chordal(x):
        t = mls_clique_tree(x, structure, tiebreak())
        out.append((t, serialize.dumps(serialize.clique_tree_json(x, t))))
    return out


class TestMaterializeComplement:
    def test_matches_the_pair_loop(self):
        # the rows are built differently, so they may iterate in another
        # order: on the inputs where they do, the products on both agree
        from chordalkit.labeling import lexbfs, lexdfs, mcs, mns
        from chordalkit.search import LowestIndex, SeededRandom

        compared = 0
        for g in _complement_corpus():
            got, want = materialize_complement(g), _pair_loop_complement(g)
            assert (got.names, got.adj, got.m, got.n) == (want.names, want.adj, want.m, want.n)
            assert [got.index(name) for name in got.names] == list(range(got.n))
            if [list(r) for r in got.adj] == [list(r) for r in want.adj]:
                continue
            if got.n > 17 or not is_connected(got):
                continue
            compared += 1
            for structure in (mcs, lexbfs, lexdfs, mns):
                for tiebreak in (LowestIndex, lambda: SeededRandom(3)):
                    assert _products(got, structure(), tiebreak) == _products(want, structure(), tiebreak)
        assert compared


class TestInducedSubgraph:
    def test_identity(self):
        g = graph("fig1_h")
        sub = induced_subgraph(g, range(g.n))
        assert sub.m == g.m and set(sub.names) == set(g.names)

    def test_fig1_triangle(self):
        g = graph("fig1_h")
        sub = induced_subgraph(g, [g.index(x) for x in "cde"])
        assert sub.n == 3 and sub.m == 3

    def test_empty(self):
        sub = induced_subgraph(graph("fig1_h"), [])
        assert sub.n == 0 and sub.m == 0

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(small_graphs(), st.data())
    def test_edge_partition(self, g, data):
        keep = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
        inside = induced_subgraph(g, keep).m
        outside = induced_subgraph(g, set(range(g.n)) - keep).m
        crossing = sum(1 for u, v in g.edges() if (u in keep) != (v in keep))
        assert inside + crossing + outside == g.m


class TestOrdering:
    def test_bijection(self):
        o = Ordering([2, 0, 1])
        assert o.vertex_at(1) == 2 and o.position_of(2) == 1
        assert o.vertex_at(3) == 1 and o.position_of(1) == 3

    def test_rejects_non_bijection(self):
        with pytest.raises(ParseError):
            Ordering([0, 0, 1])

    def test_from_names_rejects_wrong_length(self):
        g = graph("fig1_h")
        with pytest.raises(ParseError):
            ordering_from_names(g, ["a", "b"])

    @settings(max_examples=40)
    @given(st.permutations(list(range(6))))
    def test_mutually_inverse(self, perm):
        o = Ordering(perm)
        assert all(o.vertex_at(o.position_of(v)) == v for v in range(6))
        assert all(o.position_of(o.vertex_at(i)) == i for i in range(1, 7))
