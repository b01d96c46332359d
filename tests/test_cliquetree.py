import pytest

from conftest import chordal_corpus, cochordal_corpus, connected_corpus, name_sets, names_of

from chordalkit import serialize
from chordalkit.cliquetree import (
    CliqueTreeResult,
    clique_tree_from_peo,
    clique_tree_from_pmo,
    complement_mls_clique_tree,
    complement_mls_generators,
    dcl_mls_clique_tree,
    extract_generators,
    fast_clique_tree,
    mls_clique_tree,
)
from chordalkit.errors import (
    ChordalkitError,
    ComplementDisconnectedError,
    ComplementNotChordalError,
    DebugInvariantError,
    DisconnectedGraphError,
    NonDclStructureError,
    NotAPeoError,
    NotChordalError,
    NotMCCompError,
)
from chordalkit.fixtures import fixture, graph
from chordalkit.graph import (
    Graph,
    Ordering,
    from_edge_list,
    from_vertices,
    is_clique_in,
    materialize_complement,
    ordering_from_names,
    require_complement_connected,
)
from chordalkit.labeling import Cmp, lexbfs, lexdfs, mcs, mns, require_complement_reversing
from chordalkit.oracle import (
    GeneratorConfig,
    gen,
    is_chordal,
    is_peo,
    maximal_cliques,
    minimal_separators,
    validate_clique_tree,
)
from chordalkit.rng import SplitMix64
from chordalkit.search import LabelSearch, LowestIndex, ScriptedOrder, SeededRandom, moplex_mls

ALL = [mcs, lexbfs, lexdfs, mns]
DCL = [mcs, lexbfs, mns]


def scripted(fx):
    return ScriptedOrder(reversed(fx.script))


C4 = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]


def _with_pendant_hole(g: Graph, anchor: int) -> Graph:
    """g plus an induced 4-cycle h0-h1-h2-h3 hung off the anchor vertex."""
    n = g.n
    hole = [(anchor, n), (n, n + 1), (n + 1, n + 2), (n + 2, n + 3), (n + 3, n)]
    return Graph(list(g.names) + ["h0", "h1", "h2", "h3"], list(g.edges()) + hole)


def _pairwise_peo_error(h: Graph, alpha: Ordering) -> str | None:
    """The first error clique_tree_from_peo must raise, found with a
    pairwise clique test on every processed neighborhood."""
    done: set[int] = set()
    for i in range(h.n, 0, -1):
        x = alpha.vertex_at(i)
        sep = sorted(y for y in h.adj[x] if y in done)
        if any(not h.adjacent(a, b) for a in sep for b in sep if a < b):
            return f"processed neighborhood of {h.names[x]!r} at position {i} is not a clique"
        if i < h.n and not sep:
            return f"vertex {h.names[x]!r} at position {i} has no later neighbor"
        done.add(x)
    return None


class TestFromPeo:
    def test_fig1_alpha_exact(self):
        g = graph("fig1_h")
        t = clique_tree_from_peo(g, ordering_from_names(g, list("abcdef")))
        assert [names_of(g, K) for K in t.cliques] == [
            {"e", "f"},
            {"c", "d", "e"},
            {"a", "b", "f"},
        ]
        assert t.tree_edges == ((1, 2), (1, 3))
        assert name_sets(g, t.separators) == {frozenset({"e"}), frozenset({"f"})}
        assert not validate_clique_tree(g, t)

    def test_fig1_beta_exact(self):
        # beta opens the {a,b,f} clique early, then grows it at the very end
        g = graph("fig1_h")
        t = clique_tree_from_peo(g, ordering_from_names(g, list("acdbef")))
        assert [names_of(g, K) for K in t.cliques] == [
            {"e", "f"},
            {"a", "b", "f"},
            {"c", "d", "e"},
        ]
        assert name_sets(g, t.separators) == {frozenset({"e"}), frozenset({"f"})}
        assert not validate_clique_tree(g, t)

    def test_triangle_single_clique(self):
        g = from_edge_list([("a", "b"), ("b", "c"), ("a", "c")])
        t = clique_tree_from_peo(g, ordering_from_names(g, ["a", "b", "c"]))
        assert t.size == 1 and not t.separators and not t.tree_edges

    def test_non_peo_rejected(self):
        g = graph("fig1_h")
        with pytest.raises(NotAPeoError):
            clique_tree_from_peo(g, ordering_from_names(g, list("fedcba")))

    def test_non_chordal_rejected(self):
        c4 = from_edge_list([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        with pytest.raises(NotAPeoError):
            clique_tree_from_peo(c4, ordering_from_names(c4, ["a", "b", "c", "d"]))

    def test_ordering_one_vertex_short_rejected(self):
        g = graph("fig1_h")
        with pytest.raises(ValueError):
            clique_tree_from_peo(g, Ordering(range(g.n - 1)))

    def test_non_peo_sweep_matches_pairwise_reference(self):
        # the follower check must reject at the same step, with the same
        # message, as a pairwise test of every processed neighborhood
        rng = SplitMix64(77)
        rejected = 0
        for g in chordal_corpus(60):
            for _ in range(6):
                seq = list(range(g.n))
                for k in range(g.n - 1, 0, -1):
                    j = rng.below(k + 1)
                    seq[k], seq[j] = seq[j], seq[k]
                alpha = Ordering(seq)
                if is_peo(g, alpha):
                    continue
                want = _pairwise_peo_error(g, alpha)
                assert want is not None
                with pytest.raises(NotAPeoError) as err:
                    clique_tree_from_peo(g, alpha)
                assert str(err.value) == want
                rejected += 1
        assert rejected > 100


class TestFromPmo:
    def test_fig1_alpha_matches_general_builder(self):
        g = graph("fig1_h")
        alpha = ordering_from_names(g, list("abcdef"))
        t1 = clique_tree_from_peo(g, alpha)
        t2 = clique_tree_from_pmo(g, alpha)
        assert t1.cliques == t2.cliques
        assert t1.tree_edges == t2.tree_edges
        assert t1.separators == t2.separators

    def test_fig1_beta_not_clique_completing(self, monkeypatch):
        # armed, the partial-tree debug check rejects beta before validate can
        monkeypatch.delenv("CHORDALKIT_DEBUG", raising=False)
        g = graph("fig1_h")
        beta = ordering_from_names(g, list("acdbef"))
        t = clique_tree_from_pmo(g, beta)
        assert validate_clique_tree(g, t)  # invalid clique set
        with pytest.raises(NotMCCompError):
            clique_tree_from_pmo(g, beta, validate=True)

    def test_fig1_beta_fails_the_armed_partial_tree_check(self, monkeypatch):
        # beta opens a node that stops being maximal; the partial-tree check
        # compares the nodes with the oracle after every step
        monkeypatch.setenv("CHORDALKIT_DEBUG", "1")
        g = graph("fig1_h")
        beta = ordering_from_names(g, list("acdbef"))
        with pytest.raises(DebugInvariantError, match="partial clique tree: node set differs"):
            clique_tree_from_pmo(g, beta)

    def test_star_center_last(self):
        g = from_vertices(["c", "x", "y", "z"], [("c", "x"), ("c", "y"), ("c", "z")])
        alpha = ordering_from_names(g, ["x", "y", "z", "c"])
        t = clique_tree_from_pmo(g, alpha)
        assert t.size == 3
        assert name_sets(g, t.separators) == {frozenset({"c"})}
        assert len(t.tree_edges) == 2
        assert not validate_clique_tree(g, t)

    def test_matches_general_builder_on_clique_completing_orderings(self):
        from chordalkit.search import moplex_mls

        for g in chordal_corpus(16):
            for f in ALL:
                alpha, _ = moplex_mls(g, f())
                t1 = clique_tree_from_peo(g, alpha)
                t2 = clique_tree_from_pmo(g, alpha)
                assert t1.cliques == t2.cliques and t1.tree_edges == t2.tree_edges


class TestMlsCliqueTree:
    def test_edge_graph(self):
        g = from_edge_list([("u", "v")])
        t = mls_clique_tree(g, mns())
        assert t.size == 1 and names_of(g, t.cliques[0]) == {"u", "v"}
        assert not t.separators

    def test_fig1_mns_valid(self):
        g = graph("fig1_h")
        t = mls_clique_tree(g, mns())
        assert t.size == 3
        assert not validate_clique_tree(g, t)

    def test_fig1_completion_orders(self):
        # with picks f, e the depth-first run completes {e,f}, then {c,d,e},
        # then {a,b,f}; the breadth-first run swaps the last two
        g = graph("fig1_h")
        td = mls_clique_tree(g, lexdfs(), ScriptedOrder(["f", "e"]))
        assert [names_of(g, K) for K in td.cliques] == [
            {"e", "f"},
            {"c", "d", "e"},
            {"a", "b", "f"},
        ]
        tb = mls_clique_tree(g, lexbfs(), ScriptedOrder(["f", "e"]))
        assert [names_of(g, K) for K in tb.cliques] == [
            {"e", "f"},
            {"a", "b", "f"},
            {"c", "d", "e"},
        ]

    def test_sweep_all_structures(self):
        for g in chordal_corpus(20):
            for f in ALL:
                t = mls_clique_tree(g, f())
                assert not validate_clique_tree(g, t), f().name
                # one node per vertex at most, tree shape
                assert t.size <= g.n
                assert len(t.tree_edges) == t.size - 1


class TestDclCliqueTree:
    def test_mcs_equals_set_test_builder(self):
        g = graph("fig1_h")
        t1 = mls_clique_tree(g, mcs())
        t2 = dcl_mls_clique_tree(g, mcs())
        assert t1.cliques == t2.cliques and t1.tree_edges == t2.tree_edges

    def test_lexdfs_rejected(self):
        with pytest.raises(NonDclStructureError):
            dcl_mls_clique_tree(graph("fig1_h"), lexdfs())

    def test_lexdfs_counterexample_run(self):
        # with the pure label test, the depth-first run files d into the
        # clique holding {e,f} at iteration 4 and never starts {c,d,e}
        g = graph("fig1_h")
        t = dcl_mls_clique_tree(g, lexdfs(), scripted(fixture("fig1_h")), enforce_dcl=False)
        d, e, f = (g.index(x) for x in "def")
        assert t.clique_of[d] == t.clique_of[e] == t.clique_of[f] == 1
        assert {d, e, f} <= t.cliques[0]
        assert t.ordering.names(g) == list("abcdef")
        violations = validate_clique_tree(g, t)
        assert any("not a clique" in v for v in violations)

    def test_lexbfs_valid(self):
        g = graph("fig1_h")
        t = dcl_mls_clique_tree(g, lexbfs())
        assert not validate_clique_tree(g, t)

    def test_agreement_sweep(self):
        for g in chordal_corpus(20):
            for f in DCL:
                for tb in (LowestIndex(), SeededRandom(5)):
                    t1 = mls_clique_tree(g, f(), tb)
                    t2 = dcl_mls_clique_tree(g, f(), tb)
                    assert t1.cliques == t2.cliques, f().name
                    assert t1.tree_edges == t2.tree_edges
                    assert t1.separators == t2.separators


def _stepwise_complement_tree(g: Graph, structure, tiebreak=None) -> CliqueTreeResult:
    """The complement clique tree built during the search, one step per
    vertex, as a reference independent of the generators: x's processed
    complement neighborhood sep is the numbered vertices outside g.adj[x];
    its earliest vertex p anchors it, and sep must miss g.adj[p] (the
    follower check); x opens a node for sep under p's node when its label
    does not equal the previous minimum, and joins the last node."""
    require_complement_connected(g)
    require_complement_reversing(structure)
    run = LabelSearch(g, structure, tiebreak, minimize=True)
    cliques: list[set[int]] = [set()]
    edges: list[tuple[int, int]] = []
    seps: set[frozenset[int]] = set()
    clique_of: dict[int, int] = {}
    for _, x in run.steps(True):
        sep = frozenset(run.done.difference(g.adj[x], (x,)))
        p = min(sep, key=run.pos.__getitem__) if sep else x
        if not sep.isdisjoint(g.adj[p]):
            raise ComplementNotChordalError(
                f"complement neighborhood of {g.names[x]!r} is not a complement clique"
            )
        if run.boundary(x):
            if not sep:
                raise ComplementNotChordalError("empty boundary separator mid-run")
            cliques.append(set(sep))
            edges.append((clique_of[p], len(cliques)))
            seps.add(sep)
        cliques[-1].add(x)
        clique_of[x] = len(cliques)
    return CliqueTreeResult(tuple(map(frozenset, cliques)), tuple(edges), frozenset(seps),
                            clique_of, run.ordering())


def _outcome(call):
    try:
        t = call()
    except ChordalkitError as e:
        return type(e), str(e)
    return t.cliques, t.tree_edges, t.separators, list(t.clique_of.items()), t.ordering


class TestComplementCliqueTree:
    def test_fig3_exact(self):
        fx = fixture("fig3_g")
        g = fx.graph()
        t = complement_mls_clique_tree(g, lexdfs(), scripted(fx))
        assert [names_of(g, K) for K in t.cliques] == [
            {"e", "f"},
            {"c", "d", "e"},
            {"a", "b", "f"},
        ]
        assert name_sets(g, t.separators) == {frozenset({"e"}), frozenset({"f"})}
        # new cliques start at iterations 4 (vertex d) and 2 (vertex b)
        assert t.clique_of[g.index("d")] == 2
        assert t.clique_of[g.index("b")] == 3
        assert serialize.final_labels(g, lexdfs(), t.trace) == fx.complement_final_labels

    def test_empty_graph_complement_is_complete(self):
        g = from_vertices(["a", "b"])
        t = complement_mls_clique_tree(g, mcs())
        assert t.size == 1 and names_of(g, t.cliques[0]) == {"a", "b"}

    def test_five_cycle_rejected(self):
        # C5 is self-complementary: its complement is connected and not chordal
        c5 = from_edge_list([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
        for f in DCL:
            with pytest.raises(ComplementNotChordalError):
                complement_mls_clique_tree(c5, f())

    def test_armed_equal_label_hook_leaves_a_bad_input_to_the_builder(self, monkeypatch):
        # the hook's test holds on co-chordal inputs only; on this graph it
        # fails before the follower test finds that the complement is not
        # chordal, and it raises only when the oracle finds the complement
        # chordal
        from chordalkit import oracle

        monkeypatch.setenv("CHORDALKIT_DEBUG", "1")
        g = gen(GeneratorConfig(seed=7002, n=18, param=3.0, family="random-chordal"))
        with pytest.raises(ComplementNotChordalError):
            complement_mls_clique_tree(g, mcs())
        monkeypatch.setattr(oracle, "is_chordal", lambda h: True)
        with pytest.raises(DebugInvariantError, match="equal-label test and clique-boundary test"):
            complement_mls_clique_tree(g, mcs())

    def test_complete_graph_complement_disconnected(self):
        k3 = from_edge_list([("a", "b"), ("b", "c"), ("a", "c")])
        with pytest.raises(ComplementDisconnectedError):
            complement_mls_clique_tree(k3, mcs())

    def test_equals_materialized_run_sweep(self):
        for g in cochordal_corpus(20):
            comp = materialize_complement(g)
            for f in ALL:
                t = complement_mls_clique_tree(g, f())
                assert not validate_clique_tree(comp, t), f().name
                replay = clique_tree_from_peo(comp, t.ordering)
                assert replay.cliques == t.cliques and replay.tree_edges == t.tree_edges

    def test_matches_stepwise_reference_sweep(self):
        for g in cochordal_corpus(20):
            for f in ALL:
                for tb in (LowestIndex(), SeededRandom(11)):
                    want = _outcome(lambda: _stepwise_complement_tree(g, f(), tb))
                    assert len(want) == 5, (f().name, want)
                    assert _outcome(lambda: complement_mls_clique_tree(g, f(), tb)) == want, f().name

    def test_rejections_match_stepwise_reference(self):
        rejected = 0
        for g in chordal_corpus(20) + connected_corpus(20):
            for f in ALL:
                for tb in (LowestIndex(), SeededRandom(11)):
                    want = _outcome(lambda: _stepwise_complement_tree(g, f(), tb))
                    assert _outcome(lambda: complement_mls_clique_tree(g, f(), tb)) == want, f().name
                    rejected += want[0] is ComplementNotChordalError
        assert rejected >= 40


class TestGenerators:
    def test_fig3_exact(self):
        fx = fixture("fig3_g")
        g = fx.graph()
        r = complement_mls_generators(g, lexdfs(), scripted(fx))
        assert [g.names[v] for v in r.gen_cliques] == ["e", "c", "a"]
        assert [g.names[v] for v in r.gen_separators] == ["d", "b"]
        comp = materialize_complement(g)
        from chordalkit.graph import higher_neighborhood

        hoods = {
            g.names[v]: names_of(
                comp, higher_neighborhood(comp, r.ordering, v, r.ordering.position_of(v), closed=True)
            )
            for v in r.gen_cliques
        }
        assert hoods == {"e": {"e", "f"}, "c": {"c", "d", "e"}, "a": {"a", "b", "f"}}
        seps = {
            g.names[v]: names_of(
                comp, higher_neighborhood(comp, r.ordering, v, r.ordering.position_of(v))
            )
            for v in r.gen_separators
        }
        assert seps == {"d": {"e"}, "b": {"f"}}

    def test_empty_graph(self):
        g = from_vertices(["a", "b", "c", "d"])
        r = complement_mls_generators(g, mcs())
        assert len(r.gen_cliques) == 1 and not r.gen_separators

    def test_matches_tree_run_sweep(self):
        for g in cochordal_corpus(20):
            for f in ALL:
                for tb in (LowestIndex(), SeededRandom(11)):
                    r = complement_mls_generators(g, f(), tb)
                    t = complement_mls_clique_tree(g, f(), tb)
                    assert extract_generators(t) == r, f().name
                    assert len(r.gen_cliques) == len(r.gen_separators) + 1

    def test_generator_neighborhoods_sweep(self):
        from chordalkit.graph import higher_neighborhood

        for g in cochordal_corpus(12):
            comp = materialize_complement(g)
            r = complement_mls_generators(g, mcs())
            got_cliques = {
                higher_neighborhood(comp, r.ordering, v, r.ordering.position_of(v), closed=True)
                for v in r.gen_cliques
            }
            assert got_cliques == maximal_cliques(comp)
            got_seps = {
                higher_neighborhood(comp, r.ordering, v, r.ordering.position_of(v))
                for v in r.gen_separators
            }
            assert got_seps == minimal_separators(comp)


class TestFastPaths:
    def test_matches_generic_sweep(self):
        for g in chordal_corpus(20):
            for token, f in (("mcs", mcs), ("lexbfs", lexbfs)):
                tf = fast_clique_tree(g, token)
                tg = dcl_mls_clique_tree(g, f(), LowestIndex())
                assert tf == tg

    def test_unknown_token(self):
        with pytest.raises(ValueError):
            fast_clique_tree(graph("fig1_h"), "mns")

    def test_error_precedence_on_disconnected_input(self):
        # the token is checked before the input; a known token then fails
        # on the input exactly as the engine does
        g = from_edge_list([("a", "b"), ("c", "d")])
        with pytest.raises(ValueError, match="fast path supports"):
            fast_clique_tree(g, "mns")
        for token, factory in (("mcs", mcs), ("lexbfs", lexbfs)):
            with pytest.raises(DisconnectedGraphError) as generic:
                dcl_mls_clique_tree(g, factory(), LowestIndex())
            with pytest.raises(DisconnectedGraphError) as fast:
                fast_clique_tree(g, token)
            assert type(fast.value) is type(generic.value)
            assert str(fast.value) == str(generic.value)

    @pytest.mark.parametrize("token", ["mcs", "lexbfs"])
    def test_four_cycle_rejected(self, token):
        with pytest.raises(NotChordalError):
            fast_clique_tree(from_edge_list(C4), token)

    @pytest.mark.parametrize("token,factory", [("mcs", mcs), ("lexbfs", lexbfs)])
    def test_pendant_hole_rejected_like_generic(self, token, factory):
        # the hole's vertices come last, so the search reaches them only
        # after the whole chordal part; the message names the same vertex
        for seed in (11, 12, 13):
            base = gen(GeneratorConfig(seed=seed, n=60, param=2.5, family="random-chordal"))
            h = _with_pendant_hole(base, SplitMix64(seed).below(base.n))
            with pytest.raises(NotChordalError) as fast:
                fast_clique_tree(h, token)
            with pytest.raises(NotChordalError) as generic:
                dcl_mls_clique_tree(h, factory(), LowestIndex())
            assert str(fast.value) == str(generic.value)


def _error_parity_corpus() -> list[Graph]:
    """Connected non-chordal graphs: seeded chordal graphs with a pendant
    hole, and random connected graphs that are not chordal."""
    graphs = []
    for seed in range(10):
        base = gen(GeneratorConfig(seed=7000 + seed, n=6 + 4 * (seed % 5), param=2.0 + seed % 3, family="random-chordal"))
        graphs.append(_with_pendant_hole(base, SplitMix64(seed).below(base.n)))
    graphs += connected_corpus(60)
    for seed in range(16):
        n = 10 + seed % 8
        graphs.append(gen(GeneratorConfig(seed=7100 + seed, n=n, param=(3.0 + seed % 3) / n, family="random-connected")))
    return [g for g in graphs if not is_chordal(g)]


_PARITY_BUILDERS = (
    [(mls_clique_tree, factory, {}) for factory in ALL]
    + [(dcl_mls_clique_tree, factory, {}) for factory in DCL]
    + [(dcl_mls_clique_tree, lexdfs, {"enforce_dcl": False})]
)


class TestErrorParity:
    """The builders skip the follower check where a step joins a known
    clique equal to its processed neighborhood; the first failure must
    still come at the first non-clique processed neighborhood of the
    search's ordering, found by a pairwise test."""

    @pytest.mark.parametrize(
        "fn,factory,kwargs", _PARITY_BUILDERS,
        ids=[f"{fn.__name__}-{f.__name__}{'-unenforced' if kw else ''}" for fn, f, kw in _PARITY_BUILDERS],
    )
    def test_first_non_clique_is_named(self, fn, factory, kwargs):
        structure = factory()
        # steps before the first failure where the label continues the
        # previous one while the processed neighborhood is not the node
        # the dcl builder is growing: met with lexdfs alone, which cannot
        # detect cliques with labels, so dcl_mls_clique_tree must check them
        continued_apart = 0
        for g in _error_parity_corpus():
            for tb in (LowestIndex(), SeededRandom(1), SeededRandom(2)):
                alpha, trace = moplex_mls(g, structure, tb)
                done, node, prev, want = set(), set(), None, None
                for e in trace.entries:
                    sep = g.adj[e.vertex] & done
                    if not is_clique_in(g, sep):
                        want = g.names[e.vertex]
                        break
                    continues = prev is not None and structure.compare(prev, e.label) is Cmp.LESS
                    continued_apart += continues and sep != node
                    node = (node if continues else set(sep)) | {e.vertex}
                    done.add(e.vertex)
                    prev = e.label
                assert want is not None, (g, tb)
                with pytest.raises(NotChordalError) as err:
                    fn(g, structure, tb, **kwargs)
                assert str(err.value) == f"processed neighborhood of {want!r} is not a clique; input not chordal", (g, tb)
        assert bool(continued_apart) == (factory is lexdfs), continued_apart


class TestSerialization:
    def test_json_shape(self):
        g = graph("fig1_h")
        t = mls_clique_tree(g, mcs())
        data = serialize.clique_tree_json(g, t)
        assert set(data) == {"cliques", "edges", "separators", "ordering"}
        assert sorted(map(tuple, data["cliques"])) == [
            ("a", "b", "f"),
            ("c", "d", "e"),
            ("e", "f"),
        ]
        assert len(data["ordering"]) == 6

    def test_dot_shape(self):
        g = graph("fig1_h")
        t = mls_clique_tree(g, mcs())
        dot = serialize.clique_tree_dot(g, t)
        assert dot.startswith("graph cliquetree {")
        assert dot.count(" -- ") == len(t.tree_edges)
