"""The result and config types are frozen records: construction by position
or keyword with their defaults, equality and hashing over their compared
fields (a tree result's trace is not one), a ``Name(field=value, ...)``
repr, and no assignment. The reprs below are the ones these types printed
as frozen dataclasses."""

import pytest

from chordalkit.cliquetree import CliqueTreeResult, GeneratorsResult
from chordalkit.decomposition import AtomTreeResult, MlsmCliqueTreeResult
from chordalkit.fixtures import Fixture
from chordalkit.graph import Graph, Ordering
from chordalkit.labeling import Cmp, PropertyWitness
from chordalkit.oracle import GeneratorConfig
from chordalkit.search import ScriptedOrder, SearchTrace, SeededRandom, TraceEntry, TriangulationResult

ORDER = Ordering([1, 0])
TRI = TriangulationResult(ORDER, Graph(["a", "b"], [(0, 1)]), ())
TREE = CliqueTreeResult((frozenset({0, 1}),), (), frozenset(), {0: 1, 1: 1}, ORDER)

# class -> (its fields in order, a value for each)
RECORDS = {
    CliqueTreeResult: (("cliques", "tree_edges", "separators", "clique_of", "ordering"),
                       ((frozenset({0, 1}), frozenset({1, 2})), ((1, 2),), frozenset({frozenset({1})}),
                        {0: 1, 1: 1, 2: 2}, Ordering([2, 1, 0]))),
    GeneratorsResult: (("ordering", "gen_cliques", "gen_separators"), (ORDER, (0,), ())),
    MlsmCliqueTreeResult: (("ordering", "triangulation", "clique_tree"), (ORDER, TRI, TREE)),
    AtomTreeResult: (("atoms", "tree_edges", "clique_separators", "atom_of", "triangulation",
                      "current_atom_history"),
                     ((frozenset({0, 1}),), (), frozenset(), {0: 1, 1: 1}, TRI, (1, 1))),
    SeededRandom: (("seed",), (7,)),
    ScriptedOrder: (("picks",), (("b", "a"),)),
    TraceEntry: (("i", "vertex", "label", "increased", "fill"), (2, 0, (2,), (1,), ((0, 1),))),
    TriangulationResult: (("ordering", "graph", "fill_edges"), (ORDER, TRI.graph, ((0, 1),))),
    PropertyWitness: (("prop", "n", "i", "set_small", "set_large", "observed"),
                      ("dcl", 3, 1, (), (3,), Cmp.LESS)),
    GeneratorConfig: (("seed", "n", "param", "family"), (1, 10, 0.5, "random-connected")),
    Fixture: (("name", "edges", "script", "structure", "final_labels", "complement_final_labels", "note"),
              ("k2", (("a", "b"),), ("a", "b"), "mcs", {"a": "(2)"}, {}, "a note")),
}
REPRS = {
    CliqueTreeResult: "CliqueTreeResult(cliques=(frozenset({0, 1}), frozenset({1, 2})), tree_edges=((1, 2),), "
                      "separators=frozenset({frozenset({1})}), clique_of={0: 1, 1: 1, 2: 2}, "
                      "ordering=Ordering([2, 1, 0]))",
    GeneratorsResult: "GeneratorsResult(ordering=Ordering([1, 0]), gen_cliques=(0,), gen_separators=())",
    MlsmCliqueTreeResult: "MlsmCliqueTreeResult(ordering=Ordering([1, 0]), triangulation=TriangulationResult("
                          "ordering=Ordering([1, 0]), graph=Graph(n=2, m=1), fill_edges=()), "
                          "clique_tree=CliqueTreeResult(cliques=(frozenset({0, 1}),), tree_edges=(), "
                          "separators=frozenset(), clique_of={0: 1, 1: 1}, ordering=Ordering([1, 0])))",
    AtomTreeResult: "AtomTreeResult(atoms=(frozenset({0, 1}),), tree_edges=(), clique_separators=frozenset(), "
                    "atom_of={0: 1, 1: 1}, triangulation=TriangulationResult(ordering=Ordering([1, 0]), "
                    "graph=Graph(n=2, m=1), fill_edges=()), current_atom_history=(1, 1))",
    SeededRandom: "SeededRandom(seed=7)",
    ScriptedOrder: "ScriptedOrder(picks=('b', 'a'))",
    TraceEntry: "TraceEntry(i=2, vertex=0, label=(2,), increased=(1,), fill=((0, 1),))",
    TriangulationResult: "TriangulationResult(ordering=Ordering([1, 0]), graph=Graph(n=2, m=1), "
                         "fill_edges=((0, 1),))",
    PropertyWitness: "PropertyWitness(prop='dcl', n=3, i=1, set_small=(), set_large=(3,), "
                     "observed=<Cmp.LESS: 'less'>)",
    GeneratorConfig: "GeneratorConfig(seed=1, n=10, param=0.5, family='random-connected')",
    Fixture: "Fixture(name='k2', edges=(('a', 'b'),), script=('a', 'b'), structure='mcs', "
             "final_labels={'a': '(2)'}, complement_final_labels={}, note='a note')",
}
# a field holding a dict, an Ordering or a Graph makes a record unhashable
HASHABLE = {SeededRandom, ScriptedOrder, TraceEntry, PropertyWitness, GeneratorConfig}
by_class = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


def build(cls):
    return cls(*RECORDS[cls][1])


@by_class
def test_positional_and_keyword_construction_agree(cls):
    names, values = RECORDS[cls]
    rec = cls(**dict(zip(names, values)))
    assert rec == build(cls)
    assert tuple(getattr(rec, name) for name in names) == values


@by_class
def test_repr(cls):
    assert repr(build(cls)) == REPRS[cls]


@by_class
def test_equality_and_hash_follow_the_fields(cls):
    rec, values = build(cls), RECORDS[cls][1]
    assert rec == build(cls) and not rec != build(cls)
    assert rec != values
    changed = cls(*values[:-1], ("changed",))
    assert changed != rec
    if cls in HASHABLE:
        assert hash(rec) == hash(build(cls))
    else:
        with pytest.raises(TypeError):
            hash(rec)


@by_class
def test_assignment_and_deletion_raise(cls):
    rec, names = build(cls), RECORDS[cls][0]
    with pytest.raises(AttributeError):
        setattr(rec, names[0], None)
    with pytest.raises(AttributeError):
        rec.extra = None
    with pytest.raises(AttributeError):
        delattr(rec, names[0])
    assert getattr(rec, names[0]) == RECORDS[cls][1][0]


@pytest.mark.parametrize("cls,fields", [
    (CliqueTreeResult, ((frozenset({0}),), (), frozenset(), (("clique_of",),), ("ordering",))),
    (GeneratorsResult, (("ordering",), (0,), ())),
])
def test_a_tree_results_trace_is_left_out_of_equality_hash_and_repr(cls, fields):
    plain, traced = cls(*fields), cls(*fields, trace=SearchTrace("mcs", []))
    assert traced.trace is not None and plain.trace is None
    assert traced == plain and hash(traced) == hash(plain)
    assert repr(traced) == repr(plain) and "trace" not in repr(traced)


def test_defaults():
    assert TraceEntry(1, 0, 0, ()).fill == ()
    assert CliqueTreeResult(*RECORDS[CliqueTreeResult][1]).trace is None
    assert AtomTreeResult(*RECORDS[AtomTreeResult][1][:5]).current_atom_history is None
    fx = Fixture("k1", ())
    assert (fx.script, fx.structure, fx.final_labels, fx.complement_final_labels, fx.note) == ((), "", {}, {}, "")


def test_fixtures_do_not_share_their_default_dicts():
    a, b = Fixture("a", ()), Fixture("b", ())
    assert a.final_labels is not b.final_labels
    assert a.complement_final_labels is not b.complement_final_labels


def test_scripted_order_takes_any_iterable_of_names():
    assert ScriptedOrder(iter(["b", "a"])) == ScriptedOrder(picks=["b", "a"]) == build(ScriptedOrder)
