"""serialize.dumps against json.dumps(indent=2, sort_keys=True): the same
bytes on every product's JSON and on arbitrary nested JSON values."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordalkit import serialize
from chordalkit.cliquetree import (
    clique_tree_from_peo,
    complement_mls_clique_tree,
    complement_mls_generators,
    dcl_mls_clique_tree,
    fast_clique_tree,
    mls_clique_tree,
)
from chordalkit.decomposition import dcl_atom_tree, dcl_mlsm_clique_tree
from chordalkit.errors import ChordalkitError
from chordalkit.fixtures import fixtures
from chordalkit.labeling import BUILTIN_TOKENS, check_report, structure_by_token
from chordalkit.search import mls, mlsm, moplex_mls, moplex_mlsm


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _searches(g, s):
    alpha, trace = mls(g, s)
    tri, tri_trace = mlsm(g, s)
    return [
        {"ordering": alpha.names(g)},
        serialize.trace_json(g, s, trace),
        serialize.final_labels(g, s, trace),
        serialize.triangulation_json(g, tri),
        serialize.trace_json(g, s, tri_trace),
    ]


def _products(g, token):
    """Every JSON product on g with one structure, traces included; a
    product that rejects g or the structure gives nothing."""
    s = structure_by_token(token)
    runs = [
        lambda: _searches(g, s),
        lambda: {"ordering": moplex_mls(g, s)[0].names(g)},
        lambda: serialize.triangulation_json(g, moplex_mlsm(g, s)[0]),
        lambda: serialize.clique_tree_json(g, mls_clique_tree(g, s)),
        lambda: serialize.clique_tree_json(g, dcl_mls_clique_tree(g, s)),
        lambda: serialize.clique_tree_json(g, complement_mls_clique_tree(g, s)),
        lambda: serialize.generators_json(g, complement_mls_generators(g, s)),
        lambda: serialize.atom_tree_json(g, dcl_atom_tree(g, s)),
        lambda: _mlsm_tree(g, dcl_mlsm_clique_tree(g, s)),
        lambda: serialize.clique_tree_json(g, fast_clique_tree(g, token)),
        lambda: serialize.clique_tree_json(g, clique_tree_from_peo(g, fast_clique_tree(g, token).ordering)),
    ]
    out = []
    for run in runs:
        try:
            out.append(run())
        except (ChordalkitError, ValueError):  # fast_clique_tree takes mcs and lexbfs only
            pass
    return out


def _mlsm_tree(g, r):
    return serialize.triangulation_json(g, r.triangulation, r.clique_tree)


@pytest.mark.parametrize("token", BUILTIN_TOKENS)
@pytest.mark.parametrize("name", sorted(fixtures()))
def test_every_product_on_the_figure_fixtures(name, token):
    products = _products(fixtures()[name].graph(), token)
    assert products
    for obj in products:
        assert serialize.dumps(obj) == reference(obj)


@pytest.mark.parametrize("prop", ["ic", "dcl", "complement-reversing"])
@pytest.mark.parametrize("token", BUILTIN_TOKENS)
def test_check_reports(token, prop):
    obj = check_report(structure_by_token(token), prop, 5)
    assert serialize.dumps(obj) == reference(obj)


_escapes = st.lists(st.sampled_from(['"', "\\", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "é", " ", "😀", "/", "a"]),
                    max_size=6).map("".join)
_strings = st.one_of(st.text(max_size=6), _escapes)
_ints = st.one_of(st.integers(-5, 5), st.integers(-(10**60), 10**60))
_floats = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300]))
_leaves = st.one_of(st.none(), st.booleans(), _ints, _floats, _strings)
# homogeneous lists reach the one-join paths; a bool after an int or a
# later item of another type must leave them
_flat = st.one_of(
    st.lists(_strings, max_size=5),
    st.lists(_ints, max_size=5),
    st.lists(st.one_of(_ints, st.booleans()), max_size=5),
    st.tuples(_strings, _ints),
    st.tuples(_ints, _strings),
    st.tuples(_ints, _floats),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_strings, children, max_size=4),
        st.dictionaries(st.integers(-(10**30), 10**30), children, max_size=3),
        st.dictionaries(st.one_of(st.booleans(), st.none()), children, max_size=1),
        st.dictionaries(st.booleans(), children, max_size=2),
        st.dictionaries(st.floats(allow_nan=False), children, max_size=3),
        st.dictionaries(st.one_of(_strings, _ints), children, max_size=3),
    )


_json_values = st.recursive(st.one_of(_leaves, _flat), _containers, max_leaves=25)


def _outcome(encode, obj):
    try:
        return encode(obj)
    except (TypeError, ValueError) as exc:  # e.g. int and str keys cannot be sorted together
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(_json_values)
def test_nested_values(obj):
    assert _outcome(serialize.dumps, obj) == _outcome(reference, obj)


@pytest.mark.parametrize("obj", [
    [], {}, [[]], [{}], {"a": []}, "", 0, -1, True, False, None, 1.5, math.nan,
    [1, True], [True, 1], ["a", 1], [1, "a"], [1, 2.0], [[1, 2], [3, 4]],
    {"b": 1, "a": {"d": [], "c": ["x", "y"]}}, {1: "a", 2: "b"}, {True: 1, False: 2}, {None: 0}, {1.5: 0},
    ("a", "b"), ["é", "\\", '"'], [10**50, -(10**50)],
])
def test_edge_cases(obj):
    assert serialize.dumps(obj) == reference(obj)
