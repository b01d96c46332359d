"""Pinned digest of every engine product and its trace.

A case runs one product on one input graph with one structure and one
tie-break. It serializes the product's JSON (or the raised error's token and
message) and the trace of every search the product ran. The cases of one
(product, structure) pair hash into one SHA-256, pinned in
``digest_pins.json`` beside this file together with a short fingerprint per
case and field, so that a mismatch names the first case that moved and the
field that differs.

Re-pin only for an intended output change, and name that change and the
cases it moves; the re-pin prints, before it writes, each key whose SHA it
changes with that key's first moved case and field:

    PYTHONPATH=src python tests/test_digest.py --pin
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from functools import lru_cache

import pytest

from chordalkit import serialize
from chordalkit.cliquetree import (
    complement_mls_clique_tree,
    complement_mls_generators,
    dcl_mls_clique_tree,
    fast_clique_tree,
    mls_clique_tree,
)
from chordalkit.decomposition import dcl_atom_tree, dcl_mlsm_clique_tree
from chordalkit.errors import ChordalkitError
from chordalkit.fixtures import fixtures
from chordalkit.labeling import BUILTIN_TOKENS, structure_by_token
from chordalkit.oracle import GeneratorConfig, gen
from chordalkit.search import LabelSearch, LowestIndex, ScriptedOrder, SeededRandom, mls, mlsm, moplex_mls, moplex_mlsm

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digest_pins.json")
FINGERPRINT = 6  # hex digits per case and field


def _ordering(g, out):
    return {"ordering": out[0].names(g)}


def _triangulation(g, out):
    return serialize.triangulation_json(g, out[0])


def _mlsm_tree(g, out):
    return serialize.triangulation_json(g, out.triangulation, out.clique_tree)


# name -> (driver, keyword arguments, minimizing run, serializer)
ENGINE_PRODUCTS = {
    "mls": (mls, {}, False, _ordering),
    "mls-min": (mls, {"minimize": True}, True, _ordering),
    "moplex_mls": (moplex_mls, {}, False, _ordering),
    "mlsm": (mlsm, {}, False, _triangulation),
    "moplex_mlsm": (moplex_mlsm, {}, False, _triangulation),
    "mls_clique_tree": (mls_clique_tree, {}, False, serialize.clique_tree_json),
    "dcl_mls_clique_tree": (dcl_mls_clique_tree, {}, False, serialize.clique_tree_json),
    "complement_mls_clique_tree": (complement_mls_clique_tree, {}, True, serialize.clique_tree_json),
    "complement_mls_generators": (complement_mls_generators, {}, True, serialize.generators_json),
    "dcl_atom_tree": (dcl_atom_tree, {}, False, serialize.atom_tree_json),
    "dcl_mlsm_clique_tree": (dcl_mlsm_clique_tree, {}, False, _mlsm_tree),
}
KEYS = [f"{p}/{s}" for p in ENGINE_PRODUCTS for s in BUILTIN_TOKENS]
KEYS += [f"fast_clique_tree/{s}" for s in ("mcs", "lexbfs")]


@lru_cache(maxsize=None)
def _inputs():
    """(name, graph): the figure fixtures and seeded graphs with n <= 40."""
    out = [(name, fx.graph()) for name, fx in fixtures().items()]
    for family in ("random-chordal", "random-co-chordal", "random-connected"):
        for s, n in enumerate((7, 12, 18, 26, 33, 40)):
            param = 3 / n if family == "random-connected" else 1.0 + s % 3
            g = gen(GeneratorConfig(seed=7000 + s, n=n, param=param, family=family))
            out.append((f"{family}/{7000 + s}/n={n}", g))
    return out


def _tiebreaks(g, minimize):
    # a partial script: the last vertex, then the highest-index vertex that
    # can tie with it at the second step (a non-neighbor when minimizing)
    first = g.n - 1
    second = [v for v in range(first) if (v in g.adj[first]) != minimize]
    picks = [first] + second[-1:]
    return [LowestIndex(), SeededRandom(3), ScriptedOrder(g.names[v] for v in picks)]


def _run(call, g, serializer):
    """The serialized product or error, and the traces of its searches."""
    runs = []
    real = LabelSearch.__init__

    def keep(self, *args, **kwargs):
        real(self, *args, **kwargs)
        runs.append(self)

    LabelSearch.__init__ = keep
    try:
        result = serializer(g, call())
    except ChordalkitError as e:
        result = {"error": e.token, "message": str(e)}
    finally:
        LabelSearch.__init__ = real
    traces = [serialize.trace_json(r.g, r.structure, r.trace) for r in runs]
    return json.dumps(result, sort_keys=True), json.dumps(traces, sort_keys=True)


def cases(key):
    """Yield (case id, result JSON, trace JSON) for one (product, structure)."""
    product, token = key.split("/")
    for name, g in _inputs():
        if product == "fast_clique_tree":
            yield name, *_run(lambda: fast_clique_tree(g, token), g, serialize.clique_tree_json)
            continue
        fn, kwargs, minimize, serializer = ENGINE_PRODUCTS[product]
        for tb in _tiebreaks(g, minimize):
            call = lambda: fn(g, structure_by_token(token), tb, **kwargs)  # noqa: E731
            yield f"{name} {tb!r}", *_run(call, g, serializer)


def _short(text):
    return hashlib.sha256(text.encode()).hexdigest()[:FINGERPRINT]


def digest(key):
    """The pin of one key: a SHA-256 over every case, and the fingerprints."""
    h = hashlib.sha256()
    ids, prints = [], []
    for case_id, result, trace in cases(key):
        h.update("\0".join((case_id, result, trace, "")).encode())
        ids.append(case_id)
        prints.append(_short(result) + _short(trace))
    return {"sha256": h.hexdigest(), "fingerprints": "".join(prints)}, ids


@lru_cache(maxsize=None)
def _pins():
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


def moved(key, got, ids):
    """None when ``digest(key)`` result ``got`` matches the pin, else where it
    moved: the first case whose fingerprint differs and in which field, or
    the case counts when no fingerprint does."""
    want = _pins().get(key)
    if want is None:
        return f"{key}: not pinned"
    if got["sha256"] == want["sha256"]:
        return None
    step = 2 * FINGERPRINT
    old, new = want["fingerprints"], got["fingerprints"]
    for k, case_id in enumerate(ids):
        a, b = old[k * step:(k + 1) * step], new[k * step:(k + 1) * step]
        if a != b:
            field = "result" if a[:FINGERPRINT] != b[:FINGERPRINT] else "trace"
            return f"{key}: case {case_id!r} first differs, in its {field}"
    return f"{key}: {len(ids)} cases now, {len(old) // step} pinned"


@pytest.mark.parametrize("key", KEYS)
def test_digest_unchanged(key):
    message = moved(key, *digest(key))
    if message:
        pytest.fail(message)


def _pin():
    """Print every key whose SHA the new pins change, with its first moved
    case and field, then write the pins."""
    pins = {}
    for key in KEYS:
        pins[key], ids = digest(key)
        message = moved(key, pins[key], ids)
        if message:
            print(message)
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(pins)} keys in {PINS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--pin"]:
        sys.exit(__doc__)
    _pin()
