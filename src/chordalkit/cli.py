"""Command-line front end.

Subcommands: cliquetree, triangulate, atoms, checkstructure, check.
Exit codes: 0 success, 1 input or precondition error (the message names the
failed check), 2 validation failure (with --validate, or a failing
checkstructure / check run).

Graphs are read from edge-list files: one edge per line, two
whitespace-separated vertex names, '#' comments, blank lines ignored.
Ordering files list vertex names (whitespace separated), position 1 first.
The script tie-break names the target ordering the same way: the run numbers
the last-listed vertex first, so the finished ordering reads as written.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from types import SimpleNamespace

from . import serialize
from .cliquetree import (
    _require_complement_peo,
    clique_tree_from_peo,
    complement_mls_clique_tree,
    complement_mls_generators,
    dcl_mls_clique_tree,
    extract_generators,
    mls_clique_tree,
)
from .decomposition import dcl_atom_tree, dcl_mlsm_clique_tree
from .errors import ChordalkitError, ParseError
from .graph import (
    Graph,
    add_edges,
    higher_neighborhood,
    load_graph,
    materialize_complement,
    ordering_from_names,
    read_text,
    token_rows,
)
from .labeling import BUILTIN_TOKENS, DEFAULT_CHECK_BOUND, check_report, structure_by_token
from .search import LowestIndex, ScriptedOrder, SeededRandom, mls, mlsm, moplex_mlsm, triangulation_from_ordering


def __getattr__(name: str):
    # the oracle loads on first use: only --validate and check run it
    if name == "oracle":
        from . import oracle

        return oracle
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _oracle():
    """The oracle module as ``cli.oracle``, the name a caller may set."""
    return sys.modules[__name__].oracle


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def _parse_tiebreak(spec: str):
    if spec == "lowest":
        return LowestIndex()
    if spec.startswith("seed:"):
        digits = spec[5:]
        value = digits.lstrip("0") or "0"
        # a u64 in ASCII digits: int() alone would also take a sign,
        # underscores, other scripts' digits and any length
        if digits.isascii() and digits.isdigit() and len(value) <= 20 and int(value) < 1 << 64:
            return SeededRandom(int(value))
        raise ParseError(f"bad seed in tie-break spec {spec!r}")
    if spec.startswith("script:"):
        names = [t for t in spec[7:].split(",") if t]
        if not names:
            raise ParseError("empty script in tie-break spec")
        # the script is the target ordering; picks run from the back
        return ScriptedOrder(reversed(names))
    raise ParseError(f"bad tie-break spec {spec!r}; expected lowest | seed:<u64> | script:<names>")


def _read_ordering(path: str, g: Graph):
    return ordering_from_names(g, [name for row in token_rows(read_text(path)) for name in row])


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _common_flags(sub):
    sub.add_argument("input", help="edge-list file")
    sub.add_argument("--structure", choices=BUILTIN_TOKENS, default="mcs")
    sub.add_argument("--tiebreak", default="lowest", help="lowest | seed:<u64> | script:<comma-names>")
    sub.add_argument("--format", choices=("json", "dot"), default="json")
    sub.add_argument("--validate", action="store_true", help="oracle-check the result (small graphs only)")
    sub.add_argument("--debug-invariants", action="store_true", help="assert run invariants (small graphs only)")
    sub.add_argument("--out", default=None, help="write output here instead of stdout")


def build_parser() -> _Parser:
    p = _Parser(prog="chordalkit")
    subs = p.add_subparsers(dest="command", required=True)

    ct = subs.add_parser("cliquetree", help="clique tree and minimal separators")
    _common_flags(ct)
    mode = ct.add_mutually_exclusive_group()
    mode.add_argument("--from-peo", metavar="ORDERING_FILE", default=None,
                      help="build from a given perfect elimination ordering")
    mode.add_argument("--mls", action="store_true", help="label search with set-based clique test (default)")
    mode.add_argument("--dcl", action="store_true", help="label search with pure label clique test")
    mode.add_argument("--complement", action="store_true", help="clique tree of the complement graph")
    ct.add_argument("--generators", action="store_true",
                    help="with --complement: emit clique/separator generators only (near-linear)")

    tr = subs.add_parser("triangulate", help="minimal triangulation (ordering + fill edges)")
    _common_flags(tr)
    tmode = tr.add_mutually_exclusive_group()
    tmode.add_argument("--moplex", action="store_true", help="moplex-refined triangulating search (default)")
    tmode.add_argument("--basic", action="store_true", help="plain triangulating search")
    tmode.add_argument("--elim-game", action="store_true",
                       help="plain label search, then the elimination game on its ordering")
    tmode.add_argument("--from-ordering", metavar="ORDERING_FILE", default=None,
                       help="elimination game on an explicit ordering")
    tr.add_argument("--tree", action="store_true",
                    help="also emit the clique tree of the triangulation (needs a label-detecting structure)")

    at = subs.add_parser("atoms", help="atom tree of the clique-minimal-separator decomposition")
    _common_flags(at)

    cs = subs.add_parser("checkstructure", help="bounded property checks for a labeling structure")
    cs.add_argument("structure", choices=BUILTIN_TOKENS)
    cs.add_argument("--property", required=True, choices=("ic", "dcl", "complement-reversing"))
    cs.add_argument("--nmax", type=int, default=DEFAULT_CHECK_BOUND)
    cs.add_argument("--out", default=None)

    ck = subs.add_parser("check", help="validate a result JSON against a graph")
    ck.add_argument("graph", help="edge-list file")
    ck.add_argument("result", help="result JSON produced by this tool")
    ck.add_argument("--out", default=None)

    return p


def _validation_exit(violations: list[str]) -> int:
    for v in violations:
        print(f"violation: {v}", file=sys.stderr)
    return 2 if violations else 0


def _cmd_cliquetree(args) -> int:
    g = load_graph(args.input)
    tb = _parse_tiebreak(args.tiebreak)
    if args.generators and (args.from_peo or args.mls or args.dcl):
        raise ParseError("--generators goes with --complement")
    if args.generators and args.format == "dot":
        raise ParseError("generators have no dot rendering; use --format json")
    violations: list[str] = []

    if args.generators or args.complement:
        if args.generators:
            res = complement_mls_generators(g, structure_by_token(args.structure), tb)
            _require_complement_peo(g, res.ordering)
            _emit(args, serialize.dumps(serialize.generators_json(g, res)))
            if args.validate:
                violations = _validate_generators(g, res)
            return _validation_exit(violations)
        t = complement_mls_clique_tree(g, structure_by_token(args.structure), tb)
    elif args.from_peo:
        alpha = _read_ordering(args.from_peo, g)
        t = clique_tree_from_peo(g, alpha)
    elif args.dcl:
        t = dcl_mls_clique_tree(g, structure_by_token(args.structure), tb)
    else:
        t = mls_clique_tree(g, structure_by_token(args.structure), tb)

    if args.format == "dot":
        _emit(args, serialize.clique_tree_dot(g, t))
    else:
        _emit(args, serialize.dumps(serialize.clique_tree_json(g, t)))
    if args.validate:
        violations = _oracle().validate_clique_tree(_checked_complement(g) if args.complement else g, t)
    return _validation_exit(violations)


def _checked_complement(g: Graph) -> Graph:
    """The complement for the oracle, refused above its cap before it is built."""
    oracle = _oracle()
    oracle._require_under_cap("maximal_cliques", g.n, oracle.CLIQUES_CAP)
    return materialize_complement(g)


def _validate_generators(g: Graph, res) -> list[str]:
    violations = []
    if len(res.gen_cliques) != len(res.gen_separators) + 1:
        violations.append("generator counts are off by more than one")
    comp = _checked_complement(g)
    # an independent tree: the peo walk on the materialized complement
    if extract_generators(clique_tree_from_peo(comp, res.ordering)) != res:
        violations.append("generators disagree with the complement clique tree")
    oracle = _oracle()
    want_cliques = oracle.maximal_cliques(comp)
    got_cliques = {
        higher_neighborhood(comp, res.ordering, v, res.ordering.position_of(v), closed=True)
        for v in res.gen_cliques
    }
    if got_cliques != want_cliques:
        violations.append("closed higher neighborhoods do not match the complement's maximal cliques")
    want_seps = oracle.minimal_separators(comp)
    got_seps = {
        higher_neighborhood(comp, res.ordering, v, res.ordering.position_of(v))
        for v in res.gen_separators
    }
    if got_seps != want_seps:
        violations.append("open higher neighborhoods do not match the complement's minimal separators")
    return violations


def _cmd_triangulate(args) -> int:
    g = load_graph(args.input)
    tb = _parse_tiebreak(args.tiebreak)
    if args.tree and (args.from_ordering or args.elim_game or args.basic):
        raise ParseError("--tree is only available with the default --moplex mode")
    if args.format == "dot" and not args.tree:
        raise ParseError("dot output needs --tree")
    structure = structure_by_token(args.structure)
    tree = None
    minimal_expected = True
    if args.from_ordering:
        alpha = _read_ordering(args.from_ordering, g)
        tri = triangulation_from_ordering(g, alpha)
        minimal_expected = False
    elif args.elim_game:
        alpha, _ = mls(g, structure, tb)
        tri = triangulation_from_ordering(g, alpha)
        minimal_expected = False
    elif args.basic:
        tri, _ = mlsm(g, structure, tb)
    else:
        if args.tree:
            res = dcl_mlsm_clique_tree(g, structure, tb)
            tri, tree = res.triangulation, res.clique_tree
        else:
            tri, _ = moplex_mlsm(g, structure, tb)

    if args.format == "dot":
        _emit(args, serialize.clique_tree_dot(g, tree))
    else:
        _emit(args, serialize.dumps(serialize.triangulation_json(g, tri, tree)))

    violations: list[str] = []
    if args.validate:
        oracle = _oracle()
        if not oracle.is_chordal(tri.graph):
            violations.append("result graph is not chordal")
        elif minimal_expected and not oracle.is_minimal_triangulation(g, tri.graph):
            violations.append("result graph is not a minimal triangulation")
        if tree is not None:
            violations.extend(oracle.validate_clique_tree(tri.graph, tree))
    return _validation_exit(violations)


def _cmd_atoms(args) -> int:
    g = load_graph(args.input)
    tb = _parse_tiebreak(args.tiebreak)
    t = dcl_atom_tree(g, structure_by_token(args.structure), tb)
    if args.format == "dot":
        _emit(args, serialize.atom_tree_dot(g, t))
    else:
        _emit(args, serialize.dumps(serialize.atom_tree_json(g, t)))
    violations = _oracle().validate_atom_tree(g, t) if args.validate else []
    return _validation_exit(violations)


def _cmd_checkstructure(args) -> int:
    try:
        report = check_report(structure_by_token(args.structure), args.property, args.nmax)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    _emit(args, serialize.dumps(report))
    return 0 if report["result"] == "pass" else 2


def _cmd_check(args) -> int:
    g = load_graph(args.graph)
    try:
        host, t = _read_result(g, args.result)
    except KeyError as exc:
        raise ParseError(f"result JSON has no field {exc}") from None
    except (ValueError, TypeError) as exc:
        # json.JSONDecodeError is a ValueError too
        raise ParseError(f"malformed result JSON: {exc}") from None
    oracle = _oracle()
    if hasattr(t, "atoms"):
        violations = oracle.validate_atom_tree(g, t)
    else:
        violations = oracle.validate_clique_tree(host, t)
    text = "".join(f"violation: {v}\n" for v in violations) or "ok\n"
    _emit(args, text)
    return 2 if violations else 0


def _read_result(g: Graph, path: str):
    """The tree in a result JSON, and the graph to check a clique tree
    against: g plus the fill edges for triangulate --tree output."""
    import json

    data = json.loads(read_text(path))

    def listed(value, kind, what, length=None):
        # a JSON string or object would iterate as names; a bool is no int
        if (not isinstance(value, list) or length not in (None, len(value))
                or not all(type(x) is kind for x in value)):
            raise TypeError(f"expected a list of {what}, got {json.dumps(value)}")
        return value

    def to_sets(lists):
        return tuple(frozenset(g.index(name) for name in listed(names, str, "vertex names"))
                     for names in listed(lists, list, "lists"))

    def to_edges(pairs):
        return tuple(tuple(listed(pair, int, "two integers", 2)) for pair in listed(pairs, list, "lists"))

    if "clique_tree" in data:  # triangulate --tree output: validate against the filled graph
        fill = [tuple(g.index(name) for name in listed(pair, str, "two vertex names", 2))
                for pair in listed(data.get("fill_edges", []), list, "lists")]
        host = add_edges(g, fill)
        data = data["clique_tree"]
    else:
        host = g

    if "atoms" in data:
        t = SimpleNamespace(
            atoms=to_sets(data["atoms"]),
            tree_edges=to_edges(data["edges"]),
            clique_separators=frozenset(to_sets(data["clique_separators"])),
        )
        return host, t
    if "cliques" in data:
        t = SimpleNamespace(
            cliques=to_sets(data["cliques"]),
            tree_edges=to_edges(data["edges"]),
            separators=frozenset(to_sets(data["separators"])),
        )
        return host, t
    raise ParseError("result JSON has neither 'cliques' nor 'atoms'")


_COMMANDS = {"cliquetree": _cmd_cliquetree, "triangulate": _cmd_triangulate, "atoms": _cmd_atoms,
             "checkstructure": _cmd_checkstructure, "check": _cmd_check}


def main(argv=None) -> int:
    parser = build_parser()
    saved_debug, saved_gc = os.environ.get("CHORDALKIT_DEBUG"), gc.isenabled()
    try:
        # one command builds no cycles worth collecting, while full
        # collections rescan every adjacency and result set
        gc.disable()
        args = parser.parse_args(argv)
        if getattr(args, "debug_invariants", False):
            os.environ["CHORDALKIT_DEBUG"] = "1"
        return _COMMANDS[args.command](args)
    except ChordalkitError as exc:
        print(f"error: {exc.token}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: IO: {exc}", file=sys.stderr)
        return 1
    finally:
        if saved_debug is None:
            os.environ.pop("CHORDALKIT_DEBUG", None)
        else:
            os.environ["CHORDALKIT_DEBUG"] = saved_debug
        if saved_gc:
            gc.enable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
