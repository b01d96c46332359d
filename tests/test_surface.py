"""The public surface: the names ``chordalkit`` exports and the options of
every CLI subcommand. A change that keeps the behaviour keeps both; change
the pins below only together with the surface itself."""

import argparse
from types import ModuleType

import chordalkit
from chordalkit.cli import build_parser

PUBLIC_NAMES = [
    "AtomTreeResult", "CliqueTreeResult", "Cmp", "ComplementView", "GeneratorsResult", "Graph",
    "LabelingStructure", "LowestIndex", "MlsmCliqueTreeResult", "Ordering", "PropertyWitness",
    "ScriptedOrder", "SearchTrace", "SeededRandom", "TieBreak", "Tri", "TriangulationResult",
    "VertexSet", "add_edges", "atom_tree_from_clique_tree", "check_complement_reversing",
    "check_dcl", "check_ic", "clique_tree_from_peo", "clique_tree_from_pmo",
    "complement_mls_clique_tree", "complement_mls_generators", "complement_view",
    "dcl_atom_tree", "dcl_mls_clique_tree", "dcl_mlsm_clique_tree", "extract_generators",
    "fast_clique_tree", "from_edge_list", "from_vertices", "higher_neighborhood",
    "induced_subgraph", "is_clique_in", "is_connected", "lab", "lexbfs", "lexdfs", "load_graph",
    "materialize_complement", "mcs", "mls", "mls_clique_tree", "mlsm", "mns", "moplex_mls",
    "moplex_mlsm", "ordering_from_names", "parse_edge_list", "rev", "structure_by_token",
    "triangulation_from_ordering",
]
# submodules become package attributes once anything imports them, so only
# the ones ``__init__`` exports by name are pinned
PUBLIC_MODULES = ["errors", "fixtures", "oracle", "serialize"]

_HELP = (("-h", "--help"), None, argparse.SUPPRESS)
_TOKENS = ("mcs", "lexbfs", "lexdfs", "mns")
_COMMON = [
    ("input", None, None),
    (("--structure",), _TOKENS, "mcs"),
    (("--tiebreak",), None, "lowest"),
    (("--format",), ("json", "dot"), "json"),
    (("--validate",), None, False),
    (("--debug-invariants",), None, False),
    (("--out",), None, None),
]
# subcommand -> (option strings, or dest for a positional; choices; default)
CLI_OPTIONS = {
    "cliquetree": [_HELP, *_COMMON,
                   (("--from-peo",), None, None),
                   (("--mls",), None, False),
                   (("--dcl",), None, False),
                   (("--complement",), None, False),
                   (("--generators",), None, False)],
    "triangulate": [_HELP, *_COMMON,
                    (("--moplex",), None, False),
                    (("--basic",), None, False),
                    (("--elim-game",), None, False),
                    (("--from-ordering",), None, None),
                    (("--tree",), None, False)],
    "atoms": [_HELP, *_COMMON],
    "checkstructure": [_HELP,
                       ("structure", _TOKENS, None),
                       (("--property",), ("ic", "dcl", "complement-reversing"), None),
                       (("--nmax",), None, 8),
                       (("--out",), None, None)],
    "check": [_HELP,
              ("graph", None, None),
              ("result", None, None),
              (("--out",), None, None)],
}


def _cli_options():
    """Each subcommand's options as read from ``build_parser()``; help text
    is left out, since argparse wraps it differently across versions."""
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [(tuple(a.option_strings) or a.dest, a.choices and tuple(a.choices), a.default)
               for a in sub._actions]
        for name, sub in subs.choices.items()
    }


def test_public_surface_unchanged():
    names = sorted(n for n, v in vars(chordalkit).items()
                   if not n.startswith("_") and not isinstance(v, ModuleType))
    assert names == PUBLIC_NAMES
    assert all(isinstance(getattr(chordalkit, m), ModuleType) for m in PUBLIC_MODULES)
    assert _cli_options() == CLI_OPTIONS
