"""chordalkit: maximal label search over pluggable labeling structures,
with clique trees, minimal separators, minimal triangulations,
complement-graph clique trees, and atom trees, all validated against
built-in brute-force oracles.
"""

from .graph import (
    ComplementView,
    Graph,
    Ordering,
    VertexSet,
    add_edges,
    complement_view,
    from_edge_list,
    from_vertices,
    higher_neighborhood,
    induced_subgraph,
    is_connected,
    load_graph,
    materialize_complement,
    ordering_from_names,
    parse_edge_list,
)
from .labeling import (
    Cmp,
    LabelingStructure,
    PropertyWitness,
    Tri,
    check_complement_reversing,
    check_dcl,
    check_ic,
    lab,
    lexbfs,
    lexdfs,
    mcs,
    mns,
    rev,
    structure_by_token,
)
from .search import (
    LowestIndex,
    ScriptedOrder,
    SearchTrace,
    SeededRandom,
    TieBreak,
    TriangulationResult,
    mls,
    mlsm,
    moplex_mls,
    moplex_mlsm,
    triangulation_from_ordering,
)
from .cliquetree import (
    CliqueTreeResult,
    GeneratorsResult,
    clique_tree_from_peo,
    clique_tree_from_pmo,
    complement_mls_clique_tree,
    complement_mls_generators,
    dcl_mls_clique_tree,
    extract_generators,
    fast_clique_tree,
    mls_clique_tree,
)
from .decomposition import (
    AtomTreeResult,
    MlsmCliqueTreeResult,
    atom_tree_from_clique_tree,
    dcl_atom_tree,
    dcl_mlsm_clique_tree,
    is_clique_in,
)
from . import errors, serialize

__version__ = "0.1.0"


def __getattr__(name: str):
    # the oracle and the fixtures load on first use: a CLI command needs
    # them only to validate
    if name in ("fixtures", "oracle"):
        from importlib import import_module

        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
