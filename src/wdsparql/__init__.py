"""wdsparql: well-designed SPARQL evaluation, width analysis and hardness
instance generation over ground RDF graphs."""

from .errors import WdError
from .evaluator import (
    SolutionSet,
    enumerate_solutions,
    eval_forest,
    eval_naive,
    eval_pebble,
)
from .graphs import TreeDecomposition, UndirectedGraph, grid_graph, tree_decomposition, treewidth
from .hardness import (
    CliqueInstance,
    FrozenInstance,
    GadgetPlan,
    MinorMap,
    build_clique_gadget,
    find_grid_minor,
    freeze,
    generate_hard_instance,
    has_clique,
    verify_minor_map,
)
from .hom import (
    GeneralizedTGraph,
    all_homomorphisms,
    core,
    ctw,
    find_homomorphism,
    gaifman,
    maps_into_graph,
)
from .patterns import (
    GraphPattern,
    Leaf,
    Node,
    is_well_designed,
    parse_pattern,
    serialize_pattern,
    well_designed_violation,
)
from .pebble import consistency_family, pebble_wins
from .terms import (
    Mapping,
    TGraph,
    Term,
    Triple,
    iri,
    parse_graph,
    parse_mapping,
    serialize_graph,
    serialize_mapping,
    var,
)
from .trees import (
    ChildrenAssignment,
    Subtree,
    WdPF,
    WdPT,
    assignment_tgraph,
    associated_tgraphs,
    children_assignments,
    is_valid_assignment,
    render_forest,
    subtrees,
    support,
    to_forest,
)
from .width import (
    Analysis,
    HardWitness,
    branch_treewidth,
    domination_width,
    find_hard_witness,
    is_k_dominated,
    local_tractability_width,
    width_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
