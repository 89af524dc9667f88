"""Exact alignment-based conformance checking for Petri-net process models.

Two exact engines compute optimal alignments between observed traces and
a model: a minimum-cost unit-flow LP over the reachability graph of the
synchronous product (integral by total unimodularity of the node-arc
incidence matrix), and an A* baseline guided by the marking-equation
heuristic.  A selection rule on trace length and token-replay fitness
picks between them per trace.
"""

from .astar import Heuristic, SearchConfig, astar_align
from .errors import (
    FlowAlignError,
    InternalInvariantError,
    InvalidInputError,
    InvalidLimitsError,
    InvalidSpecError,
    ModelParseError,
    SemanticError,
    UnreachableFinalError,
)
from .flow import (
    Alignment,
    FlowProblem,
    FlowSolution,
    Method,
    Outcome,
    RunStats,
    alignment_to_dict,
    assemble_flow_problem,
    extract_alignment,
    lp_align,
    move_table,
    solve_min_cost_unit_flow,
)
from .model_io import (
    EventLog,
    NoiseSpec,
    inject_noise,
    parse_pnml,
    parse_xes,
    read_csv_log,
    serialize_pnml,
    serialize_xes,
)
from .petri import (
    TAU,
    IncidenceTriple,
    Marking,
    PetriNet,
    Trace,
    incidence_matrices,
    validate_workflow_net,
)
from .reachability import (
    ExplorationLimits,
    ReachabilityGraph,
    build_reachability_graph,
)
from .selector import (
    RunResult,
    SelectionThresholds,
    hybrid_align,
    select_method,
    token_replay_fitness,
)
from .sync_product import (
    GAP,
    CostConfig,
    MoveKind,
    SynchronousProduct,
    SyncMove,
    cost_vector,
    product_for_trace,
)

__version__ = "0.1.0"
