"""Max-Cut solvers and benchmarks with a simulated variational pipeline."""

from .classical import SolveResult, brute_force_maxcut, greedy_maxcut
from .graph import (
    DEFAULT_QUBIT_CAP,
    CutAssignment,
    EdgeListParseError,
    Graph,
    ResourceLimitError,
    cut_value,
    cut_values_by_basis,
    generate_random_graph,
    labels_from_index,
    parse_edge_list,
    resolve_qubit_cap,
    write_edge_list,
)
from .pipeline import PipelineConfig, PipelineReport, refine_assignment, run_pipeline
from .qaoa import QaoaConfig, QaoaResult, evaluate_params, optimize_params, run_qaoa
from .simulator import QaoaParams

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "CutAssignment",
    "cut_value",
    "cut_values_by_basis",
    "labels_from_index",
    "generate_random_graph",
    "parse_edge_list",
    "write_edge_list",
    "SolveResult",
    "brute_force_maxcut",
    "greedy_maxcut",
    "QaoaParams",
    "resolve_qubit_cap",
    "DEFAULT_QUBIT_CAP",
    "QaoaConfig",
    "QaoaResult",
    "evaluate_params",
    "optimize_params",
    "run_qaoa",
    "PipelineConfig",
    "PipelineReport",
    "run_pipeline",
    "refine_assignment",
    "ResourceLimitError",
    "EdgeListParseError",
    "__version__",
]
