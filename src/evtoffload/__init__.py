"""Energy-efficient DAG computation offloading under uncertainty."""

from .colgen import solve, initial_rmp, solve_rmp, SolveResult
from .energy import (
    CLIENT,
    SERVER,
    EnergyReport,
    InfeasibleError,
    OffloadDecision,
    SystemParams,
    check_constraints,
    exec_slots,
    worst_case_expected_energy,
)
from .gev import (
    GevParams,
    SampleSet,
    block_maxima,
    fit_gev_mle,
    gev_cdf,
    gev_mean,
    gev_quantile,
    gev_sample,
)
from .graph import DataEdge, TaskGraph, TaskModule, load_graph, save_graph, topological_order, validate_graph
from .oracle import OracleResult, brute_force_optimum, earliest_completion
from .simulate import LayeredDagSpec, SimReport, TraceModel, gen_layered_dag, monte_carlo, simulate_execution

__version__ = "0.1.0"
