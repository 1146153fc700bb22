"""netforge: simulator and analytics for meritocracy- and popularity-driven
directed network formation."""

__version__ = "0.1.0"

from .graph import DirectedGraph, EdgeListParseError, GraphError
from .formation import (FormationConfig, ConfigError, generate,
                        generate_er_directed, generate_hybrid,
                        generate_matthew, generate_meritocracy,
                        matched_er_density, merit_followee_matrix)
from .theory import (CrossingReport, CurveSpec, TheoryTable, brute_force_oracle,
                     exact_expected_indegree, matthew_approx_curve,
                     merit_approx_curve, recursion_table, single_crossing_index)
from .metrics import (InsufficientDataError, MetricsReport, clustering,
                      compute_report, degree_distribution, fit_power_law, gini,
                      path_stats)
from .experiment import (EmpiricalParseError, EmpiricalResult, ExperimentSpec,
                         ResultSet, SpecError, empirical_ingest, export_results,
                         export_sweep, hybrid_sweep, run_batch,
                         small_world_scaling)

__all__ = [
    "__version__",
    "DirectedGraph", "GraphError", "EdgeListParseError",
    "FormationConfig", "ConfigError", "generate", "generate_meritocracy",
    "generate_matthew", "generate_hybrid", "generate_er_directed",
    "matched_er_density", "merit_followee_matrix",
    "TheoryTable", "CurveSpec", "CrossingReport", "recursion_table",
    "exact_expected_indegree", "merit_approx_curve", "matthew_approx_curve",
    "single_crossing_index", "brute_force_oracle",
    "MetricsReport", "InsufficientDataError", "degree_distribution",
    "fit_power_law", "gini", "path_stats", "clustering", "compute_report",
    "ExperimentSpec", "ResultSet", "SpecError", "run_batch", "hybrid_sweep",
    "small_world_scaling", "empirical_ingest", "EmpiricalResult",
    "EmpiricalParseError", "export_results", "export_sweep",
]
