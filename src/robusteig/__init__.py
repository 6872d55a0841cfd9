"""Robust dominant eigenvectors of column-stochastic matrices.

Given a link matrix P built from a directed graph, the package computes
score vectors that stay meaningful when P is uncertain: the minimizer over
the probability simplex of

    phi(x) = ||P x - x||_(1) + eps * ||x||_(2)

for three residual/penalty norm pairs, alongside classic PageRank, the
Cesaro-averaged power method, the nominal eigenvector (a checked power
term, an Aitken extrapolation of the terms, or else the average of a
restarted Cesaro round, whose measured l1 residual ||P x - x||_1 is <= tol),
and a regularized power method stopped
at the first rise of phi.  Perturbation samplers and a worst-case rank-1
construction verify the convex upper bounds empirically, and two grid-graph
model families provide exact oracles at any size.
"""

from .graph_matrix import (EdgeList, InputError, SparseStochasticMatrix,
                           ValidationReport, check_score_vector, edge_list,
                           from_edge_list, is_score_vector, load_edge_list,
                           parse_edge_list, residual, save_edge_list,
                           uniform_vector, validate)
from .models import (GridModelSpec, ModelVariant, emit_edge_list, generate,
                     model1_exact_scores, model1_pagerank_scores,
                     model2_exact_scores)
from .norms import (NormPair, ObjectiveValue, UncertaintySpec, g1, g2,
                    g_oracle, phi, phi_value, subgradient_phi)
from .perturbation import (InfeasiblePerturbationError, PerturbationSample,
                           Rank1Perturbation, check_perturbation_bound,
                           empirical_phi_lower_bound, sample_perturbation,
                           sampled_residuals, worst_case_rank1)
from .solvers import (SolveReport, SolverConfig, averaged_power,
                      dominant_eigenvector, grid_oracle_minimize,
                      mirror_descent_minimize, pagerank,
                      regularized_power_method, suggest_epsilon)

__version__ = "0.1.0"

__all__ = [
    "EdgeList", "InputError", "SparseStochasticMatrix", "ValidationReport",
    "check_score_vector", "edge_list", "from_edge_list", "is_score_vector",
    "load_edge_list", "parse_edge_list", "residual", "save_edge_list",
    "uniform_vector", "validate",
    "GridModelSpec", "ModelVariant", "emit_edge_list", "generate",
    "model1_exact_scores", "model1_pagerank_scores", "model2_exact_scores",
    "NormPair", "ObjectiveValue", "UncertaintySpec", "g1", "g2", "g_oracle",
    "phi", "phi_value", "subgradient_phi",
    "InfeasiblePerturbationError", "PerturbationSample", "Rank1Perturbation",
    "check_perturbation_bound", "empirical_phi_lower_bound",
    "sample_perturbation", "sampled_residuals", "worst_case_rank1",
    "SolveReport", "SolverConfig", "averaged_power", "dominant_eigenvector",
    "grid_oracle_minimize", "mirror_descent_minimize", "pagerank",
    "regularized_power_method", "suggest_epsilon",
]
