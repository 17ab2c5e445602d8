"""The paper's analysis: model computation and decision classification.

This subpackage is the primary contribution of the reproduced paper:
compute all Gao-Rexford-compliant routes over an inferred topology,
classify every empirically observed routing decision into the
Best/Short taxonomy, explain residual deviations with successive
refinements (complex relationships, siblings, prefix-specific policies,
geography, undersea cables), and reverse-engineer BGP decision steps
from active measurements.
"""

from repro.core.gao_rexford import CacheStats, GaoRexfordEngine, RoutingCache
from repro.core.classification import (
    Decision,
    DecisionLabel,
    LabelCounts,
    classify_decision,
    classify_decisions,
    classify_decisions_serial,
    label_decisions,
    label_decisions_serial,
)
from repro.core.psp import PrefixPolicyAnalysis, PSPCase
from repro.core.skew import ViolationSkew, compute_skew
from repro.core.geography import GeographyAnalysis
from repro.core.active_analysis import (
    PreferenceOrderSummary,
    classify_preference_orders,
    infer_magnet_decisions,
)
from repro.core.looking_glass import LookingGlassDeployment, validate_psp_cases
from repro.core.baselines import (
    GaoRexfordModel,
    NextHopOnlyModel,
    ShortestPathModel,
    evaluate_models,
)
from repro.core.improved import ImprovedModel, corrected_topology
from repro.core.prediction import PathPredictor, evaluate_predictions
from repro.core.explainers import AttributionReport, Explanation, ViolationExplainer
from repro.core.case_studies import CaseStudy, build_case_studies
from repro.core.pipeline import Study, StudyConfig, StudyResults

__all__ = [
    "CacheStats",
    "GaoRexfordEngine",
    "RoutingCache",
    "Decision",
    "DecisionLabel",
    "LabelCounts",
    "classify_decision",
    "classify_decisions",
    "classify_decisions_serial",
    "label_decisions",
    "label_decisions_serial",
    "PrefixPolicyAnalysis",
    "PSPCase",
    "ViolationSkew",
    "compute_skew",
    "GeographyAnalysis",
    "PreferenceOrderSummary",
    "classify_preference_orders",
    "infer_magnet_decisions",
    "LookingGlassDeployment",
    "validate_psp_cases",
    "GaoRexfordModel",
    "NextHopOnlyModel",
    "ShortestPathModel",
    "evaluate_models",
    "ImprovedModel",
    "corrected_topology",
    "PathPredictor",
    "evaluate_predictions",
    "AttributionReport",
    "Explanation",
    "ViolationExplainer",
    "CaseStudy",
    "build_case_studies",
    "Study",
    "StudyConfig",
    "StudyResults",
]
