"""repro.risk — statistical disclosure risk measures (Section 4.2).

All measures register themselves in :data:`RISK_REGISTRY`, the runtime
plug-in switch behind the polymorphic ``#risk`` atom of Algorithm 2.
"""

from .base import (
    RISK_REGISTRY,
    GroupRiskMeasure,
    RiskMeasure,
    RiskReport,
    RiskVerdict,
    measure_by_name,
    register_measure,
)
from .cluster import combined_cluster_risk, propagate_over_clusters
from .differential import DifferentialRisk, minimum_safe_frequency
from .file_level import FileRisk, file_risk, release_gate
from .individual import IndividualRisk, posterior_mean_inverse_frequency
from .k_anonymity import KAnonymityRisk
from .l_diversity import LDiversityRisk, sensitive_diversity
from .reidentification import ReidentificationRisk
from .suda import SudaRisk, find_minimal_sample_uniques, suda_dis_scores
from .t_closeness import TClosenessRisk, group_closeness

__all__ = [
    "RISK_REGISTRY",
    "DifferentialRisk",
    "FileRisk",
    "GroupRiskMeasure",
    "file_risk",
    "release_gate",
    "IndividualRisk",
    "minimum_safe_frequency",
    "KAnonymityRisk",
    "LDiversityRisk",
    "sensitive_diversity",
    "ReidentificationRisk",
    "RiskMeasure",
    "RiskReport",
    "RiskVerdict",
    "SudaRisk",
    "TClosenessRisk",
    "group_closeness",
    "combined_cluster_risk",
    "find_minimal_sample_uniques",
    "measure_by_name",
    "posterior_mean_inverse_frequency",
    "propagate_over_clusters",
    "register_measure",
    "suda_dis_scores",
]
