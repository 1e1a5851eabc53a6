"""Density ridge estimation with coverage-risk bandwidth selection.

Estimate density ridges from point samples via subspace constrained
mean shift, select the smoothing bandwidth by minimizing an estimated
coverage risk (data splitting or smoothed bootstrap), and compare
manifolds through coverage diagrams.
"""

from .coverage import (
    CoverageDiagram,
    LossPair,
    Manifold,
    coverage_cdf,
    coverage_samples,
    distance_to_set,
    hausdorff,
    loss_pair,
)
from .datasets import KINDS, SyntheticSpec, generate, load_csv
from .kde import (
    KernelModel,
    PointCloud,
    density,
    gradient,
    hessian,
    normal_reference_bandwidth,
    sample_smoothed,
)
from .risk import (
    INFINITE_RISK,
    RiskCurve,
    RiskEstimate,
    risk_bootstrap,
    risk_split,
    select_bandwidth,
)
from .scms import (
    DivergenceError,
    RidgeSet,
    ScmsConfig,
    extract_ridge,
    scms_step,
)

__all__ = [
    "CoverageDiagram",
    "DivergenceError",
    "INFINITE_RISK",
    "KINDS",
    "KernelModel",
    "LossPair",
    "Manifold",
    "PointCloud",
    "RidgeSet",
    "RiskCurve",
    "RiskEstimate",
    "ScmsConfig",
    "SyntheticSpec",
    "coverage_cdf",
    "coverage_samples",
    "density",
    "distance_to_set",
    "extract_ridge",
    "generate",
    "gradient",
    "hausdorff",
    "hessian",
    "load_csv",
    "loss_pair",
    "normal_reference_bandwidth",
    "risk_bootstrap",
    "risk_split",
    "sample_smoothed",
    "scms_step",
    "select_bandwidth",
]
