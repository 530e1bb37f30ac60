"""spillsim: simulation and estimation lab for randomized experiments with
network spillovers."""

__version__ = "0.7.0"

from .design import DesignSpec, assign, constant_design, ramp_design
from .dynamics import (
    DynamicsSpec,
    ExposureMatrix,
    LinearPeer,
    LinearUnit,
    MeanFieldThreshold,
    SaturatingUnit,
    WeightedSumExposure,
    ZeroPeer,
    compute_exposure,
    counterfactual_suite,
    ground_truth_tte,
    simulate_panel,
    step,
)
from .estimators import (
    ESECoefficients,
    Feature,
    FeatureSpec,
    ScenarioPath,
    StructureMetadata,
    dm_estimate,
    fit_ese,
    ht_estimate,
    propagate,
    tte_from_coeffs,
)
from .harness import BenchmarkReport, ScenarioConfig, WeightConfig, failure_sweep, replicate, run_once
from .panel import CovariatePanel, OutcomePanel, TreatmentPanel, column_mean
from .weights import (
    ClusteredWeights,
    DenseGaussianWeights,
    ExplicitDenseWeights,
    GaussianWeightParams,
    InfluencerWeights,
    LazyGaussianWeights,
    gen_clustered,
    gen_dense_gaussian,
    gen_influencer,
)
