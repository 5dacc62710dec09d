"""Observation-driven time series in exogenous random environments.

Simulation, maximal coupling, backward-iteration convergence and
assumption certification for latent-state models whose observation kernel
and semi-contractive recursion are modulated by a stationary ergodic
covariate process.
"""

from .covariates import (
    AR1,
    AffineAbsMap,
    Constant,
    ConstantMap,
    CovariatePath,
    ExpAffineMap,
    FiniteStateMarkov,
    Gaussian,
    IID,
    MomentEstimate,
    PointMass,
    TableMap,
    Uniform,
    generate_path,
    log_moment_estimate,
    stationary_draws,
)
from .engine import (
    CouplingTrace,
    EmpiricalMeasure,
    ModelSpec,
    StationaryResult,
    Trajectory,
    W1Result,
    WStats,
    backward_measure,
    calibrate_regeneration,
    couple_forward,
    model_from_dict,
    push_measure,
    regeneration_times,
    simulate,
    stationary_sampler,
    w_stats,
    wasserstein1,
)
from .kernels import (
    BernoulliLogit,
    BernoulliProbit,
    GarchGaussian,
    GaussianNoise,
    LaplaceNoise,
    Location,
    Multinomial,
    NegBinomial,
    ObservationKernel,
    PhiSpec,
    Poisson,
    StudentTNoise,
)
from .links import (
    ArmaLikeLink,
    CategoryTable,
    CovariateScaled,
    FixedInterval,
    GrowthEnvelope,
    LinearLink,
    RegimeCoefficients,
    ThresholdLink,
    apply,
    contraction_map,
    growth_envelope,
)
from .rngstream import split_seed
from .verify import (
    VerificationReport,
    VerifyConfig,
    check_a1,
    check_a2,
    check_a3,
    drift_certificate,
    full_report,
)

__version__ = "0.1.0"
