"""Simulation and verification toolkit for heavy-tailed Poisson cluster processes.

The package simulates renewal Poisson cluster and Hawkes processes with
regularly varying marks, and verifies the tail asymptotics of their cluster
functionals (max and sum of marks) and the associated precise large-deviation
ratios against exact oracles and transform diagnostics.
"""

from .clusters import (
    Cluster,
    FunctionalSample,
    HawkesParams,
    OffspringEvent,
    RenewalParams,
    batch_functionals,
    functional_max,
    functional_sum,
    sample_hawkes_cluster,
    sample_renewal_cluster,
)
from .errors import (
    BracketTooWide,
    ClusterOverflow,
    ClusterTailsError,
    ConfigError,
    DegenerateTail,
    InfiniteMean,
    InsufficientExceedances,
    LatticeMismatch,
    ModelError,
    SupercriticalModel,
    UnstableEstimate,
)
from .estimate import (
    HillEstimate,
    QuantileGrid,
    RatioCurve,
    TailSample,
    empirical_survival,
    hill_estimator,
    laplace_derivative_mc,
    ratio_curve,
    tauberian_slope,
)
from .heavytail import (
    BoundedUniform,
    Constant,
    Exponential,
    JointMarkModel,
    MarkPair,
    ModelConstants,
    OracleSpec,
    ParetoLaw,
    Regime,
    TailTarget,
    model_constants,
    pareto_survival,
    sample_joint,
    sample_pareto,
    theoretical_denominator,
)
from .ldp import (
    LeftoverRow,
    SweepConfig,
    SweepRow,
    ldp_max_sweep,
    ldp_sum_sweep,
    leftover_scaling,
)
from .oracle import (
    DiscreteJointModel,
    exact_renewal_max_tail,
    exact_renewal_sum_tail,
    truncated_hawkes_sum_tail,
)
from .process import (
    MeanSumEstimate,
    WindowBatch,
    WindowConfig,
    WindowStats,
    batch_windows,
    estimate_mean_sum,
    simulate_window,
    sweep_windows,
)
from .rng import RngStream

__version__ = "0.1.0"
