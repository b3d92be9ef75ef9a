"""Simulation and verification toolkit for heavy-tailed Poisson cluster processes.

The package simulates renewal Poisson cluster and Hawkes processes with
regularly varying marks, and verifies the tail asymptotics of their cluster
functionals (max and sum of marks) and the associated precise large-deviation
ratios against exact oracles and transform diagnostics.
"""

from .clusters import (
    FunctionalSample,
    HawkesParams,
    RenewalParams,
    batch_functionals,
    functional_chunks,
)
from .errors import (
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
    CountTally,
    HillEstimate,
    QuantileGrid,
    RatioCurve,
    TailFold,
    TailSample,
    hill_estimator,
    laplace_derivative_table,
    ratio_curve,
    table_slope,
    wilson_interval,
)
from .heavytail import (
    BoundedUniform,
    Constant,
    Exponential,
    JointMarkModel,
    MarkPair,
    ModelConstants,
    ParetoLaw,
    Regime,
    model_constants,
    sample_joint,
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
    hawkes_sum_tail,
)
from .process import WindowConfig, sweep_windows
from .rng import RngStream

__version__ = "0.1.0"
