"""Bayesian mixed-effects hidden Markov and first-order Markov models for
ordinal longitudinal panel data: full MCMC inference, decoding,
convergence diagnostics, and posterior-predictive analytics."""

from .dataset import (
    DesignMatrix,
    ObservationPanel,
    RawCovariates,
    build_design,
    encode_drinks,
    load_covariates,
    load_observations,
    prior_drinking_index,
    standardize,
)
from .errors import InputError, NumericalError, PanelHmmError
from .model import (
    Params,
    SimulatedPanel,
    simulate,
)
from .inference import (
    draw_complete_data,
    log_likelihood,
    pointwise_predictive,
    smoothed_marginals,
    viterbi,
)
from .mcmc import (
    ChainSet,
    PriorSpec,
    SamplerConfig,
    em_initialize,
    init_chain,
    run_chain,
    run_chains,
)
from .diagnostics import (
    DicReport,
    deviance,
    dic,
    effective_sample_size,
    potential_scale_reduction,
)
from .analytics import (
    average_stationary_difference,
    average_transition_difference,
    ppc_check,
    ppc_quantile,
    ppc_statistics,
    serial_dependence_table,
    stationary_distribution,
)

__version__ = "0.1.0"
