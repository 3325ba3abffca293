"""Relational event model (REM) toolkit for dyadic communication sequences.

Fits ordinal-timing REMs with Bayesian (Laplace) inference, selects term
sets by AICc hill climbing or exhaustive search, simulates posterior
predictive trajectories under mechanism knock-outs, and summarizes hub
concentration with the Theil index.
"""

__version__ = "0.1.0"

from remnet.data import (
    ActorTable,
    DataError,
    EventSequence,
    NetworkMeta,
    load_networks,
    summarize,
)
from remnet.stats import (
    ALL_TERMS,
    HistoryState,
    Term,
    design_matrix,
)
from remnet.inference import (
    EventDesign,
    FitResult,
    InadmissibleModelError,
    ModelSpec,
    PriorSpec,
    aicc,
    fit_map,
    gradient,
    hessian,
    log_likelihood,
    posterior_interval,
)
from remnet.selection import SelectionTrace, exhaustive_select, hill_climb_select
from remnet.simulation import (
    DEFAULT_CONDITIONS,
    KnockoutCondition,
    Trajectory,
    run_knockout_experiment,
    sample_parameters,
    simulate_trajectory,
)
from remnet.analysis import (
    AdequacyReport,
    ConcentrationReport,
    adequacy,
    excess_concentration,
    null_both_rate,
    null_either_rate,
    percent_change,
    theil_index,
    welch_t_test,
)
