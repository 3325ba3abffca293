"""Posterior-predictive trajectory simulation and knock-out experiments.

A trajectory draws one coefficient vector from the Laplace posterior,
zeroes the knocked-out terms, then samples events sequentially: each step
is a categorical draw over the risk set with probabilities proportional
to exp(theta' u), computed max-shifted; a theta whose largest score
overflows is a ``NumericalError``, not a draw from inf or NaN. The
sampler builds no design: it draws from the log-scores of a
``stats.RiskSetScorer``, the scorer adequacy ranks, which keeps the
(n, n) score of the store's array terms (plus ICR) current, recomputing
only the rows and columns an event changes; NTDegRec and the p-shifts are
added per step. A step costs O(n^2) for the exp and O(n * s) for the
store, s the number of array terms, with one uniform drawn per step.
Each draw is kept as a pair of actor-table indices (``Trajectory.events``);
nothing here maps an index to an actor id.

Seeds derive deterministically from a master seed via numpy SeedSequence;
the theta draw is keyed by replicate index only, so knock-out conditions
within a replicate share coefficients before zeroing (paired contrasts).
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from remnet.data import ActorTable
from remnet.inference import FitResult, ModelSpec, NumericalError
from remnet.stats import PSHIFT_TERMS, RiskSetScorer, Term

_CONDITION_ZEROES = {
    "full": frozenset(),
    "pa_removed": frozenset({Term.NTDEGREC}),
    "ps_removed": frozenset(PSHIFT_TERMS),
    "icr_removed": frozenset({Term.ICR}),
    "all_removed": frozenset({Term.NTDEGREC, Term.ICR, *PSHIFT_TERMS}),
}


@dataclass(frozen=True)
class KnockoutCondition:
    name: str
    zeroed_terms: frozenset

    @classmethod
    def named(cls, name: str) -> "KnockoutCondition":
        try:
            return cls(name=name, zeroed_terms=_CONDITION_ZEROES[name])
        except KeyError:
            raise ValueError(
                f"unknown condition {name!r}; expected one of "
                f"{sorted(_CONDITION_ZEROES)}"
            ) from None


DEFAULT_CONDITIONS: tuple[KnockoutCondition, ...] = tuple(
    KnockoutCondition.named(name) for name in _CONDITION_ZEROES
)


@dataclass(eq=False)
class Trajectory:
    """One sampled event sequence. ``events`` is an (m, 2) intp array of
    (sender, receiver) indices into the actor table; ids appear only in
    ``trajectories_<id>.csv`` and where a script builds an ``EventSequence``."""

    network_id: str
    condition: str
    replicate: int
    seed: int
    events: np.ndarray

    @property
    def m(self) -> int:
        return len(self.events)

    def volumes(self, actors: ActorTable) -> np.ndarray:
        """Total communication volume (in + out events) per actor."""
        return np.bincount(self.events.ravel(), minlength=actors.n)


def sample_parameters(fit: FitResult, seed) -> np.ndarray:
    """One multivariate-Gaussian draw from the Laplace posterior.

    ``seed`` may be an int, a SeedSequence, or a Generator. Negative
    covariance eigenvalues are clipped at 0 with a warning; a zero
    covariance returns the mode exactly.
    """
    rng = np.random.default_rng(seed)
    cov = np.asarray(fit.covariance, dtype=np.float64)
    eigval, eigvec = np.linalg.eigh(cov)
    if np.any(eigval < 0):
        if np.any(eigval < -1e-8 * max(1.0, float(eigval.max()))):
            warnings.warn(
                "covariance not positive semi-definite; clipping negative "
                "eigenvalues at 0",
                RuntimeWarning,
            )
        eigval = np.clip(eigval, 0.0, None)
    z = rng.standard_normal(fit.spec.k)
    return fit.mode + eigvec @ (np.sqrt(eigval) * z)


def _zeroed(theta: np.ndarray, spec: ModelSpec, condition: KnockoutCondition):
    out = np.array(theta, dtype=np.float64)
    for idx, term in enumerate(spec.terms):
        if term in condition.zeroed_terms:
            out[idx] = 0.0
    return out


def simulate_trajectory(
    theta: np.ndarray,
    spec: ModelSpec,
    actors: ActorTable,
    m: int,
    condition: KnockoutCondition,
    seed,
    replicate: int = 0,
) -> Trajectory:
    """Sample m events from the model with the condition's terms zeroed.

    Each step takes the log-scores of a ``RiskSetScorer`` (its diagonal
    is -inf), shifts them by their maximum, exponentiates them in place
    and draws with one uniform (``_draw``); the scorer then records the
    event. Raises NumericalError when a step's largest score is not finite.
    """
    if m < 1:
        raise ValueError("trajectory length must be >= 1")
    theta_eff = _zeroed(theta, spec, condition)
    if not np.all(np.isfinite(theta_eff)):
        raise ValueError("non-finite coefficients")
    rng = np.random.default_rng(seed)
    events = np.empty((m, 2), dtype=np.intp)
    ones = np.ones(actors.n)  # _draw's row sums are w @ ones
    with np.errstate(over="ignore", invalid="ignore"):  # the largest score is checked
        scorer = RiskSetScorer(spec.terms, theta_eff, actors.icr_array())
        for t in range(m):
            w = scorer.scores()
            top = w.max()
            if not math.isfinite(top):
                raise NumericalError(f"non-finite largest score {top} in a trajectory")
            w -= top
            np.exp(w, out=w)
            i, j = _draw(w, rng.random(), ones)
            events[t] = i, j
            scorer.update(i, j)
    seed_int = int(seed) if isinstance(seed, numbers.Integral) else -1
    return Trajectory(
        network_id=actors.network_id,
        condition=condition.name,
        replicate=replicate,
        seed=seed_int,
        events=events,
    )


def _draw(w: np.ndarray, u: float, ones: np.ndarray) -> tuple[int, int]:
    """Dyad (i, j) of the inverse-CDF draw of ``u`` under the weights ``w``,
    an (n, n) array with a zero diagonal, read in row-major (canonical dyad)
    order: the row from the cumulative row sums ``w @ ones`` (``ones`` the
    caller's (n,) vector of ones), then the column from that row's
    cumulative sum. A ``u * total`` that rounds past the last boundary of
    the row sums, or of the row's, takes the row's last dyad."""
    n = w.shape[0]
    row_cdf = (w @ ones).cumsum()
    x = u * row_cdf[-1]
    i = min(int(row_cdf.searchsorted(x, side="right")), n - 1)
    if i:
        x -= row_cdf[i - 1]
    j = int(w[i].cumsum().searchsorted(x, side="right"))
    return i, min(j, n - 2 if i == n - 1 else n - 1)


def _derived_seed(master_seed: int, *key) -> int:
    ss = np.random.SeedSequence([int(master_seed), *map(int, key)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_knockout_experiment(
    fit: FitResult,
    actors: ActorTable,
    m: int,
    replicates: int = 50,
    conditions=DEFAULT_CONDITIONS,
    master_seed: int = 0,
) -> list[Trajectory]:
    """replicates x conditions trajectories with paired theta draws.

    Within a replicate index, every condition reuses the same posterior
    draw; knock-outs differ only in which coordinates are zeroed.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    trajectories = []
    for r in range(replicates):
        theta = sample_parameters(fit, _derived_seed(master_seed, 0, r))
        for ci, condition in enumerate(conditions):
            traj_seed = _derived_seed(master_seed, 1, r, ci)
            trajectories.append(
                simulate_trajectory(
                    theta,
                    fit.spec,
                    actors,
                    m,
                    condition,
                    traj_seed,
                    replicate=r,
                )
            )
    return trajectories
