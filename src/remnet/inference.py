"""Ordinal-timing REM likelihood, MAP fitting, and Laplace posterior.

Each observed event is a multinomial draw over the risk set (all ordered
actor pairs) with probabilities proportional to exp(theta' u), statistics
evaluated on the history strictly before the event. Priors are independent
Student-t densities per coefficient (location 0, scale 10, df 4 by
default). The posterior covariance is the inverse negative Hessian of the
log-posterior at the mode.

One kernel, ``_evaluate``, gives the log-likelihood, gradient and Hessian
in one pass over the spec's design columns; ``fit_map`` takes those columns
once per fit and runs the kernel once per theta.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import optimize
from scipy.stats import norm, t as student_t

from remnet.data import ActorTable, EventSequence
from remnet.stats import (
    ALL_TERMS,
    HistoryState,
    Term,
    canonical_terms,
    design_matrix,
    dyad_index,
    term_from_name,
)


class InadmissibleModelError(Exception):
    """Raised when AICc is undefined (too many terms for the sample size)."""


class NumericalError(Exception):
    """Raised for non-finite statistics or unusable Hessians."""


@dataclass(frozen=True)
class ModelSpec:
    """An ordered set of terms; the order fixes coefficient indexing."""

    terms: tuple[Term, ...]
    network_id: str = ""

    def __post_init__(self):
        if len(set(self.terms)) != len(self.terms):
            raise ValueError("duplicate terms in model spec")
        object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def k(self) -> int:
        return len(self.terms)

    def term_names(self) -> list[str]:
        return [t.value for t in self.terms]


@dataclass(frozen=True)
class PriorSpec:
    """Independent t-prior applied to every coefficient."""

    location: float = 0.0
    scale: float = 10.0
    df: float = 4.0

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("prior scale must be positive")
        if self.df <= 0:
            raise ValueError("prior df must be positive")

    def log_density(self, theta: np.ndarray) -> float:
        return float(
            np.sum(student_t.logpdf(theta, self.df, self.location, self.scale))
        )

    def grad(self, theta: np.ndarray) -> np.ndarray:
        z = (theta - self.location) / self.scale
        return -(self.df + 1.0) * z / ((self.df + z * z) * self.scale)

    def hess_diag(self, theta: np.ndarray) -> np.ndarray:
        z = (theta - self.location) / self.scale
        return (
            -(self.df + 1.0)
            * (self.df - z * z)
            / (self.scale**2 * (self.df + z * z) ** 2)
        )


@dataclass
class FitResult:
    spec: ModelSpec
    mode: np.ndarray
    covariance: np.ndarray
    log_lik_at_mode: float
    aicc: float
    converged: bool
    n_events: int
    n_iter: int = 0

    @property
    def sd(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))

    def to_json_dict(self) -> dict:
        return {
            "network_id": self.spec.network_id,
            "terms": self.spec.term_names(),
            "mode": [float(x) for x in self.mode],
            "sd": [float(x) for x in self.sd],
            "covariance": [[float(x) for x in row] for row in self.covariance],
            "logLik": self.log_lik_at_mode,
            "AICc": self.aicc,
            "converged": self.converged,
            "n_events": self.n_events,
            "n_iter": self.n_iter,
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FitResult":
        spec = ModelSpec(
            terms=tuple(term_from_name(t) for t in obj["terms"]),
            network_id=obj.get("network_id", ""),
        )
        k = spec.k
        return cls(
            spec=spec,
            mode=np.asarray(obj["mode"], dtype=np.float64).reshape(k),
            covariance=np.asarray(obj["covariance"], dtype=np.float64).reshape(k, k),
            log_lik_at_mode=obj["logLik"],
            aicc=obj["AICc"],
            converged=obj["converged"],
            n_events=obj["n_events"],
            n_iter=obj.get("n_iter", 0),
        )

    @classmethod
    def load(cls, path) -> "FitResult":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


class EventDesign:
    """Precomputed per-event statistic tensors for one network.

    Holds the full 14-term tensor of shape (m, n*(n-1), 14); any spec's
    design is a column slice, so selection reuses a single pass over the
    history. Memory is m * n*(n-1) * 14 doubles; fine for the network
    sizes handled here.
    """

    def __init__(self, actors: ActorTable, seq: EventSequence):
        if actors.network_id != seq.network_id:
            raise ValueError("actor table and event sequence network_id differ")
        self.actors = actors
        self.seq = seq
        self.n = actors.n
        self.m = seq.m
        self.n_dyads = self.n * (self.n - 1)
        icr = actors.icr_array()
        pairs = seq.index_pairs(actors)
        X = np.empty((self.m, self.n_dyads, len(ALL_TERMS)))
        obs = np.empty(self.m, dtype=np.intp)
        state = HistoryState(self.n)
        for t2 in range(self.m):
            X[t2] = design_matrix(state, icr, ALL_TERMS)
            a, b = int(pairs[t2, 0]), int(pairs[t2, 1])
            obs[t2] = dyad_index(a, b, self.n)
            state.update(a, b)
        self.full_tensor = X
        self.obs_idx = obs
        self._col = {term: k for k, term in enumerate(ALL_TERMS)}

    def columns(self, terms: Sequence[Term]) -> np.ndarray:
        """The statistics of ``terms`` as one (m * n_dyads, k) array.

        Column-major: each term's column is contiguous, so scoring and the
        k x k products of the kernel stream through memory.
        """
        cols = [self._col[t] for t in terms]
        planes = np.moveaxis(self.full_tensor, 2, 0)[cols]
        return planes.reshape(len(cols), self.m * self.n_dyads).T

    def scores(self, theta: np.ndarray, terms: Sequence[Term]) -> np.ndarray:
        """Linear predictors, shape (m, n_dyads)."""
        theta = _as_theta(theta, len(terms))
        return (self.columns(terms) @ theta).reshape(self.m, self.n_dyads)


def _as_theta(theta, k: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (k,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({k},)")
    return theta


def _slice(spec, seq, actors, design) -> tuple[EventDesign, np.ndarray]:
    """The design (from ``seq`` and ``actors`` if None) and its ``spec`` columns."""
    if design is None:
        if seq is None or actors is None:
            raise ValueError("either a design or (seq, actors) must be given")
        design = EventDesign(actors, seq)
    return design, design.columns(spec.terms)


def _evaluate(theta, design, X) -> tuple[float, np.ndarray, np.ndarray]:
    """Log-likelihood, gradient and Hessian of ``theta``, scoring X once.

    X is the spec's (m * n_dyads, k) slice of ``design``. Each event's
    scores are shifted by their maximum, exponentiated and normalised in
    place, so the only arrays as large as X are X itself and p * X.
    """
    m, k = design.m, X.shape[1]
    X3 = X.reshape(m, design.n_dyads, k)
    s = (X @ _as_theta(theta, k)).reshape(m, design.n_dyads)
    if not np.all(np.isfinite(s)):
        raise NumericalError("non-finite linear predictor")
    rows = np.arange(m)
    s -= s.max(axis=1, keepdims=True)
    observed_score = s[rows, design.obs_idx]
    np.exp(s, out=s)
    total = s.sum(axis=1, keepdims=True)
    s /= total
    ll = float(np.sum(observed_score - np.log(total[:, 0])))
    expected = np.einsum("mdk,md->mk", X3, s)
    g = (X3[rows, design.obs_idx] - expected).sum(axis=0)
    H = expected.T @ expected - X.T @ (X * s.reshape(-1, 1))
    return ll, g, H


def log_likelihood(
    theta: np.ndarray,
    spec: ModelSpec,
    seq: EventSequence | None = None,
    actors: ActorTable | None = None,
    design: EventDesign | None = None,
) -> float:
    return _evaluate(theta, *_slice(spec, seq, actors, design))[0]


def gradient(
    theta: np.ndarray,
    spec: ModelSpec,
    seq: EventSequence | None = None,
    actors: ActorTable | None = None,
    design: EventDesign | None = None,
) -> np.ndarray:
    return _evaluate(theta, *_slice(spec, seq, actors, design))[1]


def hessian(
    theta: np.ndarray,
    spec: ModelSpec,
    seq: EventSequence | None = None,
    actors: ActorTable | None = None,
    design: EventDesign | None = None,
) -> np.ndarray:
    return _evaluate(theta, *_slice(spec, seq, actors, design))[2]


def null_log_likelihood(n: int, m: int) -> float:
    """Closed form for the empty model: -m * log(n*(n-1))."""
    return -m * math.log(n * (n - 1))


def aicc_defined(k: int, m: int) -> bool:
    """Whether AICc exists for k terms and m events: it needs m > k + 1."""
    return m > k + 1


def aicc(log_lik_at_mode: float, k: int, m: int) -> float:
    """Sample-size-corrected AIC; inadmissible unless ``aicc_defined(k, m)``."""
    if not aicc_defined(k, m):
        raise InadmissibleModelError(
            f"AICc undefined for k={k} terms with m={m} events"
        )
    return -2.0 * log_lik_at_mode + 2.0 * k + 2.0 * k * (k + 1) / (m - k - 1)


def fit_map(
    spec: ModelSpec,
    seq: EventSequence | None = None,
    actors: ActorTable | None = None,
    prior: PriorSpec = PriorSpec(),
    tol: float = 1e-6,
    max_iter: int = 500,
    design: EventDesign | None = None,
    theta0: np.ndarray | None = None,
) -> FitResult:
    """Posterior-mode fit with Laplace covariance.

    Starts at theta = 0 (the null model) unless ``theta0`` is given.
    ``converged`` reflects the gradient max-norm criterion at the returned
    point; a non-converged result is still returned.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    design, X = _slice(spec, seq, actors, design)
    m = design.m
    k = spec.k

    if k == 0:
        ll = null_log_likelihood(design.n, m)
        return FitResult(
            spec=spec,
            mode=np.zeros(0),
            covariance=np.zeros((0, 0)),
            log_lik_at_mode=ll,
            aicc=aicc(ll, 0, m),
            converged=True,
            n_events=m,
        )

    # the solver asks for f, g and H at the same theta in separate calls;
    # remembering the last theta makes each theta cost one kernel pass
    last_theta, last = None, None

    def evaluate(theta):
        """(log-likelihood, -log posterior, its gradient, its Hessian)."""
        nonlocal last_theta, last
        if last_theta is None or not np.array_equal(theta, last_theta):
            ll, g, H = _evaluate(theta, design, X)
            last_theta = np.array(theta, dtype=np.float64)
            last = (
                ll,
                -(ll + prior.log_density(theta)),
                -(g + prior.grad(theta)),
                -(H + np.diag(prior.hess_diag(theta))),
            )
        return last

    x0 = np.zeros(k) if theta0 is None else np.asarray(theta0, dtype=np.float64)
    res = optimize.minimize(
        lambda theta: evaluate(theta)[1],
        x0,
        jac=lambda theta: evaluate(theta)[2],
        hess=lambda theta: evaluate(theta)[3],
        method="trust-exact",
        options={"gtol": tol * 1e-2, "maxiter": max_iter},
    )
    mode = res.x
    grad_norm = float(np.max(np.abs(evaluate(mode)[2])))
    # Newton polish: the trust-region solver can stall once objective
    # differences fall below float resolution, even though the analytic
    # gradient and Hessian still support further progress
    for _ in range(10):
        if grad_norm <= tol:
            break
        _, _, g, H = evaluate(mode)
        try:
            cand = mode - np.linalg.solve(H, g)
            cand_norm = float(np.max(np.abs(evaluate(cand)[2])))
        except (np.linalg.LinAlgError, NumericalError):
            break
        if not np.isfinite(cand_norm) or cand_norm >= grad_norm:
            break
        mode, grad_norm = cand, cand_norm
    converged = bool(np.isfinite(grad_norm) and grad_norm <= tol)

    ll, _, _, H = evaluate(mode)
    try:
        cov = np.linalg.inv(H)
    except np.linalg.LinAlgError:
        warnings.warn(
            "singular Hessian at the mode; falling back to pseudo-inverse",
            RuntimeWarning,
        )
        cov = np.linalg.pinv(H)
    if not np.all(np.isfinite(cov)):
        warnings.warn(
            "non-finite covariance from Hessian inverse; using pseudo-inverse",
            RuntimeWarning,
        )
        cov = np.linalg.pinv(H)
    cov = (cov + cov.T) / 2.0

    # an inadmissible fit is still usable (prior-dominated cases)
    crit = aicc(ll, k, m) if aicc_defined(k, m) else math.nan
    return FitResult(
        spec=spec,
        mode=mode,
        covariance=cov,
        log_lik_at_mode=ll,
        aicc=crit,
        converged=converged,
        n_events=m,
        n_iter=int(res.nit),
    )


_STAR_LEVELS = (0.999, 0.99, 0.95)


def posterior_interval(
    fit: FitResult, level: float
) -> list[tuple[float, float]]:
    """Central Gaussian posterior intervals from the Laplace covariance."""
    if not 0 < level < 1:
        raise ValueError("level must be in (0, 1)")
    z = norm.ppf(0.5 + level / 2.0)
    sd = fit.sd
    return [
        (float(mu - z * s), float(mu + z * s)) for mu, s in zip(fit.mode, sd)
    ]


def star_codes(fit: FitResult) -> list[str]:
    """'*', '**', '***' when the 95/99/99.9% interval excludes 0.

    An interval endpoint exactly at 0 counts as not excluding.
    """
    codes = []
    for idx in range(fit.spec.k):
        code = ""
        for stars, level in zip(("***", "**", "*"), _STAR_LEVELS):
            lo, hi = posterior_interval(fit, level)[idx]
            if lo > 0.0 or hi < 0.0:
                code = stars
                break
        codes.append(code)
    return codes
