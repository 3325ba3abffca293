"""Ordinal-timing REM likelihood, MAP fitting, and Laplace posterior.

Each observed event is a multinomial draw over the risk set (all ordered
actor pairs) with probabilities proportional to exp(theta' u), statistics
evaluated on the history strictly before the event. Priors are independent
Student-t densities per coefficient (location 0, scale 10, df 4 by
default). The posterior covariance is the inverse negative Hessian of the
log-posterior at the mode.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import optimize
from scipy.special import logsumexp
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
            mode=np.asarray(obj["mode"], dtype=np.float64),
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

    def tensor(self, terms: Sequence[Term]) -> np.ndarray:
        cols = [self._col[t] for t in terms]
        return self.full_tensor[:, :, cols]

    def scores(self, theta: np.ndarray, terms: Sequence[Term]) -> np.ndarray:
        """Linear predictors, shape (m, n_dyads)."""
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (len(terms),):
            raise ValueError(
                f"theta has shape {theta.shape}, expected ({len(terms)},)"
            )
        if len(terms) == 0:
            return np.zeros((self.m, self.n_dyads))
        return self.tensor(terms) @ theta


def _core_loglik(design: EventDesign, theta, terms) -> float:
    scores = design.scores(theta, terms)
    if not np.all(np.isfinite(scores)):
        raise NumericalError("non-finite linear predictor")
    lse = logsumexp(scores, axis=1)
    obs = scores[np.arange(design.m), design.obs_idx]
    return float(np.sum(obs - lse))


def _core_grad(design: EventDesign, theta, terms) -> np.ndarray:
    if len(terms) == 0:
        return np.zeros(0)
    X = design.tensor(terms)
    scores = design.scores(theta, terms)
    scores = scores - scores.max(axis=1, keepdims=True)
    w = np.exp(scores)
    p = w / w.sum(axis=1, keepdims=True)
    expected = np.einsum("md,mdk->mk", p, X)
    observed = X[np.arange(design.m), design.obs_idx]
    return (observed - expected).sum(axis=0)


def _core_hess(design: EventDesign, theta, terms) -> np.ndarray:
    k = len(terms)
    if k == 0:
        return np.zeros((0, 0))
    X = design.tensor(terms)
    scores = design.scores(theta, terms)
    scores = scores - scores.max(axis=1, keepdims=True)
    w = np.exp(scores)
    p = w / w.sum(axis=1, keepdims=True)
    expected = np.einsum("md,mdk->mk", p, X)
    second = np.einsum("md,mdk,mdl->kl", p, X, X)
    outer = expected.T @ expected
    return -(second - outer)


def _resolve_design(design, spec, seq, actors) -> EventDesign:
    if design is not None:
        return design
    if seq is None or actors is None:
        raise ValueError("either a design or (seq, actors) must be given")
    return EventDesign(actors, seq)


def log_likelihood(
    theta: np.ndarray,
    spec: ModelSpec,
    seq: EventSequence | None = None,
    actors: ActorTable | None = None,
    design: EventDesign | None = None,
) -> float:
    design = _resolve_design(design, spec, seq, actors)
    return _core_loglik(design, theta, spec.terms)


def gradient(
    theta: np.ndarray,
    spec: ModelSpec,
    seq: EventSequence | None = None,
    actors: ActorTable | None = None,
    design: EventDesign | None = None,
) -> np.ndarray:
    design = _resolve_design(design, spec, seq, actors)
    np.asarray(theta, dtype=np.float64).reshape(spec.k)  # dimension check
    return _core_grad(design, np.asarray(theta, dtype=np.float64), spec.terms)


def hessian(
    theta: np.ndarray,
    spec: ModelSpec,
    seq: EventSequence | None = None,
    actors: ActorTable | None = None,
    design: EventDesign | None = None,
) -> np.ndarray:
    design = _resolve_design(design, spec, seq, actors)
    return _core_hess(design, np.asarray(theta, dtype=np.float64), spec.terms)


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
    design = _resolve_design(design, spec, seq, actors)
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

    terms = spec.terms

    def neg_log_post(theta):
        return -(_core_loglik(design, theta, terms) + prior.log_density(theta))

    def neg_grad(theta):
        return -(_core_grad(design, theta, terms) + prior.grad(theta))

    def neg_hess(theta):
        return -(
            _core_hess(design, theta, terms) + np.diag(prior.hess_diag(theta))
        )

    x0 = np.zeros(k) if theta0 is None else np.asarray(theta0, dtype=np.float64)
    res = optimize.minimize(
        neg_log_post,
        x0,
        jac=neg_grad,
        hess=neg_hess,
        method="trust-exact",
        options={"gtol": tol * 1e-2, "maxiter": max_iter},
    )
    mode = res.x
    grad_norm = float(np.max(np.abs(neg_grad(mode))))
    # Newton polish: the trust-region solver can stall once objective
    # differences fall below float resolution, even though the analytic
    # gradient and Hessian still support further progress
    for _ in range(10):
        if grad_norm <= tol:
            break
        try:
            step = np.linalg.solve(neg_hess(mode), neg_grad(mode))
        except np.linalg.LinAlgError:
            break
        cand = mode - step
        cand_norm = float(np.max(np.abs(neg_grad(cand))))
        if not np.isfinite(cand_norm) or cand_norm >= grad_norm:
            break
        mode, grad_norm = cand, cand_norm
    converged = bool(np.isfinite(grad_norm) and grad_norm <= tol)

    H = neg_hess(mode)
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

    ll = _core_loglik(design, mode, terms)
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
