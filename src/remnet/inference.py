"""Ordinal-timing REM likelihood, MAP fitting, and Laplace posterior.

Each observed event is a multinomial draw over the risk set (all ordered
actor pairs) with probabilities proportional to exp(theta' u), statistics
evaluated on the history strictly before the event. Priors are independent
Student-t densities per coefficient (location 0, scale 10, df 4 by
default). The posterior covariance is the inverse negative Hessian of the
log-posterior at the mode.

Every model-layer function reads its data from an ``EventDesign``, the
per-event statistics of one network, through ``EventDesign.blocks``: the
statistics of a spec's terms a block of whole events at a time. One kernel,
``_evaluate``, gives the log-likelihood, gradient and Hessian in one pass
over those blocks; ``fit_map`` collects them once per fit and runs the
kernel once per theta.

SciPy is used for one call, ``scipy.special.ndtri`` in
``posterior_interval``; the submodule loads on first use, so importing
this module loads NumPy only.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
import scipy

from remnet.data import ActorTable, EventSequence
from remnet.stats import (
    ALL_TERMS,
    HistoryState,
    Term,
    _fill_design,
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
        """Sum of the t log-densities of the coefficients, in closed form."""
        nu = self.df
        z = (np.asarray(theta, dtype=np.float64) - self.location) / self.scale
        const = (
            math.lgamma((nu + 1.0) / 2.0)
            - math.lgamma(nu / 2.0)
            - 0.5 * math.log(nu * math.pi)
            - math.log(self.scale)
        )
        return float(np.sum(const - (nu + 1.0) / 2.0 * np.log1p(z * z / nu)))

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
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


class EventDesign:
    """Per-event statistics of one network, for the terms a model uses.

    ``full_tensor`` holds the statistics of ``terms`` (all 14 by default)
    as one C-contiguous (k, m * n*(n-1)) array: row r is the r-th term over
    every event's risk set, events in order, dyads in canonical order. Each
    event is written once. ``blocks`` is the only reader of that layout;
    the likelihood kernel and adequacy see only its blocks.
    Memory is k * m * n*(n-1) * 8 bytes, so callers build a design for the
    terms they fit: a spec's, or a selection's candidates.
    """

    def __init__(
        self,
        actors: ActorTable,
        seq: EventSequence,
        terms: Sequence[Term] = ALL_TERMS,
    ):
        if actors.network_id != seq.network_id:
            raise ValueError("actor table and event sequence network_id differ")
        self.terms = tuple(terms)
        self._row = {term: r for r, term in enumerate(self.terms)}
        self.actors = actors
        self.seq = seq
        self.n = actors.n
        self.m = seq.m
        self.n_dyads = D = self.n * (self.n - 1)
        icr = actors.icr_array()
        pairs = seq.index_pairs(actors)
        X = np.empty((len(self.terms), self.m, self.n - 1, self.n))
        obs = np.empty(self.m, dtype=np.intp)
        state = HistoryState(self.n)
        for t2 in range(self.m):
            _fill_design(state, icr, self.terms, X[:, t2])
            a, b = int(pairs[t2, 0]), int(pairs[t2, 1])
            obs[t2] = dyad_index(a, b, self.n)
            state.update(a, b)
        self.full_tensor = X.reshape(len(self.terms), self.m * D)
        self.obs_idx = obs

    def blocks(self, terms: Sequence[Term]) -> Iterator[tuple[np.ndarray, ...]]:
        """Per block of b whole events, the (k, b, n_dyads) statistics of
        ``terms`` and the b observed dyad indices; b is ``_BLOCK_ROWS //
        n_dyads`` (at least 1), less in the last block. The only reader of
        ``full_tensor``: a block is a view of it for the design's own terms
        in order, else a C-contiguous copy. Raises ValueError naming any
        term the design was built without.
        """
        terms = tuple(terms)
        missing = [t.value for t in terms if t not in self._row]
        if missing:
            raise ValueError(
                f"design has no statistics for {', '.join(missing)}; it was "
                f"built for [{', '.join(t.value for t in self.terms)}]"
            )
        index = slice(None) if terms == self.terms else [self._row[t] for t in terms]
        D, per_block = self.n_dyads, max(1, _BLOCK_ROWS // self.n_dyads)
        for start in range(0, self.m, per_block):
            stop = min(start + per_block, self.m)
            X = self.full_tensor[index, start * D : stop * D]
            yield X.reshape(len(terms), stop - start, D), self.obs_idx[start:stop]


def _as_theta(theta, k: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (k,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({k},)")
    return theta


def _term_scores(theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """theta' X of a (k, b, n_dyads) block, shape (b, n_dyads), summed term
    by term: a dyad's score does not depend on its block, and dyads with
    equal statistics tie exactly."""
    s = np.zeros(X.shape[1:])
    for coef, stats in zip(theta, X):
        s += coef * stats
    return s


# dyad rows per block: a block's scores and p * X stay cache-sized
_BLOCK_ROWS = 1 << 16


def _evaluate(theta, blocks) -> tuple[float, np.ndarray, np.ndarray]:
    """Log-likelihood, gradient and Hessian of ``theta`` in one pass over
    ``blocks``, the (statistics, observed dyads) pairs of ``EventDesign.blocks``.

    In each block the scores are shifted by each event's maximum,
    exponentiated and normalised in place, and the block adds its terms to
    ll, g and H = E'E - X'(p * X), where E holds each event's expected
    statistics; no temporary is larger than one block.
    """
    k = len(theta)
    ll, g, H = 0.0, np.zeros(k), np.zeros((k, k))
    for Xb, obs in blocks:
        _, b, D = Xb.shape
        Xb = Xb.reshape(k, b * D)
        s = (theta @ Xb).reshape(b, D)
        if not np.all(np.isfinite(s)):
            raise NumericalError("non-finite linear predictor")
        observed = np.arange(b) * D + obs
        s -= s.max(axis=1, keepdims=True)
        observed_score = s.reshape(-1)[observed]
        np.exp(s, out=s)
        total = s.sum(axis=1, keepdims=True)
        s /= total
        ll += float(np.sum(observed_score - np.log(total[:, 0])))
        pX = Xb * s.reshape(-1)
        expected = pX.reshape(k, b, D).sum(axis=2)
        g += Xb[:, observed].sum(axis=1) - expected.sum(axis=1)
        H += expected @ expected.T - pX @ Xb.T
    return ll, g, H


def log_likelihood(theta: np.ndarray, spec: ModelSpec, design: EventDesign) -> float:
    return _evaluate(_as_theta(theta, spec.k), design.blocks(spec.terms))[0]


def gradient(theta: np.ndarray, spec: ModelSpec, design: EventDesign) -> np.ndarray:
    return _evaluate(_as_theta(theta, spec.k), design.blocks(spec.terms))[1]


def hessian(theta: np.ndarray, spec: ModelSpec, design: EventDesign) -> np.ndarray:
    return _evaluate(_as_theta(theta, spec.k), design.blocks(spec.terms))[2]


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


_EPS = float(np.finfo(np.float64).eps)


def _damped_newton_step(g: np.ndarray, H: np.ndarray) -> np.ndarray:
    """-(H + lam I)^-1 g for the first of lam = 0, 1e-8 s, 2e-8 s, 4e-8 s, ...
    (s the largest |H_ij|, at least 1) that makes H + lam I positive definite."""
    scale, lam = max(float(np.max(np.abs(H))), 1.0), 0.0
    while lam <= 4 * len(g) * scale:
        try:
            L = np.linalg.cholesky(H + lam * np.eye(len(g)))
            return -np.linalg.solve(L.T, np.linalg.solve(L, g))
        except np.linalg.LinAlgError:
            lam = max(2.0 * lam, 1e-8 * scale)
    raise NumericalError("no damping makes the Hessian positive definite")


def fit_map(
    spec: ModelSpec,
    design: EventDesign,
    prior: PriorSpec = PriorSpec(),
    tol: float = 1e-6,
    max_iter: int = 500,
    theta0: np.ndarray | None = None,
) -> FitResult:
    """Posterior-mode fit of ``spec`` to ``design``, with Laplace covariance,
    by damped Newton steps.

    f is the negative log posterior; the fit starts at theta = 0 (the null
    model) unless ``theta0`` is given. Each iteration solves
    (H + lam I) p = -g with the least damping lam >= 0 that makes the matrix
    positive definite (the t prior makes f non-convex far from 0), caps p
    at a trust radius in max-norm and evaluates theta + p once. The radius
    starts at 1, doubles when a capped step earns over 3/4 of its predicted
    reduction, and shrinks to a quarter of the step when it earns under
    1/4, raises f or gives non-finite scores. Where f cannot rank the two
    points, the step is kept if it shrinks the gradient max-norm. The fit
    stops when that norm is at most ``tol`` (``converged``), after
    ``max_iter`` iterations or when the radius cannot move theta; a
    non-converged result is still returned. ``n_iter`` counts iterations,
    so a fit makes ``n_iter + 1`` passes over the design. The empty model
    is no special case: its gradient max-norm is 0, so it converges with
    no iteration, in one pass.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    blocks = list(design.blocks(spec.terms))
    m = design.m
    k = spec.k

    def objective(theta):
        """(-log posterior, its gradient, its Hessian, log-likelihood)."""
        ll, g, H = _evaluate(theta, blocks)
        return (
            -(ll + prior.log_density(theta)),
            -(g + prior.grad(theta)),
            -(H + np.diag(prior.hess_diag(theta))),
            ll,
        )

    theta = np.zeros(k) if theta0 is None else _as_theta(theta0, k).copy()
    f, g, H, ll = objective(theta)
    radius, n_iter = 1.0, 0
    while np.max(np.abs(g), initial=0.0) > tol and n_iter < max_iter:
        if radius <= _EPS * (1.0 + np.max(np.abs(theta))):
            break
        n_iter += 1
        p = _damped_newton_step(g, H)
        step = min(float(np.max(np.abs(p))), radius)
        p *= step / np.max(np.abs(p))
        predicted = -(g @ p + 0.5 * p @ H @ p)
        try:
            cand = objective(theta + p)
        except NumericalError:
            radius = step / 4.0
            continue
        if predicted > 64.0 * _EPS * abs(f):
            ratio = (f - cand[0]) / predicted
        else:  # f cannot rank the two points: keep the radius, judge by |g|
            ratio = 0.5 if np.max(np.abs(cand[1])) < np.max(np.abs(g)) else 0.0
        if ratio < 0.25:
            radius = step / 4.0
        elif ratio > 0.75 and step >= radius:
            radius *= 2.0
        if ratio > 0.0:
            theta, (f, g, H, ll) = theta + p, cand

    try:
        cov = np.linalg.inv(H)
    except np.linalg.LinAlgError:
        cov = None
    if cov is None or not np.all(np.isfinite(cov)):
        warnings.warn(
            "singular or non-finite Hessian inverse at the mode; using the "
            "pseudo-inverse",
            RuntimeWarning,
        )
        cov = np.linalg.pinv(H)
    cov = (cov + cov.T) / 2.0

    # an inadmissible fit is still usable (prior-dominated cases)
    crit = aicc(ll, k, m) if aicc_defined(k, m) else math.nan
    return FitResult(
        spec=spec,
        mode=theta,
        covariance=cov,
        log_lik_at_mode=ll,
        aicc=crit,
        converged=bool(np.max(np.abs(g), initial=0.0) <= tol),
        n_events=m,
        n_iter=n_iter,
    )


_STAR_LEVELS = (0.999, 0.99, 0.95)


def posterior_interval(
    fit: FitResult, level: float
) -> list[tuple[float, float]]:
    """Central Gaussian posterior intervals from the Laplace covariance."""
    if not 0 < level < 1:
        raise ValueError("level must be in (0, 1)")
    z = float(scipy.special.ndtri(0.5 + level / 2.0))
    sd = fit.sd
    return [
        (float(mu - z * s), float(mu + z * s)) for mu, s in zip(fit.mode, sd)
    ]


def star_codes(fit: FitResult) -> list[str]:
    """'*', '**', '***' when the 95/99/99.9% interval excludes 0.

    An interval endpoint exactly at 0 counts as not excluding.
    """
    intervals = [posterior_interval(fit, level) for level in _STAR_LEVELS]
    codes = []
    for idx in range(fit.spec.k):
        code = ""
        for stars, by_term in zip(("***", "**", "*"), intervals):
            lo, hi = by_term[idx]
            if lo > 0.0 or hi < 0.0:
                code = stars
                break
        codes.append(code)
    return codes
