"""AICc-minimizing term-set search.

Both searches fit term sets to one ``EventDesign``, which must hold the
statistics of every candidate term. ``hill_climb_select`` starts from the
empty model and repeatedly applies the single-term addition or deletion
with the largest strict AICc reduction, stopping at a local optimum.
``exhaustive_select`` enumerates every subset and returns the global
minimizer. Both reject an empty or repeated candidate set. Tie-breaking is
deterministic: deletions are preferred over additions, then the lowest
canonical term order wins.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from remnet.inference import (
    EventDesign,
    FitResult,
    InadmissibleModelError,
    ModelSpec,
    PriorSpec,
    aicc_defined,
    fit_map,
)
from remnet.stats import Term, canonical_terms

log = logging.getLogger(__name__)

# AICc improvements below this are float noise, not improvements
MIN_IMPROVEMENT = 1e-9


@dataclass(frozen=True)
class SelectionStep:
    terms: tuple[Term, ...]
    aicc: float
    action: str  # "start", "add", "remove", "stop"
    term: Term | None


@dataclass
class SelectionTrace:
    steps: list[SelectionStep]
    final: FitResult

    def to_json_dict(self) -> dict:
        return {
            "steps": [
                {
                    "terms": [t.value for t in s.terms],
                    "aicc": s.aicc,
                    "action": s.action,
                    "term": None if s.term is None else s.term.value,
                }
                for s in self.steps
            ],
            "final": self.final.to_json_dict(),
        }


class _FitCache:
    def __init__(self, design, prior, tol, max_iter):
        self.design = design
        self.prior = prior
        self.tol = tol
        self.max_iter = max_iter
        self.cache: dict[frozenset, FitResult | None] = {}

    def fit(self, terms: tuple[Term, ...], base: FitResult | None = None):
        """Fit a term set from ``base``'s coefficients (0 for a term it lacks)
        or from 0; None when AICc is undefined or the fit does not converge."""
        key = frozenset(terms)
        if key not in self.cache:
            self.cache[key] = self._fit(terms, base)
        return self.cache[key]

    def _fit(self, terms: tuple[Term, ...], base: FitResult | None):
        k, m = len(terms), self.design.m
        if aicc_defined(k, m):
            theta0 = None
            if base is not None:
                base_coef = dict(zip(base.spec.terms, base.mode))
                theta0 = np.array([base_coef.get(t, 0.0) for t in terms])
            result = fit_map(
                ModelSpec(terms=terms, network_id=self.design.seq.network_id),
                prior=self.prior,
                tol=self.tol,
                max_iter=self.max_iter,
                design=self.design,
                theta0=theta0,
            )
            if result.converged:
                return result
            reason = "fit did not converge"
        else:
            reason = f"AICc undefined (k={k}, m={m})"
        log.warning("skipping model %s: %s", [t.value for t in terms], reason)
        return None


def _candidates(candidate_terms) -> tuple[Term, ...]:
    """The candidates in canonical order; ValueError if none or repeated."""
    candidates = canonical_terms(candidate_terms)
    if not candidates:
        raise ValueError("candidate term set is empty")
    if len(set(candidates)) != len(candidates):
        raise ValueError(f"duplicate candidate terms: {[t.value for t in candidates]}")
    return candidates


def hill_climb_select(
    candidate_terms,
    design: EventDesign,
    prior: PriorSpec = PriorSpec(),
    tol: float = 1e-6,
    max_iter: int = 500,
) -> SelectionTrace:
    """Steepest-descent AICc search over single-term changes; each candidate
    fit starts from the current model's coefficients (0 for an added term)."""
    candidates = _candidates(candidate_terms)
    fitter = _FitCache(design, prior, tol, max_iter)

    current = fitter.fit(())
    if current is None:
        raise InadmissibleModelError(
            f"no admissible model: AICc is undefined for the empty model (m={design.m})"
        )
    steps = [SelectionStep((), current.aicc, "start", None)]
    while True:
        in_model = set(current.spec.terms)
        # deletions first, then additions, each in canonical term order
        moves = [("remove", t) for t in current.spec.terms] + [
            ("add", t) for t in candidates if t not in in_model
        ]
        best = None
        for action, term in moves:
            if action == "remove":
                terms = tuple(t for t in current.spec.terms if t is not term)
            else:
                terms = canonical_terms(in_model | {term})
            result = fitter.fit(terms, base=current)
            if result is None:
                continue
            reduction = current.aicc - result.aicc
            if reduction <= MIN_IMPROVEMENT:
                continue
            # strict > keeps the earliest (deletion-preferring) move on ties
            if best is None or reduction > best[0]:
                best = (reduction, action, term, result)
        if best is None:
            steps.append(
                SelectionStep(current.spec.terms, current.aicc, "stop", None)
            )
            return SelectionTrace(steps=steps, final=current)
        _, action, term, current = best
        steps.append(
            SelectionStep(current.spec.terms, current.aicc, action, term)
        )


def exhaustive_select(
    candidate_terms,
    design: EventDesign,
    prior: PriorSpec = PriorSpec(),
    tol: float = 1e-6,
    max_iter: int = 500,
) -> SelectionTrace:
    """Fit every subset of the candidates; return the global AICc minimizer."""
    candidates = _candidates(candidate_terms)
    if len(candidates) > 12:
        log.warning(
            "exhaustive search over %d terms requires %d fits",
            len(candidates),
            2 ** len(candidates),
        )
    fitter = _FitCache(design, prior, tol, max_iter)

    best = None
    for size in range(len(candidates) + 1):
        if not aicc_defined(size, design.m):
            # AICc is then undefined for every larger subset too
            log.warning(
                "skipping every model with %d or more terms: AICc undefined (m=%d)",
                size,
                design.m,
            )
            break
        for combo in itertools.combinations(candidates, size):
            result = fitter.fit(combo)
            if result is None:
                continue
            # strict < keeps the smaller, canonically-earliest subset on ties
            if best is None or result.aicc < best.aicc - MIN_IMPROVEMENT:
                best = result
    if best is None:
        raise InadmissibleModelError("no admissible model could be fit")
    steps = [
        SelectionStep(best.spec.terms, best.aicc, "stop", None),
    ]
    return SelectionTrace(steps=steps, final=best)
