"""AICc-minimizing term-set search.

Both searches fit term sets to one ``EventDesign``, which must hold the
statistics of every candidate term. ``hill_climb_select`` starts from the
empty model and repeatedly applies the single-term addition or deletion
with the largest strict AICc reduction, stopping at a local optimum; it
collects each move's rows from the current model's (``_FitCache``).
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
    _Factors,
    _merge,
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
        # the merged rows of the spec the hill climb's moves start from,
        # the base of its fits, and each added term's nonzero design rows
        # (see _factors)
        self.rows = None
        self.nonzero: dict[Term, np.ndarray] = {}

    def _factors(self, terms: tuple[Term, ...], base: FitResult | None):
        """The rows of ``terms`` collected from the rows of ``base``'s spec,
        the hill climb's current one, when ``terms`` is one term from it;
        None leaves ``fit_map`` to merge every design row.

        The current spec's rows, with the merged row of every design row,
        are collected once, when its first move needs them: as the accepted
        move from the last round's rows, or else by a fresh merge. They
        partition each event's dyads, so a removal merges them again, less
        the term's codes, with their counts. An add of a term with R levels
        splits each current row r by the term's code c: bin r * R + c sums
        the counts of the design rows of r with code c (code 0 takes what
        the others leave of r's count, so only the design rows where the
        term is nonzero are read), and the nonzero bins are the new rows,
        in the order of the codes of the current terms and then the added
        one. Unless the added term comes last in ``terms``, one merge of
        the new rows puts them in code order. An add whose bins would
        outnumber the design's rows keeps the fresh merge, so no bin table
        outgrows the design: NTDegRec's always does (hundreds of levels or
        more), and so does an add of a term with tens of levels to many
        rows."""
        if base is None:
            return None
        current = base.spec.terms
        if self.rows is None or self.rows[0] != current:
            self.rows = self._moved(current, inverse=True) if self.rows else None
            if self.rows is None:
                d = self.design
                first, count, observed, inv = _merge(
                    d.event, d.count, [(d.codes[t], d.levels[t].size) for t in current],
                    d.m, d.observed, inverse=True,
                )
                codes = {t: d.codes[t][first] for t in current}
                self.rows = current, d.event[first], count, codes, observed, inv
        moved = self._moved(terms)
        if moved is None:
            return None
        _, event, count, codes, observed, _ = moved
        return _Factors(self.design, terms, (event, count, codes.values(), observed))

    def _moved(self, terms: tuple[Term, ...], inverse: bool = False):
        """The rows of ``terms`` from the current ones, as ``self.rows``
        holds them, the last item the merged row of every design row only
        with ``inverse``; None unless ``terms`` is one term from the current
        spec, or where the add keeps the fresh merge (see _factors)."""
        d = self.design
        current, event, count, codes, observed, inv = self.rows
        if len(set(terms) ^ set(current)) != 1:
            return None
        if len(terms) > len(current):
            (term,) = set(terms) - set(current)
            radix = d.levels[term].size
            if count.size * radix > d.event.size:
                return None
            if term not in self.nonzero:
                self.nonzero[term] = (d.codes[term] != 0).nonzero()[0]
            nonzero = self.nonzero[term]
            weight = np.bincount(
                inv[nonzero] * radix + d.codes[term][nonzero],
                weights=d.count[nonzero],
                minlength=count.size * radix,
            ).reshape(-1, radix)
            # exact: the counts are integers
            weight[:, 0] = count - weight @ np.ones(radix)
            bins = np.flatnonzero(weight)
            row, code = np.divmod(bins, radix)
            codes = {t: codes[t][row] for t in current} | {term: code}
            event, count = event[row], weight.reshape(-1)[bins].astype(count.dtype)
            found = inv[d.observed] * radix + d.codes[term][d.observed]
            observed = np.searchsorted(bins, found)
            if inverse:
                inv = (np.cumsum(weight.reshape(-1) != 0) - 1)[inv * radix + d.codes[term]]
            if terms == (*current, term):
                return terms, event, count, codes, observed, inv
        columns = [(codes[t], d.levels[t].size) for t in terms]
        sub, count, observed, *merged = _merge(event, count, columns, d.m, observed, inverse)
        codes = {t: codes[t][sub] for t in terms}
        return terms, event[sub], count, codes, observed, inverse and merged[0][inv]

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
                _factors=self._factors(terms, base),
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
