"""Ordinal-timing REM likelihood, MAP fitting, and Laplace posterior.

Each observed event is a multinomial draw over the risk set (all ordered
actor pairs) with probabilities proportional to exp(theta' u), statistics
evaluated on the history strictly before the event. Priors are independent
Student-t densities per coefficient (location 0, scale 10, df 4 by
default), whose log density, gradient and Hessian diagonal
``PriorSpec.evaluate`` gives in one call. The posterior covariance is the
inverse negative Hessian of the log-posterior at the mode.

Every model-layer function reads its data from an ``EventDesign``, the
per-event statistics of one network as weighted rows. An event's
likelihood depends on its risk set only through the multiset of
(statistics, count), so the design lists each distinct statistic vector
of an event once, weighted by the number of its dyads that have it. It
starts from the event's listed dyads (its observed dyad and those where
one of its sparse terms is nonzero) and its unlisted dyads, which have
base statistics alone and so depend on a dyad (i, j) only through its
cell (icr_i, j). An event has at most 2n cells, each a row weighted by
its dyad count (the normaliser over counted classes: Perry & Wolfe,
JRSS-B 2013). Each value is held as an integer code into its term's
sorted levels, and ``_merge`` merges an event's rows with equal codes:
each row gets a mixed-radix code of its event and its terms' codes, one
argsort groups equal codes and their counts are summed, and the merged
row of each observed dyad is found among the merged codes. A spec's rows,
its ``_Factors``, are the same merge over the spec's code columns of the
design's rows, which ``fit_map`` runs once per fit; an event's observed
statistics are those of the merged row of its observed design row. The
hill climb collects each move's rows from the current spec's merged rows
instead, bit for bit the same (``selection._FitCache``): a removal merges
them again, an add splits them by the term's codes with one ``bincount``,
and an add whose bins would outnumber the design's rows (NTDegRec's)
keeps the fresh merge. Each
theta of a fit then costs one kernel pass and one prior call. One kernel,
``_evaluate``, gives the log-likelihood, gradient and Hessian in one pass:
the dense kernel's arithmetic over those weighted rows, with no
difference formed but H's. A pass costs O(rows*k^2), rows at most
m*n + nnz and usually far fewer, not O(m*n^2*k^2). Adequacy reads no
design: it ranks the scores of a ``stats.RiskSetScorer``, the scorer the
knock-out sampler draws from.

Only ``posterior_interval`` uses SciPy: it imports ``scipy.special`` when
called, for the normal quantile ``ndtri`` at any level. ``star_codes``
reads its three quantiles from the constant ``_STAR_Z``, so importing this
module, fitting and starring load NumPy only.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from remnet.data import ActorTable, EventSequence
from remnet.stats import (
    ALL_TERMS,
    HistoryState,
    Term,
    _offdiag,
    _ROLES_AT,
    dyad_from_index,
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


# the prior df from which ``PriorSpec.evaluate`` takes its lgamma
# difference from the asymptotic series
_SERIES_DF = 1e3


@dataclass(frozen=True)
class PriorSpec:
    """Independent t-prior applied to every coefficient."""

    location: float = 0.0
    scale: float = 10.0
    df: float = 4.0

    def __post_init__(self):
        # written so that NaN fails each check
        if not math.isfinite(self.location):
            raise ValueError("prior location must be finite")
        if not 0 < self.scale < math.inf:
            raise ValueError("prior scale must be positive and finite")
        if not 0 < self.df < math.inf:
            raise ValueError("prior df must be positive and finite")
        # a prior whose density or derivatives overflow, divide by zero or
        # leave math's domain (lgamma of a subnormal df) at theta = 0 cannot
        # steer a fit
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                self.evaluate(np.zeros(1))
        except (FloatingPointError, ValueError, OverflowError) as exc:
            raise ValueError(
                f"prior (location {self.location!r}, scale {self.scale!r}, "
                f"df {self.df!r}) is not finite at theta = 0: {exc}"
            ) from None

    def evaluate(self, theta) -> tuple[float, np.ndarray, np.ndarray]:
        """The sum of the t log-densities of the coefficients, its gradient
        and its Hessian's diagonal, in closed form.

        From ``_SERIES_DF`` on, lgamma((nu+1)/2) - lgamma(nu/2), which
        cancels to no precision and overflows at huge nu, is taken from its
        asymptotic series 0.5 ln(nu/2) - 1/(4 nu) + 1/(24 nu^3), whose next
        term is below 1e-16 there; the normalising constant then tends to
        the Gaussian's, -0.5 ln(2 pi) - ln(scale). The derivatives are
        written in u = z^2 / nu, so that no intermediate grows with nu:
        both stay finite at any finite df.
        """
        nu, scale = self.df, self.scale
        z = (np.asarray(theta, dtype=np.float64) - self.location) / scale
        if nu < _SERIES_DF:
            const = (
                math.lgamma((nu + 1.0) / 2.0)
                - math.lgamma(nu / 2.0)
                - 0.5 * math.log(nu * math.pi)
            )
        else:
            inv = 1.0 / nu
            const = -0.5 * math.log(2.0 * math.pi) - inv / 4.0 + inv**3 / 24.0
        const -= math.log(scale)
        u = z * z / nu
        log_density = float(np.sum(const - (nu + 1.0) / 2.0 * np.log1p(u)))
        grad = -(1.0 + 1.0 / nu) * z / ((1.0 + u) * scale)
        hess_diag = -(1.0 + 1.0 / nu) * (1.0 - u) / (scale * scale * (1.0 + u) ** 2)
        return log_density, grad, hess_diag


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


# terms with a dense natural form: NTDegRec is a receiver share per event
# and ICR a static actor vector; every other term is nonzero only on the
# dyads its events touched
_BASE_TERMS = (Term.NTDEGREC, Term.ICR)


class EventDesign:
    """Per-event statistics of one network, for the terms a model uses, as
    each event's distinct statistic vectors, each counted by its dyads.

    The statistics of ``terms`` (all 14 by default) are read from one
    ``HistoryState`` replay of the events. An event's dyads come in two
    kinds. Its listed dyads, its observed dyad and those where any sparse
    term is nonzero, are rows one by one. An unlisted dyad (i, j) has only
    base statistics, and they depend on i and j through its cell (icr_i,
    j) alone, whatever the terms: NTDegRec is the receiver's share and ICR
    icr_i + icr_j. So every unlisted dyad of a cell has one statistic
    vector (its base statistics and 0 for each sparse term), a row counted
    by the cell's unlisted dyads; an event has at most 2n cells (the
    normaliser over counted classes: Perry & Wolfe, JRSS-B 2013). Every
    row carries its event, its sender's icr flag and its receiver, from
    which its base codes are one expression each. The rows of an event
    with equal statistics are then merged by ``_merge`` into one, whose
    count is the sum of theirs.

    The replay copies the store's stacked arrays, the array terms, into a
    block buffer each event, and finds their nonzero entries a block at a
    time. Each p-shift's nonzero dyads follow from the previous event
    alone, so they are listed for all events at once, in closed form, each
    with the value 1.

    Each term's values are held as codes: ``levels[term]`` is 0 and then
    the term's distinct values in increasing order (0, 1, 2 for ICR, whose
    value is its code), so that a value is ``levels[term][code]`` bit for
    bit, and a code's order is its value's. Row r is at event ``event[r]``,
    counts ``count[r]`` dyads and has code ``codes[term][r]`` for each
    term; an event's rows come in increasing code, and every event has one.
    ``observed[t]`` is the row that holds event t's observed dyad. Each
    array is in the narrowest unsigned type that holds its values. Memory
    is O(rows + m + distinct values), ``nbytes`` bytes; ``full_tensor`` is
    another name for the design, the attribute perfbench's spans read. Its
    one reader is ``factors``, which merges the rows again over a spec's
    terms.
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
        self.actors = actors
        self.seq = seq
        self.n = n = actors.n
        self.m = m = seq.m
        self.n_dyads = D = n * (n - 1)
        sparse = [t for t in self.terms if t not in _BASE_TERMS]
        icr = actors.icr_array()
        pairs = seq.index_pairs(actors)
        per_block = max(1, _BLOCK_ROWS // D)
        # before the block buffer, so that no array pins its hole
        share = np.empty((m, n)) if Term.NTDEGREC in self.terms else None
        obs = np.empty(m, dtype=np.intp)
        keys, n_keys = [np.empty(0, np.intp)], 0
        # each p-shift's listed keys t * D + dyad, in increasing order: the
        # dyad, row or column that its roles pick in event t - 1 (0 its
        # sender, 1 its receiver, 2 each other actor, in increasing order),
        # gathered from the table of every dyad's index, row i actor i's
        # sent dyads and column j its received ones
        shifts = [t for t in sparse if _ROLES_AT[t.position]]
        pshift = {}
        if shifts:
            role = [pairs[:-1, :1], pairs[:-1, 1:]]
            if any(2 in _ROLES_AT[t.position] for t in shifts):
                rest = np.ones((m - 1, n), dtype=bool)
                for actor in pairs[:-1].T:
                    rest[np.arange(m - 1), actor] = False
                role.append(np.nonzero(rest)[1].reshape(m - 1, n - 2))
            i, j = np.indices((n, n))
            table = i * (n - 1) + j - (j > i)
            base = np.arange(D, m * D, D)[:, None]
            for t in shifts:
                sender, receiver = _ROLES_AT[t.position]
                pshift[t] = (table[role[sender], role[receiver]] + base).reshape(-1)
            rest = role = i = j = table = base = None
        state = HistoryState(n, self.terms)
        found = {t: [(np.empty(0, np.intp), np.empty(0))] for t in state.array_terms}
        s = len(found)
        stats = np.empty((s, per_block, n - 1, n))
        store = _offdiag(state.stat)
        for start in range(0, m, per_block):
            stop = min(start + per_block, m)
            for t in range(start, stop):
                if share is not None:
                    share[t] = state.share
                stats[:, t - start] = store
                a, b = int(pairs[t, 0]), int(pairs[t, 1])
                obs[t] = dyad_index(a, b, n)
                state.update(a, b)
            # the block's listed dyads (touched or observed) and the array
            # terms' nonzero entries, term by term in (event, dyad) order
            size = (stop - start) * D
            flat = stats.reshape(s, per_block * D)[:, :size]
            nonzero = flat != 0.0
            mask = nonzero.any(axis=0)
            mask[np.arange(stop - start) * D + obs[start:stop]] = True
            for pkeys in pshift.values():
                lo, hi = np.searchsorted(pkeys, (start * D, stop * D))
                mask[pkeys[lo:hi] - start * D] = True
            listed = np.flatnonzero(mask)
            keys.append(start * D + listed)
            term, pos = np.divmod(np.flatnonzero(nonzero), size)
            slot = np.searchsorted(listed, pos) + n_keys
            n_keys += listed.size
            value = flat[term, pos]
            bounds = np.searchsorted(term, np.arange(s + 1))
            for c, parts in enumerate(found.values()):
                lo, hi = bounds[c], bounds[c + 1]
                parts.append((slot[lo:hi], value[lo:hi]))
        # free the block buffers for what follows
        stats = flat = nonzero = mask = store = None

        # the listed dyads, in (event, dyad) order: the index of each event's
        # observed one, and each one's event, sender's icr flag and receiver
        # in their smallest types (a per-dyad table spares key-sized
        # temporaries)
        keys = np.concatenate(keys)
        observed = np.searchsorted(keys, np.arange(m) * D + obs)
        for t, pkeys in pshift.items():
            found[t] = [(np.searchsorted(keys, pkeys), np.ones(pkeys.size))]
        pshift = pkeys = None
        key_event, dyad = np.divmod(keys, D)
        keys = obs = None
        flag = icr.astype(np.uint8)
        sender, receiver = dyad_from_index(np.arange(D), n)
        key_flag = flag[sender][dyad]
        key_receiver = receiver.astype(np.min_scalar_type(n - 1))[dyad]
        key_event = key_event.astype(np.min_scalar_type(m - 1))
        sender = receiver = dyad = None

        # an unlisted dyad (i, j) of event t is in cell (t, icr_i, j): each
        # cell's dyads, the actors of flag icr_i less j itself; each event's
        # unlisted dyads per cell, and the nonempty cells
        size = np.bincount(flag, minlength=2)[:, None] - (np.arange(2)[:, None] == flag)
        unlisted = size.reshape(-1) - np.bincount(
            np.ravel_multi_index((key_event, key_flag, key_receiver), (m, 2, n)),
            minlength=m * 2 * n,
        ).reshape(m, 2 * n)
        nonempty = np.flatnonzero(unlisted)

        # the rows: the listed dyads, each of count 1, then the nonempty
        # cells, each counted by its unlisted dyads; each carries its event,
        # flag and receiver, and each array is dropped after its last use
        row_event, row_flag, row_receiver = (
            np.concatenate((key, cell), dtype=key.dtype, casting="unsafe")
            for key, cell in zip(
                (key_event, key_flag, key_receiver), np.unravel_index(nonempty, (m, 2, n))
            )
        )
        weight = np.ones(row_event.size, dtype=np.min_scalar_type(D))
        weight[key_event.size :] = unlisted.reshape(-1)[nonempty]
        key_event = key_flag = key_receiver = unlisted = nonempty = None
        levels, row_codes = {}, {}
        for t in sparse:
            parts = found.pop(t)
            slots, values = (np.concatenate(x) for x in zip(*parts))
            parts.clear()  # its views pin each block's slot and value arrays
            levels[t], codes = _coded(values)
            row_codes[t] = np.zeros(row_event.size, dtype=codes.dtype)
            row_codes[t][slots] = codes
        slots = values = codes = None
        if share is not None:
            # a row's NTDegRec is its (event, receiver) entry of the share
            levels[Term.NTDEGREC], codes = _coded(share.reshape(-1))
            row_codes[Term.NTDEGREC] = codes[row_event.astype(np.intp) * n + row_receiver]
            share = codes = None
        if Term.ICR in self.terms:
            # a row's ICR is its sender's flag plus its receiver's
            levels[Term.ICR] = np.arange(3.0)
            row_codes[Term.ICR] = row_flag + flag[row_receiver]
        row_flag = row_receiver = None

        first, count, observed = _merge(
            row_event, weight, [(row_codes[t], levels[t].size) for t in self.terms], m, observed
        )
        weight = None
        self.event = row_event[first]
        self.count = count.astype(np.min_scalar_type(D))
        self.codes = {t: row_codes.pop(t)[first] for t in self.terms}
        self.levels = levels
        self.observed = observed.astype(np.min_scalar_type(first.size - 1))

    @property
    def nbytes(self) -> int:
        """Bytes of the event, count, observed, code and level arrays."""
        arrays = [self.event, self.count, self.observed]
        arrays += [*self.codes.values(), *self.levels.values()]
        return sum(a.nbytes for a in arrays)

    @property
    def full_tensor(self) -> "EventDesign":
        return self

    def _checked(self, terms: Sequence[Term]) -> tuple[Term, ...]:
        terms = tuple(terms)
        missing = [t.value for t in terms if t not in self.terms]
        if missing:
            raise ValueError(
                f"design has no statistics for {', '.join(missing)}; it was "
                f"built for [{', '.join(t.value for t in self.terms)}]"
            )
        return terms

    def factors(self, terms: Sequence[Term]) -> "_Factors":
        """The statistics of ``terms`` as the weighted rows ``_evaluate``
        reads: per event, each distinct statistic vector of its dyads,
        weighted by the number of dyads that have it (see ``_Factors``).
        Raises ValueError naming any term the design was built without."""
        return _Factors(self, self._checked(terms))


def _as_theta(theta, k: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (k,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({k},)")
    return theta


# dyad rows per block: a block of events of the ``EventDesign`` build, or
# of the kernel's Hessian sum, stays cache-sized
_BLOCK_ROWS = 1 << 16
# the bound on ``_merge``'s row codes: a code whose next digit would reach
# it is first replaced by its rank among the codes
_CODE_LIMIT = 1 << 63


def _coded(values: np.ndarray):
    """A term's levels, 0 and then the distinct values of ``values`` in
    increasing order, and the codes of ``values`` into the levels, in the
    narrowest unsigned type.

    Statistics are nonnegative, so their order is that of their bits as
    int64: the sort is the int64 argsort ``_merge`` runs, not a float sort
    of its own. Each sorted value's code counts the levels up to it."""
    bits = values.view(np.int64)
    order = np.argsort(bits)
    ranked = np.concatenate(([0], bits[order]))
    step = ranked[1:] != ranked[:-1]
    levels = np.concatenate(([0], ranked[1:][step]))
    codes = np.empty(bits.size, dtype=np.min_scalar_type(levels.size - 1))
    codes[order] = np.cumsum(step)
    return levels.view(np.float64), codes


def _merge(event, count, columns, m: int, find, inverse: bool = False):
    """Merge rows with equal event and codes: the index of one row of each
    run of equal rows, in increasing code, the sum of each run's counts and
    the merged row of each row in ``find``; with ``inverse``, also the
    merged row of every row.

    ``columns`` holds each term's (codes of the rows, number of levels). A
    row's code is its event and its terms' codes in mixed radix, event
    first, so rows sort by event and then by value, term by term. Where
    the next digit would take the codes to ``_CODE_LIMIT``, they are first
    replaced by their ranks, which keeps their order. One argsort then
    groups equal rows, and each found row's code is looked up among the
    runs' codes. The rows may be a design's or any merged rows of it: the
    hill climb merges a spec's rows again to drop a term, and sorts the
    rows it refined by an added term's codes (``selection._FitCache``)."""
    code, high = event.astype(np.int64), m - 1
    for digit, radix in columns:
        if (high + 1) * radix > _CODE_LIMIT:
            ranks, code = np.unique(code, return_inverse=True)
            high = ranks.size - 1
        code *= radix
        code += digit
        high = high * radix + radix - 1
    found = code[find]
    order = np.argsort(code)
    code = code[order]
    head = np.flatnonzero(np.concatenate(([True], code[1:] != code[:-1])))
    found = np.searchsorted(code[head], found)
    code = None
    merged = order[head], np.add.reduceat(count[order], head), found
    if not inverse:
        return merged
    rows = np.empty(order.size, dtype=np.intp)
    rows[order] = np.repeat(np.arange(head.size), np.diff(head, append=order.size))
    return *merged, rows


class _Factors:
    """A spec's statistics as the weighted rows ``_evaluate`` reads,
    collected once per fit: each event's distinct statistic vectors, each
    once, weighted by the number of the event's dyads that have it.

    A design's rows restricted to a spec's terms list every dyad of an
    event with its spec statistics, so ``_merge`` over the spec's code
    columns gives the spec's rows, and each one is filled from the codes
    of one design row of its run, so a value is its level bit for bit. The
    same merge gives the row of each event's observed design row, whose
    statistics are the event's observed ones. The hill climb passes in
    ``merged``, each merged row's event, count and code of each term, and
    each event's observed row, collected from the current spec's rows
    instead (``selection._FitCache``); they equal the fresh merge's bit
    for bit.

    ``X`` holds every merged row's statistics in spec order, shape
    (k, rows), an event's rows in increasing code; ``count`` each row's
    weight and ``event`` its event; ``starts`` where each event's rows
    begin (every event has a row). ``x_obs`` holds each event's observed
    statistics, the columns of ``X`` at its observed rows, shape (k, m)
    with an event's k values adjacent.
    """

    def __init__(self, design: EventDesign, terms: tuple[Term, ...], merged=None):
        m = design.m
        if merged is None:
            first, self.count, observed = _merge(
                design.event,
                design.count,
                [(design.codes[t], design.levels[t].size) for t in terms],
                m,
                design.observed,
            )
            self.event = design.event[first]
            codes = (design.codes[t][first] for t in terms)
        else:
            self.event, self.count, codes, observed = merged
        rows = np.bincount(self.event, minlength=m)
        self.starts = np.cumsum(rows) - rows
        self.X = np.empty((len(terms), self.count.size))
        # each event's k observed statistics adjacent: the kernel's sums round by it
        self.x_obs = np.empty((m, len(terms))).T
        for c, (term, code) in enumerate(zip(terms, codes)):
            self.X[c] = design.levels[term][code]
            self.x_obs[c] = self.X[c][observed]


def _evaluate(theta: np.ndarray, f: _Factors) -> tuple[float, np.ndarray, np.ndarray]:
    """Log-likelihood, gradient and Hessian of ``theta`` in one pass over
    ``f``, the spec's ``_Factors``.

    It is the dense kernel's arithmetic over weighted rows: each row r of
    event t scores s_r = theta' x_r and weighs w_r = count_r e^(s_r - M_t),
    M_t the exact maximum of the event's row scores, so Z_t = sum_r w_r and
    p_r = w_r / Z_t. The event's expected statistics E_t = sum_r p_r x_r
    give g = sum_t (x_obs,t - E_t), and H = sum_t E_t E_t' - sum_r p_r x_r
    x_r', the latter summed a block of ``_BLOCK_ROWS`` rows at a time.
    Raises NumericalError for a non-finite theta or score.
    """
    if not np.all(np.isfinite(theta)):
        raise NumericalError("non-finite theta")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        s = theta @ f.X
        M = np.maximum.reduceat(s, f.starts)
    if not (np.all(np.isfinite(M)) and np.all(np.isfinite(s))):
        raise NumericalError("non-finite linear predictor")
    s -= M[f.event]
    p = np.exp(s, out=s)
    p *= f.count
    Z = np.add.reduceat(p, f.starts)
    p /= Z[f.event]
    ll = float(np.sum(theta @ f.x_obs - M - np.log(Z)))
    E = np.empty((len(theta), f.starts.size))
    for c, x in enumerate(f.X):
        E[c] = np.add.reduceat(p * x, f.starts)
    g = f.x_obs.sum(axis=1) - E.sum(axis=1)
    H = E @ E.T
    for start in range(0, p.size, _BLOCK_ROWS):
        X = f.X[:, start : start + _BLOCK_ROWS]
        H -= (X * p[start : start + _BLOCK_ROWS]) @ X.T
    return ll, g, H


def log_likelihood(theta: np.ndarray, spec: ModelSpec, design: EventDesign) -> float:
    return _evaluate(_as_theta(theta, spec.k), design.factors(spec.terms))[0]


def gradient(theta: np.ndarray, spec: ModelSpec, design: EventDesign) -> np.ndarray:
    return _evaluate(_as_theta(theta, spec.k), design.factors(spec.terms))[1]


def hessian(theta: np.ndarray, spec: ModelSpec, design: EventDesign) -> np.ndarray:
    return _evaluate(_as_theta(theta, spec.k), design.factors(spec.terms))[2]


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
    *,
    _factors: _Factors | None = None,
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
    no iteration, in one pass. Raises ValueError unless 0 < ``tol`` < 1:
    from 1 on, the null model's gradient can pass it at theta = 0.
    ``_factors``, the hill climb's own collection of ``spec``'s rows, is
    fitted in place of ``design.factors(spec.terms)``.
    """
    if not 0 < tol < 1:  # NaN fails too
        raise ValueError("tol must be in (0, 1)")
    factors = design.factors(spec.terms) if _factors is None else _factors
    m = design.m
    k = spec.k

    def objective(theta):
        """(-log posterior, its gradient, its Hessian, log-likelihood)."""
        ll, g, H = _evaluate(theta, factors)
        log_prior, prior_g, prior_h = prior.evaluate(theta)
        return -(ll + log_prior), -(g + prior_g), -(H + np.diag(prior_h)), ll

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
# scipy.special.ndtri(0.5 + level / 2.0) for each of _STAR_LEVELS, to the
# last bit (SciPy 1.17.1): a 1-ulp change can move a boundary star code
_STAR_Z = (3.2905267314919255, 2.5758293035489004, 1.959963984540054)


def _intervals(fit: FitResult, z: float) -> list[tuple[float, float]]:
    return [
        (float(mu - z * s), float(mu + z * s)) for mu, s in zip(fit.mode, fit.sd)
    ]


def posterior_interval(
    fit: FitResult, level: float
) -> list[tuple[float, float]]:
    """Central Gaussian posterior intervals from the Laplace covariance."""
    if not 0 < level < 1:
        raise ValueError("level must be in (0, 1)")
    import scipy.special

    return _intervals(fit, float(scipy.special.ndtri(0.5 + level / 2.0)))


def star_codes(fit: FitResult) -> list[str]:
    """'*', '**', '***' when the 95/99/99.9% interval excludes 0.

    The intervals are those of ``posterior_interval`` at ``_STAR_LEVELS``,
    from the quantiles in ``_STAR_Z``. An interval endpoint exactly at 0
    counts as not excluding.
    """
    intervals = [_intervals(fit, z) for z in _STAR_Z]
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
