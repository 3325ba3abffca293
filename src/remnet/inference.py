"""Ordinal-timing REM likelihood, MAP fitting, and Laplace posterior.

Each observed event is a multinomial draw over the risk set (all ordered
actor pairs) with probabilities proportional to exp(theta' u), statistics
evaluated on the history strictly before the event. Priors are independent
Student-t densities per coefficient (location 0, scale 10, df 4 by
default), whose log density, gradient and Hessian diagonal
``PriorSpec.evaluate`` gives in one call. The posterior covariance is the
inverse negative Hessian of the log-posterior at the mode.

Every model-layer function reads its data from an ``EventDesign``, the
per-event statistics of one network in O(m*n + nnz) memory, held as the
design's own arrays: NTDegRec as a receiver share per event, ICR as a
static actor vector and the other twelve terms as their nonzero entries,
each value with an integer code (a sparse term's index into its sorted
levels, NTDegRec's rank within its event). One kernel, ``_evaluate``,
gives the log-likelihood, gradient and Hessian in one pass over a spec's
``_Factors``, which ``fit_map`` collects once per fit with one mask of
the spec's keys and gathers from the design's per-key maps
``key_event``, ``key_sender`` and ``key_receiver``; each theta of a fit
then costs one kernel pass and one prior call. An event's likelihood
depends on its risk set only through the multiset of (statistics,
count), so ``_Factors`` lists each distinct statistic vector of an event
once, weighted by the number of its dyads that have it. It starts from
the event's touched dyads (where one of the spec's sparse terms is
nonzero) and its untouched dyads, which have base statistics alone and
so depend on a dyad (i, j) only through its cell: the sender's icr_i
(with ICR) and the receiver j (with NTDegRec) or its icr_j (with ICR
alone). An event has at most 2n cells, each a row weighted by its dyad
count (the normaliser over counted classes: Perry & Wolfe, JRSS-B 2013),
sized from the actors' class counts. Rows of an event with equal
statistics are then merged: each row gets a mixed-radix integer code of
its event and its terms' codes, one argsort groups equal codes, and only
the merged rows are filled. Each event's observed statistics are read
from the design, not searched for among the rows. The kernel is the
dense kernel's arithmetic over those weighted rows, with no difference
formed but H's. A pass costs O(rows*k^2), rows at most m*n + nnz and
usually far fewer, not O(m*n^2*k^2). Adequacy reads no design: it ranks
the scores of a ``stats.RiskSetScorer``, the scorer the knock-out sampler
draws from.

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
    _fill_design,
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
# and ICR a static actor vector; every other term is stored sparse
_BASE_TERMS = (Term.NTDEGREC, Term.ICR)


class EventDesign:
    """Per-event statistics of one network, for the terms a model uses.

    The statistics of ``terms`` (all 14 by default) are read from one
    ``HistoryState`` replay of the events, each term in its natural form.
    ``share[t]`` is NTDegRec's receiver share at event t (None unless the
    design has NTDegRec): dyad (i, j) has ``share[t, j]``. ``icr`` is the
    0/1 actor vector: dyad (i, j) has ICR ``icr[i] + icr[j]``. The other
    (sparse) terms are nonzero only on the touched dyads, the union of
    their nonzero entries, which the key maps list in (event, dyad) order:
    key u is dyad (``key_sender[u]``, ``key_receiver[u]``) at event
    ``key_event[u]``, each map in the narrowest unsigned type that holds
    its values (at most 8 bytes a key together). ``entries[term]`` is a
    sparse term's (slots, codes): the keys of its nonzero statistics, in
    increasing order, and each one's code in the narrowest unsigned type
    that holds it, an index into ``levels[term]``, which holds 0 and then
    the term's distinct nonzero values in increasing order, so that a
    value is ``levels[term][code]`` bit for bit. ``share_code[t, j]`` is
    the rank of ``share[t, j]`` among the distinct shares of event t, and
    ``share_ranks`` the most ranks an event has. ``observed[term]`` is a
    sparse term's value at each event's observed dyad, zero or not; that
    dyad's canonical index is ``obs_idx[t]``. Memory is O(m*n + nnz),
    ``nbytes`` bytes; ``full_tensor`` is another name for the design, the
    attribute perfbench's spans read. Its one reader is ``factors``, which
    gives a spec's statistics as the likelihood kernel's weighted rows:
    each event's distinct statistic vectors, each counted by its dyads.
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
        share = np.empty((m, n)) if Term.NTDEGREC in self.terms else None
        per_block = max(1, _BLOCK_ROWS // D)
        # before the block buffer, so that no long-lived array pins its hole
        observed = np.empty((len(sparse), m))
        stats = np.empty((len(sparse), per_block, n - 1, n))
        keys, n_keys = [np.empty(0, np.intp)], 0
        found = [[(np.empty(0, np.intp), np.empty(0))] for _ in sparse]
        obs = np.empty(m, dtype=np.intp)
        state = HistoryState(n, self.terms)
        for start in range(0, m, per_block):
            stop = min(start + per_block, m)
            for t in range(start, stop):
                if share is not None:
                    share[t] = state.share
                _fill_design(state, icr, sparse, stats[:, t - start])
                a, b = int(pairs[t, 0]), int(pairs[t, 1])
                obs[t] = dyad_index(a, b, n)
                state.update(a, b)
            # the block's nonzero entries, term by term in (event, dyad) order
            size = (stop - start) * D
            flat = stats.reshape(len(sparse), per_block * D)[:, :size]
            observed[:, start:stop] = flat[:, np.arange(stop - start) * D + obs[start:stop]]
            nonzero = flat != 0.0
            touched = np.flatnonzero(nonzero.any(axis=0))
            keys.append(start * D + touched)
            term, pos = np.divmod(np.flatnonzero(nonzero), size)
            slot = np.searchsorted(touched, pos) + n_keys
            n_keys += touched.size
            value = flat[term, pos]
            bounds = np.searchsorted(term, np.arange(len(sparse) + 1))
            for c, parts in enumerate(found):
                lo, hi = bounds[c], bounds[c + 1]
                parts.append((slot[lo:hi], value[lo:hi]))
        stats = flat = nonzero = None  # free the block buffers for what follows
        # each sparse term's values as codes into its levels: 0, then its
        # distinct nonzero values. Values are sorted by their bits as int64,
        # their numeric order for nonnegative statistics, so that this and
        # the share ranks below use the int64 argsort of every collection,
        # not a float sort of their own
        entries, levels = {}, {}
        for t, parts in zip(sparse, found):
            slots, values = (np.concatenate(x) for x in zip(*parts))
            parts.clear()
            bits = values.view(np.int64)
            ranked = bits[np.argsort(bits)]
            distinct = np.concatenate((ranked[:1], ranked[1:][ranked[1:] != ranked[:-1]]))
            levels[t] = np.concatenate(([0.0], distinct.view(np.float64)))
            codes = np.searchsorted(distinct, bits)
            codes += 1
            entries[t] = (slots, codes.astype(np.min_scalar_type(distinct.size)))
        values = bits = ranked = codes = None
        # the touched dyads' keys event * n_dyads + dyad, in increasing order, as
        # maps in their smallest types (a per-dyad table spares key-sized temporaries)
        keys = np.concatenate(keys)
        event, dyad = np.divmod(keys, D)
        actor_type = np.min_scalar_type(n - 1)
        self.key_sender, self.key_receiver = (
            a.astype(actor_type)[dyad] for a in dyad_from_index(np.arange(D), n)
        )
        self.key_event = event.astype(np.min_scalar_type(m - 1))
        keys = event = dyad = None
        self.share_code, self.share_ranks = None, 0
        if share is not None:
            # each receiver's rank among the distinct shares of its event
            order = np.argsort(share.view(np.int64), axis=1)
            events = np.arange(m)[:, None]
            ranked = share[events, order]
            rank = np.zeros((m, n), dtype=np.intp)
            rank[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
            rank = np.cumsum(rank, axis=1)
            self.share_ranks = int(rank[:, -1].max()) + 1
            self.share_code = np.empty((m, n), dtype=actor_type)
            self.share_code[events, order] = rank
        self.share, self.icr, self.entries, self.levels = share, icr, entries, levels
        self.observed = dict(zip(sparse, observed))
        self.obs_idx = obs

    @property
    def nbytes(self) -> int:
        """Bytes of the share, share code, icr, key map, slot, code, level and
        observed arrays."""
        arrays = [self.icr, self.key_event, self.key_sender, self.key_receiver]
        arrays += [a for pair in self.entries.values() for a in pair]
        arrays += self.levels.values()
        arrays += self.observed.values()
        if self.share is not None:
            arrays += [self.share, self.share_code]
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
# the bound on ``_Factors``' row codes: a code whose next digit would reach
# it is first replaced by its rank among the codes
_CODE_LIMIT = 1 << 63


class _Factors:
    """A spec's statistics as the weighted rows ``_evaluate`` reads,
    collected once per fit: each event's distinct statistic vectors, each
    once, weighted by the number of the event's dyads that have it.

    The dyads of an event come in two kinds. Its touched dyads, where any
    of the spec's sparse terms is nonzero, are listed one by one. An
    untouched dyad (i, j) has only base statistics, and they depend on
    i and j through its cell alone: the sender class is ``icr_i`` when the
    spec has ICR (else 0), the receiver class ``j`` when it has NTDegRec,
    else ``icr_j`` when it has ICR (else 0). So every dyad of a cell shares
    one row of statistics (its base statistics and 0 for each sparse term),
    listed once and counted by the cell's untouched dyads, which the
    actors' class counts give. An event has at most 2n cells.

    Rows of one event with equal statistics are then merged into one, whose
    count is the sum of theirs (two such rows get equal probabilities, so
    the likelihood sees only the sum). Equal statistics are found from
    integer codes, not floats: each term's value has a code in the design
    (a sparse term's index into its levels, NTDegRec's rank within its
    event, ICR's value), and a row's code is its event and its terms' codes
    in mixed radix, event first. Where the next digit would take the code
    to ``_CODE_LIMIT``, the codes are first replaced by their ranks, which
    keeps their order. One argsort of the codes groups the rows, and only
    the merged rows are filled, each from the codes of one row of its
    group, so a value is its level bit for bit.

    ``X`` holds every merged row's statistics in spec order, shape
    (k, rows), an event's rows in increasing code; ``count`` each row's
    weight and ``event`` its event, each in the narrowest unsigned type
    that holds its values; ``starts`` where each event's rows begin (every
    event has a row). ``x_obs`` holds each event's observed statistics,
    shape (k, m) with an event's k values adjacent, read from the design
    and its ``obs_idx``.
    """

    def __init__(self, design: EventDesign, terms: tuple[Term, ...]):
        n, m = design.n, design.m
        has_share, has_icr = Term.NTDEGREC in terms, Term.ICR in terms

        # each actor's sender class (0 or 1) and receiver class (0 to n - 1):
        # dyad (i, j) is in cell sender_class[i] * n + receiver_class[j]
        icr = design.icr.astype(np.intp)
        zero = np.zeros(n, dtype=np.intp)
        sender_class = icr if has_icr else zero
        receiver_class = np.arange(n) if has_share else icr if has_icr else zero

        # the spec's touched dyads: the keys where any of its sparse terms
        # is nonzero
        in_spec = np.zeros(design.key_event.size, dtype=bool)
        for term in terms:
            if term not in _BASE_TERMS:
                in_spec[design.entries[term][0]] = True
        spec_slots = np.flatnonzero(in_spec)
        spec_event = design.key_event[spec_slots]
        spec_sender = design.key_sender[spec_slots]
        spec_receiver = design.key_receiver[spec_slots]
        # each cell's dyads, its sender class's actors times its receiver
        # class's less the pairs (i, i); each event's untouched dyads per
        # cell, and the nonempty cells
        size = np.outer(
            np.bincount(sender_class, minlength=2), np.bincount(receiver_class, minlength=n)
        ).reshape(-1) - np.bincount(sender_class * n + receiver_class, minlength=2 * n)
        # the spec keys' cells stay a temporary: a named array would live on
        # to the sort below, where the collection's memory peaks
        untouched = size - np.bincount(
            spec_event.astype(np.intp) * (2 * n)
            + sender_class[spec_sender] * n
            + receiver_class[spec_receiver],
            minlength=m * 2 * n,
        ).reshape(m, 2 * n)
        nonempty = np.flatnonzero(untouched)
        class_event, class_sender, class_receiver = np.unravel_index(nonempty, (m, 2, n))

        # the listed rows: the touched dyads, each of count 1, then the
        # nonempty cells, each counted by its untouched dyads; each index
        # array is dropped after its last use, for the same reason
        touched = spec_slots.size
        row_event = np.concatenate((spec_event, class_event.astype(spec_event.dtype)))
        weight = np.ones(row_event.size, dtype=np.min_scalar_type(design.n_dyads))
        weight[touched:] = untouched.reshape(-1)[nonempty]
        untouched = nonempty = None
        if has_share:
            # each listed row's (event, receiver) entry of the share
            share_at = np.concatenate(
                (spec_event.astype(np.intp) * n + spec_receiver, class_event * n + class_receiver)
            )
        if has_icr:
            # a cell's ICR is its sender class plus its receiver's icr
            icr_digit = np.concatenate(
                (
                    icr[spec_sender] + icr[spec_receiver],
                    class_sender + (icr[class_receiver] if has_share else class_receiver),
                ),
                dtype=np.uint8,
                casting="unsafe",
            )
        class_event = class_sender = class_receiver = spec_sender = spec_receiver = None
        column = np.empty(in_spec.size, dtype=np.intp)
        column[spec_slots] = np.arange(touched)
        in_spec = spec_slots = spec_event = None

        # each term's code of each listed row, and the rows' codes
        code, high = row_event.astype(np.int64), m - 1
        digits = []
        for term in terms:
            if term is Term.NTDEGREC:
                digit, radix = design.share_code.reshape(-1)[share_at], design.share_ranks
            elif term is Term.ICR:
                digit, radix = icr_digit, 3
            else:
                slots, codes = design.entries[term]
                digit = np.zeros(row_event.size, dtype=codes.dtype)
                digit[column[slots]] = codes
                radix = design.levels[term].size
            if (high + 1) * radix > _CODE_LIMIT:
                ranks, code = np.unique(code, return_inverse=True)
                high = ranks.size - 1
            code *= radix
            code += digit
            high = high * radix + radix - 1
            digits.append(digit)
        column = None

        # merge each run of equal codes into one row
        order = np.argsort(code)
        code = code[order]
        head = np.flatnonzero(np.concatenate(([True], code[1:] != code[:-1])))
        code = None
        first = order[head]
        self.count = np.add.reduceat(weight[order], head)
        order = weight = None
        event = row_event[first]
        self.event = event.astype(np.min_scalar_type(m - 1))
        rows = np.bincount(event, minlength=m)
        self.starts = np.cumsum(rows) - rows

        self.X = np.empty((len(terms), first.size))
        # each event's k observed statistics adjacent: the kernel's sums round by it
        self.x_obs = np.empty((m, len(terms))).T
        obs_sender, obs_receiver = dyad_from_index(design.obs_idx, n)
        for c, (term, digit) in enumerate(zip(terms, digits)):
            if term is Term.NTDEGREC:
                self.X[c] = design.share.reshape(-1)[share_at[first]]
                self.x_obs[c] = design.share[np.arange(m), obs_receiver]
            elif term is Term.ICR:
                self.X[c] = digit[first]
                self.x_obs[c] = design.icr[obs_sender] + design.icr[obs_receiver]
            else:
                self.X[c] = design.levels[term][digit[first]]
                self.x_obs[c] = design.observed[term]


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
    if not 0 < tol < math.inf:  # NaN fails too
        raise ValueError("tol must be positive and finite")
    factors = design.factors(spec.terms)
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
