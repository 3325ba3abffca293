"""Ordinal-timing REM likelihood, MAP fitting, and Laplace posterior.

Each observed event is a multinomial draw over the risk set (all ordered
actor pairs) with probabilities proportional to exp(theta' u), statistics
evaluated on the history strictly before the event. Priors are independent
Student-t densities per coefficient (location 0, scale 10, df 4 by
default). The posterior covariance is the inverse negative Hessian of the
log-posterior at the mode.

Every model-layer function reads its data from an ``EventDesign``, the
per-event statistics of one network in O(m*n + nnz) memory: NTDegRec as a
receiver share per event, ICR as a static actor vector and the other
twelve terms as their nonzero entries. One kernel, ``_evaluate``, gives
the log-likelihood, gradient and Hessian in one pass over a spec's
``_Factors``, which ``fit_map`` collects once per fit. Over the dyads where
none of the spec's sparse terms is nonzero, a score is a sender part plus a
receiver part, so the normaliser and the moments factorise,
sum_{i != j} e^(r_i + c_j) = (sum_i e^(r_i))(sum_j e^(c_j)) - sum_i
e^(r_i + c_i), and each touched dyad adds one correction (Vu, Asuncion,
Hunter & Smyth, NeurIPS 2011; Perry & Wolfe, JRSS-B 2013). A pass costs
O(m*(n + nnz)*k^2), not O(m*n^2*k^2). ``EventDesign.blocks`` rebuilds the
dense statistics a block of events at a time for adequacy.

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
from typing import Iterator, Sequence

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


# terms with a dense natural form: NTDegRec is a receiver share per event
# and ICR a static actor vector; every other term is stored sparse
_BASE_TERMS = (Term.NTDEGREC, Term.ICR)


@dataclass(frozen=True)
class DesignStore:
    """The statistics of an ``EventDesign``, each term in its natural form.

    ``share[t]`` is NTDegRec's receiver share at event t (None unless the
    design has NTDegRec): dyad (i, j) has ``share[t, j]``. ``icr`` is the
    0/1 actor vector: dyad (i, j) has ICR ``icr[i] + icr[j]``. The other
    (sparse) terms are nonzero only on the dyads ``keys`` lists, in
    increasing order of ``event * n_dyads + dyad``: the union of their
    nonzero entries. ``entries[term]`` is a sparse term's (slots, values):
    its nonzero statistics and their positions in ``keys``, in increasing
    order.
    """

    share: np.ndarray | None
    icr: np.ndarray
    keys: np.ndarray
    entries: dict[Term, tuple[np.ndarray, np.ndarray]]

    @property
    def nbytes(self) -> int:
        """Bytes of the share, icr, keys, slots and values arrays."""
        arrays = [self.icr, self.keys]
        arrays += [a for pair in self.entries.values() for a in pair]
        if self.share is not None:
            arrays.append(self.share)
        return sum(a.nbytes for a in arrays)


class EventDesign:
    """Per-event statistics of one network, for the terms a model uses.

    The statistics of ``terms`` (all 14 by default) are read from one
    ``HistoryState`` replay of the events into ``store``, a
    ``DesignStore``: NTDegRec as an (m, n) receiver share, ICR as the
    static actor vector and each other term as its nonzero entries. Memory
    is O(m*n + nnz), ``store.nbytes`` bytes; ``full_tensor`` is another
    name for ``store``, the attribute perfbench's spans read. There are
    two readers: ``blocks`` rebuilds the dense statistics a block of whole
    events at a time (adequacy reads them), and ``factors`` gives a spec's
    statistics in the factorised form of the likelihood kernel.
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
        entries = {
            t: tuple(np.concatenate(x) for x in zip(*parts))
            for t, parts in zip(sparse, found)
        }
        self.store = DesignStore(share, icr, np.concatenate(keys), entries)
        self.obs_idx = obs

    @property
    def full_tensor(self) -> DesignStore:
        return self.store

    def _checked(self, terms: Sequence[Term]) -> tuple[Term, ...]:
        terms = tuple(terms)
        missing = [t.value for t in terms if t not in self.terms]
        if missing:
            raise ValueError(
                f"design has no statistics for {', '.join(missing)}; it was "
                f"built for [{', '.join(t.value for t in self.terms)}]"
            )
        return terms

    def blocks(self, terms: Sequence[Term]) -> Iterator[tuple[np.ndarray, ...]]:
        """Per block of b whole events, the C-contiguous (k, b, n_dyads)
        statistics of ``terms``, rebuilt from ``store``, and the b observed
        dyad indices; b is ``_BLOCK_ROWS // n_dyads`` (at least 1), less in
        the last block. Row (c, t) holds the bits ``design_matrix`` gives
        for term c at event t. Raises ValueError naming any term the design
        was built without.
        """
        terms = self._checked(terms)
        store, D = self.store, self.n_dyads
        sender, receiver = dyad_from_index(np.arange(D), self.n)
        per_block = max(1, _BLOCK_ROWS // D)
        for start in range(0, self.m, per_block):
            stop = min(start + per_block, self.m)
            block_slots = np.searchsorted(store.keys, (start * D, stop * D))
            X = np.zeros((len(terms), stop - start, D))
            for c, term in enumerate(terms):
                if term is Term.NTDEGREC:
                    X[c] = store.share[start:stop, receiver]
                elif term is Term.ICR:
                    X[c] = store.icr[sender] + store.icr[receiver]
                else:
                    slots, values = store.entries[term]
                    lo, hi = np.searchsorted(slots, block_slots)
                    X[c].reshape(-1)[store.keys[slots[lo:hi]] - start * D] = values[lo:hi]
            yield X, self.obs_idx[start:stop]

    def factors(self, terms: Sequence[Term]) -> "_Factors":
        """The statistics of ``terms`` in the form ``_evaluate`` reads.
        Raises ValueError naming any term the design was built without."""
        return _Factors(self, self._checked(terms))


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


# dyad rows per block: a block of ``EventDesign.blocks``, or of the
# kernel's direct sums, stays cache-sized
_BLOCK_ROWS = 1 << 16


class _Factors:
    """A spec's statistics in the form ``_evaluate`` reads, collected once
    per fit.

    The kernel orders the terms base first: ``order[q]`` is the spec
    position of kernel term q, and the first ``n_base`` are the spec's
    NTDegRec and ICR. The other (sparse) terms are nonzero only on the
    touched dyads, the union of their entries. The kernel scores the
    listed dyads one by one: each event's touched dyads, or all of its
    dyads when more than half are touched (a ``full`` event). ``event``,
    ``sender`` and ``receiver`` list them, each event's together in dyad
    order, the ``partial`` (not full) events' first ``n_partial`` before
    the full events'; ``X`` holds every term's statistics there, shape
    (k, U). ``starts`` and ``events`` are where each event with a listed
    dyad begins and which event it is.

    A partial event's untouched dyads have only base statistics, a sender
    part plus a receiver part: ``P[q, i] + Q[q, e, j]`` for dyad (i, j)
    of event ``partial[e]`` (NTDegRec: 0 + share; ICR: icr_i + icr_j).
    ``x_obs`` holds the statistics of each event's observed dyad, shape
    (k, m).
    """

    def __init__(self, design: EventDesign, terms: tuple[Term, ...]):
        store, n, m, D = design.store, design.n, design.m, design.n_dyads
        base = [c for c, t in enumerate(terms) if t in _BASE_TERMS]
        sparse = [c for c, t in enumerate(terms) if t not in _BASE_TERMS]
        self.order = np.array(base + sparse, dtype=np.intp)
        self.n_base = nb = len(base)
        self.m, self.n = m, n
        self.P = np.zeros((nb, n))
        Q = np.empty((nb, m, n))
        for q, c in enumerate(base):
            if terms[c] is Term.ICR:
                self.P[q] = Q[q] = store.icr
            else:
                Q[q] = store.share
        entries = [store.entries[terms[c]] for c in sparse]

        # the spec's touched dyads: the slots of ``store.keys`` where any of
        # its sparse terms is nonzero
        in_spec = np.zeros(store.keys.size, dtype=bool)
        for slots, _ in entries:
            in_spec[slots] = True
        event, dyad = np.divmod(store.keys[in_spec], D)
        touched = np.bincount(event, minlength=m)
        self.full = 2 * touched > D
        listed = np.where(self.full, D, touched)
        # the partial events' dyads first, the full events' last
        event_order = np.concatenate([np.flatnonzero(~self.full), np.flatnonzero(self.full)])
        first = np.empty(m, dtype=np.intp)
        first[event_order] = np.cumsum(listed[event_order]) - listed[event_order]
        self.n_partial = int(listed[~self.full].sum())
        # each touched slot's column of X: a full event lists every dyad,
        # any other event only its touched ones, in order
        rank = np.arange(event.size) - (np.cumsum(touched) - touched)[event]
        column = np.zeros(store.keys.size, dtype=np.intp)
        column[in_spec] = first[event] + np.where(self.full[event], dyad, rank)
        self.event = np.repeat(event_order, listed[event_order])
        all_dyads = np.empty(self.event.size, dtype=np.intp)
        all_dyads[column[in_spec]] = dyad
        all_dyads[first[self.full][:, None] + np.arange(D)] = np.arange(D)
        self.sender, self.receiver = dyad_from_index(all_dyads, n)
        self.events = event_order[listed[event_order] > 0]
        self.starts = first[self.events]

        self.X = np.zeros((len(terms), self.event.size))
        for q in range(nb):
            self.X[q] = self.P[q, self.sender] + Q[q, self.event, self.receiver]
        for q, (slots, values) in enumerate(entries, start=nb):
            self.X[q, column[slots]] = values
        obs_event = np.arange(m)
        obs_sender, obs_receiver = dyad_from_index(design.obs_idx, n)
        self.x_obs = np.zeros((len(terms), m))
        for q in range(nb):
            self.x_obs[q] = self.P[q, obs_sender] + Q[q, obs_event, obs_receiver]
        if store.keys.size:  # else every sparse statistic is 0
            obs_key = obs_event * D + design.obs_idx
            obs_slot = np.searchsorted(store.keys[:-1], obs_key)
            hit = in_spec[obs_slot] & (store.keys[obs_slot] == obs_key)
            self.x_obs[nb:, hit] = self.X[nb:, column[obs_slot[hit]]]
        self.partial = event_order[: m - int(self.full.sum())]
        self.Q = Q[:, self.partial]
        # the kernel's (k, U) temporary, reused by every pass
        self.work = np.empty_like(self.X)


def _per_event(f, x):
    """Sums of ``x`` (..., u) over each event's listed dyads among the
    first u, shape (..., m)."""
    sums = np.zeros(x.shape[:-1] + (f.m,))
    count = np.searchsorted(f.starts, x.shape[-1])
    if count:
        sums[..., f.events[:count]] = np.add.reduceat(x, f.starts[:count], axis=-1)
    return sums


def _row_sums(b, b_top, top, F=None):
    """Per event t and sender i, the sum over receivers j != i of
    ``b[t, j] * F[t, j]`` (F = 1 when None); the sender ``top[t]`` gets the
    sum of ``b_top[t, j] * F[t, j]`` instead, whose entry ``top[t]`` is 0."""
    bF = b if F is None else b * F
    sums = bF.sum(axis=1, keepdims=True) - bF
    sums[np.arange(len(top)), top] = (b_top if F is None else b_top * F).sum(axis=1)
    return sums


def _untouched_direct(f, r, c, M, events):
    """Sums over the untouched off-diagonal dyads of ``events`` (indices
    into ``f.partial``; ``c`` and ``M`` are theirs too), dyad by dyad:
    weight e^(r_i + c_tj - M_t), its base-statistic moments and second
    moments, shapes (e,), (nb, e), (nb, nb, e)."""
    n, nb, e = f.n, f.n_base, len(events)
    mass, first, second = np.empty(e), np.empty((nb, e)), np.empty((nb, nb, e))
    if not e:
        return mass, first, second
    local = np.full(f.m, -1)
    local[f.partial[events]] = np.arange(e)
    hit = local[f.event[: f.n_partial]]
    mine = hit >= 0
    hit_event = hit[mine]
    hit_cell = f.sender[: f.n_partial][mine] * n + f.receiver[: f.n_partial][mine]
    per_block = max(1, _BLOCK_ROWS // (n * n))
    for start in range(0, e, per_block):
        part = slice(start, min(start + per_block, e))
        ev = events[part]
        W = r[None, :, None] + c[ev][:, None, :] - M[ev][:, None, None]
        flat = W.reshape(len(ev), n * n)
        flat[:, :: n + 1] = -np.inf
        here = (hit_event >= part.start) & (hit_event < part.stop)
        flat[hit_event[here] - part.start, hit_cell[here]] = -np.inf
        np.exp(W, out=W)
        out_w, in_w = W.sum(axis=2), W.sum(axis=1)
        Q = f.Q[:, ev]
        mass[part] = out_w.sum(axis=1)
        first[:, part] = f.P @ out_w.T + np.einsum("tj,qtj->qt", in_w, Q)
        cross = np.einsum("pi,tij,qtj->pqt", f.P, W, Q)
        second[:, :, part] = (
            np.einsum("ti,pi,qi->pqt", out_w, f.P, f.P)
            + np.einsum("tj,ptj,qtj->pqt", in_w, Q, Q)
            + cross
            + cross.transpose(1, 0, 2)
        )
    return mass, first, second


def _evaluate(theta: np.ndarray, f: _Factors) -> tuple[float, np.ndarray, np.ndarray]:
    """Log-likelihood, gradient and Hessian of ``theta`` in one pass over
    ``f``, the spec's ``_Factors``.

    Event t's score of dyad (i, j) is r_i + c_tj plus, on a touched dyad,
    the sparse terms' part d. Its normaliser, and the sums of p * x and
    p * x x' that g and H need, are a sum over every off-diagonal dyad
    with d = 0, which factorises into per-sender sums over receivers, plus
    one correction e^(r_i + c_tj + d) x - e^(r_i + c_tj) x0 per touched
    dyad (x0: x without its sparse part). A full event is summed over its
    listed dyads alone. Each event is shifted by M_t, an upper bound on
    its scores: the larger of the exact off-diagonal maximum of
    r_i + c_tj (from the top two of r and of c_t) and its largest listed
    score. Where the touched dyads hold over half an event's base mass,
    the sum over its untouched dyads is taken dyad by dyad, not as a
    cancelling difference. Raises NumericalError for a non-finite theta
    or score.
    """
    if not np.all(np.isfinite(theta)):
        raise NumericalError("non-finite theta")
    nb, m, n = f.n_base, f.m, f.n
    th = theta[f.order]
    pe, part = f.partial, slice(0, f.n_partial)
    rows = np.arange(pe.size)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        base = th[:nb] @ f.X[:nb]
        s = base + th[nb:] @ f.X[nb:]
        M = np.full(m, -np.inf)
        if s.size:
            M[f.events] = np.maximum.reduceat(s, f.starts)
        # off-diagonal maximum of r_i + c_tj: sender `top` = argmax c_t
        # pairs with the runner-up receiver, every other sender with `top`
        r = th[:nb] @ f.P
        c = np.tensordot(th[:nb], f.Q, axes=1) if nb else np.zeros((pe.size, n))
        top = np.argmax(c, axis=1)
        c_max = c[rows, top]
        c_second = np.partition(c, n - 2, axis=1)[:, n - 2]
        r_other = np.where(top == np.argmax(r), np.partition(r, n - 2)[n - 2], r.max())
        M[pe] = np.maximum(M[pe], np.maximum(r_other + c_max, r[top] + c_second))
    if not (np.all(np.isfinite(M)) and np.all(np.isfinite(s))):
        raise NumericalError("non-finite linear predictor")

    # every off-diagonal dyad of a partial event at d = 0: sender i's
    # weight times its receivers' sums, each shifted so that no factor
    # exceeds 1
    Mp = M[pe]
    rho = r + (c_max - Mp)[:, None]
    rho[rows, top] = r[top] + c_second - Mp
    np.exp(rho, out=rho)
    b = np.exp(c - c_max[:, None])
    b_top = c - c_second[:, None]
    b_top[rows, top] = -np.inf
    np.exp(b_top, out=b_top)
    G0 = _row_sums(b, b_top, top)
    G1 = [_row_sums(b, b_top, top, f.Q[q]) for q in range(nb)]
    S0 = np.sum(rho * G0, axis=1)
    S1 = np.empty((nb, pe.size))
    for q in range(nb):
        S1[q] = np.sum(rho * (f.P[q] * G0 + G1[q]), axis=1)

    # less the touched dyads at d = 0 (w0): the untouched sums
    M_listed = M[f.event]
    w0 = np.exp(base[part] - M_listed[part])
    Xb = f.X[:nb, part]
    U0, U1 = np.zeros(m), np.zeros((nb, m))
    U0[pe] = S0 - _per_event(f, w0)[pe]
    U1[:, pe] = S1 - _per_event(f, w0 * Xb)[:, pe]
    direct = np.flatnonzero(U0[pe] < 0.5 * S0)
    mass, first, U2_direct = _untouched_direct(f, r, c, Mp, direct)
    U0[pe[direct]], U1[:, pe[direct]] = mass, first

    # plus the listed dyads at their scores
    w = np.exp(s - M_listed)
    Z = U0 + _per_event(f, w)
    inv_Z = 1.0 / Z
    w *= inv_Z[f.event]
    pX = np.multiply(w, f.X, out=f.work)
    E = _per_event(f, pX)
    E[:nb] += U1 * inv_Z
    ll = float(np.sum(th @ f.x_obs - M - np.log(Z)))
    g_k = f.x_obs.sum(axis=1) - E.sum(axis=1)
    H_k = E @ E.T - pX @ f.X.T

    # second moments of the base statistics over untouched dyads
    weight = inv_Z.copy()
    weight[f.full] = weight[pe[direct]] = 0.0
    rho *= weight[pe, None]
    w0 *= weight[f.event[part]]
    for p in range(nb):
        for q in range(p, nb):
            G2 = _row_sums(b, b_top, top, f.Q[p] * f.Q[q])
            S2 = np.sum(
                rho
                * (f.P[p] * f.P[q] * G0 + f.P[p] * G1[q] + f.P[q] * G1[p] + G2)
            )
            U2 = S2 - (w0 * Xb[p]) @ Xb[q] + U2_direct[p, q] @ inv_Z[pe[direct]]
            H_k[p, q] -= U2
            if q != p:
                H_k[q, p] -= U2

    g, H = np.empty_like(g_k), np.empty_like(H_k)
    g[f.order] = g_k
    H[np.ix_(f.order, f.order)] = H_k
    return ll, g, H


def log_likelihood(theta: np.ndarray, spec: ModelSpec, design: EventDesign) -> float:
    return _evaluate(_as_theta(theta, spec.k), design.factors(spec.terms))[0]


def gradient(theta: np.ndarray, spec: ModelSpec, design: EventDesign) -> np.ndarray:
    return _evaluate(_as_theta(theta, spec.k), design.factors(spec.terms))[1]


def hessian(theta: np.ndarray, spec: ModelSpec, design: EventDesign) -> np.ndarray:
    return _evaluate(_as_theta(theta, spec.k), design.factors(spec.terms))[2]


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
    if not 0 < tol < math.inf:  # NaN fails too
        raise ValueError("tol must be positive and finite")
    factors = design.factors(spec.terms)
    m = design.m
    k = spec.k

    def objective(theta):
        """(-log posterior, its gradient, its Hessian, log-likelihood)."""
        ll, g, H = _evaluate(theta, factors)
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
