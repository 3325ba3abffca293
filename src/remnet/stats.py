"""Event-history state and sufficient statistics for the 14 model terms.

``HistoryState`` is the one store of the statistics, sized to the terms
it is built for: NTDegRec as an (n,) receiver share that each event
rewrites in O(n), and the other terms that depend on more than the last
event as (n, n) arrays stacked by position, of which each event rewrites
only the rows and columns it changes; RSndSnd's and RRecSnd's rows are
the inverses of (n, n) recency rank arrays. It holds only arrays, so
stores stack. ``design_matrix`` is the one dense read of the store: it
copies the whole risk set into a fresh (terms, dyads) matrix, whose
column ``dyad_index(i, j, n)`` holds dyad (i, j)'s statistics, and
builds only the p-shifts and ICR at read time.
``inference.EventDesign`` keeps the statistics in structured form: it
copies only the stacked arrays out of the store each event, and lists
each p-shift's dyads in closed form from the previous event.
``RiskSetScorer`` keeps theta' u over the risk set current from a store,
row by row: ``simulation.simulate_trajectory`` draws each event from it and
``analysis.adequacy`` ranks the observed event in it.
This is the only implementation of the statistics. The tests check it
bitwise against a naive oracle that recomputes each statistic from the
raw event prefix.

Conventions (the source material gives only verbal definitions):
  NTDegRec normalizes by 2*n_past_events, so it is a [0,1] volume share;
  recency is inverse rank (1/r) over distinct alters, most recent first;
  triadic terms count distinct intermediaries on the binarized cumulative
  graph; p-shifts condition only on the immediately preceding event.
Self-loop dyads are excluded from the risk set everywhere.
"""

from __future__ import annotations

import enum
import operator
from typing import Iterable, Sequence

import numpy as np


class Term(enum.Enum):
    """The 14 candidate model terms, with their canonical output names."""

    NTDEGREC = "NTDegRec"
    FRPSNDSND = "FrPSndSnd"
    RRECSND = "RRecSnd"
    RSNDSND = "RSndSnd"
    OTPSND = "OTPSnd"
    ITPSND = "ITPSnd"
    OSPSND = "OSPSnd"
    ISPSND = "ISPSnd"
    PSABBA = "PSAB-BA"
    PSABBY = "PSAB-BY"
    PSABXA = "PSAB-XA"
    PSABXB = "PSAB-XB"
    PSABAY = "PSAB-AY"
    ICR = "ICR"

    def __repr__(self):
        return f"Term.{self.name}"


ALL_TERMS: tuple[Term, ...] = tuple(Term)
# each term's canonical position, read as ``term.position``: an attribute
# read, where a Term-keyed dict lookup or a tuple scan runs Python code
for _position, _term in enumerate(ALL_TERMS):
    _term.position = _position
del _position, _term
PSHIFT_TERMS: tuple[Term, ...] = (
    Term.PSABBA,
    Term.PSABBY,
    Term.PSABXA,
    Term.PSABXB,
    Term.PSABAY,
)
# each p-shift's (sender, receiver) roles, by position in PSHIFT_TERMS: 0
# is the last event's sender, 1 its receiver, 2 any other actor
_PSHIFT_ROLES = ((1, 0), (1, 2), (2, 0), (2, 1), (0, 2))
# the terms with an (n, n) array in ``HistoryState.stat``, in canonical
# order; design_matrix builds NTDegRec from the (n,) share and the
# p-shifts and ICR at read time
_ARRAY_TERMS: tuple[Term, ...] = (
    Term.FRPSNDSND,
    Term.RRECSND,
    Term.RSNDSND,
    Term.OTPSND,
    Term.ITPSND,
    Term.OSPSND,
    Term.ISPSND,
)
_TRIADIC_TERMS = _ARRAY_TERMS[3:]
# by term position: a p-shift's roles, None for any other term
_ROLES_AT = tuple(
    _PSHIFT_ROLES[PSHIFT_TERMS.index(t)] if t in PSHIFT_TERMS else None
    for t in ALL_TERMS
)

_TERM_BY_NAME = {t.value: t for t in Term}


def term_from_name(name: str) -> Term:
    try:
        return _TERM_BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown term name {name!r}") from None


def canonical_terms(terms: Iterable[Term]) -> tuple[Term, ...]:
    """Terms sorted into the canonical (enum declaration) order."""
    return tuple(sorted(terms, key=operator.attrgetter("position")))


class HistoryState:
    """Cumulative event history of one network of ``n`` actors, and the
    statistics of ``terms`` (all 14 by default) that depend on more than
    the last event.

    It always keeps the counts (``dyad_count``, ``out_degree``,
    ``volume``, each actor's events sent or received, and
    ``n_past_events``) and ``last_event``, from which the p-shifts are
    read. Of the rest it keeps only what ``terms`` read: ``share``,
    NTDegRec's (n,) receiver share (None without NTDegRec); ``rank_out``
    with RSndSnd and ``rank_in`` with RRecSnd, (n, n) float64 recency
    ranks (entry (i, k) is k's rank among i's distinct receivers, or
    senders, 1 the most recent, inf for no contact; else None); the 0/1
    tie matrix ``tie`` (None without a triadic term); and ``stat``, one
    (n, n) float64 array per term of ``array_terms`` (the terms of
    ``terms`` among FrPSndSnd, RRecSnd, RSndSnd, OTPSnd, ITPSnd, OSPSnd
    and ISPSnd, in that order), stacked by position: entry (p, i, j),
    i != j, is term p's statistic of dyad (i, j). Apart from its sizes,
    term tuples and last event it holds only arrays. ``update(a, b)``
    rewrites only what event a -> b changes, all in rows and columns a
    and b: the share; row a of FrPSndSnd; row a of ``rank_out`` and
    RSndSnd, and row b of ``rank_in`` and RRecSnd, each statistic row the
    inverse of its rank row; and, on a new tie a -> b only, rows and
    columns a or b of the triadic arrays, each by adding a row or column
    of ``tie``. Each entry has the bits of its from-scratch value: counts
    and ranks are exact in float64, and 1 / inf is 0.

    Mutation is single-writer and strictly sequential per trajectory;
    read-only statistic evaluation at a fixed state is side-effect free.
    """

    __slots__ = (
        "n",
        "terms",
        "dyad_count",
        "out_degree",
        "volume",
        "rank_in",
        "rank_out",
        "last_event",
        "n_past_events",
        "share",
        "tie",
        "array_terms",
        "stat",
        "slot",
        "_frp",
        "_rrec",
        "_rsnd",
        "_otp",
        "_itp",
        "_osp",
        "_isp",
    )

    def __init__(self, n: int, terms: Iterable[Term] = ALL_TERMS):
        self.n = n
        self.terms = tuple(terms)
        self.dyad_count = np.zeros((n, n), dtype=np.int64)
        self.out_degree = np.zeros(n, dtype=np.int64)
        self.volume = np.zeros(n, dtype=np.int64)
        self.last_event: tuple[int, int] | None = None
        self.n_past_events = 0
        self.share = np.zeros(n) if Term.NTDEGREC in self.terms else None
        self.rank_out = np.full((n, n), np.inf) if Term.RSNDSND in self.terms else None
        self.rank_in = np.full((n, n), np.inf) if Term.RRECSND in self.terms else None
        kept = tuple(t for t in _ARRAY_TERMS if t in self.terms)
        self.array_terms = kept
        self.stat = np.zeros((len(kept), n, n))
        self.tie = np.zeros((n, n)) if any(t in kept for t in _TRIADIC_TERMS) else None
        # by term position: the term's index in ``stat``, -1 for a kept
        # term read otherwise, None for a term not kept
        self.slot = tuple(
            kept.index(t) if t in kept else -1 if t in self.terms else None
            for t in ALL_TERMS
        )
        (
            self._frp,
            self._rrec,
            self._rsnd,
            self._otp,
            self._itp,
            self._osp,
            self._isp,
        ) = (self.stat[kept.index(t)] if t in kept else None for t in _ARRAY_TERMS)

    def update(self, a: int, b: int) -> "HistoryState":
        """Record event a -> b. Returns self."""
        if a == b:
            raise ValueError("self-loop event")
        if not (0 <= a < self.n and 0 <= b < self.n):
            raise ValueError(f"unknown actor in event ({a}, {b})")
        tie = self.tie
        if tie is not None and not tie[a, b]:
            # B -> B + e_a e_b' adds e_a B[b] + B[:, a] e_b' to B B, and
            # likewise to B B' and B'B; their diagonals are never read.
            # ITPSnd is OTPSnd's transpose.
            if self._otp is not None:
                self._otp[a] += tie[b]
                self._otp[:, b] += tie[:, a]
            if self._itp is not None:
                self._itp[:, a] += tie[b]
                self._itp[b] += tie[:, a]
            if self._osp is not None:
                self._osp[a] += tie[:, b]
                self._osp[:, a] += tie[:, b]
            if self._isp is not None:
                self._isp[b] += tie[a]
                self._isp[:, b] += tie[a]
            tie[a, b] = 1.0
        self.dyad_count[a, b] += 1
        self.out_degree[a] += 1
        self.volume[a] += 1
        self.volume[b] += 1
        self.n_past_events += 1
        if self.share is not None:
            np.divide(self.volume, 2 * self.n_past_events, out=self.share)
        if self._frp is not None:
            self._frp[a] = self.dyad_count[a] / self.out_degree[a]
        if self._rsnd is not None:
            _make_recent(self.rank_out[a], b, self._rsnd[a])
        if self._rrec is not None:
            _make_recent(self.rank_in[b], a, self._rrec[b])
        self.last_event = (a, b)
        return self


def _make_recent(rank: np.ndarray, alter: int, row: np.ndarray) -> None:
    """Give ``alter`` rank 1 in ``rank``, one actor's recency ranks, moving
    each alter more recent than its old rank down one, and write the
    inverse ranks into ``row``."""
    rank += rank < rank[alter]
    rank[alter] = 1.0
    np.divide(1.0, rank, out=row)


class RiskSetScorer:
    """Log-scores theta' u of every dyad of the risk set, kept current event
    by event from a ``HistoryState``: what the sampler draws from and what
    adequacy ranks.

    The terms of ``terms`` with a nonzero coefficient in ``theta`` are
    replayed in a ``HistoryState`` sized to them; ``icr`` is the
    0/1 actor vector. ``s_rest``, the (n, n) score of ICR and the store's
    array terms, is recomputed from the store in the rows (and, on a new
    tie with a triadic term, the columns) of each event. ``scores`` adds
    NTDegRec's receiver share and the p-shift rows, columns and dyads to it.
    """

    def __init__(self, terms: Sequence[Term], theta: np.ndarray, icr: np.ndarray):
        coef = {t: float(c) for t, c in zip(terms, theta) if c != 0.0}
        n = len(icr)
        self._state = state = HistoryState(n, canonical_terms(coef))
        self._base = coef.get(Term.ICR, 0.0) * (icr[:, None] + icr[None, :])
        self._theta_arr = np.array([coef[t] for t in state.array_terms])[:, None]
        self._theta_deg = coef.get(Term.NTDEGREC, 0.0)
        # (coefficient, (sender role, receiver role)) of each p-shift in use
        self._pshifts = [
            (coef[t], r) for t, r in zip(PSHIFT_TERMS, _PSHIFT_ROLES) if t in coef
        ]
        self._s_rest = self._base.copy()
        self._w = np.empty((n, n))
        self._diagonal = self._w.reshape(-1)[:: n + 1]
        self._other = np.ones(n)  # 0 at the last event's actors

    def scores(self) -> np.ndarray:
        """The (n, n) log-scores at the current state, entry (i, j) dyad
        (i, j), with a -inf diagonal. The array is the scorer's own buffer:
        the caller may overwrite it, and the next call does."""
        w, state = self._w, self._state
        if self._theta_deg:
            np.add(self._s_rest, self._theta_deg * state.share, out=w)
        else:
            w[:] = self._s_rest
        if self._pshifts and state.last_event is not None:
            # a p-shift is a row (receiver role 2), a column (sender role
            # 2) or one dyad; role 2 is every actor outside the last event
            actor, other = state.last_event, self._other
            other[list(actor)] = 0.0
            for coef_p, (sender, receiver) in self._pshifts:
                if receiver == 2:
                    w[actor[sender]] += coef_p * other
                elif sender == 2:
                    w[:, actor[receiver]] += coef_p * other
                else:
                    w[actor[sender], actor[receiver]] += coef_p
            other[list(actor)] = 1.0
        self._diagonal[:] = -np.inf
        return w

    def update(self, i: int, j: int) -> None:
        """Record event i -> j and refresh ``s_rest`` where it changed."""
        state = self._state
        state.update(i, j)
        if state.array_terms:
            s_rest, base, theta_arr = self._s_rest, self._base, self._theta_arr
            new_tie = state.tie is not None and state.dyad_count[i, j] == 1
            for x in (i, j):
                s_rest[x] = (theta_arr * state.stat[:, x]).sum(axis=0) + base[x]
                if new_tie:
                    col = (theta_arr * state.stat[:, :, x]).sum(axis=0)
                    s_rest[:, x] = col + base[:, x]


def dyad_index(i: int, j: int, n: int) -> int:
    """Canonical index of dyad (i, j) in the row-major, diagonal-free order."""
    if i == j:
        raise ValueError("self-loop dyad")
    return i * (n - 1) + (j if j < i else j - 1)


def dyad_from_index(idx, n: int):
    """Dyad (i, j) of a canonical index; elementwise for an array of indices."""
    i, j = divmod(idx, n - 1)
    return i, j + (j >= i)


def _offdiag(mat: np.ndarray) -> np.ndarray:
    """Off-diagonal entries of square ``mat``, or of each of a stack of
    them, shape (..., n-1, n), in canonical dyad order: a view of a
    C-contiguous ``mat``."""
    *stack, n, _ = mat.shape
    return mat.reshape(*stack, n * n)[..., 1:].reshape(*stack, n - 1, n + 1)[..., :n]


def design_matrix(
    state: HistoryState, icr: np.ndarray, terms: Sequence[Term]
) -> np.ndarray:
    """Statistic matrix of shape (len(terms), n*(n-1)), C-contiguous: row c
    is term c over the risk set in canonical dyad order, so column
    ``dyad_index(i, j, n)`` holds dyad (i, j)'s statistics.

    A dense read of ``state``: the array terms are copied out of
    ``state.stat`` and NTDegRec from ``state.share``. Each p-shift is built
    from ``state.last_event`` as an outer product of role indicators, and
    ICR from ``icr``. Raises ValueError for a term ``state`` was built
    without.
    """
    n = state.n
    X = np.empty((len(terms), n * (n - 1)))
    out = X.reshape(len(terms), n - 1, n)
    role = np.zeros((3, n))
    if state.last_event is not None:
        a, b = state.last_event
        role[0, a] = role[1, b] = 1.0
        role[2] = 1.0 - role[0] - role[1]
    for c, term in enumerate(terms):
        slot = state.slot[term.position]
        if slot is None:
            raise ValueError(f"history state keeps no statistics for {term!r}")
        if slot >= 0:
            mat = state.stat[slot]
        elif term is Term.NTDEGREC:
            mat = np.broadcast_to(state.share, (n, n))
        elif _ROLES_AT[term.position] is not None:
            sender, receiver = _ROLES_AT[term.position]
            mat = role[sender, :, None] * role[receiver]
        else:  # ICR
            vec = np.asarray(icr, dtype=np.float64)
            mat = vec[:, None] + vec[None, :]
        out[c] = _offdiag(mat)
    return X
