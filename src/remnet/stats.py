"""Event-history state and sufficient statistics for the 14 model terms.

``HistoryState`` is the one store of the statistics: each event rewrites
the whole (n, n) NTDegRec array, in O(n^2), and of the others only the
rows and columns it changes. ``_fill_design`` reads the store over the
whole risk set into a caller's array and builds only the p-shifts and
ICR at read time; ``design_matrix`` is that read into a fresh (terms,
dyads) matrix, and ``stat_vector`` is one column of it.
``inference.EventDesign`` keeps the same reads in structured form (the
NTDegRec share, the ICR vector and each other term's nonzero entries).
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
# each p-shift's (sender, receiver) roles: 0 is the last event's sender,
# 1 its receiver, 2 any other actor
_PSHIFT_ROLES = {
    Term.PSABBA: (1, 0),
    Term.PSABBY: (1, 2),
    Term.PSABXA: (2, 0),
    Term.PSABXB: (2, 1),
    Term.PSABAY: (0, 2),
}
PSHIFT_TERMS: tuple[Term, ...] = tuple(_PSHIFT_ROLES)
# the terms HistoryState stores an (n, n) array for: design_matrix builds
# the p-shifts and ICR at read time, and ITPSnd is OTPSnd's transpose
_STORED_TERMS: tuple[Term, ...] = tuple(
    t for t in Term if t not in (*PSHIFT_TERMS, Term.ITPSND, Term.ICR)
)

_TERM_BY_NAME = {t.value: t for t in Term}
_TERM_ORDER = {t: k for k, t in enumerate(ALL_TERMS)}


def term_from_name(name: str) -> Term:
    try:
        return _TERM_BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown term name {name!r}") from None


def canonical_terms(terms: Iterable[Term]) -> tuple[Term, ...]:
    """Terms sorted into the canonical (enum declaration) order."""
    return tuple(sorted(terms, key=_TERM_ORDER.__getitem__))


class HistoryState:
    """Cumulative event history of one network of ``n`` actors, and the
    statistics that depend on more than the last event.

    Besides the counts, the recency lists and ``last_event``, it keeps the
    0/1 tie matrix ``tie`` and, in ``stat``, one (n, n) float64 array for
    each of NTDegRec, FrPSndSnd, RRecSnd, RSndSnd, OTPSnd, OSPSnd and
    ISPSnd, plus ITPSnd as a view of OTPSnd's transpose; entry (i, j),
    i != j, is the statistic of dyad (i, j). ``update(a, b)`` rewrites
    only what event a -> b changes: the NTDegRec share; row a of
    FrPSndSnd; the listed alters of RSndSnd row a and of RRecSnd row b;
    and, on a new tie a -> b only, rows and columns a or b of the triadic
    arrays, each by adding a row or column of ``tie``. Each entry has the
    bits of its from-scratch value: counts are exact in float64.

    Mutation is single-writer and strictly sequential per trajectory;
    read-only statistic evaluation at a fixed state is side-effect free.
    """

    __slots__ = (
        "n",
        "dyad_count",
        "out_degree",
        "in_degree",
        "recency_in",
        "recency_out",
        "last_event",
        "n_past_events",
        "tie",
        "stat",
        "_inv_rank",
    )

    def __init__(self, n: int):
        self.n = n
        self.dyad_count = np.zeros((n, n), dtype=np.int64)
        self.out_degree = np.zeros(n, dtype=np.int64)
        self.in_degree = np.zeros(n, dtype=np.int64)
        # recency_in[i]: distinct actors who sent to i, most recent first
        # recency_out[i]: distinct actors i sent to, most recent first
        self.recency_in: list[list[int]] = [[] for _ in range(n)]
        self.recency_out: list[list[int]] = [[] for _ in range(n)]
        self.last_event: tuple[int, int] | None = None
        self.n_past_events = 0
        self.tie = np.zeros((n, n))
        self.stat = {term: np.zeros((n, n)) for term in _STORED_TERMS}
        self.stat[Term.ITPSND] = self.stat[Term.OTPSND].T  # a view
        self._inv_rank = 1.0 / np.arange(1, n + 1)

    def update(self, a: int, b: int) -> "HistoryState":
        """Record event a -> b. Returns self."""
        if a == b:
            raise ValueError("self-loop event")
        if not (0 <= a < self.n and 0 <= b < self.n):
            raise ValueError(f"unknown actor in event ({a}, {b})")
        stat = self.stat
        if not self.tie[a, b]:
            # B -> B + e_a e_b' adds e_a B[b] + B[:, a] e_b' to B B, and
            # likewise to B B' and B'B; their diagonals are never read
            tie = self.tie
            stat[Term.OTPSND][a] += tie[b]
            stat[Term.OTPSND][:, b] += tie[:, a]
            stat[Term.OSPSND][a] += tie[:, b]
            stat[Term.OSPSND][:, a] += tie[:, b]
            stat[Term.ISPSND][b] += tie[a]
            stat[Term.ISPSND][:, b] += tie[a]
            tie[a, b] = 1.0
        self.dyad_count[a, b] += 1
        self.out_degree[a] += 1
        self.in_degree[b] += 1
        self.n_past_events += 1
        volume = self.in_degree + self.out_degree
        stat[Term.NTDEGREC][:] = volume / (2 * self.n_past_events)
        stat[Term.FRPSNDSND][a] = self.dyad_count[a] / self.out_degree[a]
        for row, alter, recency, term in (
            (a, b, self.recency_out[a], Term.RSNDSND),
            (b, a, self.recency_in[b], Term.RRECSND),
        ):
            if alter in recency:
                recency.remove(alter)
            recency.insert(0, alter)
            stat[term][row, recency] = self._inv_rank[: len(recency)]
        self.last_event = (a, b)
        return self


def replay(events: Sequence[tuple[int, int]], n: int) -> HistoryState:
    """State after applying every event of a prefix, from scratch."""
    state = HistoryState(n)
    for a, b in events:
        state.update(a, b)
    return state


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
    """Off-diagonal entries of square ``mat``, (n-1, n), in canonical dyad order."""
    n = mat.shape[0]
    return np.ravel(mat)[1:].reshape(n - 1, n + 1)[:, :n]


def _fill_design(
    state: HistoryState, icr: np.ndarray, terms: Sequence[Term], out: np.ndarray
) -> None:
    """Write the statistics of ``terms`` into ``out``, a (len(terms), n-1, n)
    view: ``out[c]``, read row-major, is term c over the risk set in
    canonical dyad order.

    A read of ``state``: the stored terms are copied out of ``state.stat``
    (ITPSnd from OTPSnd's transpose). Each p-shift is built from
    ``state.last_event`` as an outer product of role indicators, and ICR
    from ``icr``.
    """
    n = state.n
    role = np.zeros((3, n))
    if state.last_event is not None:
        a, b = state.last_event
        role[0, a] = role[1, b] = 1.0
        role[2] = 1.0 - role[0] - role[1]
    for c, term in enumerate(terms):
        if term in state.stat:
            mat = state.stat[term]
        elif term in _PSHIFT_ROLES:
            sender, receiver = _PSHIFT_ROLES[term]
            mat = role[sender, :, None] * role[receiver]
        elif term is Term.ICR:
            vec = np.asarray(icr, dtype=np.float64)
            mat = vec[:, None] + vec[None, :]
        else:
            raise ValueError(f"unknown term {term!r}")
        out[c] = _offdiag(mat)


def design_matrix(
    state: HistoryState, icr: np.ndarray, terms: Sequence[Term]
) -> np.ndarray:
    """Statistic matrix of shape (len(terms), n*(n-1)), C-contiguous: row c
    is term c over the risk set in canonical dyad order, the layout
    ``_fill_design`` writes."""
    n = state.n
    X = np.empty((len(terms), n * (n - 1)))
    _fill_design(state, icr, terms, X.reshape(len(terms), n - 1, n))
    return X


def stat_vector(
    state: HistoryState,
    icr: np.ndarray,
    i: int,
    j: int,
    terms: Sequence[Term],
) -> np.ndarray:
    """Statistic values for dyad (i, j), in the order of ``terms``.

    The column of ``design_matrix`` for that dyad. Raises ValueError for a
    self-loop or an actor outside ``[0, n)``.
    """
    n = state.n
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"unknown actor in dyad ({i}, {j})")
    return design_matrix(state, icr, terms)[:, dyad_index(i, j, n)]
