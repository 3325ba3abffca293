"""Event-history state and sufficient statistics for the 14 model terms.

A ``HistoryState`` is updated event by event, and ``design_matrix``
evaluates every term over the whole risk set from it in one vectorized
pass; ``stat_vector`` is one row of that matrix. This is the only
implementation of the statistics. The tests check it bitwise against a
naive oracle that recomputes each statistic from the raw event prefix.

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
PSHIFT_TERMS: tuple[Term, ...] = (
    Term.PSABBA,
    Term.PSABBY,
    Term.PSABXA,
    Term.PSABXB,
    Term.PSABAY,
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
    """Cumulative event history for one network of ``n`` actors.

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

    def update(self, a: int, b: int) -> "HistoryState":
        """Record event a -> b. Returns self."""
        if a == b:
            raise ValueError("self-loop event")
        if not (0 <= a < self.n and 0 <= b < self.n):
            raise ValueError(f"unknown actor in event ({a}, {b})")
        self.dyad_count[a, b] += 1
        self.out_degree[a] += 1
        self.in_degree[b] += 1
        ro = self.recency_out[a]
        if b in ro:
            ro.remove(b)
        ro.insert(0, b)
        ri = self.recency_in[b]
        if a in ri:
            ri.remove(a)
        ri.insert(0, a)
        self.last_event = (a, b)
        self.n_past_events += 1
        return self


def replay(events: Sequence[tuple[int, int]], n: int) -> HistoryState:
    """State after applying every event of a prefix, from scratch."""
    state = HistoryState(n)
    for a, b in events:
        state.update(a, b)
    return state


# ---------------------------------------------------------------------------
# vectorized evaluation over the whole risk set


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
    n = mat.shape[0]
    mask = ~np.eye(n, dtype=bool)
    return mat[mask]


def design_matrix(
    state: HistoryState, icr: np.ndarray, terms: Sequence[Term]
) -> np.ndarray:
    """Statistic matrix of shape (n*(n-1), len(terms)) in canonical dyad order."""
    n = state.n
    cols = []
    binarized = None
    for term in terms:
        if term is Term.NTDEGREC:
            if state.n_past_events == 0:
                mat = np.zeros((n, n))
            else:
                share = (state.in_degree + state.out_degree) / (
                    2 * state.n_past_events
                )
                mat = np.broadcast_to(share, (n, n)).copy()
        elif term is Term.FRPSNDSND:
            out = state.out_degree.astype(np.float64)[:, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                mat = np.where(out > 0, state.dyad_count / out, 0.0)
        elif term in (Term.RRECSND, Term.RSNDSND):
            source = (
                state.recency_in if term is Term.RRECSND else state.recency_out
            )
            mat = np.zeros((n, n))
            for i in range(n):
                for rank, alter in enumerate(source[i], start=1):
                    mat[i, alter] = 1.0 / rank
        elif term in (Term.OTPSND, Term.ITPSND, Term.OSPSND, Term.ISPSND):
            if binarized is None:
                binarized = (state.dyad_count > 0).astype(np.float64)
            B = binarized
            if term is Term.OTPSND:
                mat = B @ B
            elif term is Term.ITPSND:
                mat = (B @ B).T
            elif term is Term.OSPSND:
                mat = B @ B.T
            else:
                mat = B.T @ B
            # intermediaries k in {i, j} never contribute: the diagonal of
            # dyad_count is structurally zero
        elif term in PSHIFT_TERMS:
            mat = np.zeros((n, n))
            if state.last_event is not None:
                a, b = state.last_event
                if term is Term.PSABBA:
                    mat[b, a] = 1.0
                elif term is Term.PSABBY:
                    mat[b, :] = 1.0
                    mat[b, a] = 0.0
                    mat[b, b] = 0.0
                elif term is Term.PSABXA:
                    mat[:, a] = 1.0
                    mat[a, a] = 0.0
                    mat[b, a] = 0.0
                elif term is Term.PSABXB:
                    mat[:, b] = 1.0
                    mat[a, b] = 0.0
                    mat[b, b] = 0.0
                else:  # PSABAY
                    mat[a, :] = 1.0
                    mat[a, a] = 0.0
                    mat[a, b] = 0.0
        elif term is Term.ICR:
            vec = np.asarray(icr, dtype=np.float64)
            mat = vec[:, None] + vec[None, :]
        else:
            raise ValueError(f"unknown term {term!r}")
        cols.append(_offdiag(np.asarray(mat, dtype=np.float64)))
    if not cols:
        return np.zeros((n * (n - 1), 0))
    return np.stack(cols, axis=1)


def stat_vector(
    state: HistoryState,
    icr: np.ndarray,
    i: int,
    j: int,
    terms: Sequence[Term],
) -> np.ndarray:
    """Statistic values for dyad (i, j), in the order of ``terms``.

    The row of ``design_matrix`` for that dyad. Raises ValueError for a
    self-loop or an actor outside ``[0, n)``.
    """
    n = state.n
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"unknown actor in dyad ({i}, {j})")
    row = dyad_index(i, j, n)
    return design_matrix(state, icr, terms)[row]
