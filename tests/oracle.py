"""Naive oracle: statistics recomputed from a raw event prefix, no HistoryState.

Independent of ``remnet.stats.design_matrix``; the tests require the two
to agree bitwise. ``naive_log_likelihood`` builds the likelihood from these
statistics one event at a time, independent of ``remnet.inference``.
``dense_design`` is the dense reference the other oracles read: every
event's statistics from ``design_matrix`` over a ``HistoryState`` replay,
and ``dense_scores`` scores them term by term.
``sorted_adequacy_ranks`` ranks each event's dyads by a stable sort, the
reference for the ranks of ``remnet.analysis.adequacy``.
``dense_evaluate`` is the dense likelihood kernel over those statistics,
the reference for the weighted-row kernel of ``remnet.inference``.
"""

from typing import Sequence

import numpy as np
from scipy.special import logsumexp

from remnet.inference import NumericalError
from remnet.stats import PSHIFT_TERMS, HistoryState, Term, design_matrix, dyad_index


def naive_stat(
    events: Sequence[tuple[int, int]],
    icr: np.ndarray,
    n: int,
    i: int,
    j: int,
    term: Term,
) -> float:
    """Recompute one statistic by scanning the raw prefix. Test oracle."""
    m = len(events)
    if term is Term.NTDEGREC:
        if m == 0:
            return 0.0
        vol = sum(1 for s, r in events if s == j) + sum(
            1 for s, r in events if r == j
        )
        return float(np.int64(vol) / np.int64(2 * m))
    if term is Term.FRPSNDSND:
        sent = sum(1 for s, r in events if s == i)
        if sent == 0:
            return 0.0
        to_j = sum(1 for s, r in events if s == i and r == j)
        return float(np.int64(to_j) / np.int64(sent))
    if term in (Term.RRECSND, Term.RSNDSND):
        seen: list[int] = []
        for s, r in reversed(events):
            if term is Term.RRECSND and r == i and s not in seen:
                seen.append(s)
            elif term is Term.RSNDSND and s == i and r not in seen:
                seen.append(r)
        return 1.0 / (seen.index(j) + 1) if j in seen else 0.0
    if term in (Term.OTPSND, Term.ITPSND, Term.OSPSND, Term.ISPSND):
        pairs = {(s, r) for s, r in events}

        def tie(a, b):
            return (a, b) in pairs

        total = 0
        for k in range(n):
            if k in (i, j):
                continue
            if term is Term.OTPSND:
                hit = tie(i, k) and tie(k, j)
            elif term is Term.ITPSND:
                hit = tie(k, i) and tie(j, k)
            elif term is Term.OSPSND:
                hit = tie(i, k) and tie(j, k)
            else:
                hit = tie(k, i) and tie(k, j)
            total += hit
        return float(total)
    if term in PSHIFT_TERMS:
        if m == 0:
            return 0.0
        a, b = events[-1]
        kind = term.name[2:]
        if kind == "ABBA":
            return float(i == b and j == a)
        if kind == "ABBY":
            return float(i == b and j not in (a, b))
        if kind == "ABXA":
            return float(j == a and i not in (a, b))
        if kind == "ABXB":
            return float(j == b and i not in (a, b))
        return float(i == a and j not in (a, b))
    if term is Term.ICR:
        return float(icr[i]) + float(icr[j])
    raise ValueError(f"unknown term {term!r}")


def naive_stat_vector(
    events: Sequence[tuple[int, int]],
    icr: np.ndarray,
    n: int,
    i: int,
    j: int,
    terms: Sequence[Term],
) -> np.ndarray:
    if i == j:
        raise ValueError("self-loop dyad")
    return np.array([naive_stat(events, icr, n, i, j, t) for t in terms])


def naive_log_likelihood(
    events: Sequence[tuple[int, int]],
    icr: np.ndarray,
    n: int,
    terms: Sequence[Term],
    theta: np.ndarray,
) -> float:
    """Ordinal-timing log-likelihood, one event at a time. Test oracle.

    Each event's risk set is every ordered pair (i, j), i != j, scored by
    ``naive_stat_vector`` on the events before it.
    """
    dyads = [(i, j) for i in range(n) for j in range(n) if i != j]
    total = 0.0
    for t, event in enumerate(events):
        prefix = events[:t]
        scores = np.array(
            [naive_stat_vector(prefix, icr, n, i, j, terms) @ theta for i, j in dyads]
        )
        total += scores[dyads.index(event)] - logsumexp(scores)
    return float(total)


def dense_design(actors, seq, terms):
    """Every event's statistics of ``terms``, shape (k, m, n(n-1)), each
    event's the ``design_matrix`` read of a ``HistoryState`` replay of the
    events before it, and each event's observed dyad index. Test oracle."""
    n = actors.n
    pairs = seq.index_pairs(actors).tolist()
    state, icr = HistoryState(n), actors.icr_array()
    X = np.empty((len(terms), len(pairs), n * (n - 1)))
    for t, (a, b) in enumerate(pairs):
        X[:, t] = design_matrix(state, icr, terms)
        state.update(a, b)
    return X, np.array([dyad_index(a, b, n) for a, b in pairs])


def dense_scores(theta, X):
    """theta' X of (k, m, n(n-1)) statistics, summed term by term, so dyads
    with equal statistics tie exactly. Test oracle."""
    s = np.zeros(X.shape[1:])
    for coef, stats in zip(np.asarray(theta, dtype=np.float64), X):
        s += coef * stats
    return s


def sorted_adequacy_ranks(scores: np.ndarray, obs_idx: np.ndarray, n: int):
    """Adequacy ranks by a stable descending sort of each event. Test oracle.

    Returns (top dyad per event, 0-based rank of the observed dyad per
    event, events whose top dyad shares the sender or the receiver of the
    observed one, events whose top dyad is the observed one).
    """
    m = scores.shape[0]
    either = 0
    both = 0
    tops = np.empty(m, dtype=np.intp)
    positions = np.empty(m, dtype=np.intp)
    for t in range(m):
        order = np.argsort(-scores[t], kind="stable")
        obs = obs_idx[t]
        top = int(order[0])
        obs_i, obs_j = divmod(int(obs), n - 1)
        top_i, top_j = divmod(top, n - 1)
        if obs_j >= obs_i:
            obs_j += 1
        if top_j >= top_i:
            top_j += 1
        if top_i == obs_i or top_j == obs_j:
            either += 1
        if top == obs:
            both += 1
        tops[t] = top
        positions[t] = int(np.nonzero(order == obs)[0][0])
    return tops, positions, either, both


def dense_evaluate(theta, X, obs) -> tuple[float, np.ndarray, np.ndarray]:
    """Log-likelihood, gradient and Hessian of ``theta`` in one pass over
    the (k, m, n_dyads) statistics ``X`` and observed dyads ``obs`` of
    ``dense_design``. Test oracle.

    Every dyad of every event is scored; each event's scores are shifted
    by their maximum, exponentiated and normalised, and ll, g and
    H = E'E - X'(p * X) are summed over the events, where E holds each
    event's expected statistics.
    """
    theta = np.asarray(theta, dtype=np.float64)
    k, m, D = X.shape
    X = X.reshape(k, m * D)
    s = (theta @ X).reshape(m, D)
    if not np.all(np.isfinite(s)):
        raise NumericalError("non-finite linear predictor")
    observed = np.arange(m) * D + obs
    s -= s.max(axis=1, keepdims=True)
    observed_score = s.reshape(-1)[observed]
    np.exp(s, out=s)
    total = s.sum(axis=1, keepdims=True)
    s /= total
    ll = float(np.sum(observed_score - np.log(total[:, 0])))
    pX = X * s.reshape(-1)
    expected = pX.reshape(k, m, D).sum(axis=2)
    g = X[:, observed].sum(axis=1) - expected.sum(axis=1)
    H = expected @ expected.T - pX @ X.T
    return ll, g, H
