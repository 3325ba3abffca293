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
``reference_evaluate``, ``reference_prior_evaluate`` and ``reference_fit``
are the weighted-row kernel, the t prior and the MAP fit loop as they were
before the per-fit constants left their per-theta paths, kept verbatim:
the current ones must give the same bits. ``reference_design`` is the
design build as it was before it coded and merged its rows a block of
events at a time, kept verbatim: ``EventDesign`` must give its bits.
"""

import math
import types
import warnings
from typing import Sequence

import numpy as np
from scipy.special import logsumexp

from remnet import inference
from remnet.inference import (
    _EPS,
    FitResult,
    NumericalError,
    PriorSpec,
    _as_theta,
    _SERIES_DF,
    aicc,
    aicc_defined,
)
from remnet.stats import (
    ALL_TERMS,
    PSHIFT_TERMS,
    HistoryState,
    Term,
    _offdiag,
    _ROLES_AT,
    design_matrix,
    dyad_from_index,
    dyad_index,
)


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


def reference_evaluate(theta, f) -> tuple[float, np.ndarray, np.ndarray]:
    """Log-likelihood, gradient and Hessian of ``theta`` over ``f``, a
    spec's ``inference._Factors``, each event's expected statistics summed
    by a 1-D ``reduceat`` of each term's products and H's second sum
    formed a block of ``inference._BLOCK_ROWS`` rows at a time. Test
    oracle: ``inference._evaluate`` must give its bits."""
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
    for start in range(0, p.size, inference._BLOCK_ROWS):
        X = f.X[:, start : start + inference._BLOCK_ROWS]
        H -= (X * p[start : start + inference._BLOCK_ROWS]) @ X.T
    return ll, g, H


def reference_prior_evaluate(prior: PriorSpec, theta) -> tuple[float, np.ndarray, np.ndarray]:
    """``prior``'s log density, gradient and Hessian diagonal at ``theta``,
    the normalising constant computed at each call. Test oracle:
    ``PriorSpec.evaluate`` must give its bits."""
    nu, scale = prior.df, prior.scale
    z = (np.asarray(theta, dtype=np.float64) - prior.location) / scale
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


def _reference_newton_step(g, H):
    scale, lam = max(float(np.max(np.abs(H))), 1.0), 0.0
    while lam <= 4 * len(g) * scale:
        try:
            L = np.linalg.cholesky(H + lam * np.eye(len(g)))
            return -np.linalg.solve(L.T, np.linalg.solve(L, g))
        except np.linalg.LinAlgError:
            lam = max(2.0 * lam, 1e-8 * scale)
    raise NumericalError("no damping makes the Hessian positive definite")


def reference_fit(
    spec, design, prior=PriorSpec(), tol=1e-6, max_iter=500, theta0=None, factors=None
) -> FitResult:
    """``inference.fit_map``'s damped Newton loop over ``reference_evaluate``
    and ``reference_prior_evaluate``, each step's damping found with an
    identity built per try. Test oracle: ``fit_map`` must give its bits
    and its iteration count."""
    factors = design.factors(spec.terms) if factors is None else factors
    m = design.m
    k = spec.k

    def objective(theta):
        ll, g, H = reference_evaluate(theta, factors)
        log_prior, prior_g, prior_h = reference_prior_evaluate(prior, theta)
        return -(ll + log_prior), -(g + prior_g), -(H + np.diag(prior_h)), ll

    theta = np.zeros(k) if theta0 is None else _as_theta(theta0, k).copy()
    f, g, H, ll = objective(theta)
    radius, n_iter = 1.0, 0
    while np.max(np.abs(g), initial=0.0) > tol and n_iter < max_iter:
        if radius <= _EPS * (1.0 + np.max(np.abs(theta))):
            break
        n_iter += 1
        p = _reference_newton_step(g, H)
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


def _reference_coded(values: np.ndarray):
    """``inference._coded`` as it was before the blocked build, kept
    verbatim: a term's levels and the codes of ``values`` into them."""
    bits = values.view(np.int64)
    order = np.argsort(bits)
    ranked = np.concatenate(([0], bits[order]))
    step = ranked[1:] != ranked[:-1]
    levels = np.concatenate(([0], ranked[1:][step]))
    codes = np.empty(bits.size, dtype=np.min_scalar_type(levels.size - 1))
    codes[order] = np.cumsum(step)
    return levels.view(np.float64), codes


def reference_design(actors, seq, terms=ALL_TERMS) -> types.SimpleNamespace:
    """The ``EventDesign`` build as it was before it ran a merge block at a
    time, kept verbatim: it lists, codes and merges every row of the
    network at once, against each term's global levels, with one
    ``inference._merge``. Returns its ``event``, ``count``, ``codes``,
    ``levels`` and ``observed``. Test oracle: ``EventDesign`` must give
    its bits, dtypes included."""
    terms = tuple(terms)
    n = actors.n
    m = seq.m
    D = n * (n - 1)
    sparse = [t for t in terms if t not in (Term.NTDEGREC, Term.ICR)]
    icr = actors.icr_array()
    pairs = seq.index_pairs(actors)
    per_block = max(1, inference._BLOCK_ROWS // D)
    # before the block buffer, so that no array pins its hole
    share = np.empty((m, n)) if Term.NTDEGREC in terms else None
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
    state = HistoryState(n, terms)
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
        levels[t], codes = _reference_coded(values)
        row_codes[t] = np.zeros(row_event.size, dtype=codes.dtype)
        row_codes[t][slots] = codes
    slots = values = codes = None
    if share is not None:
        # a row's NTDegRec is its (event, receiver) entry of the share
        levels[Term.NTDEGREC], codes = _reference_coded(share.reshape(-1))
        row_codes[Term.NTDEGREC] = codes[row_event.astype(np.intp) * n + row_receiver]
        share = codes = None
    if Term.ICR in terms:
        # a row's ICR is its sender's flag plus its receiver's
        levels[Term.ICR] = np.arange(3.0)
        row_codes[Term.ICR] = row_flag + flag[row_receiver]
    row_flag = row_receiver = None

    event, count, codes, observed = inference._merge(
        (row_event, weight, row_codes, observed), terms, levels, m
    )
    observed = observed.astype(np.min_scalar_type(count.size - 1))
    return types.SimpleNamespace(
        event=event, count=count, codes=codes, levels=levels, observed=observed
    )
