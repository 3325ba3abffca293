import collections
import hashlib
import math
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp
from scipy.stats import t as student_t

from remnet import inference
from remnet.data import write_json
from remnet.inference import (
    EventDesign,
    FitResult,
    InadmissibleModelError,
    ModelSpec,
    NumericalError,
    PriorSpec,
    aicc,
    fit_map,
    gradient,
    hessian,
    log_likelihood,
    posterior_interval,
    star_codes,
)
from remnet.stats import ALL_TERMS, PSHIFT_TERMS, HistoryState, Term, design_matrix

from conftest import (
    make_actors,
    point_mass_fit,
    random_events,
    random_sequence,
    sequence_from_pairs,
    simulate_sequence,
)
from oracle import (
    dense_design,
    dense_evaluate,
    dense_scores,
    naive_log_likelihood,
    naive_stat_vector,
)


def all_term_spec(network_id="net"):
    return ModelSpec(terms=ALL_TERMS, network_id=network_id)


def test_null_loglik_closed_form(path_sized_fixture):
    actors, seq = path_sized_fixture
    spec = ModelSpec(terms=(), network_id="net")
    ll = log_likelihood(np.zeros(0), spec, EventDesign(actors, seq, spec.terms))
    expected = -70 * math.log(32 * 31)
    assert ll == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(-482.98, abs=0.01)


def test_null_loglik_single_event_two_actors():
    actors = make_actors(2)
    seq = sequence_from_pairs(actors, [(0, 1)])
    spec = ModelSpec(terms=(), network_id="net")
    design = EventDesign(actors, seq, spec.terms)
    assert log_likelihood(np.zeros(0), spec, design) == pytest.approx(
        -math.log(2)
    )


def test_loglik_nonpositive(small_fixture):
    actors, seq = small_fixture
    design = EventDesign(actors, seq)
    rng = np.random.default_rng(0)
    for _ in range(5):
        theta = rng.normal(0, 1, 14)
        assert log_likelihood(theta, all_term_spec(), design=design) <= 0.0


def test_step_probabilities_sum_to_one(small_fixture):
    actors, seq = small_fixture
    design = EventDesign(actors, seq)
    theta = np.random.default_rng(1).normal(0, 2, 14)
    scores = dense_scores(theta, dense_design(actors, seq, ALL_TERMS)[0])
    log_p = scores - logsumexp(scores, axis=1, keepdims=True)
    total = np.exp(log_p).sum(axis=1)
    assert np.all(np.abs(total - 1.0) < 1e-12)


def test_gradient_matches_finite_differences(small_fixture):
    actors, seq = small_fixture
    design = EventDesign(actors, seq)
    spec = all_term_spec()
    rng = np.random.default_rng(2)
    eps = 1e-6
    for _ in range(5):
        theta = rng.normal(0, 0.5, 14)
        g = gradient(theta, spec, design=design)
        for k in range(14):
            bump = np.zeros(14)
            bump[k] = eps
            fd = (
                log_likelihood(theta + bump, spec, design=design)
                - log_likelihood(theta - bump, spec, design=design)
            ) / (2 * eps)
            assert abs(g[k] - fd) <= 1e-5 * max(1.0, abs(fd))


def test_loglik_matches_naive_oracle(small_fixture):
    actors, seq = small_fixture
    design = EventDesign(actors, seq)
    spec = all_term_spec()
    events = [(int(i), int(j)) for i, j in seq.index_pairs(actors)]
    rng = np.random.default_rng(5)
    thetas = [rng.normal(0, 1, 14) for _ in range(3)]
    # scaled so the largest score is 1000: plain exp of it overflows
    big = rng.normal(0, 1, 14)
    X, _ = dense_design(actors, seq, ALL_TERMS)
    scores = dense_scores(big, X)
    big *= 1000.0 / scores.flat[np.abs(scores).argmax()]
    with np.errstate(over="ignore"):
        assert not np.all(np.isfinite(np.exp(dense_scores(big, X))))
    for theta in thetas + [big]:
        got = log_likelihood(theta, spec, design=design)
        want = naive_log_likelihood(
            events, actors.icr_array(), actors.n, ALL_TERMS, theta
        )
        assert got == pytest.approx(want, rel=1e-12)


def test_hessian_matches_finite_differences(small_fixture):
    actors, seq = small_fixture
    design = EventDesign(actors, seq)
    spec = all_term_spec()
    rng = np.random.default_rng(4)
    eps = 1e-6
    for _ in range(3):
        theta = rng.normal(0, 0.5, 14)
        H = hessian(theta, spec, design=design)
        for k in range(14):
            bump = np.zeros(14)
            bump[k] = eps
            fd = (
                gradient(theta + bump, spec, design=design)
                - gradient(theta - bump, spec, design=design)
            ) / (2 * eps)
            assert np.all(np.abs(H[:, k] - fd) <= 1e-5 * np.maximum(1.0, np.abs(fd)))


def test_gradient_empty_spec(small_fixture):
    actors, seq = small_fixture
    spec = ModelSpec(terms=(), network_id="net")
    assert gradient(np.zeros(0), spec, EventDesign(actors, seq, ())).shape == (0,)


def _fgh(theta, spec, design):
    return (
        log_likelihood(theta, spec, design=design),
        gradient(theta, spec, design=design),
        hessian(theta, spec, design=design),
    )


def _assert_close(got, want, rel=1e-12):
    """Max-norm relative agreement of two arrays."""
    got, want = np.asarray(got), np.asarray(want)
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize("events_per_block", [1, 3])
def test_streamed_kernel_matches_single_block(
    small_fixture, monkeypatch, events_per_block
):
    actors, seq = small_fixture
    design = EventDesign(actors, seq)
    spec = all_term_spec()
    events = [(int(i), int(j)) for i, j in seq.index_pairs(actors)]
    # 20 events in one block by default; 3 per block leaves a last block of 2
    assert inference._BLOCK_ROWS // design.n_dyads >= seq.m
    assert seq.m % 3 == 2
    rng = np.random.default_rng(6)
    thetas = [rng.normal(0, 1, 14) for _ in range(3)]
    X, obs = dense_design(actors, seq, spec.terms)
    whole = [dense_evaluate(theta, X, obs) for theta in thetas]
    monkeypatch.setattr(
        inference, "_BLOCK_ROWS", 1 if events_per_block == 1 else 3 * design.n_dyads + 1
    )
    for theta, want in zip(thetas, whole):
        got = _fgh(theta, spec, design)
        for part, want_part in zip(got, want):
            _assert_close(part, want_part)
        naive = naive_log_likelihood(
            events, actors.icr_array(), actors.n, ALL_TERMS, theta
        )
        assert got[0] == pytest.approx(naive, rel=1e-12)


def test_spec_design_columns_equal_full_design(path_sized_fixture):
    actors, seq = path_sized_fixture
    terms = (Term.NTDEGREC, Term.PSABBA, Term.RRECSND, Term.ICR)
    full = EventDesign(actors, seq)
    small = EventDesign(actors, seq, terms)
    # the spec's design and the full one give the same rows, in any order
    for some in (terms, terms[::-1], terms[1:3]):
        got, want = small.factors(some), full.factors(some)
        for name in ("X", "count", "event", "starts", "x_obs"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    # the design is its own terms' merged rows: per row a 1-byte event (m =
    # 70), a 2-byte count (n(n - 1) = 992) and a narrow code per term; per
    # term its 8-byte levels (0 and its distinct values; 0, 1, 2 for ICR);
    # per event the narrow index of the row that holds its observed dyad
    for design in (small, full):
        stats, obs = dense_design(actors, seq, design.terms)
        x_obs = stats[:, np.arange(seq.m), obs]
        rows = design.count.size
        assert rows == sum(np.unique(stats[:, t], axis=1).shape[1] for t in range(seq.m))
        assert design.event.dtype == np.uint8 and design.count.dtype == np.uint16
        assert design.observed.dtype == np.min_scalar_type(rows - 1)
        assert np.array_equal(design.event[design.observed], np.arange(seq.m))
        want = 3 * rows + design.observed.itemsize * seq.m
        values = []
        for c, term in enumerate(design.terms):
            levels, codes = design.levels[term], design.codes[term]
            if term is Term.ICR:
                assert levels.tobytes() == np.arange(3.0).tobytes()
            else:
                distinct = np.unique(np.concatenate(([0.0], stats[c].ravel())))
                assert levels.tobytes() == distinct.tobytes()
            assert codes.dtype == np.min_scalar_type(levels.size - 1)
            # a value is its level, bit for bit, the observed one too
            assert levels[codes[design.observed]].tobytes() == x_obs[c].tobytes()
            values.append(levels[codes])
            want += codes.itemsize * rows + 8 * levels.size
        assert design.nbytes == design.full_tensor.nbytes == want
        assert design.nbytes < stats.nbytes / 5
        # the design's own rows are each event's distinct statistic vectors
        own = types.SimpleNamespace(
            X=np.array(values), count=design.count, event=design.event,
            starts=np.flatnonzero(np.diff(design.event, prepend=-1)),
        )
        assert_rows_partition_dyads(own, stats)


@settings(max_examples=30, deadline=None)
@given(case=st.data())
def test_blocks_match_fill_design_and_naive_oracle(case):
    n = case.draw(st.integers(2, 7), label="n")
    m = case.draw(st.integers(1, 20), label="m")
    rng = np.random.default_rng(case.draw(st.integers(0, 2**32 - 1), label="seed"))
    actors, seq = random_sequence(n, m, rng, icr_indices=tuple(range(0, n, 3)))
    # the dense reference every kernel and adequacy test reads
    X, _ = dense_design(actors, seq, ALL_TERMS)
    icr = actors.icr_array()
    events = [(int(i), int(j)) for i, j in seq.index_pairs(actors)]
    dyads = [(i, j) for i in range(n) for j in range(n) if i != j]
    state = HistoryState(n)
    for t, event in enumerate(events):
        filled = design_matrix(state, icr, ALL_TERMS)
        naive = np.array(
            [naive_stat_vector(events[:t], icr, n, i, j, ALL_TERMS) for i, j in dyads]
        ).T
        assert X[:, t].tobytes() == filled.tobytes() == naive.tobytes(), t
        state.update(*event)


def assert_rows_partition_dyads(f, X):
    """Each event's rows of the ``_Factors`` ``f`` are the distinct
    statistic vectors of its dyads in ``X``, the (k, m, n_dyads) statistics
    of ``dense_design``, bit for bit and no two equal, and each row counts
    the dyads that have its vector, so the counts sum to n(n - 1)."""
    k, m, D = X.shape
    assert f.X.shape == (k, f.count.size) and f.event.size == f.count.size
    assert np.all(np.diff(f.event.astype(int)) >= 0)
    assert np.array_equal(np.unique(f.event, return_index=True)[1], f.starts)
    for t, rows in enumerate(np.split(np.arange(f.count.size), f.starts[1:])):
        listed = [row.tobytes() for row in f.X[:, rows].T]
        assert len(set(listed)) == rows.size, t
        dyads = collections.Counter(row.tobytes() for row in X[:, t].T)
        assert dict(zip(listed, f.count[rows].tolist())) == dyads, t
        assert f.count[rows].sum() == D


@settings(max_examples=40, deadline=None)
@given(case=st.data())
def test_factors_list_touched_dyads_with_their_block_statistics(case):
    n = case.draw(st.integers(2, 8), label="n")
    m = case.draw(st.integers(1, 25), label="m")
    rng = np.random.default_rng(case.draw(st.integers(0, 2**32 - 1), label="seed"))
    icr_indices = tuple(np.flatnonzero(rng.random(n) < 0.5))
    actors, seq = random_sequence(n, m, rng, icr_indices=icr_indices)
    # the spec's rows are merged again from a design for a superset of its
    # terms, in the design's own order: its NTDegRec and ICR cells collapse
    # and its dyads touched only by the other terms fold into the spec's cells
    built = case.draw(st.permutations(ALL_TERMS), label="design order")
    built = built[: case.draw(st.integers(1, 14), label="design k")]
    terms = case.draw(st.permutations(built), label="order")
    terms = terms[: case.draw(st.integers(1, len(built)), label="k")]
    per_block = case.draw(st.integers(1, m), label="events per block")
    with mock.patch.object(inference, "_BLOCK_ROWS", per_block * n * (n - 1)):
        design = EventDesign(actors, seq, built)
        f = design.factors(terms)
    # each event's observed dyad is one of its design rows
    assert np.array_equal(design.event[design.observed], np.arange(m))
    X, obs = dense_design(actors, seq, terms)
    assert_rows_partition_dyads(f, X)
    assert f.x_obs.tobytes() == X[:, np.arange(m), obs].tobytes()
    # each event's k observed values adjacent: the kernel's theta @ x_obs and
    # x_obs.sum(axis=1) round by this layout, and so do the saved modes
    assert f.x_obs.strides == (8, 8 * len(terms))


# (1, 0) after (0, 1) is a reply: its observed dyad is its PSAB-BA dyad
REPLIES = [(0, 1), (1, 0), (0, 1), (2, 0), (0, 2), (1, 2)]


@pytest.mark.parametrize(
    "n, pairs, terms, events_per_block",
    [
        # no array term, so the block buffer is empty
        pytest.param(
            5, random_events(5, 30, np.random.default_rng(5)), PSHIFT_TERMS, None,
            id="pshifts_only",
        ),
        # the row and column shifts have no dyad: no actor is outside an event
        pytest.param(
            2, [(0, 1), (1, 0), (1, 0), (0, 1)], PSHIFT_TERMS + (Term.ICR,), None,
            id="two_actors",
        ),
        # no previous event, so no p-shift dyad
        pytest.param(4, [(2, 3)], ALL_TERMS, None, id="one_event"),
        pytest.param(3, REPLIES, (Term.PSABBA,), None, id="reply"),
        # every event's previous event lies in the block before
        pytest.param(
            4, random_events(4, 12, np.random.default_rng(4)), ALL_TERMS, 1,
            id="block_boundary",
        ),
    ],
)
def test_closed_form_pshift_rows_match_the_dense_design(n, pairs, terms, events_per_block):
    actors = make_actors(n, icr_indices=(0,))
    seq = sequence_from_pairs(actors, pairs)
    per_block = events_per_block or seq.m
    with mock.patch.object(inference, "_BLOCK_ROWS", per_block * n * (n - 1)):
        design = EventDesign(actors, seq, terms)
    X, obs = dense_design(actors, seq, terms)
    x_obs = X[:, np.arange(seq.m), obs]
    for c, term in enumerate(terms):
        levels, codes = design.levels[term], design.codes[term]
        if term is not Term.ICR:  # ICR's levels are 0, 1, 2
            distinct = np.unique(np.concatenate(([0.0], X[c].ravel())))
            assert levels.tobytes() == distinct.tobytes(), term
        assert levels[codes[design.observed]].tobytes() == x_obs[c].tobytes(), term
    own = types.SimpleNamespace(
        X=np.array([design.levels[t][design.codes[t]] for t in terms]),
        count=design.count, event=design.event,
        starts=np.flatnonzero(np.diff(design.event, prepend=-1)),
    )
    assert_rows_partition_dyads(own, X)
    f = design.factors(terms)
    assert_rows_partition_dyads(f, X)
    assert f.x_obs.tobytes() == x_obs.tobytes()
    if n == 2:
        for term in PSHIFT_TERMS[1:]:
            assert design.levels[term].tobytes() == np.zeros(1).tobytes()
    if pairs is REPLIES:
        assert f.x_obs[0].tolist() == [0.0, 1.0, 1.0, 0.0, 1.0, 0.0]


def test_row_codes_reranked_below_the_limit_give_the_same_factors(path_sized_fixture):
    # a limit of m re-ranks the codes before every term's digit: m events
    # times any radix (at least 2) passes it, and so do the ranks, of which
    # there are at least m
    actors, seq = path_sized_fixture
    design = EventDesign(actors, seq)
    terms = ALL_TERMS[::-1]
    want = design.factors(terms)
    with mock.patch.object(inference, "_CODE_LIMIT", design.m), mock.patch.object(
        inference.np, "unique", wraps=np.unique
    ) as unique:
        reranked = EventDesign(actors, seq)
        assert unique.call_count == len(design.terms) == 14
        got = design.factors(terms)
    assert unique.call_count == 2 * len(terms) == 28
    assert want.count.size < design.m * design.n_dyads / 2
    # the build's re-rank keeps its rows and their order
    for a, b in [(reranked.event, design.event), (reranked.count, design.count)] + [
        (reranked.codes[t], design.codes[t]) for t in ALL_TERMS
    ]:
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    for name in ("X", "count", "event", "starts", "x_obs"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.strides == b.strides
        assert a.tobytes() == b.tobytes(), name


def test_design_bits_are_pinned():
    # sha256 recorded before the recency lists became rank arrays; a change
    # that moves one bit of a statistic, a merged row or a dtype fails here
    actors = make_actors(30, icr_indices=(0, 1, 2))
    truth = {Term.NTDEGREC: 2.0, Term.RRECSND: 1.0, Term.PSABBA: 2.5, Term.ICR: 0.8}
    design = EventDesign(actors, simulate_sequence(truth, actors, 300, seed=1))
    assert design.terms == ALL_TERMS
    digest = hashlib.sha256()
    arrays = [design.event, design.count, design.observed]
    for term in design.terms:
        arrays += [design.codes[term], design.levels[term]]
    for a in arrays:
        digest.update(a.dtype.str.encode())
        digest.update(a.tobytes())
    assert digest.hexdigest() == (
        "5879d745dcf8f680e7dd8863eff66dce65918d1c2c2eae2623695e055b8cf5be"
    )


def test_design_without_spec_terms_is_rejected(small_fixture):
    actors, seq = small_fixture
    design = EventDesign(actors, seq, (Term.ICR, Term.NTDEGREC))
    spec = ModelSpec(terms=(Term.PSABBA, Term.ICR, Term.RRECSND), network_id="net")
    match = r"no statistics for PSAB-BA, RRecSnd; it was built for \[ICR, NTDegRec\]"
    with pytest.raises(ValueError, match=match):
        fit_map(spec, design=design)
    for view in (log_likelihood, gradient, hessian):
        with pytest.raises(ValueError, match=match):
            view(np.zeros(3), spec, design=design)


def kernel_errors(design, terms, theta):
    """Errors of the row kernel against the dense oracle, each over
    the size of the numbers it is a difference of: ll over |ll| plus each
    event's largest |score|; g_c over sum_t |x_obs,c| plus sum_t E_t|x_c|;
    H over max |H| plus the largest sum_t E_t[x_c^2]. The second parts
    bound what no float kernel can avoid: a concentrated event's ll and
    variance are differences of numbers that size."""
    theta = np.asarray(theta, dtype=np.float64)
    got = inference._evaluate(theta, design.factors(terms))
    X, obs = dense_design(design.actors, design.seq, terms)
    want = dense_evaluate(theta, X, obs)
    s = np.tensordot(theta, X, axes=1)
    p = np.exp(s - s.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    x_obs = X[:, np.arange(design.m), obs]
    scales = (
        abs(want[0]) + np.abs(s).max(axis=1).sum(),
        np.abs(x_obs).sum(axis=1) + np.einsum("td,ktd->k", p, np.abs(X)),
        np.abs(want[2]).max() + np.einsum("td,ktd->k", p, X * X).max(),
    )
    return [
        np.max(np.abs(np.subtract(a, b)) / np.where(scale > 0, scale, np.inf))
        for a, b, scale in zip(got, want, scales)
    ]


def assert_kernel_matches_oracle(design, terms, theta, rel=1e-12):
    """ll to ``rel`` relative, each g_c to rel * sum_t |x_obs,c| (or
    |sum_t E_t x_c| where that is larger: a term never observed has
    g_c = -sum_t E_t x_c) and H entrywise to rel * max |H|, against the
    dense oracle."""
    theta = np.asarray(theta, dtype=np.float64)
    got = inference._evaluate(theta, design.factors(terms))
    X, obs = dense_design(design.actors, design.seq, terms)
    ll, g, H = dense_evaluate(theta, X, obs)
    x_obs = X[:, np.arange(design.m), obs]
    g_scale = np.maximum(np.abs(x_obs).sum(axis=1), np.abs(x_obs.sum(axis=1) - g))
    assert all(np.all(np.isfinite(part)) for part in got)
    assert abs(got[0] - ll) <= rel * abs(ll)
    assert np.all(np.abs(got[1] - g) <= rel * g_scale)
    assert np.all(np.abs(got[2] - H) <= rel * np.abs(H).max())


@settings(max_examples=60, deadline=None)
@given(case=st.data())
def test_factorised_kernel_matches_dense_oracle(case):
    n = case.draw(st.integers(2, 12), label="n")
    m = case.draw(st.integers(1, 40), label="m")
    icr = case.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="icr")
    terms = case.draw(st.permutations(ALL_TERMS), label="order")
    terms = terms[: case.draw(st.integers(1, 14), label="k")]
    theta = case.draw(
        st.lists(st.floats(-3, 3), min_size=len(terms), max_size=len(terms)),
        label="theta",
    )
    rng = np.random.default_rng(case.draw(st.integers(0, 2**32 - 1), label="seed"))
    icr_indices = tuple(np.flatnonzero(icr))
    actors, seq = random_sequence(n, m, rng, icr_indices=icr_indices)
    design = EventDesign(actors, seq, terms)
    assert max(kernel_errors(design, terms, theta)) <= 1e-12


@pytest.mark.parametrize(
    "terms",
    [
        (Term.NTDEGREC, Term.RRECSND, Term.ICR),
        (Term.PSABBA, Term.RRECSND, Term.OTPSND, Term.ITPSND),
        ALL_TERMS,
    ],
    ids=["base_and_sparse", "no_base_terms", "all_terms"],
)
def test_kernel_matches_dense_oracle_at_fitted_modes(path_sized_fixture, terms):
    actors, seq = path_sized_fixture
    design = EventDesign(actors, seq, terms)
    fit = fit_map(ModelSpec(terms, network_id="net"), design)
    rng = np.random.default_rng(8)
    for theta in (fit.mode, rng.uniform(-1, 1, len(terms))):
        assert_kernel_matches_oracle(design, terms, theta)


def test_kernel_event_without_touched_dyad(small_fixture):
    actors, seq = small_fixture
    terms = (Term.NTDEGREC, Term.RRECSND, Term.PSABXB, Term.ICR)
    design = EventDesign(actors, seq, terms)
    factors = design.factors(terms)
    X, _ = dense_design(actors, seq, terms)
    assert_rows_partition_dyads(factors, X)
    # no history before the first event: no sparse statistic is nonzero, so
    # its rows hold base statistics alone, and a later event has a row with
    # a nonzero sparse statistic
    first = factors.event == 0
    assert not factors.X[1:3, first].any() and factors.X[1:3, ~first].any()
    for theta in ([1.5, -2.0, 0.7, 0.9], [-3.0, 2.5, 3.0, -1.0]):
        assert_kernel_matches_oracle(design, terms, theta)


@pytest.mark.parametrize(
    "case",
    ["first_event_unlisted", "two_actors", "full_events", "zero_floor", "listed_maximum"],
)
def test_kernel_spec_without_base_terms(small_fixture, case):
    # with no base term every untouched dyad scores 0: an event has at
    # most one all-zero row, which counts its untouched dyads, and its
    # touched dyads are counted by its other rows
    actors, seq = small_fixture
    terms = (Term.OSPSND, Term.PSABBA, Term.RSNDSND)
    thetas = [[0.4, 2.0, -1.0], [-2.5, -3.0, 2.0]]
    rng = np.random.default_rng(31)
    if case == "two_actors":
        actors, seq = random_sequence(2, 15, rng)
        terms, thetas = (Term.PSABBA, Term.RRECSND, Term.FRPSNDSND), [[1.5, -0.5, 2.0]]
    elif case == "full_events":
        actors, seq = random_sequence(4, 40, rng)
        terms = (Term.RRECSND, Term.RSNDSND, Term.OTPSND, Term.ISPSND)
        thetas = [[0.8, -1.2, 0.5, 1.1]]
    elif case == "zero_floor":
        thetas = [[-0.4, -2.0, -1.0]]
    elif case == "listed_maximum":
        thetas = [[0.4, 2.0, 1.0]]
    design = EventDesign(actors, seq, terms)
    factors = design.factors(terms)
    assert_rows_partition_dyads(factors, dense_design(actors, seq, terms)[0])
    D = design.n_dyads
    is_class = ~factors.X.any(axis=0)
    classes = np.bincount(factors.event[is_class], minlength=seq.m)
    untouched = np.bincount(factors.event, factors.count * is_class, minlength=seq.m)
    touched = np.bincount(factors.event, factors.count * ~is_class, minlength=seq.m)
    assert classes.max() == 1 and np.array_equal(untouched + touched, np.full(seq.m, D))
    # each event's largest row score
    M = np.maximum.reduceat(np.asarray(thetas[0]) @ factors.X, factors.starts)
    if case == "first_event_unlisted":
        # no history before the first event: its one row is its class row
        assert factors.starts[1] == 1 and untouched[0] == D
    elif case == "two_actors":  # some event has both dyads touched
        assert D == 2 and np.any(classes == 0) and np.any(classes == 1)
    elif case == "full_events":  # some event has most of its dyads touched
        assert np.any(2 * touched > D) and np.any(classes[2 * touched > D] == 1)
    elif case == "zero_floor":  # an event's class row's 0 is its maximum
        assert np.any(classes == 1) and np.all(M[classes == 1] == 0.0)
    else:  # a touched score above its class row's 0 is the maximum
        assert np.any(M[classes == 1] > 0.0)
    for theta in thetas:
        assert_kernel_matches_oracle(design, terms, theta)


def test_kernel_two_actors():
    rng = np.random.default_rng(21)
    actors, seq = random_sequence(2, 15, rng, icr_indices=(1,))
    design = EventDesign(actors, seq)
    for theta in (rng.uniform(-3, 3, 14), np.zeros(14)):
        assert_kernel_matches_oracle(design, ALL_TERMS, theta)


STRESS_TERMS = (Term.NTDEGREC, Term.RRECSND, Term.ICR)


def test_kernel_stress_touched_base_maximum():
    # actor 0 is the only ICR actor and takes part in every event, so at
    # every late event the highest base score is a dyad (i, 0), and each is
    # touched: 0 has sent to i, so i has RRecSnd 1 towards 0
    actors = make_actors(6, icr_indices=(0,))
    cycle = [(0, j) for j in range(1, 6)] + [(j, 0) for j in range(1, 6)]
    seq = sequence_from_pairs(actors, 3 * cycle)
    design = EventDesign(actors, seq, STRESS_TERMS)
    X, _ = dense_design(actors, seq, STRESS_TERMS)
    touched = X[1] != 0
    for theta in ([40.0, -40.0, 40.0], [40.0, -40.0, 20.0], [-40.0, 40.0, 40.0]):
        base = theta[0] * X[0] + theta[2] * X[2]
        top = base.argmax(axis=1)
        weight = np.exp(base - base.max(axis=1, keepdims=True))
        untouched = np.sum(weight * ~touched, axis=1) / weight.sum(axis=1)
        assert np.any(touched[np.arange(seq.m), top] & (untouched < 1e-12))
        ll, g, H = inference._evaluate(np.array(theta), design.factors(STRESS_TERMS))
        assert np.isfinite(ll) and np.all(np.isfinite(g)) and np.all(np.isfinite(H))
        assert max(kernel_errors(design, STRESS_TERMS, theta)) <= 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308])
def test_kernel_rejects_non_finite_theta(small_fixture, bad):
    actors, seq = small_fixture
    design = EventDesign(actors, seq)
    spec = all_term_spec()
    theta = np.full(14, 0.5)
    theta[-1] = bad  # 1e308 on ICR overflows the scores
    for view in (log_likelihood, gradient, hessian):
        with pytest.raises(NumericalError):
            view(theta, spec, design)


def test_hessian_symmetric_nsd(small_fixture):
    actors, seq = small_fixture
    design = EventDesign(actors, seq)
    spec = all_term_spec()
    rng = np.random.default_rng(3)
    for _ in range(3):
        theta = rng.normal(0, 1, 14)
        H = hessian(theta, spec, design=design)
        assert np.allclose(H, H.T, atol=1e-10)
        assert np.linalg.eigvalsh(H).max() <= 1e-8


def test_dimension_mismatch_rejected(small_fixture):
    actors, seq = small_fixture
    design = EventDesign(actors, seq)
    for view in (log_likelihood, gradient, hessian):
        with pytest.raises(ValueError):
            view(np.zeros(3), all_term_spec(), design)


def test_aicc_formula():
    assert aicc(-10.0, 0, 50) == pytest.approx(20.0)
    assert aicc(-10.0, 2, 50) == pytest.approx(20.0 + 4 + 12 / 47)


def test_aicc_null_path_sized():
    ll = -70 * math.log(32 * 31)
    assert aicc(ll, 0, 70) == pytest.approx(965.97, abs=0.01)


def test_aicc_inadmissible():
    with pytest.raises(InadmissibleModelError):
        aicc(-1.0, 5, 6)


def test_fit_empty_spec(path_sized_fixture):
    actors, seq = path_sized_fixture
    fit = fit_map(ModelSpec(terms=(), network_id="net"), EventDesign(actors, seq, ()))
    assert fit.converged and fit.n_iter == 0
    assert fit.mode.shape == (0,) and fit.covariance.shape == (0, 0)
    assert fit.log_lik_at_mode == pytest.approx(-70 * math.log(32 * 31))
    assert fit.aicc == pytest.approx(-2 * fit.log_lik_at_mode)


STRONG_PSHIFT_SPEC = ModelSpec(terms=(Term.PSABBA, Term.RRECSND), network_id="net")


@pytest.fixture(scope="module")
def strong_pshift():
    actors = make_actors(8, icr_indices=(0,))
    seq = simulate_sequence(
        {Term.PSABBA: 2.5, Term.RRECSND: 1.0}, actors, 600, seed=42
    )
    return actors, seq


def test_fit_recovers_strong_pshift(strong_pshift):
    actors, seq = strong_pshift
    design = EventDesign(actors, seq, STRONG_PSHIFT_SPEC.terms)
    fit = fit_map(STRONG_PSHIFT_SPEC, design)
    assert fit.converged
    sd = fit.sd
    assert abs(fit.mode[0] - 2.5) < 3 * sd[0] + 0.3
    assert abs(fit.mode[1] - 1.0) < 3 * sd[1] + 0.3


def test_fit_is_local_maximum(small_fixture):
    actors, seq = small_fixture
    design = EventDesign(actors, seq)
    spec = ModelSpec(terms=(Term.PSABBA, Term.NTDEGREC), network_id="net")
    prior = PriorSpec()
    fit = fit_map(spec, design=design, prior=prior)

    def log_post(theta):
        return log_likelihood(theta, spec, design=design) + prior.evaluate(theta)[0]

    at_mode = log_post(fit.mode)
    for k in range(2):
        for delta in (-0.05, 0.05):
            bump = np.zeros(2)
            bump[k] = delta
            assert log_post(fit.mode + bump) < at_mode


def single_event_icr():
    """One event with an informative ICR contrast: the unpenalized MLE
    diverges, and only the t prior keeps the mode finite."""
    actors = make_actors(3, icr_indices=(1,))
    seq = sequence_from_pairs(actors, [(0, 1)])
    return ModelSpec(terms=(Term.ICR,), network_id="net"), EventDesign(actors, seq)


def test_fit_prior_dominated_single_event():
    spec, design = single_event_icr()
    prior = PriorSpec()
    fit = fit_map(spec, design=design, prior=prior)
    assert np.isfinite(fit.mode[0])
    assert abs(fit.mode[0]) < 50.0

    def neg_posterior_1d(x):
        ll = log_likelihood(np.array([x]), spec, design=design)
        return -(ll + float(student_t.logpdf(x, prior.df, 0.0, prior.scale)))

    direct = minimize_scalar(neg_posterior_1d, bounds=(-60, 60), method="bounded")
    assert fit.mode[0] == pytest.approx(direct.x, abs=1e-3)


@pytest.mark.parametrize("start", [-40.0, 40.0])
def test_fit_from_non_concave_start_reaches_the_mode(start):
    spec, design = single_event_icr()
    from_zero = fit_map(spec, design=design)
    # the log prior is convex at the start, so Newton needs damping there
    assert PriorSpec().evaluate(np.array([start]))[2][0] > 0.0
    fit = fit_map(spec, design=design, theta0=np.array([start]))
    assert fit.converged
    assert fit.mode[0] == pytest.approx(from_zero.mode[0], abs=1e-3)


def counting_kernel(monkeypatch):
    """Patch the likelihood kernel to count its passes; returns the count."""
    passes = [0]
    kernel = inference._evaluate

    def counted(*args):
        passes[0] += 1
        return kernel(*args)

    monkeypatch.setattr(inference, "_evaluate", counted)
    return passes


def test_fit_kernel_passes_are_iterations_plus_one(strong_pshift, monkeypatch):
    actors, seq = strong_pshift
    design = EventDesign(actors, seq, STRONG_PSHIFT_SPEC.terms)
    passes = counting_kernel(monkeypatch)
    fit = fit_map(STRONG_PSHIFT_SPEC, design=design)
    assert fit.converged and fit.n_iter > 0
    assert passes[0] == fit.n_iter + 1


def test_fit_from_its_mode_takes_no_iteration(strong_pshift, monkeypatch):
    actors, seq = strong_pshift
    design = EventDesign(actors, seq, STRONG_PSHIFT_SPEC.terms)
    fit = fit_map(STRONG_PSHIFT_SPEC, design=design)
    passes = counting_kernel(monkeypatch)
    again = fit_map(STRONG_PSHIFT_SPEC, design=design, theta0=fit.mode)
    assert again.converged and again.n_iter == 0 and passes[0] == 1
    np.testing.assert_array_equal(again.mode, fit.mode)


def test_fit_stops_at_max_iter(strong_pshift):
    actors, seq = strong_pshift
    design = EventDesign(actors, seq, STRONG_PSHIFT_SPEC.terms)
    fit = fit_map(STRONG_PSHIFT_SPEC, design, max_iter=1)
    assert fit.n_iter == 1
    assert fit.converged is False


def test_covariance_symmetric_psd_diag(small_fixture):
    actors, seq = small_fixture
    spec = ModelSpec(terms=(Term.PSABBA, Term.ICR), network_id="net")
    fit = fit_map(spec, EventDesign(actors, seq, spec.terms))
    assert np.allclose(fit.covariance, fit.covariance.T)
    assert np.all(np.diag(fit.covariance) >= 0.0)


def test_posterior_interval_star_codes():
    fit = point_mass_fit({Term.PSABBA: 2.93}, m=100)
    fit.covariance = np.array([[0.11**2]])
    lo, hi = posterior_interval(fit, 0.95)[0]
    assert lo > 0.0
    assert star_codes(fit) == ["***"]  # 2.93/0.11 is far beyond 3.29 sd


def test_posterior_interval_zero_mode_no_stars():
    fit = point_mass_fit({Term.ICR: 0.0}, m=100)
    fit.covariance = np.array([[1.0]])
    assert star_codes(fit) == [""]


def test_posterior_interval_boundary_not_excluding():
    from scipy.stats import norm

    z95 = norm.ppf(0.975)
    fit = point_mass_fit({Term.ICR: z95}, m=100)
    fit.covariance = np.array([[1.0]])
    lo, hi = posterior_interval(fit, 0.95)[0]
    assert lo == pytest.approx(0.0, abs=1e-12)
    # an endpoint at 0 does not exclude 0
    assert star_codes(fit) == [""]


def test_posterior_interval_z_is_the_normal_quantile_exactly():
    """z is norm.ppf to the last bit: a 1-ulp shift moves boundary star codes."""
    from scipy.stats import norm

    fit = point_mass_fit({Term.ICR: 0.0}, m=100)
    fit.covariance = np.array([[1.0]])
    rng = np.random.default_rng(7)
    levels = [*inference._STAR_LEVELS, *rng.uniform(1e-6, 1 - 1e-6, 300)]
    for level in levels:
        lo, hi = posterior_interval(fit, level)[0]
        z = norm.ppf(0.5 + level / 2.0)
        assert (-lo, hi) == (z, z), level


def test_star_z_is_ndtri_to_the_last_bit():
    from scipy.special import ndtri

    assert len(inference._STAR_Z) == len(inference._STAR_LEVELS)
    for level, z in zip(inference._STAR_LEVELS, inference._STAR_Z):
        assert z == float(ndtri(0.5 + level / 2.0)), level


def codes_from_posterior_intervals(fit):
    """star_codes' rule applied to posterior_interval at each star level."""
    by_level = [posterior_interval(fit, level) for level in inference._STAR_LEVELS]
    codes = []
    for idx in range(fit.spec.k):
        excluding = [
            stars
            for stars, intervals in zip(("***", "**", "*"), by_level)
            if intervals[idx][0] > 0.0 or intervals[idx][1] < 0.0
        ]
        codes.append(excluding[0] if excluding else "")
    return codes


@settings(max_examples=200, deadline=None)
@given(case=st.data())
def test_star_codes_match_posterior_intervals(case):
    k = case.draw(st.integers(1, len(ALL_TERMS)), label="k")
    sds = case.draw(
        st.lists(st.floats(1e-6, 1e3), min_size=k, max_size=k), label="sds"
    )
    fit = point_mass_fit({term: 0.0 for term in ALL_TERMS[:k]}, m=100)
    fit.covariance = np.diag(np.square(sds))
    # some modes sit exactly at ±z*sd, where an interval endpoint is 0
    boundaries = [[sign * z * s for z in inference._STAR_Z for sign in (-1, 1)]
                  for s in fit.sd]
    fit.mode = np.array([
        case.draw(st.floats(-1e4, 1e4) | st.sampled_from(b), label="mode")
        for b in boundaries
    ])
    assert star_codes(fit) == codes_from_posterior_intervals(fit)


def test_star_codes_endpoint_at_zero_gives_no_star():
    fit = point_mass_fit({Term.ICR: 0.0, Term.PSABBA: 0.0, Term.RRECSND: 0.0}, m=100)
    fit.covariance = np.diag([0.3, 1.7, 2.9]) ** 2
    z999, z99, z95 = inference._STAR_Z
    # each mode puts one level's lower (or upper) endpoint at exactly 0
    fit.mode = np.array([z999, -z99, z95]) * fit.sd
    lows = [lo for lo, _ in posterior_interval(fit, 0.999)]
    highs = [hi for _, hi in posterior_interval(fit, 0.99)]
    assert lows[0] == 0.0 and highs[1] == 0.0
    assert star_codes(fit) == ["**", "*", ""]
    assert star_codes(fit) == codes_from_posterior_intervals(fit)


def test_star_codes_per_term():
    # sd 1: the 99.9/99/95% half-widths are 3.29, 2.58 and 1.96
    modes = {Term.PSABBA: 3.5, Term.ICR: 2.8, Term.RRECSND: -2.0, Term.PSABAY: 1.0}
    fit = point_mass_fit(modes, m=100)
    fit.covariance = np.eye(len(modes))
    assert star_codes(fit) == ["***", "**", "*", ""]


def test_fit_result_json_roundtrip(tmp_path, small_fixture):
    actors, seq = small_fixture
    spec = ModelSpec(terms=(Term.PSABBA, Term.RRECSND), network_id="net")
    fit = fit_map(spec, EventDesign(actors, seq, spec.terms))
    path = tmp_path / "fit.json"
    write_json(path, fit.to_json_dict())
    loaded = FitResult.load(path)
    assert loaded.spec == fit.spec
    assert np.allclose(loaded.mode, fit.mode)
    assert np.allclose(loaded.covariance, fit.covariance)
    assert loaded.aicc == pytest.approx(fit.aicc)


def test_prior_validation():
    # NaN and the infinities fail too: evaluate would return nan or -inf
    bad = {
        "scale": (0.0, -1.0, math.nan, math.inf),
        "df": (0.0, -1.0, math.nan, math.inf),
        "location": (math.nan, math.inf, -math.inf),
    }
    for field, values in bad.items():
        for value in values:
            with pytest.raises(ValueError, match=f"prior {field}"):
                PriorSpec(**{field: value})
    # a subnormal df halves to 0 in lgamma, outside math's domain
    with pytest.raises(ValueError, match=r"prior \(location .* not finite at theta = 0"):
        PriorSpec(df=5e-324)


# from 1 on a tol can pass at theta = 0 and call the null model converged
@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-6, 1.0, 1e308])
def test_fit_map_rejects_tol_outside_zero_one(small_fixture, tol):
    actors, seq = small_fixture
    spec = ModelSpec(terms=(Term.PSABBA,), network_id="net")
    with pytest.raises(ValueError, match=r"^tol must be in \(0, 1\)$"):
        fit_map(spec, EventDesign(actors, seq, spec.terms), tol=tol)


def test_prior_log_density_matches_scipy():
    rng = np.random.default_rng(12)
    for _ in range(2000):
        prior = PriorSpec(
            location=rng.uniform(-5, 5),
            scale=rng.uniform(1, 20),
            df=rng.uniform(0.5, 30),
        )
        theta = rng.uniform(-100, 100, 3)
        want = student_t.logpdf(theta, prior.df, prior.location, prior.scale)
        assert prior.evaluate(theta[:1])[0] == pytest.approx(want[0], rel=1e-13)
        assert prior.evaluate(theta)[0] == pytest.approx(want.sum(), rel=1e-13)


def test_prior_log_density_at_large_df():
    # lgamma((df + 1) / 2) - lgamma(df / 2) cancels to no precision at huge
    # df and overflows at 1e308; the series takes over at 1e3
    for df in (999.0, 1e3, 2e3):
        want = student_t.logpdf([1.0, 37.0], df, 0.0, 10.0).sum()
        assert PriorSpec(df=df).evaluate([1.0, 37.0])[0] == pytest.approx(want, rel=1e-12)
    gaussian = -0.5 * math.log(2.0 * math.pi) - math.log(10.0) - 0.5 * 0.1**2
    assert gaussian == pytest.approx(-3.2265236, abs=1e-7)
    # the density tends to the Gaussian, and so do its derivatives, whose
    # forms in u = z^2 / df stay finite
    theta = np.array([-30.0, -1.0, 0.0, 2.5, 40.0])
    for df in (1e20, 1e300, 1e308):
        prior = PriorSpec(df=df)
        assert prior.evaluate(1.0)[0] == pytest.approx(gaussian, rel=1e-12)
        _, grad, hess_diag = prior.evaluate(theta)
        assert np.allclose(grad, -theta / 100.0, rtol=1e-15, atol=0.0)
        assert np.allclose(hess_diag, -1.0 / 100.0, rtol=1e-15, atol=0.0)


def test_prior_log_density_tends_to_the_gaussian():
    # the t log-density less the N(0, scale^2) one is about
    # (z^4 - 2 z^2 - 1) / (4 nu), within (1 + z^4) / nu, at every df from
    # the series' start on, not only at the ends checked above
    for nu in np.logspace(3, 300, 1189):
        prior = PriorSpec(df=float(nu))
        for theta in (0.0, 1.0, 10.0, 30.0):
            z = theta / 10.0
            gaussian = -0.5 * math.log(2.0 * math.pi) - math.log(10.0) - 0.5 * z * z
            bound = (1.0 + z**4) / nu + 4 * math.ulp(gaussian)
            assert abs(prior.evaluate(theta)[0] - gaussian) <= bound, (nu, theta)


def test_prior_derivatives_match_fd():
    prior = PriorSpec()
    theta = np.array([-3.0, 0.0, 1.7, 12.0])
    eps = 1e-6
    _, g, h = prior.evaluate(theta)
    for k, x in enumerate(theta):
        up = np.array(theta)
        dn = np.array(theta)
        up[k] += eps
        dn[k] -= eps
        (f_up, g_up, _), (f_dn, g_dn, _) = prior.evaluate(up), prior.evaluate(dn)
        fd_g = (f_up - f_dn) / (2 * eps)
        fd_h = (g_up[k] - g_dn[k]) / (2 * eps)
        assert g[k] == pytest.approx(fd_g, abs=1e-7)
        assert h[k] == pytest.approx(fd_h, abs=1e-6)


def test_default_prior_derivatives_keep_their_bits():
    # at df 4, a power of two, the forms in u = z^2 / df round as the
    # forms in df + z^2 did
    prior = PriorSpec()
    theta = np.concatenate([np.linspace(-200.0, 200.0, 40001), [0.0, -0.0, 1e-300, 1e50]])
    z = theta / 10.0
    grad = -(4.0 + 1.0) * z / ((4.0 + z * z) * 10.0)
    hess = -(4.0 + 1.0) * (4.0 - z * z) / (10.0 * 10.0 * (4.0 + z * z) ** 2)
    _, got_grad, got_hess = prior.evaluate(theta)
    assert got_grad.tobytes() == grad.tobytes()
    assert got_hess.tobytes() == hess.tobytes()


def test_model_spec_rejects_duplicates():
    with pytest.raises(ValueError):
        ModelSpec(terms=(Term.ICR, Term.ICR), network_id="net")
