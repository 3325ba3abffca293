import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remnet.stats import (
    ALL_TERMS,
    PSHIFT_TERMS,
    HistoryState,
    Term,
    canonical_terms,
    design_matrix,
    dyad_from_index,
    dyad_index,
    term_from_name,
)

from conftest import replay
from oracle import naive_stat_vector


@st.composite
def event_sequences(draw, max_n=10, max_m=50):
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    events = []
    for _ in range(m):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        off = draw(st.integers(min_value=1, max_value=n - 1))
        events.append((i, (i + off) % n))
    icr = draw(
        st.lists(st.booleans(), min_size=n, max_size=n).map(
            lambda xs: np.array(xs, dtype=np.float64)
        )
    )
    return n, events, icr


def test_term_enum_is_stable():
    assert len(ALL_TERMS) == 14
    names = [t.value for t in ALL_TERMS]
    assert names == [
        "NTDegRec",
        "FrPSndSnd",
        "RRecSnd",
        "RSndSnd",
        "OTPSnd",
        "ITPSnd",
        "OSPSnd",
        "ISPSnd",
        "PSAB-BA",
        "PSAB-BY",
        "PSAB-XA",
        "PSAB-XB",
        "PSAB-AY",
        "ICR",
    ]
    for name in names:
        assert term_from_name(name).value == name


def test_update_state_first_event():
    state = HistoryState(3)
    state.update(0, 1)
    assert state.dyad_count[0, 1] == 1
    assert state.last_event == (0, 1)
    assert state.n_past_events == 1


def test_update_state_counts():
    state = replay([(0, 1), (0, 1)], 3)
    assert state.dyad_count[0, 1] == 2
    assert state.out_degree[0] == 2
    assert state.volume.tolist() == [2, 2, 0]


def test_update_state_recency_order():
    state = replay([(0, 1), (0, 2)], 3)
    assert state.rank_out[0].tolist() == [np.inf, 2.0, 1.0]


def test_update_state_rejects_self_loop():
    with pytest.raises(ValueError):
        HistoryState(3).update(1, 1)


def test_update_state_rejects_unknown_actor():
    with pytest.raises(ValueError):
        HistoryState(3).update(0, 5)


def test_state_invariants_on_random_history():
    rng = np.random.default_rng(5)
    n = 6
    state = HistoryState(n)
    for _ in range(40):
        i = int(rng.integers(n))
        j = (i + 1 + int(rng.integers(n - 1))) % n
        state.update(i, j)
    assert np.array_equal(state.dyad_count.sum(axis=1), state.out_degree)
    assert np.array_equal(state.dyad_count.sum(axis=0) + state.out_degree, state.volume)
    assert state.volume.sum() == 2 * state.n_past_events
    assert (state.last_event is None) == (state.n_past_events == 0)


def stat(state, i, j, term, icr=None):
    """One statistic for dyad (i, j): its column of a one-term design matrix."""
    icr = np.zeros(state.n) if icr is None else icr
    (value,) = design_matrix(state, icr, (term,))[:, dyad_index(i, j, state.n)]
    return value


def test_ntdegrec_single_event():
    state = replay([(0, 1)], 3)
    # NTDegRec depends on the receiver only
    assert stat(state, 0, 1, Term.NTDEGREC) == 0.5
    assert stat(state, 1, 0, Term.NTDEGREC) == 0.5
    assert stat(state, 0, 2, Term.NTDEGREC) == 0.0


def test_ntdegrec_empty_history():
    state = HistoryState(4)
    assert all(stat(state, (j + 1) % 4, j, Term.NTDEGREC) == 0.0 for j in range(4))


def test_ntdegrec_degree_sum_identity():
    state = replay([(0, 1), (2, 1), (1, 0), (3, 2)], 4)
    total = sum(
        2 * state.n_past_events * stat(state, (j + 1) % 4, j, Term.NTDEGREC)
        for j in range(4)
    )
    assert total == pytest.approx(2 * state.n_past_events)


def test_persistence_hand_count():
    state = replay([(0, 1), (0, 1), (0, 2)], 3)
    assert stat(state, 0, 1, Term.FRPSNDSND) == pytest.approx(2 / 3)


def test_persistence_bounds():
    state = replay([(0, 1), (0, 1)], 3)
    assert stat(state, 0, 1, Term.FRPSNDSND) == 1.0
    assert stat(state, 2, 1, Term.FRPSNDSND) == 0.0  # no history


def test_recency_examples():
    state = replay([(1, 0), (2, 0)], 4)
    # most recent in-alter of 0 is 2, then 1
    assert stat(state, 0, 2, Term.RRECSND) == 1.0
    assert stat(state, 0, 1, Term.RRECSND) == 0.5
    assert stat(state, 0, 3, Term.RRECSND) == 0.0
    state2 = replay([(0, 1), (0, 2)], 4)
    assert stat(state2, 0, 1, Term.RSNDSND) == 0.5


def test_triadic_single_two_path():
    state = replay([(0, 2), (2, 1)], 3)
    assert stat(state, 0, 1, Term.OTPSND) == 1.0


def test_triadic_empty_history():
    state = HistoryState(4)
    for term in (Term.OTPSND, Term.ITPSND, Term.OSPSND, Term.ISPSND):
        assert stat(state, 0, 1, term) == 0.0


def test_triadic_counts_distinct_intermediaries():
    state = replay([(0, 2), (0, 2), (2, 1)], 3)
    assert stat(state, 0, 1, Term.OTPSND) == 1.0


def test_pshift_definitional():
    state = replay([(0, 1)], 4)
    assert stat(state, 1, 0, Term.PSABBA) == 1.0
    for term in (Term.PSABBY, Term.PSABXA, Term.PSABXB, Term.PSABAY):
        assert stat(state, 1, 0, term) == 0.0
    assert stat(state, 0, 2, Term.PSABAY) == 1.0
    assert stat(state, 1, 2, Term.PSABBY) == 1.0
    assert stat(state, 2, 0, Term.PSABXA) == 1.0
    assert stat(state, 2, 1, Term.PSABXB) == 1.0


def test_pshift_empty_history():
    state = HistoryState(3)
    for term in PSHIFT_TERMS:
        assert stat(state, 0, 1, term) == 0.0


def test_icr_values():
    state = HistoryState(3)
    icr = np.array([1.0, 0.0, 1.0])
    assert stat(state, 0, 2, Term.ICR, icr) == 2.0
    assert stat(state, 0, 1, Term.ICR, icr) == 1.0


def test_stat_vector_single_term():
    state = replay([(0, 1)], 3)
    icr = np.zeros(3)
    vec = design_matrix(state, icr, (Term.PSABBA,))[:, dyad_index(1, 0, 3)]
    assert vec.tolist() == [1.0]


def test_stat_vector_empty_spec():
    state = replay([(0, 1)], 3)
    X = design_matrix(state, np.zeros(3), ())
    assert X[:, dyad_index(1, 0, 3)].shape == (0,)


def test_dyad_index_roundtrip():
    n = 7
    seen = set()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            idx = dyad_index(i, j, n)
            assert dyad_from_index(idx, n) == (i, j)
            seen.add(idx)
    assert seen == set(range(n * (n - 1)))


@settings(max_examples=60, deadline=None)
@given(event_sequences(), st.sets(st.sampled_from(ALL_TERMS), min_size=1))
def test_incremental_matches_naive_oracle(case, subset):
    n, events, icr = case
    subset = canonical_terms(subset)
    dyads = [(i, j) for i in range(n) for j in range(n) if i != j]
    # the store is order-dependent: step one state and check every prefix;
    # a store sized to a subset keeps only some of its arrays
    state, sub = HistoryState(n), HistoryState(n, subset)
    for t in range(len(events) + 1):
        for store, terms in ((state, ALL_TERMS), (sub, subset)):
            X = design_matrix(store, icr, terms)
            assert X.dtype == np.float64 and X.flags.c_contiguous
            naive = np.array(
                [naive_stat_vector(events[:t], icr, n, i, j, terms) for i, j in dyads]
            ).T.copy()
            assert X.shape == naive.shape == (len(terms), len(dyads))
            assert X.tobytes() == naive.tobytes(), (t, terms, np.argwhere(X != naive)[:5])
        if t < len(events):
            state.update(*events[t])
            sub.update(*events[t])


@settings(max_examples=60, deadline=None)
@given(event_sequences(max_n=6, max_m=20))
def test_at_most_one_pshift_active(case):
    n, events, icr = case
    X = design_matrix(replay(events, n), icr, PSHIFT_TERMS)
    # each column is one dyad's p-shift vector
    assert set(X.ravel().tolist()) <= {0.0, 1.0}
    assert (X.sum(axis=0) <= 1.0).all()


@settings(max_examples=40, deadline=None)
@given(event_sequences(max_n=6, max_m=20), st.randoms(use_true_random=False))
def test_relabeling_equivariance(case, pyrandom):
    n, events, icr = case
    perm = list(range(n))
    pyrandom.shuffle(perm)
    p_events = [(perm[i], perm[j]) for i, j in events]
    p_icr = np.empty(n)
    for k in range(n):
        p_icr[perm[k]] = icr[k]
    X = design_matrix(replay(events, n), icr, ALL_TERMS)
    p_X = design_matrix(replay(p_events, n), p_icr, ALL_TERMS)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            orig = X[:, dyad_index(i, j, n)]
            relab = p_X[:, dyad_index(perm[i], perm[j], n)]
            assert np.array_equal(orig, relab)


@settings(max_examples=25, deadline=None)
@given(event_sequences(max_n=6, max_m=30))
def test_value_ranges(case):
    n, events, icr = case
    X = design_matrix(replay(events, n), icr, ALL_TERMS)
    for vec in (dict(zip(ALL_TERMS, column)) for column in X.T):
        assert 0.0 <= vec[Term.NTDEGREC] <= 1.0
        assert 0.0 <= vec[Term.FRPSNDSND] <= 1.0
        assert 0.0 <= vec[Term.RRECSND] <= 1.0
        assert 0.0 <= vec[Term.RSNDSND] <= 1.0
        assert vec[Term.ICR] in (0.0, 1.0, 2.0)
        for term in PSHIFT_TERMS:
            assert vec[term] in (0.0, 1.0)
