import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remnet.analysis import (
    ConcentrationReport,
    adequacy,
    concentration_report,
    excess_concentration,
    null_both_rate,
    null_either_rate,
    percent_change,
    theil_index,
    welch_t_test,
)
from remnet.data import ActorTable, write_json
from remnet.inference import EventDesign, ModelSpec, fit_map
from remnet.simulation import run_knockout_experiment
from remnet.stats import ALL_TERMS, PSHIFT_TERMS, RiskSetScorer, Term

from conftest import (
    make_actors,
    point_mass_fit,
    random_sequence,
    sequence_from_pairs,
    simulate_sequence,
)
from oracle import dense_design, dense_scores, sorted_adequacy_ranks


# --- Theil index ------------------------------------------------------------


def test_theil_equality_is_zero():
    assert theil_index([3, 3, 3, 3]) == pytest.approx(0.0, abs=1e-15)


def test_theil_maximal_concentration():
    for n in (2, 5, 17):
        x = np.zeros(n)
        x[0] = 9.0
        assert theil_index(x) == pytest.approx(math.log(n))


def test_theil_worked_value():
    # (4,1,1,1,1): mu=1.6, T = (1/5)(2.5 ln 2.5 + 4 * 0.625 ln 0.625)
    expected = (2.5 * math.log(2.5) + 4 * 0.625 * math.log(0.625)) / 5
    assert expected == pytest.approx(0.2231, abs=5e-5)
    assert theil_index([4, 1, 1, 1, 1]) == pytest.approx(expected, rel=1e-12)


@given(
    st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=12).filter(
        lambda xs: sum(xs) > 0
    ),
    st.floats(min_value=1e-3, max_value=1e3),
)
@settings(deadline=None)
def test_theil_scale_invariance(volumes, c):
    x = np.array(volumes, dtype=np.float64)
    assert abs(theil_index(c * x) - theil_index(x)) < 1e-12


def test_theil_transfer_principle_exhaustive():
    # moving one unit from a below-mean to an above-mean actor never
    # decreases concentration; exhaustive over n <= 4, volumes <= 6
    for n in (2, 3, 4):
        for vols in itertools.product(range(7), repeat=n):
            if sum(vols) == 0:
                continue
            mu = sum(vols) / n
            base = theil_index(vols)
            for lo in range(n):
                for hi in range(n):
                    if vols[lo] < mu and vols[hi] > mu and vols[lo] >= 1 and lo != hi:
                        moved = list(vols)
                        moved[lo] -= 1
                        moved[hi] += 1
                        assert theil_index(moved) >= base - 1e-12


def test_theil_errors():
    with pytest.raises(ValueError):
        theil_index([0, 0, 0])
    with pytest.raises(ValueError):
        theil_index([1, -1])


# --- excess concentration and percent change --------------------------------


def test_excess_concentration_anchors():
    assert excess_concentration(0.7, 0.7, 0.1) == pytest.approx(1.0)
    assert excess_concentration(0.1, 0.7, 0.1) == pytest.approx(0.0)
    # hub-suppressive mechanisms can push past 1
    assert excess_concentration(0.9, 0.7, 0.1) > 1.0
    with pytest.raises(ValueError):
        excess_concentration(0.5, 0.4, 0.4)


def test_percent_change():
    assert percent_change(0.23, 0.68) == pytest.approx(-66.18, abs=0.01)
    assert percent_change(0.5, 0.5) == 0.0
    assert percent_change(0.5, 1.0) == pytest.approx(-50.0)
    with pytest.raises(ValueError):
        percent_change(0.2, 0.0)


# --- significance tests -----------------------------------------------------


def test_welch_identical_samples():
    assert welch_t_test([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]) == (0.0, 1.0)


def test_welch_separated_samples():
    a = [0.0, 1e-6, -1e-6, 2e-6]
    b = [1.0, 1.0 + 1e-6, 1.0 - 1e-6, 1.0 + 2e-6]
    t, p = welch_t_test(a, b)
    assert p < 0.001


def test_welch_reference_value():
    # classic two-sample data; reference computed with the standard Welch
    # formulas by hand: t = (mean_a - mean_b) / sqrt(va/na + vb/nb)
    a = np.array([27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6])
    b = np.array([27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2])
    t, p = welch_t_test(a, b)
    manual = (a.mean() - b.mean()) / math.sqrt(
        a.var(ddof=1) / a.size + b.var(ddof=1) / b.size
    )
    assert t == pytest.approx(manual, rel=1e-12)
    assert 0.0 < p < 1.0


def test_welch_degenerate():
    with pytest.raises(ValueError):
        welch_t_test([1.0], [2.0, 3.0])
    with pytest.raises(ValueError):
        welch_t_test([1.0, 1.0], [2.0, 2.0])


def assert_matches_scipy_welch(a, b):
    """welch_t_test agrees with scipy.stats.ttest_ind(equal_var=False): t to
    1e-14 and p to 1e-12, relative."""
    from scipy.stats import ttest_ind

    t, p = welch_t_test(a, b)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # precision-loss notes
        ref = ttest_ind(a, b, equal_var=False)
    assert math.isclose(t, ref.statistic, rel_tol=1e-14, abs_tol=0.0), (t, ref)
    assert math.isclose(p, ref.pvalue, rel_tol=1e-12, abs_tol=0.0), (p, ref)


samples = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=2, max_size=59
)


@settings(max_examples=300, deadline=None)
@given(samples, samples)
def test_welch_matches_scipy_ttest_ind(a, b):
    a, b = np.array(a), np.array(b)
    if a.var() == 0 and b.var() == 0:
        return  # both degenerate: covered by test_welch_identical_samples
    assert_matches_scipy_welch(a, b)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.integers(min_value=2, max_value=59),
    samples,
)
def test_welch_with_one_zero_variance_sample_matches_scipy(value, size, b):
    b = np.array(b)
    if b.var() == 0:
        b = np.append(b, b[0] + 1.0)
    a = np.full(size, value)
    assert_matches_scipy_welch(a, b)
    assert_matches_scipy_welch(b, a)


@pytest.mark.parametrize("sizes", [(40, 59), (50, 50), (59, 45)])
def test_welch_large_t_underflows_like_scipy(sizes):
    rng = np.random.default_rng(sum(sizes))
    a = rng.normal(0.0, 1e-6, sizes[0])
    b = rng.normal(1e3, 1e-6, sizes[1])
    t, p = welch_t_test(a, b)
    assert abs(t) > 1e9 and p == 0.0
    assert_matches_scipy_welch(a, b)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_welch_rejects_nonfinite(bad):
    with pytest.raises(ValueError, match="finite"):
        welch_t_test([1.0, 2.0, bad], [3.0, 4.0, 5.0])


# --- null rates and adequacy ------------------------------------------------


def test_null_rates_analytic_values():
    assert null_either_rate(24) == pytest.approx(45 / 552)
    assert round(null_either_rate(24), 2) == 0.08
    assert null_both_rate(24) == pytest.approx(1 / 552)
    assert round(null_both_rate(24), 3) == 0.002


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_null_rates_match_bruteforce(n):
    dyads = [(i, j) for i in range(n) for j in range(n) if i != j]
    # uniform guess over dyads against an arbitrary observed event (0, 1)
    either = sum(1 for i, j in dyads if i == 0 or j == 1) / len(dyads)
    both = sum(1 for d in dyads if d == (0, 1)) / len(dyads)
    assert null_either_rate(n) == pytest.approx(either, rel=1e-15)
    assert null_both_rate(n) == pytest.approx(both, rel=1e-15)


def test_adequacy_saturated_model_maxes_out():
    # a replay-memory model: huge persistence plus call-and-response makes
    # a fully repetitive sequence perfectly predictable
    actors = make_actors(4)
    events = [(0, 1), (1, 0)] * 30
    seq = sequence_from_pairs(actors, events[1:])  # start after the seed event
    fit = point_mass_fit({Term.PSABBA: 50.0}, m=len(events) - 1)
    report = adequacy(fit, actors, seq)
    # every event after the first reverses its predecessor
    assert report.both_match > 0.9
    assert report.either_match >= report.both_match
    assert report.recall[10] >= report.recall[5] >= report.recall[1]


def test_adequacy_null_model_matches_null_rate():
    rng = np.random.default_rng(8)
    actors, seq = random_sequence(6, 2000, rng)
    fit = fit_map(ModelSpec(terms=(), network_id="net"), EventDesign(actors, seq, ()))
    report = adequacy(fit, actors, seq)
    # ties all break to the first dyad; on uniform data the top-choice match
    # rate estimates the analytic null rate
    se = math.sqrt(report.null_either * (1 - report.null_either) / seq.m)
    assert abs(report.either_match - report.null_either) < 4 * se
    assert report.recall[1] <= report.recall[5] <= report.recall[10]


def test_adequacy_recall_monotone_random_model(small_fixture):
    actors, seq = small_fixture
    design = EventDesign(actors, seq, (Term.PSABBA, Term.RRECSND))
    fit = fit_map(ModelSpec(terms=design.terms, network_id="net"), design)
    report = adequacy(fit, actors, seq)
    assert 0.0 <= report.both_match <= report.either_match <= 1.0
    assert report.recall[1] <= report.recall[5] <= report.recall[10]


ADEQUACY_SPEC = ModelSpec((Term.PSABBA, Term.RRECSND, Term.ICR), network_id="net")
# every term at once, at coefficients of both signs
ALL_TERM_THETA = dict(zip(ALL_TERMS, np.random.default_rng(5).uniform(-1.5, 1.5, 14)))


def adequacy_case(kind):
    """(actors, seq, fit) of an adequacy case: a 120-event, 7-actor network
    under ``ADEQUACY_SPEC`` at its fitted mode, at zero, or at a theta that
    ties dyads; a 14-term fit on it, or one p-shift alone; every term on a
    network of 2 or 3 actors; or a sequence of one event, which has no
    previous event."""
    actors = make_actors(7, icr_indices=(0, 3))
    seq = simulate_sequence(
        {Term.PSABBA: 2.0, Term.RRECSND: 1.0, Term.ICR: 0.5}, actors, 120, seed=11
    )
    if kind == "fitted":
        fit = fit_map(ADEQUACY_SPEC, design=EventDesign(actors, seq, ADEQUACY_SPEC.terms))
    elif kind in ("zero", "ties"):
        # zero ties every dyad; (1, 0, 1) scores every dyad in {0, 1, 2, 3}
        theta = (0.0, 0.0, 0.0) if kind == "zero" else (1.0, 0.0, 1.0)
        fit = point_mass_fit(dict(zip(ADEQUACY_SPEC.terms, theta)), m=seq.m)
    elif kind == "all_terms":
        fit = point_mass_fit(ALL_TERM_THETA, m=seq.m)
    elif kind in ("n2", "n3", "first_event"):
        n, m = {"n2": (2, 40), "n3": (3, 60), "first_event": (7, 1)}[kind]
        actors = make_actors(n, icr_indices=(1,))
        seq = simulate_sequence(ALL_TERM_THETA, actors, m, seed=n)
        fit = point_mass_fit(ALL_TERM_THETA, m=120)  # m sets only its AICc
    else:  # a p-shift alone: its dyads tie at one score, the rest at 0
        fit = point_mass_fit({Term(kind): 1.5}, m=seq.m)
    return actors, seq, fit


@pytest.mark.parametrize(
    "theta_kind",
    ["fitted", "zero", "ties", "all_terms", *(t.value for t in PSHIFT_TERMS)]
    + ["n2", "n3", "first_event"],
)
def test_adequacy_ranks_match_sorting_oracle(theta_kind):
    actors, seq, fit = adequacy_case(theta_kind)
    X, obs = dense_design(actors, seq, fit.spec.terms)
    scores = dense_scores(fit.mode, X)
    if theta_kind == "ties":
        # the observed dyad shares its score with others at some events
        tied = scores == scores[np.arange(seq.m), obs][:, None]
        assert np.any(tied.sum(axis=1) > 1)
    # the scorer adequacy ranks (and the sampler draws from) holds the dense
    # scores at every event, with a -inf diagonal
    n = actors.n
    scorer = RiskSetScorer(fit.spec.terms, fit.mode, actors.icr_array())
    off_diagonal = ~np.eye(n, dtype=bool).reshape(-1)
    for t, (a, b) in enumerate(seq.index_pairs(actors).tolist()):
        got = scorer.scores().reshape(-1)
        assert np.all(got[~off_diagonal] == -np.inf)
        scale = 1e-12 * max(1.0, np.abs(scores[t]).max())
        assert np.max(np.abs(got[off_diagonal] - scores[t])) <= scale, t
        scorer.update(a, b)
    report = adequacy(fit, actors, seq)
    _, positions, either, both = sorted_adequacy_ranks(scores, obs, n)
    assert report.either_match == either / seq.m
    assert report.both_match == both / seq.m
    for pct, coverage in report.recall.items():
        cutoff = math.ceil(pct / 100.0 * n * (n - 1))
        assert coverage == float(np.mean(positions < cutoff))


def test_adequacy_rejects_mismatched_network_ids():
    actors, seq = random_sequence(4, 10, np.random.default_rng(3))
    other = ActorTable("other", actors.actor_ids, actors.icr)
    with pytest.raises(ValueError, match="network_id differ"):
        adequacy(point_mass_fit({Term.ICR: 0.5}, m=seq.m), other, seq)


# --- concentration report ---------------------------------------------------


def test_concentration_report_anchors():
    fit = point_mass_fit({Term.PSABBA: 2.5, Term.NTDEGREC: 2.0}, m=80)
    actors = make_actors(6)
    trajs = run_knockout_experiment(fit, actors, 80, replicates=8, master_seed=3)
    report = concentration_report(trajs, actors)
    assert report.conditions["full"].excess_fraction == pytest.approx(1.0)
    assert report.conditions["all_removed"].excess_fraction == pytest.approx(0.0)
    assert report.conditions["full"].pct_change_vs_full == 0.0
    for name, cond in report.conditions.items():
        assert len(cond.theil_values) == 8
        if name != "full":
            assert cond.p_value is not None


def test_concentration_report_json(tmp_path):
    fit = point_mass_fit({Term.PSABBA: 2.0}, m=40)
    actors = make_actors(5)
    trajs = run_knockout_experiment(fit, actors, 40, replicates=3, master_seed=1)
    report = concentration_report(trajs, actors)
    path = tmp_path / "conc.json"
    write_json(path, report.to_json_dict())
    import json

    obj = json.loads(path.read_text())
    assert obj["network_id"] == "net"
    assert set(obj["conditions"]) == {
        "full",
        "pa_removed",
        "ps_removed",
        "icr_removed",
        "all_removed",
    }
    assert ConcentrationReport.from_json_dict(obj) == report
    assert ConcentrationReport.from_json_dict(report.to_json_dict()) == report
