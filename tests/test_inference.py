import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp
from scipy.stats import t as student_t

from remnet.inference import (
    EventDesign,
    FitResult,
    InadmissibleModelError,
    ModelSpec,
    PriorSpec,
    aicc,
    fit_map,
    gradient,
    hessian,
    log_likelihood,
    null_log_likelihood,
    posterior_interval,
    star_codes,
)
from remnet.stats import ALL_TERMS, Term

from conftest import (
    make_actors,
    point_mass_fit,
    random_sequence,
    sequence_from_pairs,
    simulate_sequence,
)
from oracle import naive_log_likelihood


def all_term_spec(network_id="net"):
    return ModelSpec(terms=ALL_TERMS, network_id=network_id)


def test_null_loglik_closed_form(path_sized_fixture):
    actors, seq = path_sized_fixture
    spec = ModelSpec(terms=(), network_id="net")
    ll = log_likelihood(np.zeros(0), spec, seq, actors)
    expected = -70 * math.log(32 * 31)
    assert ll == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(-482.98, abs=0.01)


def test_null_loglik_single_event_two_actors():
    actors = make_actors(2)
    seq = sequence_from_pairs(actors, [(0, 1)])
    spec = ModelSpec(terms=(), network_id="net")
    assert log_likelihood(np.zeros(0), spec, seq, actors) == pytest.approx(
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
    scores = design.scores(theta, ALL_TERMS)
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
    scores = design.scores(big, ALL_TERMS)
    big *= 1000.0 / scores.flat[np.abs(scores).argmax()]
    with np.errstate(over="ignore"):
        assert not np.all(np.isfinite(np.exp(design.scores(big, ALL_TERMS))))
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
    assert gradient(np.zeros(0), spec, seq, actors).shape == (0,)


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
    for view in (log_likelihood, gradient, hessian):
        with pytest.raises(ValueError):
            view(np.zeros(3), all_term_spec(), seq, actors)


def test_aicc_formula():
    assert aicc(-10.0, 0, 50) == pytest.approx(20.0)
    assert aicc(-10.0, 2, 50) == pytest.approx(20.0 + 4 + 12 / 47)


def test_aicc_null_path_sized():
    ll = null_log_likelihood(32, 70)
    assert aicc(ll, 0, 70) == pytest.approx(965.97, abs=0.01)


def test_aicc_inadmissible():
    with pytest.raises(InadmissibleModelError):
        aicc(-1.0, 5, 6)


def test_fit_empty_spec(path_sized_fixture):
    actors, seq = path_sized_fixture
    fit = fit_map(ModelSpec(terms=(), network_id="net"), seq, actors)
    assert fit.converged
    assert fit.log_lik_at_mode == pytest.approx(null_log_likelihood(32, 70))
    assert fit.aicc == pytest.approx(-2 * fit.log_lik_at_mode)


def test_fit_recovers_strong_pshift():
    actors = make_actors(8, icr_indices=(0,))
    seq = simulate_sequence(
        {Term.PSABBA: 2.5, Term.RRECSND: 1.0}, actors, 600, seed=42
    )
    fit = fit_map(
        ModelSpec(terms=(Term.PSABBA, Term.RRECSND), network_id="net"),
        seq,
        actors,
    )
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
        return log_likelihood(theta, spec, design=design) + prior.log_density(theta)

    at_mode = log_post(fit.mode)
    for k in range(2):
        for delta in (-0.05, 0.05):
            bump = np.zeros(2)
            bump[k] = delta
            assert log_post(fit.mode + bump) < at_mode


def test_fit_prior_dominated_single_event():
    # a single event with an informative ICR contrast: the unpenalized
    # MLE diverges, the t-prior keeps the mode finite
    actors = make_actors(3, icr_indices=(1,))
    seq = sequence_from_pairs(actors, [(0, 1)])
    spec = ModelSpec(terms=(Term.ICR,), network_id="net")
    prior = PriorSpec()
    design = EventDesign(actors, seq)
    fit = fit_map(spec, design=design, prior=prior)
    assert np.isfinite(fit.mode[0])
    assert abs(fit.mode[0]) < 50.0

    def neg_posterior_1d(x):
        ll = log_likelihood(np.array([x]), spec, design=design)
        return -(ll + float(student_t.logpdf(x, prior.df, 0.0, prior.scale)))

    direct = minimize_scalar(neg_posterior_1d, bounds=(-60, 60), method="bounded")
    assert fit.mode[0] == pytest.approx(direct.x, abs=1e-3)


def test_covariance_symmetric_psd_diag(small_fixture):
    actors, seq = small_fixture
    fit = fit_map(
        ModelSpec(terms=(Term.PSABBA, Term.ICR), network_id="net"), seq, actors
    )
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


def test_fit_result_json_roundtrip(tmp_path, small_fixture):
    actors, seq = small_fixture
    fit = fit_map(
        ModelSpec(terms=(Term.PSABBA, Term.RRECSND), network_id="net"),
        seq,
        actors,
    )
    path = tmp_path / "fit.json"
    fit.save(path)
    loaded = FitResult.load(path)
    assert loaded.spec == fit.spec
    assert np.allclose(loaded.mode, fit.mode)
    assert np.allclose(loaded.covariance, fit.covariance)
    assert loaded.aicc == pytest.approx(fit.aicc)


def test_prior_validation():
    with pytest.raises(ValueError):
        PriorSpec(scale=0.0)
    with pytest.raises(ValueError):
        PriorSpec(df=-1.0)


def test_prior_derivatives_match_fd():
    prior = PriorSpec()
    theta = np.array([-3.0, 0.0, 1.7, 12.0])
    eps = 1e-6
    g = prior.grad(theta)
    h = prior.hess_diag(theta)
    for k, x in enumerate(theta):
        up = np.array(theta)
        dn = np.array(theta)
        up[k] += eps
        dn[k] -= eps
        fd_g = (prior.log_density(up) - prior.log_density(dn)) / (2 * eps)
        fd_h = (prior.grad(up)[k] - prior.grad(dn)[k]) / (2 * eps)
        assert g[k] == pytest.approx(fd_g, abs=1e-7)
        assert h[k] == pytest.approx(fd_h, abs=1e-6)


def test_model_spec_rejects_duplicates():
    with pytest.raises(ValueError):
        ModelSpec(terms=(Term.ICR, Term.ICR), network_id="net")
