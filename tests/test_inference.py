import math

import numpy as np
import pytest
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
    design_scores,
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
    scores = design_scores(design, theta, ALL_TERMS)
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
    scores = design_scores(design, big, ALL_TERMS)
    big *= 1000.0 / scores.flat[np.abs(scores).argmax()]
    with np.errstate(over="ignore"):
        assert not np.all(np.isfinite(np.exp(design_scores(design, big, ALL_TERMS))))
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
    whole = [_fgh(theta, spec, design) for theta in thetas]
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


def test_spec_design_columns_equal_full_design(path_sized_fixture, monkeypatch):
    actors, seq = path_sized_fixture
    terms = (Term.NTDEGREC, Term.PSABBA, Term.RRECSND, Term.ICR)
    full = EventDesign(actors, seq)
    small = EventDesign(actors, seq, terms)
    rows = seq.m * small.n_dyads
    assert full.full_tensor.nbytes == 14 * rows * 8
    assert small.full_tensor.nbytes == 4 * rows * 8
    assert np.array_equal(small.obs_idx, full.obs_idx)
    # 70 events of 992 dyads make two blocks: 66 events, then 4
    own = list(small.blocks(terms))
    assert [X.shape for X, _ in own] == [(4, 66, 992), (4, 4, 992)]
    stitched = np.concatenate([X for X, _ in own], axis=1)
    assert np.array_equal(stitched.reshape(4, -1), small.full_tensor)
    assert np.array_equal(np.concatenate([obs for _, obs in own]), small.obs_idx)
    for (X, obs), (want, want_obs) in zip(own, full.blocks(terms)):
        assert np.shares_memory(X, small.full_tensor)
        assert all(row.flags.c_contiguous for row in X)
        # the kernel's (k, b * n_dyads) reshape of a view is still a view
        assert np.shares_memory(X.reshape(4, -1), small.full_tensor)
        assert np.array_equal(X, want) and np.array_equal(obs, want_obs)
    # another order or a subset is a contiguous copy of the same values
    for other in (terms[::-1], terms[1:3]):
        for (X, obs), (want, want_obs) in zip(small.blocks(other), full.blocks(other)):
            assert not np.shares_memory(X, small.full_tensor)
            assert X.flags.c_contiguous
            assert np.array_equal(X, want) and np.array_equal(obs, want_obs)
    # in one block, the design's own terms are the whole C-contiguous tensor
    monkeypatch.setattr(inference, "_BLOCK_ROWS", rows)
    [(X, obs)] = small.blocks(terms)
    assert np.shares_memory(X, small.full_tensor) and X.flags.c_contiguous
    assert np.array_equal(X.reshape(4, -1), small.full_tensor)


def test_design_without_spec_terms_is_rejected(small_fixture):
    actors, seq = small_fixture
    design = EventDesign(actors, seq, (Term.ICR, Term.NTDEGREC))
    spec = ModelSpec(terms=(Term.PSABBA, Term.ICR, Term.RRECSND), network_id="net")
    match = r"no statistics for PSAB-BA, RRecSnd; it was built for \[ICR, NTDegRec\]"
    with pytest.raises(ValueError, match=match):
        next(design.blocks(spec.terms))
    with pytest.raises(ValueError, match=match):
        fit_map(spec, design=design)
    for view in (log_likelihood, gradient, hessian):
        with pytest.raises(ValueError, match=match):
            view(np.zeros(3), spec, design=design)


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
    ll = null_log_likelihood(32, 70)
    assert aicc(ll, 0, 70) == pytest.approx(965.97, abs=0.01)


def test_aicc_inadmissible():
    with pytest.raises(InadmissibleModelError):
        aicc(-1.0, 5, 6)


def test_fit_empty_spec(path_sized_fixture):
    actors, seq = path_sized_fixture
    fit = fit_map(ModelSpec(terms=(), network_id="net"), EventDesign(actors, seq, ()))
    assert fit.converged and fit.n_iter == 0
    assert fit.mode.shape == (0,) and fit.covariance.shape == (0, 0)
    assert fit.log_lik_at_mode == pytest.approx(null_log_likelihood(32, 70))
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
        return log_likelihood(theta, spec, design=design) + prior.log_density(theta)

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
    assert PriorSpec().hess_diag(np.array([start]))[0] > 0.0
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
    with pytest.raises(ValueError):
        PriorSpec(scale=0.0)
    with pytest.raises(ValueError):
        PriorSpec(df=-1.0)


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
        assert prior.log_density(theta[:1]) == pytest.approx(want[0], rel=1e-13)
        assert prior.log_density(theta) == pytest.approx(want.sum(), rel=1e-13)


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
