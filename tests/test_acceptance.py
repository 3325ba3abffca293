"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Criterion 9 needs the real radio-network data
package and is skipped unless WTC_DATA_DIR points at it.
"""

import functools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from remnet.analysis import (
    null_both_rate,
    null_either_rate,
    theil_index,
    welch_t_test,
)
from remnet.cli import main as cli_main
from remnet.data import load_networks, summarize
from remnet.inference import (
    EventDesign,
    ModelSpec,
    fit_map,
    gradient,
    log_likelihood,
    posterior_interval,
)
from remnet.selection import exhaustive_select, hill_climb_select
from remnet.simulation import KnockoutCondition, run_knockout_experiment
from remnet.stats import ALL_TERMS, Term, design_matrix, dyad_index

from conftest import (
    make_actors,
    point_mass_fit,
    random_events,
    random_sequence,
    replay,
    sequence_from_pairs,
    simulate_sequence,
)
from oracle import naive_stat_vector


def _criterion(num, name):
    """Decorator printing one pass/fail line per acceptance criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception:
                print(f"\n[criterion {num}] {name}: SKIP")
                raise
            except BaseException:
                print(f"\n[criterion {num}] {name}: FAIL")
                raise
            print(f"\n[criterion {num}] {name}: PASS")

        return run

    return wrap


@_criterion(1, "oracle equivalence of incremental statistics")
def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(20260825)
    for _ in range(100):
        n = int(rng.integers(3, 11))
        m = int(rng.integers(5, 51))
        actors = make_actors(n, icr_indices=tuple(range(0, n, 3)))
        icr = actors.icr_array()
        events = random_events(n, m, rng)
        # a handful of prefixes per sequence, always including the full one
        cuts = sorted({int(rng.integers(0, m)), int(rng.integers(0, m)), m})
        for t in cuts:
            prefix = events[:t]
            state = replay(prefix, n)
            design = design_matrix(state, icr, ALL_TERMS)
            # spot-check dyads against the from-scratch oracle, exactly
            dyads = {events[t] if t < m else events[-1]}
            while len(dyads) < 3:
                i = int(rng.integers(n))
                j = int(rng.integers(n - 1))
                dyads.add((i, j + 1 if j >= i else j))
            for i, j in dyads:
                inc = design[:, dyad_index(i, j, n)]
                naive = naive_stat_vector(prefix, icr, n, i, j, ALL_TERMS)
                assert np.array_equal(inc, naive), (n, t, i, j)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


@_criterion(2, "analytic gradient matches finite differences")
def test_criterion_2_gradient_check():
    rng = np.random.default_rng(42)
    actors, seq = random_sequence(5, 20, rng, icr_indices=(0, 2))
    spec = ModelSpec(terms=ALL_TERMS, network_id="net")
    design = EventDesign(actors, seq)
    h = 1e-6
    for _ in range(20):
        theta = rng.normal(scale=0.5, size=len(ALL_TERMS))
        grad = gradient(theta, spec, design=design)
        fd = np.empty_like(grad)
        for k in range(len(theta)):
            up, dn = theta.copy(), theta.copy()
            up[k] += h
            dn[k] -= h
            fd[k] = (
                log_likelihood(up, spec, design=design)
                - log_likelihood(dn, spec, design=design)
            ) / (2 * h)
        denom = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(grad - fd) / denom) <= 1e-5


@_criterion(3, "empty-model log-likelihood closed form")
def test_criterion_3_null_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(3, 30))
        m = int(rng.integers(1, 120))
        actors, seq = random_sequence(n, m, rng)
        got = log_likelihood(
            np.zeros(0),
            ModelSpec(terms=(), network_id="net"),
            EventDesign(actors, seq, ()),
        )
        expected = -m * math.log(n * (n - 1))
        assert abs(got - expected) <= 1e-9 * abs(expected)
    assert -70 * math.log(32 * 31) == pytest.approx(-482.98, abs=0.005)


@_criterion(4, "analytic null adequacy rates")
def test_criterion_4_null_adequacy_rates():
    # closed forms against exhaustive enumeration of the risk set
    for n in range(3, 7):
        dyads = [(i, j) for i in range(n) for j in range(n) if i != j]
        either = sum(1 for i, j in dyads if i == 0 or j == 1) / len(dyads)
        both = 1 / len(dyads)
        assert null_either_rate(n) == pytest.approx(either, rel=1e-15)
        assert null_both_rate(n) == pytest.approx(both, rel=1e-15)
        assert null_either_rate(n) == pytest.approx(
            (2 * n - 3) / (n * (n - 1)), rel=1e-15
        )
    # published null columns for a 24-actor network, after rounding
    assert round(null_either_rate(24), 2) == 0.08
    assert round(null_both_rate(24), 3) == 0.002


@_criterion(5, "posterior interval coverage under known coefficients")
def test_criterion_5_parameter_recovery():
    start = time.monotonic()
    truth = {Term.PSABBA: 1.5, Term.RRECSND: 0.8, Term.ICR: 0.7}
    actors = make_actors(10, icr_indices=(0, 1))
    reps = 50
    covered = np.zeros(len(truth), dtype=int)
    for r in range(reps):
        seq = simulate_sequence(truth, actors, 2000, seed=7000 + r)
        fit = fit_map(
            ModelSpec(terms=tuple(truth), network_id="net"),
            EventDesign(actors, seq, tuple(truth)),
        )
        assert fit.converged
        intervals = posterior_interval(fit, 0.95)
        for k, term in enumerate(truth):
            lo, hi = intervals[k]
            covered[k] += lo <= truth[term] <= hi
    coverage = covered / reps
    assert np.all(coverage >= 0.90), coverage
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"took {elapsed:.1f}s"


@_criterion(6, "hill climb matches exhaustive model search")
def test_criterion_6_selection_sanity():
    candidates = (
        Term.NTDEGREC,
        Term.FRPSNDSND,
        Term.RRECSND,
        Term.OTPSND,
        Term.PSABBA,
        Term.ICR,
    )
    generators = [
        {Term.PSABBA: 2.5},
        {Term.PSABBA: 1.5, Term.ICR: 1.0},
        {Term.RRECSND: 1.2},
        {Term.NTDEGREC: 2.0},
        {},  # null data
    ]
    agreements = 0
    cases = 0
    for g, theta in enumerate(generators):
        for r in range(5):
            n = 5 + (r % 3)
            actors = make_actors(n, icr_indices=(0,))
            if theta:
                seq = simulate_sequence(theta, actors, 80, seed=900 + 10 * g + r)
            else:
                rng = np.random.default_rng(900 + 10 * g + r)
                seq = sequence_from_pairs(actors, random_events(n, 80, rng))
            design = EventDesign(actors, seq)
            hill = hill_climb_select(candidates, design=design)
            full = exhaustive_select(candidates, design=design)
            cases += 1
            if hill.final.spec == full.final.spec:
                agreements += 1
            else:
                # a hill-climb miss is only acceptable when the global
                # optimum is strictly better
                assert full.final.aicc < hill.final.aicc - 1e-9
    # agreement on at least 20 networks; rare strictly-better exceptions
    # from the greedy path are tolerated above
    assert agreements >= 20, f"{agreements}/{cases} agree"


@_criterion(7, "knock-out conditions move concentration as expected")
def test_criterion_7_knockout_direction():
    actors = make_actors(6)
    conditions = (
        KnockoutCondition.named("full"),
        KnockoutCondition.named("pa_removed"),
        KnockoutCondition.named("ps_removed"),
    )

    def theils(fit, master_seed):
        trajs = run_knockout_experiment(
            fit, actors, 80, replicates=50, conditions=conditions,
            master_seed=master_seed,
        )
        out = {c.name: [] for c in conditions}
        for t in trajs:
            out[t.condition].append(theil_index(t.volumes(actors)))
        return {k: np.array(v) for k, v in out.items()}

    # hub-forming model: strong turn-taking plus rich-get-richer
    fit = point_mass_fit({Term.PSABBA: 3.0, Term.NTDEGREC: 3.0}, m=80)
    by_cond = theils(fit, master_seed=70)
    t, p = welch_t_test(by_cond["ps_removed"], by_cond["full"])
    assert by_cond["ps_removed"].mean() < by_cond["full"].mean()
    assert p < 0.01

    # hub-suppressing accumulation: removing it increases concentration
    fit = point_mass_fit({Term.PSABBA: 1.0, Term.NTDEGREC: -4.0}, m=80)
    by_cond = theils(fit, master_seed=71)
    t, p = welch_t_test(by_cond["pa_removed"], by_cond["full"])
    assert by_cond["pa_removed"].mean() > by_cond["full"].mean()
    assert p < 0.01


@_criterion(8, "concentration index analytic properties")
def test_criterion_8_theil_analytics():
    assert theil_index([7, 7, 7]) == pytest.approx(0.0, abs=1e-15)
    for n in (2, 4, 9):
        x = np.zeros(n)
        x[0] = 3.0
        assert theil_index(x) == pytest.approx(math.log(n), rel=1e-12)
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = rng.integers(0, 20, size=int(rng.integers(2, 15))).astype(float)
        if x.sum() == 0:
            x[0] = 1.0
        c = float(rng.uniform(1e-3, 1e3))
        assert abs(theil_index(c * x) - theil_index(x)) < 1e-12
    assert theil_index([4, 1, 1, 1, 1]) == pytest.approx(0.2231, abs=5e-5)


@_criterion(9, "released data package reproduction")
def test_criterion_9_data_package(tmp_path):
    data_dir = os.environ.get("WTC_DATA_DIR")
    if not data_dir:
        pytest.skip("WTC_DATA_DIR not set; real data package not available")
    data_dir = Path(data_dir)
    events = data_dir / "events.csv"
    actors = data_dir / "actors.csv"
    nets = load_networks(events, actors)
    assert len(nets) == 17
    metas = {m.network_id: m for m in (summarize(a, s) for a, s in nets.values())}

    def find(fragment):
        hits = [m for k, m in metas.items() if fragment.lower() in k.lower()]
        assert len(hits) == 1, f"{fragment}: {sorted(metas)}"
        return hits[0]

    newark_maint = find("newark maintenance")
    assert (newark_maint.n_actors, newark_maint.n_events) == (27, 77)
    path_radio = find("path radio")
    assert (path_radio.n_actors, path_radio.n_events) == (32, 70)
    assert path_radio.pct_icr == pytest.approx(6.25, abs=0.005)
    newark_police = find("newark police")
    assert (newark_police.n_actors, newark_police.n_events) == (24, 83)
    assert newark_police.pct_icr == pytest.approx(8.33, abs=0.005)
    assert round(float(np.mean([m.n_actors for m in metas.values()]))) == 127
    assert round(float(np.mean([m.n_events for m in metas.values()]))) == 578
    assert round(float(np.mean([m.pct_icr for m in metas.values()])), 2) == 6.52

    # adequacy null columns follow the closed forms exactly after rounding
    for m in metas.values():
        assert 0 < null_both_rate(m.n_actors) < null_either_rate(m.n_actors) < 1

    # model selection runs end-to-end and reports finite AICc per network
    out = tmp_path / "wtc"
    assert (
        cli_main(
            [
                "select",
                "--events",
                str(events),
                "--actors",
                str(actors),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    for net_id in nets:
        assert (out / f"fit_{net_id}.json").exists()
