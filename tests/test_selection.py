import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remnet import inference, selection
from remnet.data import ActorTable, write_json
from remnet.inference import (
    EventDesign,
    InadmissibleModelError,
    ModelSpec,
    PriorSpec,
    fit_map,
)
from remnet.selection import exhaustive_select, hill_climb_select
from remnet.stats import ALL_TERMS, Term, canonical_terms

from conftest import make_actors, random_sequence, simulate_sequence


@pytest.fixture(scope="module")
def strong_pshift_design():
    actors = make_actors(6, icr_indices=(0,))
    seq = simulate_sequence({Term.PSABBA: 3.0}, actors, 120, seed=7)
    return EventDesign(actors, seq)


def test_hill_climb_selects_strong_effect(strong_pshift_design):
    trace = hill_climb_select((Term.PSABBA,), design=strong_pshift_design)
    assert trace.final.spec.terms == (Term.PSABBA,)


def test_trace_aicc_strictly_decreasing(strong_pshift_design):
    trace = hill_climb_select(
        (Term.PSABBA, Term.RRECSND, Term.ICR), design=strong_pshift_design
    )
    accepted = [s.aicc for s in trace.steps if s.action in ("start", "add", "remove")]
    assert all(b < a for a, b in zip(accepted, accepted[1:]))


def test_hill_climb_result_is_locally_optimal(strong_pshift_design):
    candidates = (Term.PSABBA, Term.RRECSND, Term.NTDEGREC)
    trace = hill_climb_select(candidates, design=strong_pshift_design)
    final_terms = set(trace.final.spec.terms)
    neighbors = []
    for t in final_terms:
        neighbors.append(tuple(sorted(final_terms - {t}, key=list(Term).index)))
    for t in set(candidates) - final_terms:
        neighbors.append(tuple(sorted(final_terms | {t}, key=list(Term).index)))
    for terms in neighbors:
        fit = fit_map(
            ModelSpec(terms=terms, network_id="net"), design=strong_pshift_design
        )
        assert fit.aicc >= trace.final.aicc - 1e-9


def test_hill_climb_deterministic(strong_pshift_design):
    candidates = (Term.PSABBA, Term.RRECSND, Term.ICR, Term.FRPSNDSND)
    t1 = hill_climb_select(candidates, design=strong_pshift_design)
    t2 = hill_climb_select(candidates, design=strong_pshift_design)
    assert t1.final.spec == t2.final.spec
    assert [(s.action, s.term, s.aicc) for s in t1.steps] == [
        (s.action, s.term, s.aicc) for s in t2.steps
    ]


def test_warm_started_final_fit_matches_cold_fit(strong_pshift_design):
    candidates = (Term.PSABBA, Term.RRECSND, Term.ICR)
    final = hill_climb_select(candidates, design=strong_pshift_design).final
    assert final.spec.k > 0
    cold = fit_map(final.spec, design=strong_pshift_design)
    np.testing.assert_allclose(final.mode, cold.mode, rtol=1e-6)
    assert final.aicc == pytest.approx(cold.aicc, rel=1e-12)


def test_candidates_start_from_the_current_model(monkeypatch, strong_pshift_design):
    calls = []

    def recording_fit_map(spec, **kwargs):
        result = fit_map(spec, **kwargs)
        calls.append((spec.terms, kwargs["theta0"], result))
        return result

    monkeypatch.setattr(selection, "fit_map", recording_fit_map)
    trace = hill_climb_select(
        (Term.PSABBA, Term.RRECSND, Term.ICR), design=strong_pshift_design
    )
    fits = {terms: result for terms, _, result in calls}
    accepted = [fits[step.terms] for step in trace.steps]
    assert calls[0][:2] == ((), None)
    for terms, theta0, _ in calls[1:]:
        # a neighbour of some accepted model, started from its coefficients
        starts = [
            [dict(zip(base.spec.terms, base.mode)).get(t, 0.0) for t in terms]
            for base in accepted
            if len(set(terms) ^ set(base.spec.terms)) == 1
        ]
        assert any(np.array_equal(theta0, start) for start in starts)


def test_exhaustive_single_candidate(strong_pshift_design):
    trace = exhaustive_select((Term.PSABBA,), design=strong_pshift_design)
    null_fit = fit_map(ModelSpec(terms=(), network_id="net"), design=strong_pshift_design)
    one_fit = fit_map(
        ModelSpec(terms=(Term.PSABBA,), network_id="net"),
        design=strong_pshift_design,
    )
    expected = min((null_fit, one_fit), key=lambda f: f.aicc)
    assert trace.final.spec == expected.spec


def test_exhaustive_never_worse_than_hill(strong_pshift_design):
    candidates = (Term.PSABBA, Term.RRECSND, Term.ICR, Term.NTDEGREC)
    hill = hill_climb_select(candidates, design=strong_pshift_design)
    full = exhaustive_select(candidates, design=strong_pshift_design)
    assert full.final.aicc <= hill.final.aicc + 1e-9


def test_empty_candidate_set_rejected(strong_pshift_design):
    with pytest.raises(ValueError):
        hill_climb_select((), design=strong_pshift_design)
    with pytest.raises(ValueError):
        exhaustive_select((), design=strong_pshift_design)
    # a repeated candidate is rejected like a repeated term in a ModelSpec
    repeated = (Term.ICR, Term.ICR, Term.PSABBA)
    for select in (hill_climb_select, exhaustive_select):
        with pytest.raises(ValueError, match="duplicate candidate terms"):
            select(repeated, design=strong_pshift_design)


def test_null_data_usually_selects_empty_model():
    # overfit guard: on null data the AICc penalty should keep the null
    # model most of the time
    hits = 0
    reps = 20
    for r in range(reps):
        rng = np.random.default_rng(1000 + r)
        actors, seq = random_sequence(6, 40, rng, icr_indices=(0,))
        candidates = (
            Term.PSABBA, Term.RRECSND, Term.ICR, Term.NTDEGREC, Term.FRPSNDSND
        )
        trace = hill_climb_select(candidates, EventDesign(actors, seq, candidates))
        hits += trace.final.spec.terms == ()
    # picking the null model by chance among 32 subsets is ~3%; spurious
    # single-term gains are chi2(1)-sized so some overfitting remains, but
    # the AICc penalty must keep the null model far above that baseline
    assert hits >= 3


def test_trace_json_roundtrip(tmp_path, strong_pshift_design):
    trace = hill_climb_select((Term.PSABBA, Term.ICR), design=strong_pshift_design)
    path = tmp_path / "trace.json"
    write_json(path, trace.to_json_dict())
    import json

    obj = json.loads(path.read_text())
    assert obj["final"]["terms"] == trace.final.spec.term_names()
    assert [s["action"] for s in obj["steps"]][0] == "start"


def test_inadmissible_candidates_are_not_fitted(monkeypatch):
    rng = np.random.default_rng(0)
    design = EventDesign(*random_sequence(4, 3, rng))
    fitted = []

    def counting_fit_map(spec, **kwargs):
        fitted.append(spec.k)
        return fit_map(spec, **kwargs)

    monkeypatch.setattr(selection, "fit_map", counting_fit_map)
    exhaustive_select((Term.PSABBA, Term.ICR, Term.RRECSND), design=design)
    # AICc needs m > k + 1, so 3 events admit at most one term
    assert sorted(fitted) == [0, 1, 1, 1]


def _design_arrays(d):
    return [d.event, d.count, d.observed, *d.codes.values(), *d.levels.values()]


def _select_all(design):
    """The hill climb over all 14 terms, or its InadmissibleModelError's text."""
    try:
        return hill_climb_select(ALL_TERMS, design)
    except InadmissibleModelError as exc:
        return str(exc)


@settings(max_examples=50, deadline=None)
@given(case=st.data())
def test_design_and_selection_ignore_actor_labels(case):
    """Permuting the actor table changes no design byte and no selection bit:
    a merged row's codes depend on statistic values, never on actor numbers.
    Adequacy and the sampler are left out; their ties and draws follow the
    canonical dyad order, which the labels set."""
    n = case.draw(st.integers(2, 8), label="n")
    m = case.draw(st.integers(1, 40), label="m")
    icr = case.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="icr")
    rng = np.random.default_rng(case.draw(st.integers(0, 2**32 - 1), label="seed"))
    actors, seq = random_sequence(n, m, rng, [k for k in range(n) if icr[k]])
    perm = case.draw(st.permutations(range(n)), label="permutation")
    relabelled = ActorTable(
        actors.network_id,
        tuple(actors.actor_ids[k] for k in perm),
        tuple(actors.icr[k] for k in perm),
    )
    a, b = EventDesign(actors, seq), EventDesign(relabelled, seq)
    assert list(a.codes) == list(b.codes) and list(a.levels) == list(b.levels)
    for x, y in zip(_design_arrays(a), _design_arrays(b), strict=True):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    ta, tb = _select_all(a), _select_all(b)
    if isinstance(ta, str) or isinstance(tb, str):
        assert ta == tb
        return
    assert ta.steps == tb.steps
    fa, fb = ta.final, tb.final
    assert fa.spec.terms == fb.spec.terms and fa.aicc == fb.aicc
    assert fa.mode.tobytes() == fb.mode.tobytes()
    assert fa.covariance.tobytes() == fb.covariance.tobytes()


FACTOR_FIELDS = ("X", "count", "event", "starts", "x_obs")


def assert_factors_equal(got, want):
    for name in FACTOR_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.strides == b.strides, name
        assert a.tobytes() == b.tobytes(), name


def collect_moves(design, current):
    """Each one-term move from ``current`` (canonical), its kind, and its
    factors and the merged row of each design row as the hill climb
    collects them from ``current``'s rows (the latter when the move is
    accepted); a fresh move's are None, which leaves ``fit_map`` to
    collect them, and only an add whose bins would outnumber the design's
    rows is fresh."""
    fitter = selection._FitCache(design, PriorSpec(), 1e-6, 500)
    base = types.SimpleNamespace(spec=ModelSpec(current))  # all _factors reads
    moves = []
    for term in ALL_TERMS:
        if term in current:
            terms, kind = tuple(t for t in current if t is not term), "removal"
        else:
            terms = canonical_terms((*current, term))
            kind = "add last" if terms[-1] is term else "add before"
        got, inv = fitter._factors(terms, base), None
        if got is None:
            assert kind != "removal"
            assert fitter.rows[2].size * design.levels[term].size > design.event.size
            kind = f"fresh {term.value}"
        else:
            inv = fitter._moved(terms, inverse=True)[-1]
        moves.append((terms, kind, got, inv))
    return moves


def assert_moves_equal_fresh_factors(design, moves):
    """Every collected move's factors and design rows' merged rows equal
    a fresh merge's bit for bit; the kinds of move seen."""
    for terms, _, got, inv in moves:
        if got is not None:
            assert_factors_equal(got, design.factors(terms))
            columns = [(design.codes[t], design.levels[t].size) for t in terms]
            fresh = inference._merge(
                design.event, design.count, columns, design.m, design.observed, inverse=True
            )
            assert inv.dtype == fresh[3].dtype and inv.tobytes() == fresh[3].tobytes()
    return {kind for _, kind, _, _ in moves}


@settings(max_examples=40, deadline=None)
@given(case=st.data())
def test_moves_from_the_current_rows_equal_fresh_factors(case):
    n = case.draw(st.integers(2, 8), label="n")
    m = case.draw(st.integers(1, 30), label="m")
    icr = case.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="icr")
    rng = np.random.default_rng(case.draw(st.integers(0, 2**32 - 1), label="seed"))
    design = EventDesign(*random_sequence(n, m, rng, [k for k in range(n) if icr[k]]))
    current = canonical_terms(case.draw(st.sets(st.sampled_from(ALL_TERMS)), label="current"))
    assert_moves_equal_fresh_factors(design, collect_moves(design, current))


def test_every_kind_of_move_and_reranked_codes_give_fresh_factors(path_sized_fixture):
    design = EventDesign(*path_sized_fixture)
    # from the empty spec every add comes last; from this one RSndSnd's
    # comes before PSAB-BA and ICR's after it
    current = (Term.RRECSND, Term.PSABBA)
    kinds = set()
    for spec in ((), current):
        kinds |= assert_moves_equal_fresh_factors(design, collect_moves(design, spec))
    assert {"removal", "add last", "add before", "fresh NTDegRec"} <= kinds
    # a limit of m re-ranks the codes before every digit of every merge:
    # the current rows', each removal's and each re-sorted add's
    with mock.patch.object(inference, "_CODE_LIMIT", design.m), mock.patch.object(
        inference.np, "unique", wraps=np.unique
    ) as unique:
        moves = collect_moves(design, current)
    assert unique.call_count > 0
    assert kinds >= assert_moves_equal_fresh_factors(design, moves)


def test_hill_climb_collects_paper_scale_moves_bit_for_bit(monkeypatch):
    # one network of the data package's mean size (n = 100, m = 500): every
    # move the hill climb collects from the current rows equals a fresh
    # collection, whose merge sorts all 14-term design rows
    actors = make_actors(100, icr_indices=range(10))
    truth = {Term.NTDEGREC: 2.0, Term.RRECSND: 1.0, Term.PSABBA: 2.5, Term.ICR: 0.8}
    design = EventDesign(actors, simulate_sequence(truth, actors, 500, seed=1))
    collected = []

    def checked_fit_map(spec, **kwargs):
        got = kwargs["_factors"]
        if got is not None:
            assert_factors_equal(got, design.factors(spec.terms))
        collected.append(got is not None)
        return fit_map(spec, **kwargs)

    monkeypatch.setattr(selection, "fit_map", checked_fit_map)
    trace = hill_climb_select(ALL_TERMS, design)
    assert trace.final.spec.k > 0
    # the empty model and each add past the bin rule merge afresh
    assert not collected[0] and sum(collected) > len(collected) / 2
