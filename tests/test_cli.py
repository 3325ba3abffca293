import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remnet.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NUMERICAL,
    EXIT_OK,
    ConfigError,
    RunConfig,
    _load_config,
    build_parser,
    main,
)
from remnet.data import ActorTable
from remnet import selection
from remnet.inference import ModelSpec, fit_map
from remnet.simulation import DEFAULT_CONDITIONS, KnockoutCondition
from remnet.stats import Term

from conftest import (
    corrupt_json,
    make_actors,
    save_network,
    sequence_from_pairs,
    simulate_sequence,
)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    rng_nets = [
        ("alpha", 6, 80, (0,), True, 101),
        ("beta", 5, 60, (1,), False, 202),
    ]
    events_lines = ["network_id,order,sender,receiver"]
    actors_lines = ["network_id,actor_id,icr,specialist"]
    for name, n, m, icr_idx, spec_flag, seed in rng_nets:
        actors = make_actors(n, icr_idx, network_id=name, specialist=spec_flag)
        seq = simulate_sequence(
            {Term.PSABBA: 2.5, Term.ICR: 1.0}, actors, m, seed=seed
        )
        for aid, flag in zip(actors.actor_ids, actors.icr):
            actors_lines.append(f"{name},{aid},{int(flag)},{int(spec_flag)}")
        for order, (s, r) in enumerate(seq.events, start=1):
            events_lines.append(f"{name},{order},{s},{r}")
    (root / "events.csv").write_text("\n".join(events_lines) + "\n")
    (root / "actors.csv").write_text("\n".join(actors_lines) + "\n")
    return root


def run(args):
    return main([str(a) for a in args])


def test_summarize(data_dir, tmp_path):
    out = tmp_path / "out"
    code = run(
        [
            "summarize",
            "--events",
            data_dir / "events.csv",
            "--actors",
            data_dir / "actors.csv",
            "--out",
            out,
        ]
    )
    assert code == EXIT_OK
    lines = (out / "summary.csv").read_text().strip().splitlines()
    assert lines[0] == "network_id,actors,events,pct_icr,specialization"
    assert len(lines) == 4  # 2 networks + mean row
    assert lines[-1].startswith("Mean,")
    assert (out / "summarize_config.json").exists()


def test_summarize_single_network_mean_row(data_dir, tmp_path):
    single = tmp_path / "single"
    single.mkdir()
    actors = make_actors(4, (0,), network_id="solo")
    seq = simulate_sequence({Term.PSABBA: 1.0}, actors, 10, seed=4)
    save_network(actors, seq, single / "e.csv", single / "a.csv")
    out = tmp_path / "out_single"
    assert (
        run(
            [
                "summarize",
                "--events",
                single / "e.csv",
                "--actors",
                single / "a.csv",
                "--out",
                out,
            ]
        )
        == EXIT_OK
    )
    lines = (out / "summary.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "4"
    assert lines[2].split(",")[1] == "4.00"  # mean of one network


def test_missing_events_is_config_error(tmp_path):
    assert run(["summarize", "--out", tmp_path / "o"]) == EXIT_CONFIG
    # every command that reads the network needs the path; report does not
    for command in ("summarize", "fit", "select", "adequacy", "simulate", "knockout"):
        out = tmp_path / command
        assert run([command, "--out", out, "--seed", "1"]) == EXIT_CONFIG
        assert not out.exists()


def test_bad_path_is_data_error(data_dir, tmp_path, capsys):
    code = run(
        [
            "summarize",
            "--events",
            tmp_path / "nope.csv",
            "--actors",
            tmp_path / "nope2.csv",
            "--out",
            tmp_path / "o",
        ]
    )
    assert code == EXIT_DATA
    # an input path that exists but cannot be opened: a directory
    events, actors = data_dir / "events.csv", data_dir / "actors.csv"
    folder, folder_json = tmp_path / "folder.csv", tmp_path / "folder.json"
    folder.mkdir()
    folder_json.mkdir()
    for paths in (
        ["--events", folder, "--actors", actors],
        ["--events", events, "--actors", folder],
        ["--events", folder_json],
    ):
        capsys.readouterr()
        assert run(["summarize", *paths, "--out", tmp_path / "o"]) == EXIT_DATA
        assert "folder" in capsys.readouterr().err
    out = tmp_path / "fits"
    (out / "fit_alpha.json").mkdir(parents=True)
    base = ["--events", events, "--actors", actors, "--out", out]
    assert run(["adequacy", *base]) == EXIT_DATA
    assert "fit_alpha.json" in capsys.readouterr().err


def test_bad_condition_is_config_error(data_dir, tmp_path):
    code = run(
        [
            "knockout",
            "--events",
            data_dir / "events.csv",
            "--actors",
            data_dir / "actors.csv",
            "--out",
            tmp_path / "o",
            "--seed",
            "1",
            "--conditions",
            "bogus",
        ]
    )
    assert code == EXIT_CONFIG


def test_knockout_requires_seed(data_dir, tmp_path):
    code = run(
        [
            "knockout",
            "--events",
            data_dir / "events.csv",
            "--actors",
            data_dir / "actors.csv",
            "--out",
            tmp_path / "o",
        ]
    )
    assert code == EXIT_CONFIG


def test_config_file_with_flag_override(data_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "events": str(data_dir / "events.csv"),
                "actors": str(data_dir / "actors.csv"),
                "out": str(tmp_path / "from_config"),
            }
        )
    )
    out = tmp_path / "from_flag"
    assert run(["summarize", "--config", cfg, "--out", out]) == EXIT_OK
    assert (out / "summary.csv").exists()


@pytest.mark.parametrize("method", ["hill", "exhaustive"])
def test_select_config_max_iter_reaches_every_fit(
    data_dir, tmp_path, monkeypatch, method
):
    max_iters = []

    def recording_fit_map(spec, **kwargs):
        max_iters.append(kwargs["max_iter"])
        return fit_map(spec, **kwargs)

    monkeypatch.setattr(selection, "fit_map", recording_fit_map)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "events": str(data_dir / "events.csv"),
                "actors": str(data_dir / "actors.csv"),
                "out": str(tmp_path / "out"),
                "terms": ["PSAB-BA", "ICR"],
                "selection": method,
                "max_iter": 1,
            }
        )
    )
    assert run(["select", "--config", cfg]) == EXIT_OK
    assert len(max_iters) > 2 and set(max_iters) == {1}


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"evnts": "x"}))
    assert run(["summarize", "--config", cfg]) == EXIT_CONFIG
    cfg.write_text(json.dumps({"events": "x.csv", "jobs": 2}))
    assert run(["summarize", "--config", cfg]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "command, payload, flags",
    [
        ("fit", {"terms": ["ICR", "ICR"]}, []),
        ("fit", {}, ["--terms", "ICR", "ICR"]),
        ("fit", {"prior_scale": -1}, []),
        ("fit", {"prior_df": 0}, []),
        ("fit", {"tol": -1}, []),
        ("fit", {"tol": "x"}, []),
        ("fit", {"tol": float("nan")}, []),
        ("fit", {}, ["--tol", "inf"]),
        ("fit", {"max_iter": 2.5}, []),
        ("fit", {"terms": "ICR"}, []),
        ("select", {"terms": []}, []),
        ("knockout", {"replicates": 0}, ["--seed", "1"]),
        ("knockout", {"replicates": True}, ["--seed", "1"]),
        ("knockout", {}, ["--seed", "-1"]),
        ("knockout", {"conditions": [1]}, ["--seed", "1"]),
        ("fit", {"max_iter": 0}, []),
        ("select", {"max_iter": -3}, []),
        ("knockout", {}, ["--seed", "1", "--conditions", "full", "full"]),
        ("knockout", {"conditions": ["full", "pa_removed", "full"]}, ["--seed", "1"]),
        ("knockout", {"conditions": []}, ["--seed", "1"]),
        ("simulate", {"conditions": []}, ["--seed", "1"]),
        ("fit", {"tol": 1}, []),
        ("fit", {"tol": 1e308}, []),
    ],
)
def test_bad_config_value_is_config_error(data_dir, tmp_path, command, payload, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    base = ["--events", data_dir / "events.csv", "--actors", data_dir / "actors.csv"]
    out = ["--out", tmp_path / "o"]
    assert run(["fit", *base, *out, "--terms", "ICR"]) == EXIT_OK  # knockout needs it
    assert run([command, "--config", cfg, *base, *out, *flags]) == EXIT_CONFIG


@pytest.mark.parametrize("payload", [{"prior_df": 1e308}, {"prior_scale": 1e300}])
def test_huge_prior_parameter_exits_cleanly(data_dir, tmp_path, capsys, payload):
    # math.lgamma(df / 2), scale ** 2 and (df + z^2) ** 2 overflow at these
    # values; the prior is then a Gaussian or flat, and the fit goes through
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    base = ["--events", data_dir / "events.csv", "--actors", data_dir / "actors.csv"]
    terms = ["--terms", "PSAB-BA", "ICR"]
    code = run(["fit", "--config", cfg, *base, "--out", tmp_path / "o", *terms])
    assert code == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload, want",
    [
        ({"prior_scale": 1e-300}, EXIT_CONFIG),
        ({"prior_scale": 1e-160}, EXIT_CONFIG),
        ({"prior_location": 1e300}, EXIT_CONFIG),
        ({"prior_location": 1e150}, EXIT_CONFIG),
        ({"prior_df": 1e-300}, EXIT_OK),
        ({"prior_scale": 1e-10}, EXIT_OK),
        ({"prior_df": 5e-324}, EXIT_CONFIG),
    ],
)
def test_extreme_prior_parameter_exit_codes(data_dir, tmp_path, capsys, payload, want):
    # a prior whose density or derivatives overflow, divide by zero or leave
    # math's domain at theta = 0 is a config error that names the prior: a
    # fit under it stalls or fails with warnings; a tiny df or a small scale
    # is a valid prior and fits
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    base = ["--events", data_dir / "events.csv", "--actors", data_dir / "actors.csv"]
    terms = ["--terms", "PSAB-BA", "ICR"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["fit", "--config", cfg, *base, "--out", tmp_path / "o", *terms])
    assert code == want
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if want == EXIT_CONFIG:
        assert "config error: prior (location" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# one numeric config key at a log-uniform extreme of either sign
EXTREME_FLOATS = st.builds(
    lambda sign, exponent: sign * 10.0**exponent,
    st.sampled_from((1.0, -1.0)),
    st.floats(math.log10(5e-324), math.log10(1.7e308)),
)


@settings(max_examples=200, deadline=None)
@given(
    setting=st.tuples(
        st.sampled_from(("prior_location", "prior_scale", "prior_df", "tol")),
        EXTREME_FLOATS,
    )
    | st.tuples(st.just("seed"), st.integers(0, 2**70)),
)
def test_config_extremes_fit_or_exit_cleanly(data_dir, setting):
    """A fit with any numeric key at an extreme exits with a known code.

    ``replicates`` and ``max_iter`` are left out: they set the amount of
    work, not whether a config is valid.
    """
    key, value = setting
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        base = ["--events", data_dir / "events.csv", "--actors", data_dir / "actors.csv"]
        terms = ["--terms", "PSAB-BA", "ICR"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run(["fit", "--config", cfg, *base, "--out", Path(tmp) / "o", *terms])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERICAL), code
    assert "Traceback" not in err.getvalue()
    if key == "tol":
        # a tol of 1 or more could stop at theta = 0; a tiny one is valid,
        # and its fits are reported unconverged
        if 0 < value < 1:
            assert code == EXIT_OK, code
        else:
            assert code == EXIT_CONFIG and "tol must be in (0, 1)" in err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_out_that_is_a_file_is_config_error(data_dir, tmp_path):
    out = tmp_path / "taken"
    out.write_text("")
    base = ["--events", data_dir / "events.csv", "--actors", data_dir / "actors.csv"]
    assert run(["summarize", *base, "--out", out]) == EXIT_CONFIG
    # an output file that cannot be opened: a directory
    out = tmp_path / "o"
    for name in ("summary.csv", "fit_alpha.json"):
        (out / name).mkdir(parents=True)
    assert run(["summarize", *base, "--out", out]) == EXIT_CONFIG
    assert run(["fit", *base, "--terms", "ICR", "--out", out]) == EXIT_CONFIG


def test_config_must_be_an_object(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("5")
    assert run(["summarize", "--config", cfg]) == EXIT_CONFIG
    cfg.write_bytes(b'{"events": "\xff"}')
    assert run(["summarize", "--config", cfg]) == EXIT_CONFIG


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(), children, max_size=3),
    max_leaves=5,
)


def _well_typed(cfg: RunConfig) -> bool:
    def number(x):
        return type(x) in (int, float) and math.isfinite(x)

    def strings(xs):
        return type(xs) is list and all(type(x) is str for x in xs)

    return (
        all(type(v) is str for v in (cfg.events, cfg.actors, cfg.out, cfg.selection))
        and strings(cfg.terms)
        and strings(cfg.conditions)
        and all(number(v) for v in (cfg.prior_location, cfg.prior_scale, cfg.prior_df))
        and number(cfg.tol)
        and all(type(v) is int for v in (cfg.replicates, cfg.max_iter))
        and (cfg.seed is None or type(cfg.seed) is int)
    )


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(sorted(RunConfig().__dict__)), value=JSON_VALUES)
def test_config_fuzz_loads_or_raises_config_error(key, value):
    """Any config key set to any JSON value: a well-typed RunConfig or ConfigError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps({"events": "e.csv", key: value}))
        args = build_parser().parse_args(["fit", "--config", str(path)])
        try:
            cfg = _load_config(args)
        except ConfigError:
            return
    assert _well_typed(cfg)
    assert 0 < cfg.tol < 1 and cfg.replicates >= 1
    assert cfg.seed is None or cfg.seed >= 0
    cfg.prior()
    ModelSpec(cfg.term_objects())
    for name in cfg.conditions:
        KnockoutCondition.named(name)


# Selection steps (action, term, terms after the step) and adequacy.csv of
# the data_dir fixture, recorded from the implementation before the model
# layer took an EventDesign; refactors must leave them unchanged.
PINNED_STEPS = {
    "hill": {
        "alpha": [
            ("start", None, ""),
            ("add", "PSAB-BA", "PSAB-BA"),
            ("add", "ICR", "PSAB-BA ICR"),
            ("add", "NTDegRec", "NTDegRec PSAB-BA ICR"),
            ("add", "PSAB-AY", "NTDegRec PSAB-BA PSAB-AY ICR"),
            ("stop", None, "NTDegRec PSAB-BA PSAB-AY ICR"),
        ],
        "beta": [
            ("start", None, ""),
            ("add", "PSAB-BA", "PSAB-BA"),
            ("add", "ICR", "PSAB-BA ICR"),
            ("add", "PSAB-BY", "PSAB-BA PSAB-BY ICR"),
            ("add", "RRecSnd", "RRecSnd PSAB-BA PSAB-BY ICR"),
            ("add", "FrPSndSnd", "FrPSndSnd RRecSnd PSAB-BA PSAB-BY ICR"),
            ("add", "OSPSnd", "FrPSndSnd RRecSnd OSPSnd PSAB-BA PSAB-BY ICR"),
            ("add", "ITPSnd", "FrPSndSnd RRecSnd ITPSnd OSPSnd PSAB-BA PSAB-BY ICR"),
            ("stop", None, "FrPSndSnd RRecSnd ITPSnd OSPSnd PSAB-BA PSAB-BY ICR"),
        ],
    },
    "exhaustive": {
        "alpha": [("stop", None, "NTDegRec PSAB-BA ICR")],
        "beta": [("stop", None, "PSAB-BA ICR")],
    },
}
PINNED_ADEQUACY = {
    "hill": "alpha,0.5625,0.3000,0.3500,0.0333,0.3500,0.4375,0.4500\r\n"
    "beta,0.7500,0.3500,0.4167,0.0500,0.4167,0.4167,0.6000\r\n",
    "exhaustive": "alpha,0.5750,0.3000,0.3500,0.0333,0.3500,0.4375,0.4500\r\n"
    "beta,0.7167,0.3500,0.4500,0.0500,0.4500,0.4500,0.5333\r\n",
}


@pytest.mark.parametrize(
    "selection, terms",
    [
        ("hill", [t.value for t in Term]),
        ("exhaustive", ["NTDegRec", "PSAB-BA", "RRecSnd", "ICR"]),
    ],
    ids=["hill_14_terms", "exhaustive_4_terms"],
)
def test_selection_and_adequacy_outputs_are_pinned(
    data_dir, tmp_path, selection, terms
):
    out = tmp_path / "out"
    base = ["--events", data_dir / "events.csv", "--actors", data_dir / "actors.csv"]
    base += ["--out", out]
    select = ["select", *base, "--selection", selection, "--terms", *terms]
    assert run(select) == EXIT_OK
    for net, want in PINNED_STEPS[selection].items():
        trace = json.loads((out / f"selection_{net}.json").read_text())
        steps = [(s["action"], s["term"], " ".join(s["terms"])) for s in trace["steps"]]
        assert steps == want
        assert " ".join(trace["final"]["terms"]) == want[-1][2]
    assert run(["adequacy", *base]) == EXIT_OK
    header = (
        "network_id,either_match,null_either,both_match,null_both,"
        "recall_1pct,recall_5pct,recall_10pct\r\n"
    )
    want = (header + PINNED_ADEQUACY[selection]).encode()
    assert (out / "adequacy.csv").read_bytes() == want


def test_full_pipeline_and_idempotence(data_dir, tmp_path):
    out = tmp_path / "pipe"
    base = [
        "--events",
        data_dir / "events.csv",
        "--actors",
        data_dir / "actors.csv",
        "--out",
        out,
    ]
    assert (
        run(
            ["select", *base, "--terms", "PSAB-BA", "ICR", "RRecSnd"]
        )
        == EXIT_OK
    )
    for net in ("alpha", "beta"):
        assert (out / f"fit_{net}.json").exists()
        assert (out / f"selection_{net}.json").exists()
        assert (out / f"coefficients_{net}.csv").exists()
    fit = json.loads((out / "fit_alpha.json").read_text())
    assert "PSAB-BA" in fit["terms"]

    assert run(["adequacy", *base]) == EXIT_OK
    adequacy_lines = (out / "adequacy.csv").read_text().strip().splitlines()
    assert len(adequacy_lines) == 3
    r1 = adequacy_lines[1].split(",")
    assert float(r1[5]) <= float(r1[6]) <= float(r1[7])  # recall monotone

    assert (
        run(["knockout", *base, "--seed", "11", "--replicates", "4"]) == EXIT_OK
    )
    conc = json.loads((out / "concentration_alpha.json").read_text())
    assert conc["conditions"]["full"]["excess_fraction"] == pytest.approx(1.0)
    assert conc["conditions"]["all_removed"]["excess_fraction"] == pytest.approx(0.0)
    first = (out / "trajectories_alpha.csv").read_bytes()
    conc_csv_first = (out / "concentration.csv").read_bytes()

    # byte-identical outputs on re-run with the same seed and config
    assert (
        run(["knockout", *base, "--seed", "11", "--replicates", "4"]) == EXIT_OK
    )
    assert (out / "trajectories_alpha.csv").read_bytes() == first
    assert (out / "concentration.csv").read_bytes() == conc_csv_first

    assert run(["report", *base]) == EXIT_OK
    assert (out / "concentration.csv").read_bytes() == conc_csv_first
    # report reads only the saved reports, so it needs no events path
    (out / "concentration.csv").unlink()
    assert run(["report", "--out", out]) == EXIT_OK
    assert (out / "concentration.csv").read_bytes() == conc_csv_first


# Every other CSV the CLI writes on the data_dir fixture, and the key order
# of every JSON output, recorded before the output files had one writer.
PINNED_SUMMARY = (
    "network_id,actors,events,pct_icr,specialization\r\n"
    "alpha,6,80,16.67,Specialist\r\n"
    "beta,5,60,20.00,Non Spec.\r\n"
    "Mean,5.50,70.00,18.33,\r\n"
)
PINNED_COEFFICIENTS = {
    "alpha": "term,estimate,sd,stars\r\n"
    "PSAB-BA,2.6772,0.2390,***\r\nICR,0.6099,0.2380,*\r\nAICc,450.68,,\r\n",
    "beta": "term,estimate,sd,stars\r\n"
    "PSAB-BA,2.3550,0.2759,***\r\nICR,1.4663,0.3508,***\r\nAICc,259.49,,\r\n",
}
PINNED_CONCENTRATION = (
    "network_id,condition,mean_theil,pct_change_vs_full,excess_fraction,t_stat,p_value\r\n"
    "alpha,full,0.041440,0.0000,1.000000,,\r\n"
    "alpha,pa_removed,0.034430,-16.9164,0.808576,-0.217323,0.861968\r\n"
    "alpha,ps_removed,0.029286,-29.3294,0.668111,-0.352768,0.771448\r\n"
    "alpha,icr_removed,0.023942,-42.2261,0.522174,-0.546727,0.678837\r\n"
    "alpha,all_removed,0.004819,-88.3713,0.000000,-1.152248,0.453749\r\n"
    "beta,full,0.137263,0.0000,1.000000,,\r\n"
    "beta,pa_removed,0.137769,0.3684,1.004038,0.009332,0.993421\r\n"
    "beta,ps_removed,0.098875,-27.9669,0.693408,-1.055431,0.46432\r\n"
    "beta,icr_removed,0.006464,-95.2910,-0.044644,-3.702509,0.162781\r\n"
    "beta,all_removed,0.012054,-91.2187,0.000000,-3.556287,0.17192\r\n"
)
PINNED_TRAJECTORIES_SHA256 = {
    "alpha": "5ea4a5c8572bbcf60e0437859f7fcf2ae42098cf955d274026aed708bc0571e4",
    "beta": "f83d0a0424482fee596692f38e1193adffd58a75193bf832f596c7cafc872c10",
}
FIT_KEYS = [
    "network_id", "terms", "mode", "sd", "covariance", "logLik", "AICc",
    "converged", "n_events", "n_iter",
]
CONFIG_KEYS = [
    "actors", "command", "conditions", "events", "max_iter", "out", "prior_df",
    "prior_location", "prior_scale", "replicates", "seed", "selection", "terms",
    "tol", "version",
]
CONDITION_KEYS = [
    "theil_values", "mean_theil", "pct_change_vs_full", "excess_fraction",
    "t_stat", "p_value",
]


def test_every_output_file_is_pinned(data_dir, tmp_path):
    out = tmp_path / "out"
    base = ["--events", data_dir / "events.csv", "--actors", data_dir / "actors.csv"]
    base += ["--out", out]
    terms = ["--terms", "PSAB-BA", "ICR"]
    knock = ["--seed", "11", "--replicates", "2"]
    commands = {
        "summarize": [], "select": terms, "fit": terms, "adequacy": [],
        "simulate": knock, "knockout": knock, "report": [],
    }
    for command, flags in commands.items():
        assert run([command, *base, *flags]) == EXIT_OK

    def load(name):
        return json.loads((out / f"{name}.json").read_text(encoding="utf-8"))

    assert (out / "summary.csv").read_bytes() == PINNED_SUMMARY.encode()
    assert (out / "concentration.csv").read_bytes() == PINNED_CONCENTRATION.encode()
    for net, want in PINNED_COEFFICIENTS.items():
        assert (out / f"coefficients_{net}.csv").read_bytes() == want.encode()
        traj = (out / f"trajectories_{net}.csv").read_bytes()
        assert hashlib.sha256(traj).hexdigest() == PINNED_TRAJECTORIES_SHA256[net]
        assert list(load(f"fit_{net}")) == FIT_KEYS
        trace = load(f"selection_{net}")
        assert list(trace) == ["steps", "final"]
        for step in trace["steps"]:
            assert list(step) == ["terms", "aicc", "action", "term"]
        assert list(trace["final"]) == FIT_KEYS
        report = load(f"concentration_{net}")
        assert list(report) == ["network_id", "conditions"]
        assert list(report["conditions"]) == [c.name for c in DEFAULT_CONDITIONS]
        for condition in report["conditions"].values():
            assert list(condition) == CONDITION_KEYS
    for command in commands:
        assert list(load(f"{command}_config")) == CONFIG_KEYS


ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def fresh_python(*args, **env):
    """Run ``python *args`` in a new interpreter that imports remnet from src."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH", "")]
    )
    return subprocess.run(
        [sys.executable, *map(str, args)], capture_output=True, env=env, timeout=120
    )


def test_outputs_are_utf8_under_an_ascii_locale(tmp_path):
    """Output files are UTF-8 whatever encoding the locale prefers."""

    def cli(*args):
        result = fresh_python("-m", "remnet.cli", *args, **ASCII_LOCALE)
        assert result.returncode == EXIT_OK, result.stderr

    # a non-ASCII network id (file names built from it are not tried)
    accented = make_actors(3, (0,), network_id="nét")
    seq = sequence_from_pairs(accented, [(0, 1), (1, 2), (2, 0)])
    save_network(accented, seq, tmp_path / "e1.csv", tmp_path / "a1.csv")
    out = tmp_path / "out"
    base = ["--events", tmp_path / "e1.csv", "--actors", tmp_path / "a1.csv"]
    cli("summarize", *base, "--out", out)
    # a non-ASCII actor id
    actors = ActorTable("net", ("Ω1", "b", "c"), (True, False, False))
    seq = simulate_sequence({Term.PSABBA: 1.0}, actors, 30, seed=5)
    save_network(actors, seq, tmp_path / "e2.csv", tmp_path / "a2.csv")
    base = ["--events", tmp_path / "e2.csv", "--actors", tmp_path / "a2.csv"]
    cli("fit", *base, "--out", out, "--terms", "PSAB-BA")
    cli("knockout", *base, "--out", out, "--seed", "1", "--replicates", "1")
    texts = {path.name: path.read_bytes().decode("utf-8") for path in out.iterdir()}
    assert "nét," in texts["summary.csv"]
    assert "Ω1," in texts["trajectories_net.csv"]


# a fresh process: which SciPy modules are loaded when it is done
LOADED_SCIPY = """
import json, sys
{body}
loaded = [m for m in ("scipy", "scipy.special", "scipy.stats") if m in sys.modules]
print(json.dumps([code, loaded]))
"""


def loaded_scipy(body, *args):
    result = fresh_python("-c", LOADED_SCIPY.format(body=body), *args)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.decode().splitlines()[-1])


def test_import_and_load_leave_scipy_submodules_unloaded(data_dir):
    body = (
        "import remnet, remnet.cli\n"
        "code = len(remnet.load_networks(sys.argv[1], sys.argv[2]))"
    )
    events, actors = data_dir / "events.csv", data_dir / "actors.csv"
    assert loaded_scipy(body, events, actors) == [2, []]


def test_each_command_loads_only_the_scipy_submodule_it_uses(data_dir, tmp_path):
    """Only knockout loads SciPy, and then scipy.special only (for Welch's t
    p-values); fit and select take the star codes' quantiles from constants."""
    body = "from remnet.cli import main\ncode = main(sys.argv[1:])"
    base = ["--events", data_dir / "events.csv", "--actors", data_dir / "actors.csv"]
    base += ["--out", tmp_path / "out", "--terms", "PSAB-BA", "ICR"]
    sim = ["--seed", "1", "--replicates", "2"]
    assert loaded_scipy(body, "summarize", *base) == [EXIT_OK, []]
    assert loaded_scipy(body, "select", *base) == [EXIT_OK, []]
    assert loaded_scipy(body, "adequacy", *base) == [EXIT_OK, []]
    assert loaded_scipy(body, "fit", *base) == [EXIT_OK, []]
    assert loaded_scipy(body, "simulate", *base, *sim) == [EXIT_OK, []]
    knockout = ["scipy", "scipy.special"]
    assert loaded_scipy(body, "knockout", *base, *sim) == [EXIT_OK, knockout]
    assert loaded_scipy(body, "report", *base) == [EXIT_OK, []]


def write_json_networks(path, network_ids, actors="abcd"):
    """One JSON input of 4-actor networks with these ids."""
    pairs = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 1), (2, 0)]
    nets = [
        {
            "network_id": net_id,
            "actors": [
                {"actor_id": a, "icr": int(k == 0)} for k, a in enumerate(actors)
            ],
            "events": [
                {"order": k, "sender": actors[s], "receiver": actors[r]}
                for k, (s, r) in enumerate(pairs, start=1)
            ],
        }
        for net_id in network_ids
    ]
    path.write_text(json.dumps(nets), encoding="utf-8")


@pytest.mark.parametrize(
    "bad_id", ["x/y", "a\0b", "n" * 240], ids=["separator", "nul", "too_long"]
)
def test_network_id_that_cannot_name_a_file_is_data_error(tmp_path, capsys, bad_id):
    events = tmp_path / "nets.json"
    write_json_networks(events, ["alpha", bad_id])  # alpha's files would come first
    flags = ["--events", events, "--seed", "1", "--replicates", "1", "--terms", "ICR"]
    for command in ("fit", "select", "adequacy", "simulate", "knockout"):
        out = tmp_path / command
        capsys.readouterr()
        assert run([command, *flags, "--out", out]) == EXIT_DATA
        assert repr(bad_id) in capsys.readouterr().err
        assert not out.exists()
    # the summary table holds ids, not file names
    out = tmp_path / "summarize"
    assert run(["summarize", *flags, "--out", out]) == EXIT_OK
    assert bad_id in (out / "summary.csv").read_text(encoding="utf-8")


def test_network_id_the_file_system_cannot_encode_is_data_error(tmp_path):
    events = tmp_path / "nets.json"
    write_json_networks(events, ["nét"])
    flags = ["--events", events, "--terms", "ICR"]
    fit = ["-m", "remnet.cli", "fit", *flags, "--out", tmp_path / "fit"]
    result = fresh_python(*fit, **ASCII_LOCALE)
    assert result.returncode == EXIT_DATA, result.stderr
    assert b"cannot name a file" in result.stderr
    assert not (tmp_path / "fit").exists()
    summarize = ["-m", "remnet.cli", "summarize", *flags, "--out", tmp_path / "s"]
    result = fresh_python(*summarize, **ASCII_LOCALE)
    assert result.returncode == EXIT_OK, result.stderr
    assert "nét," in (tmp_path / "s" / "summary.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "network_id, actors",
    [("n\udc80", "abcd"), ("net", ("\ud800", "b", "c", "d"))],
    ids=["network_id", "actor_id"],
)
@pytest.mark.parametrize("command", ["summarize", "fit", "knockout"])
def test_id_that_is_not_utf8_is_data_error(
    tmp_path, capsys, command, network_id, actors
):
    # json.dumps writes a lone surrogate as the escape "\udc80"
    events = tmp_path / "nets.json"
    write_json_networks(events, [network_id], actors)
    bad_id = network_id if network_id != "net" else actors[0]
    out = tmp_path / "out"
    flags = ["--events", events, "--out", out, "--seed", "1", "--replicates", "1"]
    assert run([command, *flags, "--terms", "ICR"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert repr(bad_id) in err and "nets.json" in err
    assert not out.exists()


def test_simulate_command(data_dir, tmp_path):
    out = tmp_path / "sim"
    base = [
        "--events",
        data_dir / "events.csv",
        "--actors",
        data_dir / "actors.csv",
        "--out",
        out,
    ]
    assert run(["fit", *base, "--terms", "PSAB-BA"]) == EXIT_OK
    assert (
        run(
            [
                "simulate",
                *base,
                "--seed",
                "3",
                "--replicates",
                "2",
                "--conditions",
                "full",
            ]
        )
        == EXIT_OK
    )
    lines = (out / "trajectories_alpha.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 80

    # simulate is knockout without the concentration report
    simulated = {
        net: (out / f"trajectories_{net}.csv").read_bytes() for net in ("alpha", "beta")
    }
    assert (
        run(
            [
                "knockout",
                *base,
                "--seed",
                "3",
                "--replicates",
                "2",
                "--conditions",
                "full",
            ]
        )
        == EXIT_OK
    )
    for net, content in simulated.items():
        assert (out / f"trajectories_{net}.csv").read_bytes() == content


def test_simulate_without_fit_is_config_error(data_dir, tmp_path):
    out = tmp_path / "nofit"
    code = run(
        [
            "simulate",
            "--events",
            data_dir / "events.csv",
            "--actors",
            data_dir / "actors.csv",
            "--out",
            out,
            "--seed",
            "1",
        ]
    )
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("selection", ["hill", "exhaustive"])
def test_select_on_one_event_network_is_numerical_error(tmp_path, capsys, selection):
    actors = make_actors(3, network_id="one")
    seq = sequence_from_pairs(actors, [(0, 1)])
    save_network(actors, seq, tmp_path / "e.csv", tmp_path / "a.csv")
    code = run(
        [
            "select",
            "--events",
            tmp_path / "e.csv",
            "--actors",
            tmp_path / "a.csv",
            "--out",
            tmp_path / "o",
            "--selection",
            selection,
        ]
    )
    assert code == EXIT_NUMERICAL
    assert "no admissible model" in capsys.readouterr().err


def test_malformed_json_is_data_error(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(
        json.dumps(
            {
                "network_id": "net",
                "actors": [
                    {"actor_id": "a", "icr": "yes"},
                    {"actor_id": "b", "icr": 0},
                ],
                "events": [{"order": 1, "sender": "a", "receiver": "b"}],
            }
        )
    )
    assert run(["summarize", "--events", path, "--out", tmp_path / "o"]) == EXIT_DATA


@pytest.mark.parametrize(
    "network_ids, actor_id",
    [((5, "x"), "a"), ((["q"],), "a"), ((5,), "a"), (("net",), ["a"])],
    ids=["mixed_int_and_str", "list", "single_int", "actor_id_list"],
)
def test_non_string_json_id_is_data_error(tmp_path, capsys, network_ids, actor_id):
    nets = [
        {
            "network_id": net_id,
            "actors": [{"actor_id": actor_id, "icr": 0}, {"actor_id": "b", "icr": 1}],
            "events": [{"order": 1, "sender": "b", "receiver": "a"}],
        }
        for net_id in network_ids
    ]
    path = tmp_path / "nets.json"
    path.write_text(json.dumps(nets))
    assert run(["summarize", "--events", path, "--out", tmp_path / "o"]) == EXIT_DATA
    assert "string" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, name, content",
    [
        ("report", "concentration_alpha.json", '{"network_id": "alpha"}'),
        (
            "report",
            "concentration_alpha.json",
            '{"network_id": "alpha", "conditions": {"full": {"theil_values": [],'
            ' "mean_theil": "x", "pct_change_vs_full": null, "excess_fraction": null,'
            ' "t_stat": null, "p_value": null}}}',
        ),
        ("adequacy", "fit_alpha.json", '{"terms": ["ICR"]}'),
        ("simulate", "fit_alpha.json", '{"network_id": "alpha", "terms": ["IC'),
        (
            "simulate",
            "fit_alpha.json",
            '{"terms": ["ICR"], "mode": [1, 2], "covariance": [[1]], "logLik": 0,'
            ' "AICc": 0, "converged": true, "n_events": 80}',
        ),
    ],
    ids=["no_conditions", "theil_not_number", "no_mode", "truncated", "mode_too_long"],
)
def test_malformed_saved_output_is_data_error(
    data_dir, tmp_path, capsys, command, name, content
):
    out = tmp_path / "o"
    out.mkdir()
    (out / name).write_text(content)
    base = ["--events", data_dir / "events.csv", "--actors", data_dir / "actors.csv"]
    assert run([command, *base, "--out", out, "--seed", "1"]) == EXIT_DATA
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("command", ["adequacy", "simulate", "knockout"])
def test_saved_fit_whose_scores_overflow_is_numerical_error(tmp_path, capsys, command):
    # finite coefficients whose scores are not: ICR's 2 * 1e308 overflows on
    # the dyads between the two ICR actors; a RuntimeWarning on the way fails
    # the test (pyproject's filterwarnings)
    actors = make_actors(4, (0, 1), network_id="net")
    seq = sequence_from_pairs(actors, [(0, 1), (1, 0), (2, 3), (3, 0)])
    save_network(actors, seq, tmp_path / "e.csv", tmp_path / "a.csv")
    out = tmp_path / "o"
    out.mkdir()
    fit = {
        "network_id": "net",
        "terms": ["PSAB-BA", "ICR", "RRecSnd"],
        "mode": [1e308, 1e308, -1e308],
        "covariance": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        "logLik": -1.0,
        "AICc": 1.0,
        "converged": True,
        "n_events": 4,
    }
    (out / "fit_net.json").write_text(json.dumps(fit))
    base = ["--events", tmp_path / "e.csv", "--actors", tmp_path / "a.csv"]
    sim = ["--seed", "1", "--replicates", "2"]
    assert run([command, *base, "--out", out, *sim]) == EXIT_NUMERICAL
    assert "non-finite largest score" in capsys.readouterr().err
    assert not list(out.glob("trajectories_*")) + list(out.glob("concentration*"))


@pytest.fixture(scope="module")
def saved_outputs(data_dir, tmp_path_factory):
    """Valid saved outputs of network alpha, keyed by file name."""
    out = tmp_path_factory.mktemp("saved")
    base = ["--events", data_dir / "events.csv", "--actors", data_dir / "actors.csv"]
    assert run(["fit", *base, "--out", out, "--terms", "PSAB-BA", "ICR"]) == EXIT_OK
    knockout = ["knockout", *base, "--out", out, "--seed", "1", "--replicates", "2"]
    assert run(knockout) == EXIT_OK
    names = ("fit_alpha.json", "concentration_alpha.json")
    return {name: json.loads((out / name).read_text()) for name in names}


@pytest.mark.filterwarnings("ignore:covariance not positive semi-definite")
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_corrupted_saved_output_exits_cleanly(data_dir, saved_outputs, data):
    """Any one-place corruption of a saved fit or report: an exit code, no traceback."""
    command = data.draw(st.sampled_from(["adequacy", "simulate", "report"]))
    name = "concentration_alpha.json" if command == "report" else "fit_alpha.json"
    inputs = ["--events", data_dir / "events.csv", "--actors", data_dir / "actors.csv"]
    sim = ["--seed", "1", "--replicates", "1", "--conditions", "full"]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for saved, obj in saved_outputs.items():
            (out / saved).write_text(json.dumps(obj))
        (out / name).write_text(json.dumps(corrupt_json(data, saved_outputs[name])))
        code = run([command, *inputs, "--out", out, *sim])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERICAL)


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 41.0 MiB for an array with shape (14, 383900)")


@pytest.mark.parametrize(
    "command, target",
    [
        ("fit", "remnet.inference._scan"),
        ("select", "remnet.inference._scan"),
        ("fit", "remnet.cli.fit_map"),
        ("knockout", "remnet.cli.run_knockout_experiment"),
    ],
    ids=["fit_design_build", "select_design_build", "fit_map", "knockout"],
)
def test_memory_error_exits_as_a_data_error(
    data_dir, tmp_path, capsys, monkeypatch, command, target
):
    # a MemoryError in a command's first heavy stage: exit 3 and one line
    # naming the command, no traceback
    base = ["--events", data_dir / "events.csv", "--actors", data_dir / "actors.csv"]
    out = tmp_path / "o"
    assert run(["fit", *base, "--out", out, "--terms", "PSAB-BA", "ICR"]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(target, _out_of_memory)
    assert run([command, *base, "--out", out, "--seed", "1"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == (
        f"data error: {command} ran out of memory: Unable to allocate 41.0 MiB "
        "for an array with shape (14, 383900)\n"
    )


def test_parser_is_built_once_and_parses_each_call_afresh():
    assert build_parser() is build_parser()
    first = build_parser().parse_args(["fit", "--terms", "ICR", "--tol", "0.5"])
    second = build_parser().parse_args(["select"])
    assert first.terms == ["ICR"] and first.tol == 0.5
    assert second.command == "select" and second.terms is None and second.tol is None
