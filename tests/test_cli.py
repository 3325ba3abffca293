import json
import math
import tempfile
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
from remnet.data import save_network
from remnet.inference import ModelSpec
from remnet.simulation import KnockoutCondition
from remnet.stats import Term

from conftest import corrupt_json, make_actors, sequence_from_pairs, simulate_sequence


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


def test_bad_path_is_data_error(tmp_path):
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
    ],
)
def test_bad_config_value_is_config_error(data_dir, tmp_path, command, payload, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    base = ["--events", data_dir / "events.csv", "--actors", data_dir / "actors.csv"]
    out = ["--out", tmp_path / "o"]
    assert run(["fit", *base, *out, "--terms", "ICR"]) == EXIT_OK  # knockout needs it
    assert run([command, "--config", cfg, *base, *out, *flags]) == EXIT_CONFIG


def test_out_that_is_a_file_is_config_error(data_dir, tmp_path):
    out = tmp_path / "taken"
    out.write_text("")
    base = ["--events", data_dir / "events.csv", "--actors", data_dir / "actors.csv"]
    assert run(["summarize", *base, "--out", out]) == EXIT_CONFIG


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
    assert cfg.tol > 0 and cfg.replicates >= 1
    assert cfg.seed is None or cfg.seed >= 0
    cfg.prior()
    ModelSpec(cfg.term_objects())
    for name in cfg.conditions:
        KnockoutCondition.named(name)


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
