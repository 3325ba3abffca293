"""Self-tests of the benchmark's own machinery.

    python3 -m pytest perfbench

They show that the generator is deterministic and independent of remnet,
that a corrupted output is counted as a failed operation, that a traced
run missing a required layer fails instead of reporting zero, and that
BENCHMARK.json lists exactly the metrics the benchmark reports.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from check import check_iteration  # noqa: E402
from gen import generate  # noqa: E402
from workloads import WORKLOADS, Workload, command_argv  # noqa: E402

TINY = Workload(
    networks=((6, 40), (7, 45)),
    commands=(("summarize",), ("select",), ("adequacy",), ("knockout",)),
    replicates=2,
)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic(tmp_path, workload):
    generate(workload, 5, tmp_path / "a")
    generate(workload, 5, tmp_path / "b")
    generate(workload, 6, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a")["events.csv"] != _files(tmp_path / "c")["events.csv"]


def test_generator_does_not_import_remnet(tmp_path):
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import gen; "
        "gen.generate('knockout_sim', 3, __import__('pathlib').Path(sys.argv[2])); "
        "assert not any(m.startswith('remnet') for m in sys.modules), 'remnet imported'"
    )
    subprocess.run([sys.executable, "-c", code, str(HERE), str(tmp_path)], check=True)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """Run the tiny workload through remnet.cli.main once; return its paths."""
    import remnet.cli

    WORKLOADS["tiny"] = TINY
    try:
        work = tmp_path_factory.mktemp("tiny")
        manifest = generate("tiny", 4, work / "input")
    finally:
        del WORKLOADS["tiny"]
    out = work / "out"
    out.mkdir()
    codes = [remnet.cli.main(command_argv(c, work / "input", out, 4, TINY.replicates))
             for c in TINY.commands]
    return out, manifest, codes


def _check(run, reference=None, codes=None):
    out, manifest, ok_codes = run
    commands = [c[0] for c in TINY.commands]
    return check_iteration(commands, codes or ok_codes, out, manifest,
                           TINY.replicates, reference)


def _copy(run, tmp_path):
    out, manifest, codes = run
    dst = tmp_path / "out"
    dst.mkdir()
    for p in out.iterdir():
        (dst / p.name).write_bytes(p.read_bytes())
    return dst, manifest, codes


def test_clean_outputs_pass(tiny_run):
    ops, failures, observed = _check(tiny_run)
    assert ops == 8 and failures == []
    ops, failures, _ = _check(tiny_run, reference=observed)
    assert failures == []


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_rate_outside_unit_interval_fails(tiny_run, tmp_path):
    run = _copy(tiny_run, tmp_path)
    _rewrite_csv(run[0] / "adequacy.csv", lambda rows: rows[1].__setitem__(1, "1.5000"))
    _, failures, _ = _check(run)
    assert len(failures) == 1 and failures[0].startswith("adequacy/")


def test_truncated_trajectory_fails(tiny_run, tmp_path):
    run = _copy(tiny_run, tmp_path)
    net_id = next(iter(run[1]["networks"]))
    _rewrite_csv(run[0] / f"trajectories_{net_id}.csv", lambda rows: rows.pop())
    _, failures, _ = _check(run)
    assert [f.split(":")[0] for f in failures] == [f"knockout/{net_id}"]


def test_unconverged_fit_and_missing_file_fail(tiny_run, tmp_path):
    run = _copy(tiny_run, tmp_path)
    first, second = list(run[1]["networks"])
    fit_path = run[0] / f"fit_{first}.json"
    fit = json.loads(fit_path.read_text())
    fit["converged"] = False
    fit_path.write_text(json.dumps(fit))
    (run[0] / f"concentration_{second}.json").unlink()
    _, failures, _ = _check(run)
    assert sorted(f.split(":")[0] for f in failures) == [f"knockout/{second}",
                                                       f"select/{first}"]


def test_reference_mismatch_fails(tiny_run):
    _, _, observed = _check(tiny_run)
    reference = json.loads(json.dumps(observed))
    key = next(k for k in reference if k.startswith("select/"))
    reference[key]["AICc"] *= 1 + 1e-5
    traj = next(k for k in reference if k.startswith("knockout/"))
    reference[traj]["sha256"] = "0" * 64
    _, failures, _ = _check(tiny_run, reference=reference)
    assert sorted(f.split(":")[0] for f in failures) == sorted([key, traj])


def test_nonzero_exit_fails_every_network_of_the_command(tiny_run):
    _, failures, _ = _check(tiny_run, codes=[0, 4, 0, 0])
    assert sorted(f.split(":")[0] for f in failures) == [
        f"select/{n}" for n in sorted(tiny_run[1]["networks"])]


def _span(name, start, end, parent=-1, trace_id=0, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "trace_id": trace_id, "attrs": attrs}


PROBES = {"stats.design_matrix_ms": 1.0, "inference.kernel_fgh_ms": 2.0}


def test_self_time_subtracts_children():
    spans = [
        _span("cli.select", 0.0, 10.0),
        _span("data.load_networks", 0.0, 0.5, parent=0),
        _span("inference.EventDesign", 0.5, 1.0, parent=0, nbytes=1 << 20),
        _span("selection.hill_climb_select", 1.0, 9.0, parent=0, rounds=3),
        _span("inference.fit_map", 2.0, 4.0, parent=3, n_iter=5),
        _span("inference.fit_map", 5.0, 6.0, parent=3, n_iter=7),
    ]
    must = layers.required((("select",),))
    values, not_run = layers.compute(spans, PROBES, must)
    assert values["selection.select_s"] == 8.0
    assert values["selection.self_s"] == 5.0
    assert values["selection.steps"] == 3.0
    assert values["inference.fits"] == 2.0 and values["inference.fit_iters"] == 12.0
    assert values["inference.design_mb"] == 1.0
    assert values["cli.self_s"] == 1.0
    assert values["simulation.trajectories"] == 0.0  # a layer this run does not use
    assert "simulation.trajectories" in not_run and "selection.steps" not in not_run


def test_missing_required_layer_fails_loudly():
    spans = [_span("cli.select", 0.0, 10.0),
             _span("selection.hill_climb_select", 1.0, 9.0, parent=0, rounds=3)]
    must = layers.required((("select",),))
    with pytest.raises(layers.IncompleteTrace, match="inference.fit_s"):
        layers.compute(spans, PROBES, must)


def test_required_metrics_follow_from_the_commands():
    assert layers.required(WORKLOADS["knockout_sim"].commands) == {
        "data.load_s", "stats.design_matrix_ms", "simulation.knockout_s",
        "simulation.trajectories", "simulation.traj_ms_p50",
        "simulation.traj_ms_p90", "simulation.events_per_s",
        "analysis.concentration_s", "cli.knockout_s", "cli.self_s",
    }
    # panel_pipeline runs every layer; only the fit command is absent
    assert set(layers.METRICS) - layers.required(WORKLOADS["panel_pipeline"].commands) \
        == {"cli.fit_s"}


def test_frozen_fit_only_where_no_command_fits_first(tmp_path):
    for name in WORKLOADS:
        generate(name, 2, tmp_path / name)
    assert [p.name for p in (tmp_path / "knockout_sim").glob("fit_*.json")] == ["fit_kn01.json"]
    assert not list((tmp_path / "panel_pipeline").glob("fit_*.json"))
    assert not list((tmp_path / "wide_fit").glob("fit_*.json"))


def test_traced_run_alternates_in_pairs():
    import worker

    assert [worker._is_traced(k) for k in range(8)] == [False, True, True, False] * 2


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["panel_pipeline", "wide_fit"]
    assert set(WORKLOADS) == {"panel_pipeline", "wide_fit", "knockout_sim"}
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]
    assert spec["per_layer"] == [
        {"name": name, "unit": m.unit, "better": m.better}
        for name, m in layers.METRICS.items()
    ]
