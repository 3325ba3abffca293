"""Per-layer metrics of the traced run, and the check that none is missing.

``METRICS`` is the one table of per-layer metrics: unit, better direction,
the group that must report it (a workload's commands give its groups, see
``COMMAND_LAYERS``), the end-to-end metric it should
move (and on which workload), and how it is reduced from the spans. The
per_layer list of BENCHMARK.json is this table's names, units and
directions; test_bench.py keeps the two in step.

Every value is per command sequence (one iteration of the workload's
closed loop) and is the median over the traced sequences, except the
``*_p50``/``*_p90`` and ``data.load_s`` figures, which pool every call of
the traced sequences.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

MIB = float(1 << 20)


@dataclass(frozen=True)
class Metric:
    unit: str
    better: str
    group: str  # a COMMAND_LAYERS entry, "cli.<command>", or "always"
    moves: str  # the end-to-end metric it should move, and where
    source: str  # span name, or "probe" for a direct measurement
    reduce: str  # how spans become the value, see _reduce


# metric groups each CLI command exercises; "always" (data, stats, cli)
# groups are measured on every workload
COMMAND_LAYERS = {
    "summarize": (),
    "fit": ("design", "fit", "kernel"),
    "select": ("design", "fit", "kernel", "selection"),
    "adequacy": ("design", "adequacy"),
    "knockout": ("simulation", "concentration"),
}

_DESIGN = "wall_s on wide_fit; little on panel_pipeline"
_FIT = "wall_s on panel_pipeline, then wide_fit; none on knockout_sim"
_SIM = "wall_s on knockout_sim; a few % on panel_pipeline; none on wide_fit"
_CLI = "wall_s on all workloads, most on knockout_sim (trajectory CSV)"

METRICS: dict[str, Metric] = {
    "data.load_s": Metric("s", "lower", "always", "setup_s, all workloads",
                          "data.load_networks", "call_median_s"),
    "stats.design_matrix_ms": Metric(
        "ms", "lower", "always", "wall_s on knockout_sim and wide_fit",
        "probe", "probe"),
    "inference.design_build_s": Metric("s", "lower", "design", _DESIGN,
                                       "inference.EventDesign", "sum_s"),
    "inference.design_builds": Metric("count", "lower", "design", _DESIGN,
                                      "inference.EventDesign", "count"),
    "inference.design_mb": Metric("MiB", "lower", "design",
                                  "peak_rss_mb on wide_fit only",
                                  "inference.EventDesign", "max_nbytes_mib"),
    "inference.fit_s": Metric("s", "lower", "fit", _FIT, "inference.fit_map",
                              "sum_s"),
    "inference.fits": Metric("count", "lower", "fit", _FIT, "inference.fit_map",
                             "count"),
    "inference.fit_ms_p50": Metric("ms", "lower", "fit", _FIT,
                                   "inference.fit_map", "call_p50_ms"),
    "inference.fit_ms_p90": Metric("ms", "lower", "fit", _FIT,
                                   "inference.fit_map", "call_p90_ms"),
    "inference.fit_iters": Metric("count", "lower", "fit", _FIT,
                                  "inference.fit_map", "sum_n_iter"),
    "inference.kernel_fgh_ms": Metric(
        "ms", "lower", "kernel",
        "wall_s on panel_pipeline and wide_fit; none on knockout_sim",
        "probe", "probe"),
    "selection.select_s": Metric("s", "lower", "selection",
                                 "wall_s on panel_pipeline only",
                                 "selection.hill_climb_select", "sum_s"),
    "selection.self_s": Metric("s", "lower", "selection",
                               "wall_s on panel_pipeline only",
                               "selection.hill_climb_select", "self_s"),
    "selection.steps": Metric("count", "lower", "selection",
                              "wall_s on panel_pipeline only",
                              "selection.hill_climb_select", "sum_rounds"),
    "simulation.knockout_s": Metric("s", "lower", "simulation", _SIM,
                                    "simulation.run_knockout_experiment",
                                    "sum_s"),
    "simulation.trajectories": Metric("count", "higher", "simulation", _SIM,
                                      "simulation.simulate_trajectory",
                                      "count"),
    "simulation.traj_ms_p50": Metric("ms", "lower", "simulation", _SIM,
                                     "simulation.simulate_trajectory",
                                     "call_p50_ms"),
    "simulation.traj_ms_p90": Metric("ms", "lower", "simulation", _SIM,
                                     "simulation.simulate_trajectory",
                                     "call_p90_ms"),
    "simulation.events_per_s": Metric("1/s", "higher", "simulation", _SIM,
                                      "simulation.simulate_trajectory",
                                      "events_rate"),
    "analysis.adequacy_s": Metric("s", "lower", "adequacy", "wall_s on wide_fit",
                                  "analysis.adequacy", "sum_s"),
    "analysis.concentration_s": Metric("s", "lower", "concentration",
                                       "wall_s on knockout_sim",
                                       "analysis.concentration_report", "sum_s"),
    **{
        f"cli.{cmd}_s": Metric("s", "lower", f"cli.{cmd}", _CLI, f"cli.{cmd}",
                               "sum_s")
        for cmd in ("summarize", "fit", "select", "adequacy", "knockout")
    },
    "cli.self_s": Metric("s", "lower", "always", _CLI, "cli.*", "self_s"),
}


class IncompleteTrace(RuntimeError):
    """A per-layer metric the workload must report has nothing to measure."""


def groups(commands) -> set[str]:
    """Metric groups a command sequence exercises."""
    names = [c[0] for c in commands]
    return ({"always"} | {f"cli.{c}" for c in names}
            | {g for c in names for g in COMMAND_LAYERS[c]})


def required(commands) -> set[str]:
    """Names of the per-layer metrics a command sequence must report."""
    exercised = groups(commands)
    return {name for name, m in METRICS.items() if m.group in exercised}


def _self_time(spans: list[dict], index: int, children: dict) -> float:
    span = spans[index]
    covered, reach = 0.0, span["start"]
    for child in sorted(children.get(index, ()), key=lambda c: spans[c]["start"]):
        lo = max(spans[child]["start"], reach)
        hi = spans[child]["end"]
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (span["end"] - span["start"]) - covered


def _matches(name: str, source: str) -> bool:
    return name.startswith(source[:-1]) if source.endswith("*") else name == source


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    values = sorted(values)
    pos = (len(values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def _reduce(kind: str, spans: list[dict], picked: list[int], children: dict) -> float:
    by_iter: dict[int, list[int]] = {}
    for i in picked:
        by_iter.setdefault(spans[i]["trace_id"], []).append(i)
    dur = lambda i: spans[i]["end"] - spans[i]["start"]  # noqa: E731
    per_iter = {
        "sum_s": lambda ids: sum(dur(i) for i in ids),
        "count": lambda ids: float(len(ids)),
        "sum_n_iter": lambda ids: float(sum(spans[i]["attrs"]["n_iter"] for i in ids)),
        "sum_rounds": lambda ids: float(sum(spans[i]["attrs"]["rounds"] for i in ids)),
        "self_s": lambda ids: sum(_self_time(spans, i, children) for i in ids),
        "max_nbytes_mib": lambda ids: max(spans[i]["attrs"]["nbytes"] for i in ids) / MIB,
    }
    if kind in per_iter:
        return statistics.median(per_iter[kind](ids) for ids in by_iter.values())
    durations = [dur(i) for i in picked]
    if kind == "call_median_s":
        return statistics.median(durations)
    if kind == "call_p50_ms":
        return 1e3 * _percentile(durations, 50)
    if kind == "call_p90_ms":
        return 1e3 * _percentile(durations, 90)
    if kind == "events_rate":
        return sum(spans[i]["attrs"]["events"] for i in picked) / sum(durations)
    raise ValueError(f"unknown reduction {kind!r}")


def compute(spans: list[dict], probes: dict, must: set[str]):
    """Every per-layer metric, and the names of those with nothing to measure.

    Returns ``(values, not_run)``. A metric in ``must`` with no data raises
    IncompleteTrace. Any other metric with no data belongs to a layer the
    workload does not run: it reads 0 and is named in ``not_run``, because
    every traced result carries every per-layer name.
    """
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span["parent"] >= 0:
            children.setdefault(span["parent"], []).append(i)
    values, missing, not_run = {}, [], []
    for name, metric in METRICS.items():
        if metric.source == "probe":
            present = name in probes
            value = probes.get(name, 0.0)
        else:
            picked = [i for i, s in enumerate(spans) if _matches(s["name"], metric.source)]
            present = bool(picked)
            value = _reduce(metric.reduce, spans, picked, children) if picked else 0.0
        if not present:
            (missing if name in must else not_run).append(name)
        values[name] = float(value)
    if missing:
        raise IncompleteTrace(
            "traced run recorded nothing for required per-layer metrics: "
            + ", ".join(sorted(missing))
        )
    return values, not_run
