"""Batch front-end: summarize / fit / select / adequacy / simulate / knockout / report.

Runs are configured by a JSON file with keys mirroring RunConfig; command
line flags override file values. The resolved configuration (including the
seed and software version) is written next to the outputs so every run is
reproducible from its artifacts.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
import typing
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import remnet
from remnet.analysis import ConcentrationReport, adequacy, concentration_report
from remnet.data import DataError, load_networks, summarize
from remnet.inference import (
    EventDesign,
    FitResult,
    InadmissibleModelError,
    ModelSpec,
    NumericalError,
    PriorSpec,
    fit_map,
    star_codes,
)
from remnet.selection import exhaustive_select, hill_climb_select
from remnet.simulation import (
    KnockoutCondition,
    run_knockout_experiment,
    write_trajectories_csv,
)
from remnet.stats import ALL_TERMS, term_from_name

log = logging.getLogger("remnet")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    events: str = ""
    actors: str = ""
    out: str = "out"
    terms: list[str] = field(default_factory=lambda: [t.value for t in ALL_TERMS])
    prior_location: float = 0.0
    prior_scale: float = 10.0
    prior_df: float = 4.0
    selection: str = "hill"  # hill | exhaustive
    replicates: int = 50
    conditions: list[str] = field(
        default_factory=lambda: [
            "full",
            "pa_removed",
            "ps_removed",
            "icr_removed",
            "all_removed",
        ]
    )
    seed: int | None = None
    tol: float = 1e-6
    max_iter: int = 500

    def prior(self) -> PriorSpec:
        return PriorSpec(self.prior_location, self.prior_scale, self.prior_df)

    def term_objects(self):
        return tuple(term_from_name(t) for t in self.terms)


def _load_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from None
        if not isinstance(payload, dict):
            raise ConfigError(f"{path}: a config must be a JSON object")
        unknown = set(payload) - set(cfg.__dict__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in payload.items():
            setattr(cfg, key, value)
    for key in (
        "events",
        "actors",
        "out",
        "seed",
        "replicates",
        "selection",
        "tol",
    ):
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    if getattr(args, "conditions", None):
        cfg.conditions = args.conditions
    if getattr(args, "terms", None):
        cfg.terms = args.terms
    for key, hint in typing.get_type_hints(RunConfig).items():
        if not _conforms(getattr(cfg, key), hint):
            name = hint.__name__ if isinstance(hint, type) else hint
            raise ConfigError(f"{key} must be {name}, got {getattr(cfg, key)!r}")
    if not cfg.events:
        raise ConfigError("no events path given (flag --events or config key)")
    if cfg.selection not in ("hill", "exhaustive"):
        raise ConfigError(f"selection must be 'hill' or 'exhaustive', got {cfg.selection!r}")
    if cfg.tol <= 0:
        raise ConfigError(f"tol must be positive, got {cfg.tol!r}")
    if cfg.replicates < 1:
        raise ConfigError(f"replicates must be >= 1, got {cfg.replicates!r}")
    if cfg.seed is not None and cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed!r}")
    try:
        cfg.prior()
        ModelSpec(cfg.term_objects())
        for name in cfg.conditions:
            KnockoutCondition.named(name)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def _conforms(value, hint) -> bool:
    """Whether a config value has the type ``hint``; an int counts as a float."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_conforms(v, args[0]) for v in value)
    if args:  # a union such as int | None
        return any(_conforms(value, arg) for arg in args)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        # finite as a float: NaN, infinities and ints beyond float range fail
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, hint)


def _prepare_out(cfg: RunConfig, command: str) -> Path:
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from None
    resolved = dict(asdict(cfg), command=command, version=remnet.__version__)
    with open(out / f"{command}_config.json", "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def _load_all(cfg: RunConfig):
    nets = load_networks(cfg.events, cfg.actors or None)
    if not nets:
        raise DataError(f"no networks found in {cfg.events}")
    return dict(sorted(nets.items()))


def _fmt(x: float, digits: int = 4) -> str:
    return f"{x:.{digits}f}"


def cmd_summarize(cfg: RunConfig) -> int:
    out = _prepare_out(cfg, "summarize")
    nets = _load_all(cfg)
    metas = [summarize(actors, seq) for actors, seq in nets.values()]
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["network_id", "actors", "events", "pct_icr", "specialization"]
        )
        for meta in metas:
            spec = ""
            if meta.specialist is not None:
                spec = "Specialist" if meta.specialist else "Non Spec."
            writer.writerow(
                [
                    meta.network_id,
                    meta.n_actors,
                    meta.n_events,
                    _fmt(meta.pct_icr, 2),
                    spec,
                ]
            )
        writer.writerow(
            [
                "Mean",
                _fmt(float(np.mean([m.n_actors for m in metas])), 2),
                _fmt(float(np.mean([m.n_events for m in metas])), 2),
                _fmt(float(np.mean([m.pct_icr for m in metas])), 2),
                "",
            ]
        )
    print(f"wrote {out / 'summary.csv'} ({len(metas)} networks)")
    return EXIT_OK


def _write_coefficient_table(fit: FitResult, path: Path) -> None:
    stars = star_codes(fit)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["term", "estimate", "sd", "stars"])
        for name, est, sd, star in zip(
            fit.spec.term_names(), fit.mode, fit.sd, stars
        ):
            writer.writerow([name, _fmt(float(est)), _fmt(float(sd)), star])
        writer.writerow(["AICc", _fmt(fit.aicc, 2), "", ""])


def cmd_fit(cfg: RunConfig) -> int:
    out = _prepare_out(cfg, "fit")
    for net_id, (actors, seq) in _load_all(cfg).items():
        fit = fit_map(
            ModelSpec(terms=cfg.term_objects(), network_id=net_id),
            prior=cfg.prior(),
            tol=cfg.tol,
            max_iter=cfg.max_iter,
            design=EventDesign(actors, seq),
        )
        fit.save(out / f"fit_{net_id}.json")
        _write_coefficient_table(fit, out / f"coefficients_{net_id}.csv")
        print(f"{net_id}: AICc {fit.aicc:.2f} converged={fit.converged}")
    return EXIT_OK


def cmd_select(cfg: RunConfig) -> int:
    if not cfg.terms:
        raise ConfigError("select needs at least one candidate term")
    out = _prepare_out(cfg, "select")
    select = hill_climb_select if cfg.selection == "hill" else exhaustive_select
    for net_id, (actors, seq) in _load_all(cfg).items():
        trace = select(
            cfg.term_objects(),
            prior=cfg.prior(),
            tol=cfg.tol,
            design=EventDesign(actors, seq),
        )
        trace.save(out / f"selection_{net_id}.json")
        trace.final.save(out / f"fit_{net_id}.json")
        _write_coefficient_table(trace.final, out / f"coefficients_{net_id}.csv")
        terms = ", ".join(trace.final.spec.term_names()) or "(null)"
        print(f"{net_id}: selected [{terms}] AICc {trace.final.aicc:.2f}")
        for step in trace.steps:
            if step.action in ("add", "remove"):
                print(f"  {step.action} {step.term.value}: AICc {step.aicc:.2f}")
    return EXIT_OK


def _read_saved(path: Path, from_json_dict):
    """``from_json_dict`` of a saved JSON output; a malformed one is a data error."""
    try:
        return from_json_dict(json.loads(path.read_text(encoding="utf-8")))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"{path}: malformed saved output: {exc!r}") from None


def _require_fit(out: Path, net_id: str) -> FitResult:
    path = out / f"fit_{net_id}.json"
    if not path.exists():
        raise ConfigError(
            f"no fit for network {net_id!r} at {path}; run 'fit' or 'select' first"
        )
    fit = _read_saved(path, FitResult.from_json_dict)
    if not (np.all(np.isfinite(fit.mode)) and np.all(np.isfinite(fit.covariance))):
        raise DataError(f"{path}: malformed saved output: non-finite fit")
    return fit


def cmd_adequacy(cfg: RunConfig) -> int:
    out = _prepare_out(cfg, "adequacy")
    nets = _load_all(cfg)
    with open(out / "adequacy.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "network_id",
                "either_match",
                "null_either",
                "both_match",
                "null_both",
                "recall_1pct",
                "recall_5pct",
                "recall_10pct",
            ]
        )
        for net_id, (actors, seq) in nets.items():
            fit = _require_fit(out, net_id)
            report = adequacy(fit, seq, actors)
            writer.writerow(
                [
                    net_id,
                    _fmt(report.either_match),
                    _fmt(report.null_either),
                    _fmt(report.both_match),
                    _fmt(report.null_both),
                    _fmt(report.recall[1]),
                    _fmt(report.recall[5]),
                    _fmt(report.recall[10]),
                ]
            )
            print(
                f"{net_id}: either {report.either_match:.2f} "
                f"(null {report.null_either:.2f}), both {report.both_match:.2f}"
            )
    return EXIT_OK


def _simulate_networks(cfg: RunConfig, command: str):
    """Simulate each network's saved fit and write its trajectories CSV.

    Yields (network id, actors, trajectories) per network. ``simulate``
    is ``knockout`` without the concentration report.
    """
    if cfg.seed is None:
        raise ConfigError(f"--seed is mandatory for {command}")
    out = _prepare_out(cfg, command)
    conditions = tuple(KnockoutCondition.named(c) for c in cfg.conditions)
    for net_id, (actors, seq) in _load_all(cfg).items():
        trajectories = run_knockout_experiment(
            _require_fit(out, net_id),
            actors,
            seq.m,
            replicates=cfg.replicates,
            conditions=conditions,
            master_seed=cfg.seed,
        )
        write_trajectories_csv(trajectories, out / f"trajectories_{net_id}.csv")
        yield net_id, actors, trajectories


def cmd_simulate(cfg: RunConfig) -> int:
    for net_id, _, trajectories in _simulate_networks(cfg, "simulate"):
        print(f"{net_id}: wrote {len(trajectories)} trajectories")
    return EXIT_OK


def cmd_knockout(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    reports = []
    for net_id, actors, trajectories in _simulate_networks(cfg, "knockout"):
        report = concentration_report(trajectories, actors)
        report.save_json(out / f"concentration_{net_id}.json")
        reports.append(report)
        print(f"{net_id}: {cfg.replicates} x {len(cfg.conditions)} trajectories")
    _write_concentration_csv(reports, out / "concentration.csv")
    return EXIT_OK


def _write_concentration_csv(reports, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "network_id",
                "condition",
                "mean_theil",
                "pct_change_vs_full",
                "excess_fraction",
                "t_stat",
                "p_value",
            ]
        )
        for report in reports:
            report.write_csv_rows(writer)


def cmd_report(cfg: RunConfig) -> int:
    """Re-render concentration tables from saved knockout JSON outputs."""
    out = _prepare_out(cfg, "report")
    paths = sorted(out.glob("concentration_*.json"))
    if not paths:
        raise ConfigError(f"no concentration_*.json files under {cfg.out}")
    reports = [_read_saved(path, ConcentrationReport.from_json_dict) for path in paths]
    _write_concentration_csv(reports, out / "concentration.csv")
    print(f"wrote {out / 'concentration.csv'} ({len(reports)} networks)")
    return EXIT_OK


_COMMANDS = {
    "summarize": cmd_summarize,
    "fit": cmd_fit,
    "select": cmd_select,
    "adequacy": cmd_adequacy,
    "simulate": cmd_simulate,
    "knockout": cmd_knockout,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="remnet",
        description="Relational event model pipeline for dyadic communication networks",
    )
    parser.add_argument("--version", action="version", version=remnet.__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--events", help="events CSV/JSON path")
        p.add_argument("--actors", help="actors CSV path")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--replicates", type=int)
        p.add_argument("--conditions", nargs="+")
        p.add_argument("--terms", nargs="+")
        p.add_argument("--tol", type=float)
        p.add_argument("--selection", choices=["hill", "exhaustive"])
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, InadmissibleModelError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
