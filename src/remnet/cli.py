"""Batch front-end: summarize / fit / select / adequacy / simulate / knockout / report.

Runs are configured by a JSON file with keys mirroring RunConfig; command
line flags override file values. The resolved configuration (including the
seed and software version) is written next to the outputs so every run is
reproducible from its artifacts. Each command formats its outputs here and
writes them through ``data.write_csv`` and ``data.write_json``.

Exit codes: 0 success, 2 configuration error (including an output file
that cannot be written), 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import typing
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import remnet
from remnet.analysis import (
    RECALL_PCTS,
    ConcentrationReport,
    adequacy,
    concentration_report,
)
from remnet.data import DataError, load_networks, summarize, write_csv, write_json
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
    DEFAULT_CONDITIONS,
    KnockoutCondition,
    run_knockout_experiment,
)
from remnet.stats import ALL_TERMS, canonical_terms, term_from_name

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
        default_factory=lambda: [c.name for c in DEFAULT_CONDITIONS]
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
    for key, value in vars(args).items():
        if key in cfg.__dict__ and value is not None:
            setattr(cfg, key, value)
    for key, hint in typing.get_type_hints(RunConfig).items():
        if not _conforms(getattr(cfg, key), hint):
            name = hint.__name__ if isinstance(hint, type) else hint
            raise ConfigError(f"{key} must be {name}, got {getattr(cfg, key)!r}")
    if not cfg.events and args.command != "report":
        raise ConfigError("no events path given (flag --events or config key)")
    if cfg.selection not in ("hill", "exhaustive"):
        raise ConfigError(f"selection must be 'hill' or 'exhaustive', got {cfg.selection!r}")
    # tol bounds the gradient max-norm of a fit; from 1 on it can pass at
    # theta = 0 and call the null model a converged fit
    if not 0 < cfg.tol < 1:
        raise ConfigError(f"tol must be in (0, 1), got {cfg.tol!r}")
    if cfg.max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {cfg.max_iter!r}")
    if cfg.replicates < 1:
        raise ConfigError(f"replicates must be >= 1, got {cfg.replicates!r}")
    if cfg.seed is not None and cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed!r}")
    if len(set(cfg.conditions)) != len(cfg.conditions):
        raise ConfigError(f"duplicate knock-out conditions in {cfg.conditions}")
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
    write_json(out / f"{command}_config.json", dict(sorted(resolved.items())))
    return out


def _load_all(cfg: RunConfig, file_ids: bool = True):
    """The networks by id, in id order.

    With ``file_ids`` (every command that writes per-network files), each
    id is checked to name a file before the command writes anything.
    """
    nets = load_networks(cfg.events, cfg.actors or None)
    if not nets:
        raise DataError(f"no networks found in {cfg.events}")
    if file_ids:
        for net_id in nets:
            _check_file_id(net_id)
    return dict(sorted(nets.items()))


# the bytes a file name may take, and the bytes of the longest prefix and
# suffix ``_network_file`` puts around an id ("concentration_", ".json")
_NAME_MAX = 255
_NAME_EXTRA = 19


def _check_file_id(net_id: str) -> None:
    """DataError unless ``net_id`` can be part of a file name.

    It cannot when it holds a path separator or a NUL, when the file-system
    encoding cannot encode it, or when its encoding is too long for the
    longest per-network file name.
    """
    problem = None
    if os.sep in net_id or (os.altsep and os.altsep in net_id):
        problem = "holds a path separator"
    elif "\0" in net_id:
        problem = "holds a NUL character"
    else:
        try:
            size = len(os.fsencode(net_id))
        except UnicodeEncodeError:
            problem = f"cannot be encoded in {sys.getfilesystemencoding()}"
        else:
            if size + _NAME_EXTRA > _NAME_MAX:
                problem = f"takes {size} bytes, more than {_NAME_MAX - _NAME_EXTRA}"
    if problem:
        raise DataError(f"network id {net_id!r} {problem}, so it cannot name a file")


def _network_file(out: Path, prefix: str, net_id: str, suffix: str) -> Path:
    """``out/<prefix>_<id><suffix>``, the path of every per-network file."""
    _check_file_id(net_id)
    return out / f"{prefix}_{net_id}{suffix}"


def _fmt(x: float, digits: int = 4) -> str:
    return f"{x:.{digits}f}"


def cmd_summarize(cfg: RunConfig) -> int:
    nets = _load_all(cfg, file_ids=False)
    out = _prepare_out(cfg, "summarize")
    metas = [summarize(actors, seq) for actors, seq in nets.values()]
    spec = {None: "", True: "Specialist", False: "Non Spec."}
    rows = [
        [m.network_id, m.n_actors, m.n_events, _fmt(m.pct_icr, 2), spec[m.specialist]]
        for m in metas
    ]
    means = [
        _fmt(float(np.mean([getattr(m, key) for m in metas])), 2)
        for key in ("n_actors", "n_events", "pct_icr")
    ]
    write_csv(
        out / "summary.csv",
        ["network_id", "actors", "events", "pct_icr", "specialization"],
        [*rows, ["Mean", *means, ""]],
    )
    print(f"wrote {out / 'summary.csv'} ({len(metas)} networks)")
    return EXIT_OK


def _write_fit(out: Path, net_id: str, fit: FitResult) -> None:
    """``fit_<id>.json`` and its coefficient table ``coefficients_<id>.csv``."""
    write_json(_network_file(out, "fit", net_id, ".json"), fit.to_json_dict())
    terms = zip(fit.spec.term_names(), fit.mode, fit.sd, star_codes(fit))
    rows = [[t, _fmt(float(est)), _fmt(float(sd)), star] for t, est, sd, star in terms]
    write_csv(
        _network_file(out, "coefficients", net_id, ".csv"),
        ["term", "estimate", "sd", "stars"],
        [*rows, ["AICc", _fmt(fit.aicc, 2), "", ""]],
    )


def cmd_fit(cfg: RunConfig) -> int:
    nets = _load_all(cfg)
    out = _prepare_out(cfg, "fit")
    terms = cfg.term_objects()
    for net_id, (actors, seq) in nets.items():
        fit = fit_map(
            ModelSpec(terms=terms, network_id=net_id),
            prior=cfg.prior(),
            tol=cfg.tol,
            max_iter=cfg.max_iter,
            design=EventDesign(actors, seq, terms),
        )
        _write_fit(out, net_id, fit)
        print(f"{net_id}: AICc {fit.aicc:.2f} converged={fit.converged}")
    return EXIT_OK


def cmd_select(cfg: RunConfig) -> int:
    if not cfg.terms:
        raise ConfigError("select needs at least one candidate term")
    nets = _load_all(cfg)
    out = _prepare_out(cfg, "select")
    select = hill_climb_select if cfg.selection == "hill" else exhaustive_select
    candidates = canonical_terms(cfg.term_objects())
    for net_id, (actors, seq) in nets.items():
        trace = select(
            candidates,
            prior=cfg.prior(),
            tol=cfg.tol,
            max_iter=cfg.max_iter,
            design=EventDesign(actors, seq, candidates),
        )
        path = _network_file(out, "selection", net_id, ".json")
        write_json(path, trace.to_json_dict())
        _write_fit(out, net_id, trace.final)
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
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"{path}: malformed saved output: {exc!r}") from None


def _require_fit(out: Path, net_id: str) -> FitResult:
    path = _network_file(out, "fit", net_id, ".json")
    if not path.exists():
        raise ConfigError(
            f"no fit for network {net_id!r} at {path}; run 'fit' or 'select' first"
        )
    fit = _read_saved(path, FitResult.from_json_dict)
    if not (np.all(np.isfinite(fit.mode)) and np.all(np.isfinite(fit.covariance))):
        raise DataError(f"{path}: malformed saved output: non-finite fit")
    return fit


def cmd_adequacy(cfg: RunConfig) -> int:
    nets = _load_all(cfg)
    out = _prepare_out(cfg, "adequacy")
    rates = ("either_match", "null_either", "both_match", "null_both")

    def rows():  # drawn one network at a time: a failure keeps the rows before it
        for net_id, (actors, seq) in nets.items():
            fit = _require_fit(out, net_id)
            report = adequacy(fit, actors, seq)
            values = [getattr(report, r) for r in rates]
            values += [report.recall[p] for p in RECALL_PCTS]
            print(
                f"{net_id}: either {report.either_match:.2f} "
                f"(null {report.null_either:.2f}), both {report.both_match:.2f}"
            )
            yield [net_id, *map(_fmt, values)]

    header = ["network_id", *rates, *(f"recall_{p}pct" for p in RECALL_PCTS)]
    write_csv(out / "adequacy.csv", header, rows())
    return EXIT_OK


def _simulate_networks(cfg: RunConfig, command: str):
    """Simulate each network's saved fit and write its trajectories CSV.

    Yields (network id, actors, trajectories) per network. ``simulate``
    is ``knockout`` without the concentration report.
    """
    if cfg.seed is None:
        raise ConfigError(f"--seed is mandatory for {command}")
    if not cfg.conditions:
        raise ConfigError(f"{command} needs at least one knock-out condition")
    nets = _load_all(cfg)
    out = _prepare_out(cfg, command)
    conditions = tuple(KnockoutCondition.named(c) for c in cfg.conditions)
    for net_id, (actors, seq) in nets.items():
        trajectories = run_knockout_experiment(
            _require_fit(out, net_id),
            actors,
            seq.m,
            replicates=cfg.replicates,
            conditions=conditions,
            master_seed=cfg.seed,
        )
        _write_trajectories(out, net_id, trajectories)
        yield net_id, actors, trajectories


def _write_trajectories(out: Path, net_id: str, trajectories) -> None:
    """``trajectories_<id>.csv``: the events CSV columns, condition, replicate, seed."""
    write_csv(
        _network_file(out, "trajectories", net_id, ".csv"),
        ["network_id", "order", "sender", "receiver", "condition", "replicate", "seed"],
        (
            [t.network_id, order, s, r, t.condition, t.replicate, t.seed]
            for t in trajectories
            for order, (s, r) in enumerate(t.events, start=1)
        ),
    )


def cmd_simulate(cfg: RunConfig) -> int:
    for net_id, _, trajectories in _simulate_networks(cfg, "simulate"):
        print(f"{net_id}: wrote {len(trajectories)} trajectories")
    return EXIT_OK


def cmd_knockout(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    reports = []
    for net_id, actors, trajectories in _simulate_networks(cfg, "knockout"):
        report = concentration_report(trajectories, actors)
        path = _network_file(out, "concentration", net_id, ".json")
        write_json(path, report.to_json_dict())
        reports.append(report)
        print(f"{net_id}: {cfg.replicates} x {len(cfg.conditions)} trajectories")
    _write_concentration_csv(reports, out / "concentration.csv")
    return EXIT_OK


# concentration.csv: network_id, condition, then these ConditionSummary fields
_CONCENTRATION_COLUMNS = {
    "mean_theil": ".6f",
    "pct_change_vs_full": ".4f",
    "excess_fraction": ".6f",
    "t_stat": ".6f",
    "p_value": ".6g",
}


def _write_concentration_csv(reports, path) -> None:
    def cell(x, spec):
        return "" if x is None else format(x, spec)

    rows = (
        [report.network_id, name]
        + [cell(getattr(c, col), spec) for col, spec in _CONCENTRATION_COLUMNS.items()]
        for report in reports
        for name, c in report.conditions.items()
    )
    write_csv(path, ["network_id", "condition", *_CONCENTRATION_COLUMNS], rows)


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
    except OSError as exc:
        # input paths are checked or mapped to a DataError where read: an output
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, InadmissibleModelError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
