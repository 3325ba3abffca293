"""Output checks for one iteration of a workload's CLI command sequence.

An operation is one (command, network) pair. It fails when the command
exits non-zero or when an output for that network fails a check.

Every seed gets the invariant checks: files present, fits converged,
trajectory counts and lengths, rates in [0, 1], summary counts equal to
the generated inputs. For the reference seed the observed values are also
compared with ``reference/<workload>.json``, recorded at the commit that
introduced the benchmark: selected term sets exactly, AICc and logLik to
1e-6 relative, summary.csv and adequacy.csv values exactly, and the sha256
of every trajectory CSV.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import CONDITIONS, TERM_NAMES, WIDE_FIT_TERMS

REL_TOL = 1e-6
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


class Failure(Exception):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise Failure(msg)


def _read_rows(path: Path) -> list[list[str]]:
    _require(path.exists(), f"missing {path.name}")
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _read_json(path: Path) -> dict:
    _require(path.exists(), f"missing {path.name}")
    return json.loads(path.read_text())


def _rows_by_net(path: Path, header: list[str]) -> dict[str, list[str]]:
    rows = _read_rows(path)
    _require(bool(rows) and rows[0] == header, f"{path.name}: bad header")
    return {row[0]: row for row in rows[1:]}


def _summarize(out: Path, net_id: str, net: dict) -> dict:
    rows = _rows_by_net(out / "summary.csv", ["network_id", "actors", "events",
                                              "pct_icr", "specialization"])
    _require(net_id in rows, f"summary.csv: no row for {net_id}")
    _require("Mean" in rows, "summary.csv: no Mean row")
    row = rows[net_id]
    n = len(net["actors"])
    expect = [net_id, str(n), str(len(net["events"])),
              f"{100.0 * net['n_icr'] / n:.2f}",
              "Specialist" if net["specialist"] else "Non Spec."]
    _require(row == expect, f"summary.csv: row {row} != {expect}")
    return {"row": row}


def _fit_record(fit: dict, net_id: str, net: dict) -> dict:
    _require(fit.get("converged") is True, f"fit_{net_id}: not converged")
    _require(fit["n_events"] == len(net["events"]), f"fit_{net_id}: n_events")
    for key in ("AICc", "logLik"):
        _require(isinstance(fit[key], (int, float)) and math.isfinite(fit[key]),
                 f"fit_{net_id}: {key} not finite")
    _require(fit["logLik"] <= 0.0, f"fit_{net_id}: positive logLik")
    k = len(fit["terms"])
    _require(len(fit["mode"]) == k and len(fit["covariance"]) == k,
             f"fit_{net_id}: mode/covariance size")
    return {"terms": fit["terms"], "AICc": fit["AICc"], "logLik": fit["logLik"]}


def _coefficients(out: Path, net_id: str, terms: list[str]) -> None:
    rows = _read_rows(out / f"coefficients_{net_id}.csv")
    _require([r[0] for r in rows[1:-1]] == terms and rows[-1][0] == "AICc",
             f"coefficients_{net_id}.csv: term rows do not match the fit")


def _select(out: Path, net_id: str, net: dict) -> dict:
    fit = _read_json(out / f"fit_{net_id}.json")
    trace = _read_json(out / f"selection_{net_id}.json")
    _require(trace["final"]["terms"] == fit["terms"],
             f"selection_{net_id}: final terms differ from fit_{net_id}")
    _require(set(fit["terms"]) <= set(TERM_NAMES), f"fit_{net_id}: unknown term")
    _require(trace["steps"][-1]["action"] == "stop", f"selection_{net_id}: no stop step")
    _coefficients(out, net_id, fit["terms"])
    return _fit_record(fit, net_id, net)


def _fit(out: Path, net_id: str, net: dict) -> dict:
    fit = _read_json(out / f"fit_{net_id}.json")
    _require(fit["terms"] == list(WIDE_FIT_TERMS), f"fit_{net_id}: terms")
    _coefficients(out, net_id, fit["terms"])
    return _fit_record(fit, net_id, net)


ADEQUACY_HEADER = ["network_id", "either_match", "null_either", "both_match",
                   "null_both", "recall_1pct", "recall_5pct", "recall_10pct"]


def _adequacy(out: Path, net_id: str, net: dict) -> dict:
    rows = _rows_by_net(out / "adequacy.csv", ADEQUACY_HEADER)
    _require(net_id in rows, f"adequacy.csv: no row for {net_id}")
    row = rows[net_id]
    values = [float(x) for x in row[1:]]
    _require(all(0.0 <= v <= 1.0 for v in values), f"adequacy.csv: rate outside [0, 1] {row}")
    n = len(net["actors"])
    _require(row[2] == f"{(2 * n - 3) / (n * (n - 1)):.4f}", "adequacy.csv: null_either")
    _require(row[4] == f"{1.0 / (n * (n - 1)):.4f}", "adequacy.csv: null_both")
    _require(values[2] <= values[0], "adequacy.csv: both_match > either_match")
    _require(values[4] <= values[5] <= values[6], "adequacy.csv: recall not monotone")
    return {"row": row}


def _knockout(out: Path, net_id: str, net: dict, replicates: int) -> dict:
    path = out / f"trajectories_{net_id}.csv"
    rows = _read_rows(path)
    _require(rows[0] == ["network_id", "order", "sender", "receiver", "condition",
                         "replicate", "seed"], f"{path.name}: bad header")
    m = len(net["events"])
    actors = set(net["actors"])
    counts: dict[tuple[str, str], int] = {}
    for row in rows[1:]:
        _require(row[0] == net_id, f"{path.name}: wrong network id")
        _require(row[2] in actors and row[3] in actors and row[2] != row[3],
                 f"{path.name}: bad event {row[2:4]}")
        key = (row[4], row[5])
        counts[key] = counts.get(key, 0) + 1
        _require(int(row[1]) == counts[key], f"{path.name}: order not 1..m")
    expect = {(c, str(r)) for c in CONDITIONS for r in range(replicates)}
    _require(set(counts) == expect, f"{path.name}: trajectories {len(counts)} != {len(expect)}")
    _require(all(v == m for v in counts.values()), f"{path.name}: trajectory length != {m}")
    report = _read_json(out / f"concentration_{net_id}.json")
    _require(set(report["conditions"]) == set(CONDITIONS), f"concentration_{net_id}: conditions")
    max_theil = math.log(len(actors))
    for name, cond in report["conditions"].items():
        _require(len(cond["theil_values"]) == replicates, f"concentration_{net_id}: {name} count")
        _require(all(0.0 <= v <= max_theil + 1e-12 for v in cond["theil_values"]),
                 f"concentration_{net_id}: Theil outside [0, ln n]")
    conc = _read_rows(out / "concentration.csv")
    _require(sum(r[0] == net_id for r in conc[1:]) == len(CONDITIONS),
             f"concentration.csv: rows for {net_id}")
    return {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


def _observe(command: str, out: Path, net_id: str, net: dict, replicates: int) -> dict:
    if command == "summarize":
        return _summarize(out, net_id, net)
    if command == "select":
        return _select(out, net_id, net)
    if command == "fit":
        return _fit(out, net_id, net)
    if command == "adequacy":
        return _adequacy(out, net_id, net)
    if command == "knockout":
        return _knockout(out, net_id, net, replicates)
    raise ValueError(f"no check for command {command!r}")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _compare(observed: dict, reference: dict) -> None:
    for key, ref in reference.items():
        got = observed.get(key)
        if key in ("AICc", "logLik"):
            _require(_close(got, ref), f"{key} {got!r} != reference {ref!r}")
        else:
            _require(got == ref, f"{key} {got!r} != reference {ref!r}")


def check_iteration(commands, return_codes, out: Path, manifest: dict,
                    replicates: int, reference: dict | None):
    """Check one iteration's outputs.

    Returns (operations, failures, observed): the number of (command,
    network) pairs, a list of failure messages, and the observed values
    keyed "<command>/<network_id>" (what a reference file records).
    """
    failures, observed = [], {}
    ops = 0
    for command, rc in zip(commands, return_codes):
        for net_id, net in manifest["networks"].items():
            ops += 1
            key = f"{command}/{net_id}"
            try:
                _require(rc == 0, f"exit code {rc}")
                observed[key] = _observe(command, out, net_id, net, replicates)
                if reference is not None:
                    _require(key in reference, "no reference value")
                    _compare(observed[key], reference[key])
            except (Failure, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                failures.append(f"{key}: {exc}")
    return ops, failures, observed


def load_reference(workload: str, seed: int) -> dict | None:
    """The recorded reference for this workload, if seed is its reference seed."""
    payload = json.loads((REFERENCE_DIR / f"{workload}.json").read_text())
    return payload["observed"] if payload["seed"] == seed else None
