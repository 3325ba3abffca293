"""Concentration and adequacy metrics for fitted and simulated networks.

Theil index of per-actor communication volume, excess-concentration
rescaling against the no-hub baseline, percent changes, next-event
match/recall adequacy, and the significance tests used to compare
knock-out conditions.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as sps

from remnet.data import ActorTable, EventSequence
from remnet.inference import EventDesign, FitResult


def theil_index(volumes) -> float:
    """Entropy-based concentration of nonnegative volumes.

    0 at perfect equality, ln(n) when one actor holds everything.
    Zero volumes contribute 0 (the x*ln(x) -> 0 limit).
    """
    x = np.asarray(volumes, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("volumes must be a nonempty 1-D array")
    if np.any(x < 0):
        raise ValueError("volumes must be nonnegative")
    total = x.sum()
    if total == 0:
        raise ValueError("all volumes are zero")
    mu = total / x.size
    ratio = x / mu
    pos = ratio > 0
    return float(np.sum(ratio[pos] * np.log(ratio[pos])) / x.size)


def excess_concentration(
    t_condition: float, t_full: float, t_all_removed: float
) -> float:
    """Affine rescaling: 0 at the no-hub baseline, 1 at the full model.

    Values outside [0, 1] are legitimate (hub-suppressive mechanisms).
    """
    denom = t_full - t_all_removed
    if denom == 0:
        raise ValueError("degenerate baseline: full and all-removed Theil equal")
    return (t_condition - t_all_removed) / denom


def percent_change(t_knockout_mean: float, t_full_mean: float) -> float:
    if t_full_mean == 0:
        raise ValueError("zero full-model baseline")
    return 100.0 * (t_knockout_mean - t_full_mean) / t_full_mean


def welch_t_test(sample_a, sample_b) -> tuple[float, float]:
    """Welch two-sample t statistic and two-sided p-value.

    Two samples with zero variance give (0.0, 1.0) when their means are
    equal. Raises ValueError when a sample has fewer than 2 values, when
    a value is NaN or infinite, or when both samples have zero variance
    and unequal means.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("both samples need size >= 2")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("samples must be finite (no NaN or inf)")
    if a.var(ddof=1) == 0 and b.var(ddof=1) == 0:
        if a.mean() == b.mean():
            return 0.0, 1.0
        raise ValueError("both samples are degenerate with unequal means")
    t, p = sps.ttest_ind(a, b, equal_var=False)
    return float(t), float(p)


def kruskal_wallis(groups) -> tuple[float, float]:
    """Kruskal-Wallis H with midrank tie correction and chi-square p-value.

    Raises ValueError when there are fewer than 3 groups, when a group is
    empty, when a value is NaN or infinite, or when all pooled values are
    identical: the tie-correction denominator 1 - sum(t^3 - t)/(N^3 - N)
    is then zero and H is undefined.
    """
    groups = [np.asarray(g, dtype=np.float64) for g in groups]
    if len(groups) < 3:
        raise ValueError("need at least 3 groups")
    if any(g.size == 0 for g in groups):
        raise ValueError("groups must be nonempty")
    if not all(np.isfinite(g).all() for g in groups):
        raise ValueError("groups must be finite (no NaN or inf)")
    first = groups[0].flat[0]
    if all((g == first).all() for g in groups):
        raise ValueError("all values are identical; H is undefined")
    h, p = sps.kruskal(*groups)
    return float(h), float(p)


def null_either_rate(n: int) -> float:
    """P(uniform dyad guess matches sender or receiver): (2n-3)/(n(n-1))."""
    return (2 * n - 3) / (n * (n - 1))


def null_both_rate(n: int) -> float:
    """P(uniform dyad guess equals the observed event): 1/(n(n-1))."""
    return 1.0 / (n * (n - 1))


@dataclass
class AdequacyReport:
    network_id: str
    either_match: float
    both_match: float
    null_either: float
    null_both: float
    recall: dict[int, float]  # percent threshold -> coverage

    def to_json_dict(self) -> dict:
        return {
            "network_id": self.network_id,
            "either_match": self.either_match,
            "both_match": self.both_match,
            "null_either": self.null_either,
            "null_both": self.null_both,
            "recall": {str(k): v for k, v in self.recall.items()},
        }


def adequacy(
    fit: FitResult,
    seq: EventSequence,
    actors: ActorTable,
    design: EventDesign | None = None,
    recall_pcts: tuple[int, ...] = (1, 5, 10),
) -> AdequacyReport:
    """Next-event match and recall-coverage rates for a fitted model.

    For each event, candidate dyads are ranked by model rate given the
    true history; ties break by canonical dyad order (stable sort).
    """
    if design is None:
        design = EventDesign(actors, seq)
    n = actors.n
    n_dyads = design.n_dyads
    scores = design.scores(fit.mode, fit.spec.terms)
    either = 0
    both = 0
    positions = np.empty(design.m, dtype=np.intp)
    for t in range(design.m):
        order = np.argsort(-scores[t], kind="stable")
        obs = design.obs_idx[t]
        top = int(order[0])
        obs_i, obs_j = divmod(int(obs), n - 1)
        top_i, top_j = divmod(top, n - 1)
        if obs_j >= obs_i:
            obs_j += 1
        if top_j >= top_i:
            top_j += 1
        if top_i == obs_i or top_j == obs_j:
            either += 1
        if top == obs:
            both += 1
        positions[t] = int(np.nonzero(order == obs)[0][0])
    recall = {
        pct: float(np.mean(positions < math.ceil(pct / 100.0 * n_dyads)))
        for pct in recall_pcts
    }
    return AdequacyReport(
        network_id=seq.network_id,
        either_match=either / design.m,
        both_match=both / design.m,
        null_either=null_either_rate(n),
        null_both=null_both_rate(n),
        recall=recall,
    )


@dataclass
class ConditionSummary:
    condition: str
    theil_values: list[float]
    mean_theil: float
    pct_change_vs_full: float | None
    excess_fraction: float | None
    t_stat: float | None
    p_value: float | None


@dataclass
class ConcentrationReport:
    network_id: str
    conditions: dict[str, ConditionSummary] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "network_id": self.network_id,
            "conditions": {
                name: {
                    "theil_values": c.theil_values,
                    "mean_theil": c.mean_theil,
                    "pct_change_vs_full": c.pct_change_vs_full,
                    "excess_fraction": c.excess_fraction,
                    "t_stat": c.t_stat,
                    "p_value": c.p_value,
                }
                for name, c in self.conditions.items()
            },
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ConcentrationReport":
        """Inverse of ``to_json_dict``; a non-numeric value raises."""

        def optional(x):
            return None if x is None else float(x)

        return cls(
            network_id=obj["network_id"],
            conditions={
                name: ConditionSummary(
                    condition=name,
                    theil_values=[float(v) for v in c["theil_values"]],
                    mean_theil=float(c["mean_theil"]),
                    pct_change_vs_full=optional(c["pct_change_vs_full"]),
                    excess_fraction=optional(c["excess_fraction"]),
                    t_stat=optional(c["t_stat"]),
                    p_value=optional(c["p_value"]),
                )
                for name, c in obj["conditions"].items()
            },
        )

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    def write_csv_rows(self, writer) -> None:
        for name, c in self.conditions.items():
            writer.writerow(
                [
                    self.network_id,
                    name,
                    f"{c.mean_theil:.6f}",
                    "" if c.pct_change_vs_full is None else f"{c.pct_change_vs_full:.4f}",
                    "" if c.excess_fraction is None else f"{c.excess_fraction:.6f}",
                    "" if c.t_stat is None else f"{c.t_stat:.6f}",
                    "" if c.p_value is None else f"{c.p_value:.6g}",
                ]
            )


def concentration_report(
    trajectories, actors: ActorTable
) -> ConcentrationReport:
    """Aggregate knock-out trajectories into per-condition Theil summaries.

    Percent change, excess fraction, and the Welch test compare each
    condition against the 'full' condition; the excess scale additionally
    needs 'all_removed'. Comparisons are left empty when the reference
    conditions are absent or degenerate.
    """
    by_condition: dict[str, list[float]] = {}
    for traj in trajectories:
        by_condition.setdefault(traj.condition, []).append(
            theil_index(traj.volumes(actors))
        )
    means = {name: float(np.mean(v)) for name, v in by_condition.items()}
    full_mean = means.get("full")
    all_mean = means.get("all_removed")
    report = ConcentrationReport(network_id=actors.network_id)
    for name, values in by_condition.items():
        pct = exc = t = p = None
        if full_mean is not None:
            if name == "full":
                pct = 0.0
            elif full_mean != 0:
                pct = percent_change(means[name], full_mean)
            if all_mean is not None and full_mean != all_mean:
                exc = excess_concentration(means[name], full_mean, all_mean)
            if name != "full" and len(values) >= 2:
                try:
                    t, p = welch_t_test(values, by_condition["full"])
                except ValueError:
                    pass
        report.conditions[name] = ConditionSummary(
            condition=name,
            theil_values=values,
            mean_theil=means[name],
            pct_change_vs_full=pct,
            excess_fraction=exc,
            t_stat=t,
            p_value=p,
        )
    return report
