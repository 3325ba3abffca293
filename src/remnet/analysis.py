"""Concentration and adequacy metrics for fitted and simulated networks.

Theil index of per-actor communication volume, excess-concentration
rescaling against the no-hub baseline, percent changes, next-event
match/recall adequacy of a fit, ranked over the scores of a
``stats.RiskSetScorer`` replay of the observed history (the scores the
knock-out sampler draws from), and Welch's t test, which compares each
knock-out condition with the full model.

Only ``welch_t_test`` uses SciPy. It computes Welch's t and its degrees
of freedom itself and imports ``scipy.special`` when called, for the
p-value from ``scipy.special.stdtr``, so importing this module loads
NumPy only and ``knockout`` loads ``scipy.special`` only. No module of
the package imports ``scipy.stats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from remnet.data import ActorTable, EventSequence
from remnet.inference import FitResult
# not used here: perfbench/spans.py wraps remnet.analysis.EventDesign
from remnet.inference import EventDesign  # noqa: F401
from remnet.stats import RiskSetScorer

# recall levels of ``adequacy``: percent of the risk set, best-ranked first
RECALL_PCTS = (1, 5, 10)


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


def _mean_var(x: np.ndarray) -> tuple[float, float]:
    """Mean and unbiased variance, in ``scipy.stats.ttest_ind``'s arithmetic:
    the mean squared deviation, times n/(n-1)."""
    mean = x.mean()
    return mean, np.mean((x - mean) ** 2) * (x.size / (x.size - 1))


def welch_t_test(sample_a, sample_b) -> tuple[float, float]:
    """Welch two-sample t statistic and two-sided p-value.

    t is the difference of the means over sqrt(v_a/n_a + v_b/n_b), with
    Welch-Satterthwaite degrees of freedom, and the p-value is
    ``2 * stdtr(df, -|t|)``: the arithmetic of
    ``scipy.stats.ttest_ind(equal_var=False)``, without loading
    ``scipy.stats``. Two samples with zero variance give (0.0, 1.0) when
    their means are equal. Raises ValueError when a sample has fewer than
    2 values, when a value is NaN or infinite, or when both samples have
    zero variance and unequal means.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("both samples need size >= 2")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("samples must be finite (no NaN or inf)")
    (mean_a, var_a), (mean_b, var_b) = _mean_var(a), _mean_var(b)
    if var_a == 0 and var_b == 0:
        if mean_a == mean_b:
            return 0.0, 1.0
        raise ValueError("both samples are degenerate with unequal means")
    vn_a, vn_b = var_a / a.size, var_b / b.size
    with np.errstate(divide="ignore", invalid="ignore"):
        df = (vn_a + vn_b) ** 2 / (vn_a**2 / (a.size - 1) + vn_b**2 / (b.size - 1))
    if np.isnan(df):  # the squares underflowed to 0/0; as ttest_ind, take 1
        df = 1.0
    t = (mean_a - mean_b) / np.sqrt(vn_a + vn_b)
    import scipy.special

    p = 2 * scipy.special.stdtr(df, -np.abs(t))
    return float(t), float(p)


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


def adequacy(fit: FitResult, actors: ActorTable, seq: EventSequence) -> AdequacyReport:
    """Next-event match and recall-coverage rates of ``fit`` on ``seq``.

    The observed events are replayed through a ``RiskSetScorer``, the
    scores the knock-out sampler draws from. At each event every dyad is
    ranked by its score given the true history, ties broken by canonical
    dyad order (a stable descending sort): the top dyad is the first
    maximum of the row-major (n, n) scores, and the observed dyad's 0-based
    rank counts the higher scores and the equal scores before it. Recall
    is reported at each of ``RECALL_PCTS``. Raises ValueError when the
    actor table and the sequence name different networks.
    """
    if actors.network_id != seq.network_id:
        raise ValueError("actor table and event sequence network_id differ")
    n = actors.n
    scorer = RiskSetScorer(fit.spec.terms, fit.mode, actors.icr_array())
    positions = np.empty(seq.m, dtype=np.intp)
    either = both = 0
    for t, (a, b) in enumerate(seq.index_pairs(actors).tolist()):
        scores = scorer.scores().reshape(-1)
        obs = a * n + b
        observed = scores[obs]
        positions[t] = np.count_nonzero(scores > observed) + np.count_nonzero(
            scores[:obs] == observed
        )
        top = int(scores.argmax())
        either += top // n == a or top % n == b
        both += top == obs
        scorer.update(a, b)
    n_dyads = n * (n - 1)
    recall = {
        pct: float(np.mean(positions < math.ceil(pct / 100.0 * n_dyads)))
        for pct in RECALL_PCTS
    }
    return AdequacyReport(
        network_id=seq.network_id,
        either_match=either / seq.m,
        both_match=both / seq.m,
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
