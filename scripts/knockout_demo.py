#!/usr/bin/env python3
"""Synthetic mechanism knock-out demo.

Simulates a hub-forming network (strong turn-taking plus preferential
attachment), fits the generating model, then re-simulates with each
mechanism disabled and reports how communication concentration changes.
"""

import argparse

from remnet.analysis import concentration_report
from remnet.data import ActorTable, EventSequence
from remnet.inference import EventDesign, ModelSpec, fit_map
from remnet.simulation import (
    KnockoutCondition,
    run_knockout_experiment,
    simulate_trajectory,
)
from remnet.stats import Term

import numpy as np


def _cell(x, fmt: str) -> str:
    """A comparison the report leaves empty (every Theil index 0, as with two
    actors) prints blank, as in concentration.csv."""
    return "" if x is None else format(x, fmt)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--actors", type=int, default=8)
    parser.add_argument("--events", type=int, default=150)
    parser.add_argument("--replicates", type=int, default=50)
    parser.add_argument("--seed", type=int, default=2026)
    args = parser.parse_args()

    ids = tuple(f"unit{k:02d}" for k in range(args.actors))
    icr = tuple(k == 0 for k in range(args.actors))
    actors = ActorTable("demo", ids, icr)

    spec = ModelSpec(
        terms=(Term.PSABBA, Term.NTDEGREC, Term.ICR), network_id="demo"
    )
    theta_true = np.array([2.5, 2.0, 1.0])
    traj = simulate_trajectory(
        theta_true,
        spec,
        actors,
        args.events,
        KnockoutCondition.named("full"),
        seed=args.seed,
    )
    seq = EventSequence(
        "demo", tuple((ids[i], ids[j]) for i, j in traj.events.tolist())
    )
    print(f"simulated {seq.m} events over {actors.n} actors")

    fit = fit_map(spec, EventDesign(actors, seq, spec.terms))
    for name, est, sd in zip(spec.term_names(), fit.mode, fit.sd):
        print(f"  {name:>10s}: {est:+.3f} (sd {sd:.3f})")
    print(f"  AICc {fit.aicc:.2f}, converged={fit.converged}")

    trajs = run_knockout_experiment(
        fit, actors, seq.m, replicates=args.replicates, master_seed=args.seed
    )
    report = concentration_report(trajs, actors)
    print(f"\n{'condition':>12s} {'mean Theil':>10s} {'vs full %':>10s} {'excess':>7s}")
    for name, cond in report.conditions.items():
        pct = _cell(cond.pct_change_vs_full, ".2f")
        exc = _cell(cond.excess_fraction, ".3f")
        print(f"{name:>12s} {cond.mean_theil:10.4f} {pct:>10s} {exc:>7s}")


if __name__ == "__main__":
    main()
