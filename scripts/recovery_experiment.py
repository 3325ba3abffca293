#!/usr/bin/env python3
"""Posterior interval calibration experiment.

Repeatedly simulates event sequences at known coefficients, refits the
model, and reports how often the 95% posterior intervals cover the truth.
"""

import argparse

import numpy as np

from remnet.data import ActorTable, EventSequence
from remnet.inference import EventDesign, ModelSpec, fit_map, posterior_interval
from remnet.simulation import KnockoutCondition, simulate_trajectory
from remnet.stats import Term


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--actors", type=int, default=10)
    parser.add_argument("--events", type=int, default=2000)
    parser.add_argument("--replicates", type=int, default=50)
    parser.add_argument("--seed", type=int, default=7000)
    args = parser.parse_args()

    truth = {Term.PSABBA: 1.5, Term.RRECSND: 0.8, Term.ICR: 0.7}
    ids = tuple(f"unit{k:02d}" for k in range(args.actors))
    icr = tuple(k < 2 for k in range(args.actors))
    actors = ActorTable("recovery", ids, icr)
    spec = ModelSpec(terms=tuple(truth), network_id="recovery")
    theta_true = np.array(list(truth.values()))

    covered = np.zeros(len(truth), dtype=int)
    for r in range(args.replicates):
        traj = simulate_trajectory(
            theta_true,
            spec,
            actors,
            args.events,
            KnockoutCondition.named("full"),
            seed=args.seed + r,
        )
        seq = EventSequence(
            "recovery", tuple((ids[i], ids[j]) for i, j in traj.events.tolist())
        )
        fit = fit_map(spec, EventDesign(actors, seq, spec.terms))
        for k, (lo, hi) in enumerate(posterior_interval(fit, 0.95)):
            covered[k] += lo <= theta_true[k] <= hi
        if (r + 1) % 10 == 0:
            print(f"replicate {r + 1}/{args.replicates}")

    print("\n95% interval coverage:")
    for k, name in enumerate(spec.term_names()):
        print(f"  {name:>10s}: {covered[k] / args.replicates:.2f}")


if __name__ == "__main__":
    main()
