"""Deterministic input generator for the benchmark workloads.

Uses NumPy only and never imports ``remnet``, so a change to the program
cannot change its own inputs. The same (workload, seed) always gives
byte-identical files.

Networks are drawn from a simple radio-net process rather than from the
model itself: a few coordinator (ICR) stations attract traffic, replies
to the previous call are common, senders re-use past receivers, and busy
stations get busier. That gives the selection step real signal on several
terms without planting the model's own statistics.

For a relabelled workload (panel_pipeline) the event content comes from a
fixed stream and the run seed draws the station labels, and so the order
of actors and dyads the program sees. Hill-climb cost grows with the
square of the number of terms the data supports, which differs by tens of
percent between fresh random networks; relabelling keeps that work equal
across seeds while every seed still gives different input bytes.
"""

from __future__ import annotations

import csv
import json
import zlib
from pathlib import Path

import numpy as np

from workloads import TERM_NAMES, WORKLOADS

# frozen knock-out fit, in canonical term order; knockout reads only the
# terms, mode and covariance, so logLik and AICc below are placeholders
_FROZEN_MODE = (
    3.0,  # NTDegRec
    0.8,  # FrPSndSnd
    0.6,  # RRecSnd
    0.3,  # RSndSnd
    0.05,  # OTPSnd
    0.05,  # ITPSnd
    0.02,  # OSPSnd
    0.02,  # ISPSnd
    2.5,  # PSAB-BA
    0.4,  # PSAB-BY
    0.2,  # PSAB-XA
    0.1,  # PSAB-XB
    0.3,  # PSAB-AY
    0.7,  # ICR
)
_FROZEN_SD = (0.4, 0.2, 0.15, 0.15, 0.02, 0.02, 0.02, 0.02, 0.2, 0.15, 0.15,
              0.15, 0.15, 0.2)

# share of events drawn uniformly; the rest follow the radio-net mechanisms
P_UNIFORM = 0.5
# content stream of relabelled workloads; the run seed only relabels it
TEMPLATE_SEED = 0


def _rng(workload: str, seed: int, *key: int) -> np.random.Generator:
    # keyed by the name, so adding a workload leaves the others' inputs alone
    stream = zlib.crc32(workload.encode())
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream, *key]))


def _network(rng: np.random.Generator, n: int, m: int):
    """One event list over n stations; returns (icr flags, [(i, j), ...])."""
    n_icr = max(2, n // 8)
    icr = np.zeros(n, dtype=bool)
    icr[rng.choice(n, size=n_icr, replace=False)] = True
    boost = np.where(icr, 2.5, 1.0)
    activity = rng.gamma(1.5, 1.0, size=n)
    counts = np.zeros((n, n))
    volume = np.zeros(n)
    events = []
    last = None
    for _ in range(m):
        u = rng.random()
        if u < P_UNIFORM:
            i = int(rng.integers(n))
            j = int(rng.integers(n - 1))
            j += j >= i
        elif last is not None and u < P_UNIFORM + 0.25:
            i, j = last[1], last[0]  # reply
        else:
            if last is not None and u < P_UNIFORM + 0.3:
                i = last[1]  # the receiver passes traffic on
            else:
                w = activity * boost * (1.0 + volume)
                i = int(rng.choice(n, p=w / w.sum()))
            if counts[i].sum() > 0 and rng.random() < 0.2:
                w = counts[i].copy()  # back to a past partner
            else:
                w = boost * (1.0 + volume)
            w[i] = 0.0
            j = int(rng.choice(n, p=w / w.sum()))
        events.append((int(i), int(j)))
        counts[i, j] += 1
        volume[i] += 1
        volume[j] += 1
        last = (i, j)
    return icr, events


def _frozen_fit(rng: np.random.Generator, net_id: str, m: int) -> dict:
    """A 14-term fit with fixed mode and a PSD covariance built as L Lᵀ."""
    k = len(TERM_NAMES)
    sd = np.asarray(_FROZEN_SD)
    corr_factor = np.eye(k) + 0.1 * rng.standard_normal((k, k))
    corr = corr_factor @ corr_factor.T
    d = np.sqrt(np.diag(corr))
    cov = (corr / np.outer(d, d)) * np.outer(sd, sd)
    return {
        "network_id": net_id,
        "terms": list(TERM_NAMES),
        "mode": list(_FROZEN_MODE),
        "sd": [float(x) for x in np.sqrt(np.diag(cov))],
        "covariance": [[float(x) for x in row] for row in cov],
        "logLik": -1000.0,
        "AICc": 2030.0,
        "converged": True,
        "n_events": m,
        "n_iter": 0,
    }


def _needs_frozen_fit(commands) -> bool:
    """True if a knockout runs before any command that writes a fit."""
    for command in commands:
        if command[0] in ("fit", "select"):
            return False
        if command[0] == "knockout":
            return True
    return False


def generate(workload: str, seed: int, in_dir: Path) -> dict:
    """Write the workload's input files into in_dir; return its manifest.

    The manifest (actor ids and events per network) is what the output
    check compares against; the program never reads it.
    """
    spec = WORKLOADS[workload]
    in_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"workload": workload, "seed": seed, "networks": {}}
    with open(in_dir / "events.csv", "w", newline="") as ev_fh, open(
        in_dir / "actors.csv", "w", newline=""
    ) as ac_fh:
        ev = csv.writer(ev_fh)
        ac = csv.writer(ac_fh)
        ev.writerow(["network_id", "order", "sender", "receiver"])
        ac.writerow(["network_id", "actor_id", "icr", "specialist"])
        for k, (n, m) in enumerate(spec.networks):
            net_id = f"{workload[:2]}{k + 1:02d}"
            rng = _rng(workload, seed, k)
            content_rng = _rng(workload, TEMPLATE_SEED, k) if spec.relabel else rng
            icr, events = _network(content_rng, n, m)
            # station a is called ids[a]; the actor table lists ids sorted,
            # so a relabelling also reorders the risk set
            ids = [f"s{x:03d}" for x in rng.permutation(n)]
            specialist = int(rng.random() < 0.5)
            for a in sorted(range(n), key=ids.__getitem__):
                ac.writerow([net_id, ids[a], int(icr[a]), specialist])
            for order, (i, j) in enumerate(events, start=1):
                ev.writerow([net_id, order, ids[i], ids[j]])
            manifest["networks"][net_id] = {
                "actors": sorted(ids),
                "n_icr": int(icr.sum()),
                "specialist": bool(specialist),
                "events": [[ids[i], ids[j]] for i, j in events],
            }
            if _needs_frozen_fit(spec.commands):
                fit = _frozen_fit(rng, net_id, m)
                with open(in_dir / f"fit_{net_id}.json", "w") as fh:
                    json.dump(fit, fh, indent=2)
                    fh.write("\n")
    return manifest
