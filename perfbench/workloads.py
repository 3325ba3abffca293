"""The benchmark's workloads: input sizes and the CLI command sequence each runs.

Each workload is chosen so that one of the planned optimisations does most
of its work on it and another does almost none. BENCHMARK.json gates
panel_pipeline and wide_fit; knockout_sim runs by name only (see below):

* panel_pipeline: many small fits inside hill-climb selection, on four
  networks shaped like the paper's small radio nets (relabelled per seed,
  see gen.py).
* knockout_sim: knock-out simulation alone, from a frozen 14-term fit, so
  no fitting happens and the per-step statistic rebuild dominates. Six
  replicates per condition keep one sequence near 5 s, so a run takes the
  median of several. It is not in BENCHMARK.json: it runs one Python
  thread, so it follows the speed of a single vCPU, which on a shared
  2-vCPU VM swings by about 20% over tens of seconds, and its run-to-run
  spread (IQR/median over ten seeds, 0.24-0.26) sits at the largest bound
  a gated metric may have.
* wide_fit: one 4-term fit and adequacy on a network near the data
  package's mean size, so design build and the dense tensor dominate.
"""

from __future__ import annotations

from dataclasses import dataclass

# the 14 candidate terms, in canonical order
TERM_NAMES = (
    "NTDegRec", "FrPSndSnd", "RRecSnd", "RSndSnd", "OTPSnd", "ITPSnd",
    "OSPSnd", "ISPSnd", "PSAB-BA", "PSAB-BY", "PSAB-XA", "PSAB-XB",
    "PSAB-AY", "ICR",
)
WIDE_FIT_TERMS = ("NTDegRec", "PSAB-BA", "RRecSnd", "ICR")
CONDITIONS = ("full", "pa_removed", "ps_removed", "icr_removed", "all_removed")


@dataclass(frozen=True)
class Workload:
    networks: tuple[tuple[int, int], ...]  # (actors, events) per network
    commands: tuple[tuple[str, ...], ...]  # CLI argv tails, run in order
    replicates: int = 0  # knock-out replicates per condition
    relabel: bool = False  # seed relabels fixed networks instead of drawing new ones


WORKLOADS = {
    "panel_pipeline": Workload(
        networks=((24, 70), (27, 74), (30, 78), (32, 83)),
        commands=(("summarize",), ("select",), ("adequacy",), ("knockout",)),
        replicates=2,
        relabel=True,
    ),
    "knockout_sim": Workload(
        networks=((50, 300),),
        commands=(("knockout",),),
        replicates=6,
    ),
    "wide_fit": Workload(
        networks=((100, 500),),
        commands=(("fit", "--terms", *WIDE_FIT_TERMS), ("adequacy",)),
    ),
}


def command_argv(command: tuple[str, ...], in_dir, out_dir, seed: int,
                 replicates: int) -> list[str]:
    """Full argv for remnet.cli.main for one command of a workload."""
    argv = [*command, "--events", str(in_dir / "events.csv"),
            "--actors", str(in_dir / "actors.csv"), "--out", str(out_dir)]
    if command[0] == "knockout":
        argv += ["--seed", str(seed), "--replicates", str(replicates),
                 "--conditions", *CONDITIONS]
    return argv
