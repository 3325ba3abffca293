"""remnet benchmark: one workload, one run, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload panel_pipeline --seed 1 --seconds 50 --trace 0

The run generates the workload's inputs from the seed (perfbench/gen.py,
which does not import remnet), times set-up in fresh processes, then runs
the workload's CLI command sequence in a fresh worker process as a closed
loop for ``--seconds`` and checks every output.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (import remnet
and load the inputs; median of 6 fresh processes, half before the loop and
half after it), ``wall_s`` (median time of the whole command sequence) and
``peak_rss_mb`` (the worker's peak resident memory). ``--trace 1``
alternates plain sequences with sequences traced with spans around every
layer, and reports the per-layer metrics of layers.py. A per-layer metric
of a layer the workload does not run reads 0 and is named on a ``not run``
line. The environment line records versions, threads, the seed and
``machine_loop_ms``, the median time of a fixed pure-Python loop run
before and after the workload, which tracks the machine's own speed. The
tracing overhead (traced minus plain wall time, median over the
pairs) is printed on its own line, not as a metric: a pair takes tens of
seconds on the larger workloads, so one or two pairs per run cannot
resolve wrapper costs of microseconds from run-to-run drift. Either way
the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where an attempted operation is one (command, network) pair. Inputs and
outputs live under .perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gen import generate  # noqa: E402
from layers import METRICS, IncompleteTrace, compute, required  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE_SEED = 1
SETUP_PROBES = 6
MACHINE_PROBES = 10
DEADLINE_S = 170.0  # the whole run must end within 180 s


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], work: Path, started: float) -> subprocess.CompletedProcess:
    timeout = DEADLINE_S - (time.perf_counter() - started)
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    with open(work / "worker.log", "a") as log:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            stdout=subprocess.PIPE, stderr=log, text=True, timeout=timeout,
        )
    if proc.returncode != 0:
        log_tail = (work / "worker.log").read_text()[-3000:]
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{log_tail}")
    return proc


def _machine_loop_ms(count: int) -> list[float]:
    """Times of a fixed pure-Python loop that uses no remnet code.

    They move only with the machine's speed, so a shift in them between two
    sets of runs shows drift of the machine rather than a change of the
    program.
    """
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(1e3 * (time.perf_counter() - t0))
    return times


def _setup_probes(work: Path, started: float, count: int) -> list[float]:
    times = []
    for _ in range(count):
        out = _worker(["setup", str(work)], work, started).stdout
        times.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
    return times


def _loop(mode: str, workload: str, seed: int, seconds: float, work: Path,
          started: float) -> dict:
    result_path = work / f"result_{mode}.json"
    _worker([mode, str(work), workload, str(seed), str(seconds), str(result_path)],
            work, started)
    return json.loads(result_path.read_text())


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    started = time.perf_counter()
    if not (root / "src" / "remnet" / "__init__.py").is_file():
        raise BenchError(f"no remnet sources under {root / 'src'}; run from the repo root")
    spec = WORKLOADS[workload]
    work = root / ".perfbench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    manifest = generate(workload, seed, work / "input")
    (work / "manifest.json").write_text(json.dumps(manifest))

    machine = _machine_loop_ms(MACHINE_PROBES // 2)
    not_run = []
    if not trace:
        # half the set-up probes before the loop and half after it, so the
        # median spans the run's time rather than its first seconds
        setup = _setup_probes(work, started, SETUP_PROBES // 2)
        res = _loop("plain", workload, seed, seconds, work, started)
        setup += _setup_probes(work, started, SETUP_PROBES - SETUP_PROBES // 2)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(res["walls"]["plain"]), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
        }
    else:
        res = _loop("traced", workload, seed, seconds, work, started)
        values, not_run = compute(res["spans"], res["probes"], required(spec.commands))
        metrics = {name: (v, METRICS[name].unit) for name, v in values.items()}
    machine += _machine_loop_ms(MACHINE_PROBES - MACHINE_PROBES // 2)
    failures = res["failures"]
    return {
        "env": {**res["env"], "machine_loop_ms": statistics.median(machine)},
        "walls": res["walls"],
        "failures": failures,
        "not_run": not_run,
        "summary": {
            "correct": not failures,
            "attempted": res["attempted"],
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), Path.cwd())
    except (BenchError, IncompleteTrace, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    summary = out["summary"]
    print("env " + json.dumps(out["env"], sort_keys=True))
    for mode, walls in out["walls"].items():
        print(f"{mode} sequences {len(walls)}: wall_s median "
              f"{statistics.median(walls):.4f} max {max(walls):.4f}")
    if "traced" in out["walls"]:
        pairs = list(zip(out["walls"]["traced"], out["walls"]["plain"]))
        overhead = statistics.median(t - p for t, p in pairs)
        print(f"trace overhead {overhead:.4f} s: traced minus plain wall_s, median "
              f"of {len(pairs)} pair(s); within run-to-run noise")
    if out["not_run"]:
        print("not run on this workload, reported as 0: " + " ".join(out["not_run"]))
    for failure in out["failures"]:
        print(f"FAILED {failure}")
    fail_frac = summary["failed"] / summary["attempted"]
    print(f"fail_frac {fail_frac:.6f} (1) = {summary['failed']}/{summary['attempted']}")
    for name, m in summary["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
