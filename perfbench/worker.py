"""One benchmark process: a set-up probe, or a closed loop over a workload.

Started by run.py in a fresh interpreter, from the root of the checkout:

    python3 perfbench/worker.py setup  <work dir>
    python3 perfbench/worker.py plain  <work dir> <workload> <seed> <seconds> <result.json>
    python3 perfbench/worker.py traced <work dir> <workload> <seed> <seconds> <result.json>
    python3 perfbench/worker.py record <work dir> <workload> <seed> 0 <reference.json>

``setup`` times importing remnet and loading the input files, and prints
the time. ``plain`` and ``traced`` run the workload's CLI commands in
sequence through ``remnet.cli.main`` (one client, each command after the
previous one returns), repeating the sequence while another one fits in
``seconds``, check every output, and write the result file. ``traced``
alternates plain sequences with sequences that record spans around each
layer, and then times two kernels directly.
``record`` runs the sequence once and writes its checked outputs as the
reference for that seed (see record_reference.py).
"""

from __future__ import annotations

import ctypes
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))


def _import_program():
    import remnet.cli

    if not Path(remnet.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"remnet imported from {remnet.__file__}, not from {SRC}")
    return remnet.cli


def setup_probe(work: Path) -> None:
    t0 = time.perf_counter()
    _import_program()
    from remnet.data import load_networks

    load_networks(work / "input" / "events.csv", work / "input" / "actors.csv")
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (checkout is not a git repository)"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.exists() else ref
        commit = ref
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": commit,
        "seed": seed,
    }


def _design_matrix_probe(actors, seq) -> float:
    """Median ms of one all-terms design_matrix call at 16 states along the history."""
    from remnet.stats import ALL_TERMS, HistoryState, design_matrix

    icr = actors.icr_array()
    pairs = seq.index_pairs(actors)
    stops = {round(k * (seq.m - 1) / 15) for k in range(16)}
    state = HistoryState(actors.n)
    times = []
    for t in range(seq.m):
        if t in stops:
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                design_matrix(state, icr, ALL_TERMS)
                best = min(best, time.perf_counter() - t0)
            times.append(best)
        state.update(int(pairs[t, 0]), int(pairs[t, 1]))
    return 1e3 * statistics.median(times)


def _kernel_probe(actors, seq, fit_path: Path | None) -> float:
    """Best-of-3 ms of log_likelihood + gradient + hessian at a fitted mode.

    Uses the workload's own fit when it ran ``fit``, else a 14-term fit.
    """
    from remnet.inference import (EventDesign, FitResult, ModelSpec, fit_map,
                                  gradient, hessian, log_likelihood)
    from remnet.stats import ALL_TERMS

    design = EventDesign(actors, seq)
    if fit_path is not None:
        fit = FitResult.load(fit_path)
    else:
        fit = fit_map(ModelSpec(ALL_TERMS, seq.network_id), design=design)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        log_likelihood(fit.mode, fit.spec, design=design)
        gradient(fit.mode, fit.spec, design=design)
        hessian(fit.mode, fit.spec, design=design)
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best


def _probes(spec, work: Path, manifest: dict) -> dict:
    from layers import groups
    from remnet.data import load_networks

    nets = load_networks(work / "input" / "events.csv", work / "input" / "actors.csv")
    net_id = max(manifest["networks"], key=lambda k: len(nets[k][0].actor_ids) * nets[k][1].m)
    actors, seq = nets[net_id]
    probes = {"stats.design_matrix_ms": _design_matrix_probe(actors, seq)}
    if "kernel" in groups(spec.commands):
        ran_fit = any(c[0] == "fit" for c in spec.commands)
        fit_path = work / "out" / f"fit_{net_id}.json" if ran_fit else None
        probes["inference.kernel_fgh_ms"] = _kernel_probe(actors, seq, fit_path)
    return probes


def _is_traced(k: int) -> bool:
    """Sequence k of a traced run is traced in the order P T T P P T T P ...

    Each pair holds one plain and one traced sequence, so the pair's wall
    time difference is the tracing overhead; swapping the order every pair
    spreads the cold first sequence and slow drift over both kinds.
    """
    return k % 2 != (k // 2) % 2


def run_loop(workload: str, seed: int, seconds: float, work: Path, traced: bool,
             reference: dict | None) -> dict:
    from check import check_iteration
    from workloads import WORKLOADS, command_argv

    cli = _import_program()
    tracer = None
    if traced:
        from spans import Tracer, install

        tracer = Tracer()
    spec = WORKLOADS[workload]
    in_dir, out = work / "input", work / "out"
    manifest = json.loads((work / "manifest.json").read_text())
    walls = {"plain": [], "traced": []} if traced else {"plain": []}
    failures, attempted, observed = [], 0, {}
    started = time.perf_counter()
    for k in itertools.count():
        trace_now = traced and _is_traced(k)
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        for fit_file in in_dir.glob("fit_*.json"):
            shutil.copy(fit_file, out)
        if trace_now:
            install(tracer)
        return_codes = []
        t0 = time.perf_counter()
        for command in spec.commands:
            argv = command_argv(command, in_dir, out, seed, spec.replicates)
            try:
                if trace_now:
                    rc = tracer.call(f"cli.{command[0]}", cli.main, argv)
                else:
                    rc = cli.main(argv)
            except (Exception, SystemExit):  # a traceback is a failed operation
                traceback.print_exc()
                rc = -1
            return_codes.append(rc)
        walls["traced" if trace_now else "plain"].append(time.perf_counter() - t0)
        if trace_now:
            tracer.uninstall()
            tracer.trace_id += 1
        ops, fails, observed = check_iteration(
            [c[0] for c in spec.commands], return_codes, out, manifest,
            spec.replicates, reference)
        attempted += ops
        failures += fails
        # stop when another round (one sequence, or one pair when traced)
        # would overrun; a traced run ends only after a whole pair
        if traced and k % 2 == 0:
            continue
        per_round = statistics.median(w for ws in walls.values() for w in ws) * len(walls)
        if time.perf_counter() - started + per_round > seconds:
            break
    result = {
        "walls": walls,
        "attempted": attempted,
        "failures": failures,
        "observed": observed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(seed),
    }
    if tracer is not None:
        result["spans"] = tracer.to_json()
        result["probes"] = _probes(spec, work, manifest)
    return result


def main(argv: list[str]) -> int:
    from check import load_reference

    mode, work = argv[0], Path(argv[1])
    if mode == "setup":
        setup_probe(work)
        return 0
    workload, seed, seconds, result_path = argv[2], int(argv[3]), float(argv[4]), argv[5]
    if mode == "record":
        result = run_loop(workload, seed, 0.0, work, False, reference=None)
        if result["failures"]:
            raise RuntimeError(f"not recording failed outputs: {result['failures']}")
        payload = {"seed": seed, "observed": result["observed"]}
        Path(result_path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        return 0
    result = run_loop(workload, seed, seconds, work, traced=(mode == "traced"),
                      reference=load_reference(workload, seed))
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
