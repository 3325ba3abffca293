"""Re-record the reference outputs of the reference seed.

    python3 perfbench/record_reference.py [workload ...]

Run from the root of a checkout. Only re-record when an output change is
intended, and say so where the change is described: the references are
what later runs at the reference seed are compared with.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import REFERENCE_DIR  # noqa: E402
from gen import generate  # noqa: E402
from run import REFERENCE_SEED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(names: list[str]) -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in names or sorted(WORKLOADS):
        work = Path.cwd() / ".perfbench_work" / workload
        shutil.rmtree(work, ignore_errors=True)
        manifest = generate(workload, REFERENCE_SEED, work / "input")
        (work / "manifest.json").write_text(json.dumps(manifest))
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "record", str(work), workload,
             str(REFERENCE_SEED), "0", str(REFERENCE_DIR / f"{workload}.json")],
            check=True, stdout=subprocess.DEVNULL,
        )
        print(f"recorded {REFERENCE_DIR / workload}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
