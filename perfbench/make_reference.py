"""Store reference tables for the benchmark's output check.

    python3 perfbench/make_reference.py --seeds 1-10 [--workloads mc_verify,...]

Runs one pass of each workload per seed at benchmark size and writes
``reference/<workload>-seed<N>.json.gz`` with the inputs' signature and the
tables.  A benchmark run whose inputs match a stored signature then requires
its tables to match within 1e-12 relative (floats) and exactly (all else).
Regenerate only when a change is meant to alter the result tables.
"""

from __future__ import annotations

import argparse
import gzip
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import worker  # noqa: E402  (sets one BLAS thread before numpy loads)
import workloads  # noqa: E402


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,7")
    p.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    args = p.parse_args(argv)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    for name in args.workloads.split(","):
        for seed in _seeds(args.seeds):
            tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=scratch))
            try:
                plan = workloads.build_plan(name, seed, tmp, toy=False, parallelism=2)
                checker = worker.Checker(plan, seed)
                checker.reference = None
                _, _, tables = worker.run_pass(plan, checker)
                if checker.failed:
                    print(f"{name} seed {seed}: {checker.problems}", file=sys.stderr)
                    return 1
                path = workloads.reference_path(name, seed)
                data = json.dumps({"signature": workloads.signature(plan),
                                   "tables": tables}).encode()
                path.write_bytes(gzip.compress(data, mtime=0))
                print(f"wrote {path.relative_to(ROOT)}")
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
