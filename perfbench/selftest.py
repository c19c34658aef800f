"""Toy-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced at toy sizes and checks
that the result line carries exactly the metrics BENCHMARK.json registers,
with their units, that the human-readable lines name each workload's
throughput metric and error_rate, and that the benchmark refuses to run
(nonzero exit, no result line) where there are no pnmimo sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER_UNITS  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAMED = {"mc_verify": "realizations_per_s", "mc_large": "realizations_per_s",
         "analytic_presets": "rows_per_s", "lemma_lab": "lemma_trials_per_s"}


def _run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    registered = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                  1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    if registered[0] != END_TO_END_UNITS:
        errors.append(f"BENCHMARK.json end_to_end {registered[0]} != run.py {END_TO_END_UNITS}")
    if registered[1] != PER_LAYER_UNITS:
        errors.append("BENCHMARK.json per_layer differs from layers.PER_LAYER_UNITS")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from run.py")
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = _run(ROOT, workload, trace)
            where = f"{workload} trace {trace}"
            if done.returncode != 0:
                errors.append(f"{where}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                errors.append(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 \
                    or result["attempted"] < 1:
                errors.append(f"{where}: correct={result['correct']} "
                              f"attempted={result['attempted']} failed={result['failed']}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != registered[trace]:
                errors.append(f"{where}: metrics {units} != registered")
            if trace == 0:
                for name in (NAMED[workload], "error_rate"):
                    if not any(line.split()[:1] == [name] for line in lines[:-1]):
                        errors.append(f"{where}: no {name} line")
            print(f"{where}: ok" if not errors else f"{where}: {len(errors)} errors so far")
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(bare, "analytic_presets", 0)
        if done.returncode == 0 or done.stdout.strip():
            errors.append("benchmark ran without pnmimo sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    for e in errors:
        print("FAIL:", e)
    print("selftest:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
