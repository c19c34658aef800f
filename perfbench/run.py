"""pnmimo benchmark: one workload, measured end to end or traced per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload mc_verify --seed 1 --seconds 20 --trace 0

Workloads: mc_verify, mc_large, analytic_presets, lemma_lab (see README.md).
The package is imported from ./src.  Set-up is timed in fresh interpreters,
then one fresh worker process (worker.py) runs passes for ``--seconds`` and
checks every table.  Human-readable lines go to stdout first; the last line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A record of the run, with its environment, is written to
``.perfbench/records/`` and a traced run's spans to ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
from layers import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "throughput_per_s": "1/s"}


def _worker_cmd(args, tmp: Path, *extra: str) -> list[str]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", str(tmp), *extra]
    return cmd + (["--toy"] if args.toy else [])


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # String hashing decides dict layout; a fixed seed removes one source of
    # run-to-run variation in interpreter-bound passes.
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(cmd: list[str], env: dict, timeout: float) -> None:
    done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"{Path(cmd[1]).name} exited {done.returncode}:\n"
                           f"{done.stderr.strip()[-2000:]}")


def _spread(values: list[float]) -> str:
    return (f"median {statistics.median(values):.6g} of {len(values)}, "
            f"min {min(values):.6g}, max {max(values):.6g}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="pnmimo benchmark (one workload)")
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="toy sizes and one set-up repeat, for the self-test")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    if not (ROOT / "src" / "pnmimo" / "cli.py").is_file():
        print(f"error: no pnmimo sources under {ROOT / 'src'}; run from a source "
              "checkout", file=sys.stderr)
        return 2

    out = ROOT / ".perfbench"
    for sub in ("records", "traces"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = _child_env()
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out))
    try:
        setup = []
        for _ in range(1 if args.toy else SETUP_REPEATS):
            t0 = time.perf_counter()
            _run_child(_worker_cmd(args, tmp, "--setup-only"), env, 120)
            setup.append(time.perf_counter() - t0)
        result_path = tmp / "result.json"
        _run_child(_worker_cmd(args, tmp, "--result", str(result_path),
                               "--spans", str(out / "traces" / f"{tag}.npz")),
                   env, WORKER_TIMEOUT_S)
        res = json.loads(result_path.read_text())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    walls, cpus = res["walls_s"], res["cpus_s"]
    problems = list(res["problems"])
    work_name = res["work_name"]
    print(f"pnmimo benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {len(walls)} timed passes after one warm-up pass")
    print(f"  environment: {json.dumps(res['environment'])}")
    print(f"  reference table for this seed: "
          f"{'checked' if res['reference_checked'] else 'none stored'}")
    if args.trace == 0:
        # Pass times are scaled to the reference machine speed (speed.py);
        # the raw medians are printed beside them and kept in the record.
        # Set-up runs in other processes before the probe and stays raw.
        scaled_walls = [w * k for w, k in zip(walls, res["scales"])]
        scaled_cpus = [c * k for c, k in zip(cpus, res["scales"])]
        wall = statistics.median(scaled_walls)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "cpu_s": statistics.median(scaled_cpus),
            "peak_rss_mb": (res["peak_rss_kb_self"] + res["peak_rss_kb_children"])
            * 1024 / 1e6,
            "throughput_per_s": res["work_per_pass"] / wall,
        }
        notes = {"setup_s": f"{_spread(setup)} fresh interpreters",
                 "wall_s": f"raw {_spread(walls)} passes",
                 "cpu_s": f"raw {_spread(cpus)} passes, pool children included",
                 "peak_rss_mb": f"worker {res['peak_rss_kb_self']} KiB + largest "
                                f"pool child {res['peak_rss_kb_children']} KiB",
                 "throughput_per_s": f"= {work_name}, {res['work_per_pass']} per pass"}
        units = END_TO_END_UNITS
        named = {work_name: (metrics["throughput_per_s"], "1/s"),
                 "error_rate": (res["failed"] / res["attempted"], "ratio")}
    else:
        metrics = res["per_layer"]
        units = PER_LAYER_UNITS
        notes = {"trace.overhead_ratio": f"median of {len(walls)} adjacent traced / "
                                         "untraced pass pairs"}
        named = {}
        if args.workload == "mc_large":
            print("  traced and untraced passes use --parallelism 1: spans in "
                  "forked pool workers would be lost")
        if res["absent"]:
            print(f"  absent functions (reported as 0): {', '.join(res['absent'])}")
        for layer in res["idle_layers"]:
            problems.append(f"layer {layer} recorded no calls in the traced passes")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6g} {units[name]:8s} {notes.get(name, '')}")
    for name, (value, unit) in named.items():
        print(f"  {name:48s} {value:14.6g} {unit:8s}")
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")
    correct = not problems and res["failed"] == 0
    reported = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "toy": args.toy, "setup_s": setup,
              "correct": correct, "problems": problems, **res, "metrics": reported}
    (out / "records" / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
