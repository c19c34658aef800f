"""The measured process of one benchmark run.

run.py starts this script in a fresh interpreter per workload, so that
``ru_maxrss`` covers this workload alone.  With ``--setup-only`` it imports
pnmimo, numpy and scipy, builds the workload's inputs and exits; run.py
times that as set-up.  Otherwise it runs passes until ``--seconds`` have
elapsed and writes what it measured to ``--result`` as JSON.

Every pass calls ``pnmimo.cli.main(argv)`` in-process for each invocation of
the workload, then checks the tables it wrote: exit code 0, no nan/inf,
the same bytes as the run's first pass, the stored reference for this seed
when there is one, and for the lemma report the exact identities.
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402,F401
from pnmimo import cli  # noqa: E402

import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Checker:
    """Output checks of every pass; counts failed invocations."""

    def __init__(self, plan: workloads.Plan, seed: int):
        self.plan = plan
        self.first: dict = {}
        self.verdict: dict = {}  # label -> problems found on the first pass
        self.reference = None
        ref = workloads.load_reference(plan.workload, seed)
        if ref is not None and ref[0] == workloads.signature(plan):
            self.reference = ref[1]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def invocation(self, label: str, rc, error, stderr: str):
        """Check one invocation; returns its table text or None."""
        self.attempted += 1
        problems = []
        text = None
        if error is not None:
            problems.append(f"{label}: {error}")
        elif rc != 0:
            problems.append(f"{label}: exit code {rc}: {stderr.strip()[-300:]}")
        else:
            text = (self.plan.tmp / f"{label}.csv").read_text()
            if label not in self.first:
                self.first[label] = text
                found = workloads.check_tables(self.plan, {label: text}, stderr)
                if self.reference is not None:
                    found += workloads.compare_to_reference(
                        {label: text}, {label: self.reference.get(label, "")})
                self.verdict[label] = found
                problems += found
            elif text != self.first[label]:
                problems.append(f"{label}: table differs from the run's first pass")
            else:
                problems += self.verdict[label]
                if self.plan.exact_identities:
                    problems += workloads.check_tables(self.plan, {}, stderr)
        if problems:
            self.failed += 1
            for problem in problems:
                if problem not in self.problems and len(self.problems) < 20:
                    self.problems.append(problem)
        return text


def run_pass(plan: workloads.Plan, checker: Checker) -> tuple[float, float, dict]:
    """One full result table; returns (wall s, cpu s, tables)."""
    outcomes = []
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    for label, argv in plan.invocations:
        err = io.StringIO()
        rc, error = None, None
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a traceback is a failed invocation, not a crash
            error = f"{type(exc).__name__}: {exc}"
        outcomes.append((label, rc, error, err.getvalue()))
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    tables = {}
    for label, rc, error, stderr in outcomes:
        text = checker.invocation(label, rc, error, stderr)
        if text is not None:
            tables[label] = text
    return wall, cpu, tables


def run_until(plan, checker, probe: SpeedProbe, deadline: float) -> tuple:
    """Timed passes, with speed-probe samples between them, until the next
    pass would end well past the deadline; always at least one.

    Returns (walls, cpus, probe sample index before each pass, tables of
    the last pass).
    """
    walls, cpus, before = [], [], []
    while True:
        before.append(probe.sample())
        wall, cpu, tables = run_pass(plan, checker)
        walls.append(wall)
        cpus.append(cpu)
        if time.perf_counter() + wall / 2 >= deadline:
            probe.sample(force=True)
            return walls, cpus, before, tables


def _openblas() -> list[dict]:
    """Config string and thread count of every OpenBLAS this process loaded."""
    paths = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in Path(path).name and ".so" in path:
                paths.add(path)
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    entry.update(config=config().decode(), threads=threads())
        found.append(entry)
    return found


def environment(root: Path, seed: int) -> dict:
    """What produced this run: machine, interpreter, libraries, code, seed."""
    import pnmimo
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = {}
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        got = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = got.stdout.strip() or "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pnmimo": getattr(pnmimo, "__version__", "unknown"),
        "pnmimo_path": os.path.relpath(Path(pnmimo.__file__).parent, root),
        "numpy_blas_build": blas,
        "openblas_runtime": _openblas(),
        "blas_thread_env": {v: os.environ.get(v) for v in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "seed": seed,
    }


def measure(args, plan: workloads.Plan, root: Path) -> dict:
    checker = Checker(plan, args.seed)
    start = time.perf_counter()
    warmup, _, tables = run_pass(plan, checker)
    result = {"reference_checked": checker.reference is not None,
              "warmup_wall_s": warmup}
    if not args.trace:
        probe = SpeedProbe(plan.probe)
        walls, cpus, before, tables = run_until(plan, checker, probe,
                                                start + args.seconds)
        result.update(scales=[probe.scale(k) for k in before], probe=plan.probe,
                      probe_before=before, probe_samples_s=probe.samples)
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result.update(peak_rss_kb_self=own, peak_rss_kb_children=kids)
    else:
        import layers
        from tracer import Tracer
        records = layers.CallRecords()
        tracer = Tracer(records.hooks())
        walls, cpus, traced = [], [], []
        # Untraced and traced passes alternate, so both see the same machine
        # conditions and their ratio measures the tracing alone.
        while True:
            wall, cpu, _ = run_pass(plan, checker)
            walls.append(wall)
            cpus.append(cpu)
            tracer.install()
            try:
                traced_wall, _, tables = run_pass(plan, checker)
            finally:
                tracer.uninstall()
            traced.append(traced_wall)
            records.pass_index += 1
            if time.perf_counter() + (wall + traced_wall) / 2 >= start + args.seconds:
                break
        tracer.dump(args.spans)
        summary = tracer.summary()
        overhead = statistics.median(t / u for t, u in zip(traced, walls))
        result["per_layer"] = layers.per_layer(summary, records, tables, len(traced),
                                               overhead)
        result["span_summary"] = summary
        result["absent"] = tracer.absent
        result["traced_walls_s"] = traced
        idle = [layer for layer in plan.busy_layers
                if any(q.startswith(layer + ".") for q in tracer.present)
                and not any(summary[q]["calls"] for q in tracer.present
                            if q.startswith(layer + "."))]
        result["idle_layers"] = idle
    result.update(walls_s=walls, cpus_s=cpus, work_name=plan.work_name,
                  attempted=checker.attempted,
                  failed=checker.failed, problems=checker.problems,
                  work_per_pass=workloads.work_per_pass(plan, tables) if tables else 0,
                  environment=environment(root, args.seed))
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true")
    p.add_argument("--tmp", required=True, help="directory for inputs and tables")
    p.add_argument("--result", help="where to write the measurement JSON")
    p.add_argument("--spans", help="where to write the spans of a traced run")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    # Spans in forked pool workers are lost, so the traced mc_large run and
    # its untraced baseline both use one process.
    parallelism = 1 if args.trace else 2
    plan = workloads.build_plan(args.workload, args.seed, Path(args.tmp), args.toy,
                                parallelism)
    if args.setup_only:
        return 0
    result = measure(args, plan, root)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
