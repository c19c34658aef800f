"""The four benchmark workloads: the CLI invocations of one pass, the work a
pass represents, and the checks every pass's output must meet.

A pass is one full result table (or lemma report).  Every invocation goes
through ``pnmimo.cli.main(argv)`` in-process and writes its table to a file
in the run's temporary directory.  Sizes are chosen so that each workload
keeps the stage that dominates it at the library defaults (see README.md).
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Realizations per Monte-Carlo estimate.  mc_verify stays interpreter-bound
# (per-realization cost does not depend on n); mc_large stays BLAS-bound and
# is large enough that a stacked (n, K, M) batch would show in peak memory.
MC_VERIFY_REALIZATIONS = 100
MC_LARGE_REALIZATIONS = 500
# Sizes end at 512, where check_rank1_perturbation dominates as at the
# defaults; 8 trials keep it ahead of the 10-trial floor of the
# quadratic-form check.
LEMMA_SIZES = (64, 128, 256, 512)
LEMMA_TRIALS = 8
# The two exact identities run at M=64 with the library's 20 trials each.
LEMMA_EXACT_TRIALS = 2 * 20
EXACT_TOL = 1e-10
REFERENCE_RTOL = 1e-12

MC_VERIFY_PRESETS = ("fig2", "fig3", "fig4")
ANALYTIC_PRESETS = ("fig5", "fig6a", "fig6b", "fig6c", "fig6d", "fig7", "fig8", "lte")

MC_LARGE_INI = """\
[system]
M = 200
K = 40
M_osc = 5
q0 = 0.9
sigma_deg_bs = 6
sigma_deg_ue = 6
tau = 10
T_c = 100
snr_db = 0
n_realizations = {n}
master_seed = {seed}

[sweep]
axis = snr
values = 0 20
"""

_EXACT_LINE = re.compile(r"exact identities: matrix-inversion (\S+), resolvent (\S+)")


@dataclass
class Plan:
    """Everything one run of a workload needs, built from its seed."""

    workload: str
    tmp: Path
    invocations: list  # (label, argv); label.csv in tmp is the output
    generated: dict  # name -> text of each input file written under tmp
    work_name: str  # the workload's throughput metric, e.g. realizations_per_s
    realizations: int  # requested per Monte-Carlo row (0 if no Monte Carlo)
    lemma_trials: int  # lemma trials requested per pass (0 if no lemmas)
    exact_identities: bool  # check the lemma report's exact-identity line
    busy_layers: tuple  # modules that must record calls in a traced pass
    probe: str  # speed-probe kernel that matches the workload (speed.py)


MC_LAYERS = ("cli", "sweep", "analytics", "rmt", "rates", "linksim", "channel",
             "phase_noise", "precoding")

WORKLOADS = {
    "mc_verify": "fig2-fig4 Monte-Carlo presets, M=50 K=10: interpreter and "
                 "per-realization RNG bound, identical draws redone per SNR point",
    "mc_large": "generated M=200 K=40 sweep on 2 pool workers: BLAS and RNG "
                "bound, the only process-pool path",
    "analytic_presets": "the eight closed-form-only presets (290 rows): no "
                        "Monte Carlo, closed forms and CSV emission only",
    "lemma_lab": "pnmimo lemmas up to M=512: dense M x M inverses and products "
                 "in the lemma checks only",
}


def lemma_trials_requested(sizes, trials: int) -> int:
    """Trials the `lemmas` verb requests: three convergence checks per size,
    the quadratic-form check at the largest size, and the exact identities."""
    return 3 * trials * len(sizes) + max(trials // 2, 10) + LEMMA_EXACT_TRIALS


def build_plan(workload: str, seed: int, tmp: Path, toy: bool,
               parallelism: int) -> Plan:
    """The invocations of one pass; writes any generated input under tmp."""
    s = str(seed)
    if workload == "mc_verify":
        n = 10 if toy else MC_VERIFY_REALIZATIONS
        inv = [(p, ["preset", p, "--seed", s, "--realizations", str(n),
                    "--out", str(tmp / f"{p}.csv")]) for p in MC_VERIFY_PRESETS]
        return Plan(workload, tmp, inv, {}, "realizations_per_s", n, 0, False,
                    MC_LAYERS, "interpreter")
    if workload == "mc_large":
        n = 20 if toy else MC_LARGE_REALIZATIONS
        ini = tmp / "mc_large.ini"
        text = MC_LARGE_INI.format(n=n, seed=seed)
        ini.write_text(text)
        inv = [("mc_large", ["sweep", str(ini), "--parallelism", str(parallelism),
                             "--out", str(tmp / "mc_large.csv")])]
        return Plan(workload, tmp, inv, {ini.name: text}, "realizations_per_s", n,
                    0, False, MC_LAYERS, "blas")
    if workload == "analytic_presets":
        inv = [(p, ["preset", p, "--seed", s, "--out", str(tmp / f"{p}.csv")])
               for p in ANALYTIC_PRESETS]
        return Plan(workload, tmp, inv, {}, "rows_per_s", 0, 0, False,
                    ("cli", "sweep", "analytics", "rmt", "rates"), "interpreter")
    if workload == "lemma_lab":
        sizes, trials = ((16, 32), 2) if toy else (LEMMA_SIZES, LEMMA_TRIALS)
        inv = [("lemmas", ["lemmas", "--seed", s, "--sizes",
                           ",".join(map(str, sizes)), "--trials", str(trials),
                           "--out", str(tmp / "lemmas.csv")])]
        return Plan(workload, tmp, inv, {}, "lemma_trials_per_s", 0,
                    lemma_trials_requested(sizes, trials), True, ("cli", "lemmas"),
                    "blas")
    raise ValueError(f"unknown workload {workload!r}; have {sorted(WORKLOADS)}")


def parse_table(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def work_per_pass(plan: Plan, tables: dict) -> int:
    """Units of work in one pass, counted from the output tables.

    Monte-Carlo workloads count rows that carry an empirical SINR times the
    realizations requested per row, so a change that stops redrawing shared
    streams reads as more work per second.
    """
    if plan.work_name == "realizations_per_s":
        rows = sum(1 for t in tables.values() for r in parse_table(t)
                   if r.get("empirical_sinr"))
        return rows * plan.realizations
    if plan.work_name == "rows_per_s":
        return sum(len(parse_table(t)) for t in tables.values())
    return plan.lemma_trials


def check_tables(plan: Plan, tables: dict, stderr: str) -> list[str]:
    """Problems with one pass's output: empty tables, non-finite floats and,
    for the lemma report, exact identities above EXACT_TOL."""
    problems = []
    for label, text in tables.items():
        rows = parse_table(text)
        if not rows:
            problems.append(f"{label}: empty table")
        for i, row in enumerate(rows):
            for col, cell in row.items():
                v = _float(cell) if cell else None
                if v is not None and not math.isfinite(v):
                    problems.append(f"{label}: row {i} column {col} is {cell}")
    if plan.exact_identities:
        m = _EXACT_LINE.search(stderr)
        if m is None:
            problems.append("lemmas: no exact-identity line on stderr")
        else:
            worst = max(float(m.group(1)), float(m.group(2)))
            if not worst <= EXACT_TOL:
                problems.append(f"lemmas: exact identity deviation {worst:g} > {EXACT_TOL:g}")
    return problems


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}.json.gz"


def load_reference(workload: str, seed: int):
    """(signature, tables) stored for this seed, or None."""
    path = reference_path(workload, seed)
    if not path.exists():
        return None
    with gzip.open(path, "rt") as fh:
        ref = json.load(fh)
    return ref["signature"], ref["tables"]


def signature(plan: Plan) -> dict:
    """The invocations, with the run's temporary directory masked, and the
    generated inputs: a reference applies only to identical inputs.

    The parallelism argument is masked too, because the table must not
    depend on it.
    """
    argv = [[a.replace(str(plan.tmp), "<tmp>") for a in av]
            for _, av in plan.invocations]
    for av in argv:
        if "--parallelism" in av:
            av[av.index("--parallelism") + 1] = "<any>"
    return {"argv": argv, "generated": plan.generated}


def compare_to_reference(tables: dict, ref_tables: dict) -> list[str]:
    """Floats within REFERENCE_RTOL relative, every other cell exactly equal."""
    problems = []
    if sorted(tables) != sorted(ref_tables):
        return [f"tables {sorted(tables)} != reference {sorted(ref_tables)}"]
    for label in tables:
        got = list(csv.reader(io.StringIO(tables[label])))
        want = list(csv.reader(io.StringIO(ref_tables[label])))
        if len(got) != len(want):
            problems.append(f"{label}: {len(got)} lines, reference has {len(want)}")
            continue
        for i, (g_row, w_row) in enumerate(zip(got, want)):
            if len(g_row) != len(w_row):
                problems.append(f"{label}: line {i} has {len(g_row)} cells, "
                                f"reference {len(w_row)}")
                continue
            for g, w in zip(g_row, w_row):
                if g == w:
                    continue
                gf, wf = _float(g), _float(w)
                if gf is None or wf is None or not (
                        abs(gf - wf) <= REFERENCE_RTOL * max(abs(gf), abs(wf))):
                    problems.append(f"{label}: line {i}: {g!r} != reference {w!r}")
    return problems
