"""Command-line interface: sweeps, scenario presets, lemma checks, validation.

Exit codes: 0 success, 2 configuration error (a ConfigError, or a
MemoryError from a run that does not fit in memory, raised on the
caller's thread or a worker thread), 3 numerical failure (any
ArithmeticError: a closed-form or Monte-Carlo cell that is nan or inf,
which names its column, the zero-forcing rejection cap, a lemma check out
of tolerance), 130 interrupted (Ctrl-C, a KeyboardInterrupt: the worker
threads stop before their next chunk).  main() maps the exception family
to the code and prints one line on stderr for it, never a traceback; the
verb handlers only raise.  A failed run writes no table, except a lemmas
run whose exact identity fails: it writes its CSV and both report lines
first, then exits 3.  A table that cannot be written exits 2 with one line
naming --out's file or stdout (full, closed or a broken pipe), and a failed
stderr write is dropped: it changes neither the table nor the exit code.
After a failed write its descriptor points at devnull, so the
interpreter's final flush cannot fail too.
A config file is only parsed (config.load_config).  validate-config runs
sweep's plan (sweep.plan_sweep: the one check of a sweep's axis, values
and precoders, then every point, closed form and channel-set memory gate)
and stops before the Monte Carlo.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import os
import sys
import time
from dataclasses import replace

from .config import ConfigError, load_config, numpy_random
from .sweep import PRESETS, plan_sweep, rows_to_csv, rows_to_jsonl, run_preset, run_sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INTERRUPTED = 130  # the shell's code for a process ended by SIGINT


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--realizations", type=int, help="Monte-Carlo realization count")
    parser.add_argument("--parallelism", type=int,
                        help="at most this many Monte-Carlo worker threads")
    parser.add_argument("--out", default="-", help="output path ('-' for stdout)")
    parser.add_argument("--format", default="csv", choices=("csv", "json-lines"))


@functools.cache  # one parser per process: main() may run many times
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnmimo",
        description="Massive-MIMO downlink SINR analytics and simulation "
                    "under oscillator phase noise")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run the sweep described by a config file")
    p_sweep.add_argument("config", help="INI config file with [system] and [sweep]")
    _add_common(p_sweep)

    p_preset = sub.add_parser("preset", help="run a named scenario preset")
    p_preset.add_argument("name", nargs="?", help="preset name (omit with --list)")
    p_preset.add_argument("--list", action="store_true", help="list presets and exit")
    _add_common(p_preset)

    p_lem = sub.add_parser("lemmas", help="run the random-matrix identity checks")
    p_lem.add_argument("--seed", type=int, default=0)
    p_lem.add_argument("--out", default="-")
    p_lem.add_argument("--sizes", default="64,128,256,512",
                       help="comma-separated matrix sizes")
    p_lem.add_argument("--trials", type=int, default=100)

    p_val = sub.add_parser("validate-config", help="check a config file and exit")
    p_val.add_argument("config")
    return parser


def _overrides(args) -> dict:
    """The SystemConfig fields that --seed, --realizations and --parallelism set."""
    names = {"seed": "master_seed", "realizations": "n_realizations",
             "parallelism": "parallelism"}
    return {field: getattr(args, flag) for flag, field in names.items()
            if getattr(args, flag) is not None}


def _check_out(out: str) -> None:
    """Reject an --out target that cannot be created, before any work runs."""
    if out == "-":
        return
    if not os.path.isdir(os.path.dirname(out) or "."):
        code = errno.ENOENT
    elif os.path.isdir(out):
        code = errno.EISDIR
    else:
        return
    raise ConfigError(f"--out: cannot write {out}: {os.strerror(code)}")


def _to_devnull(stream) -> None:
    """Point the file descriptor under a standard stream whose write failed
    at devnull, so that the interpreter's final flush of what the stream
    still buffers succeeds (a failed flush prints "Exception ignored" and
    exits 120).  Nothing is done for a stream without a descriptor."""
    with contextlib.suppress(AttributeError, ValueError, OSError):
        fd = stream.fileno()
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, fd)
        finally:
            os.close(devnull)


def _write(text: str, out: str) -> None:
    """The one output path of every verb: stdout for '-', else the file out.
    A stdout that is closed or fails raises ConfigError naming stdout."""
    if out == "-":
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except (AttributeError, ValueError, OSError) as exc:  # None, closed, failing
            _to_devnull(sys.stdout)
            reason = getattr(exc, "strerror", None) or "closed"
            raise ConfigError(f"--out: cannot write stdout: {reason}") from None
        return
    try:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"--out: cannot write {out}: {exc.strerror}") from None


def _report(line: str) -> None:
    """One line on stderr.  A stderr that is closed or fails drops it, so a
    report never changes the table or the exit code."""
    try:
        sys.stderr.write(line + "\n")
        sys.stderr.flush()
    except (AttributeError, ValueError, OSError):
        _to_devnull(sys.stderr)


def _emit(rows, args, started: float) -> None:
    _write(rows_to_csv(rows) if args.format == "csv" else rows_to_jsonl(rows), args.out)
    _report(f"{len(rows)} rows in {time.perf_counter() - started:.1f}s")


def _cmd_sweep(args) -> None:
    _check_out(args.out)
    config, axis, values = load_config(args.config)
    config = replace(config, **_overrides(args))
    started = time.perf_counter()
    _emit(run_sweep(config, axis, values), args, started)


def _cmd_preset(args) -> None:
    _check_out(args.out)
    if args.list:
        _write("".join(f"{p.name:8s} {p.note} [rate: {p.rate_kind}]\n"
                       for p in PRESETS.values()), args.out)
        return
    if not args.name:
        raise ConfigError("preset: name required (or use --list)")
    started = time.perf_counter()
    _emit(run_preset(args.name, **_overrides(args)), args, started)


def _cmd_lemmas(args) -> None:
    from . import lemmas  # loaded by this verb only
    _check_out(args.out)
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        raise ConfigError(f"sizes: expected comma-separated integers, "
                          f"got {args.sizes!r}") from None
    top = max(sizes)
    m_osc = top // 8 or 1
    if (len(sizes) < 2 or sizes[0] < 2 or top < 4 or top % m_osc
            or any(a >= b for a, b in zip(sizes, sizes[1:]))):
        raise ConfigError(f"sizes: need at least two strictly increasing sizes "
                          f">= 2, the largest >= 4 (it holds largest // 4 "
                          f"users) and a multiple of its oscillator count "
                          f"(largest // 8), got {args.sizes!r}")
    if args.trials < 1:
        raise ConfigError(f"trials: must be >= 1, got {args.trials}")
    lemmas.check_lab_size(sizes, args.trials, args.sizes)
    if args.seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {args.seed}")
    rng = numpy_random().default_rng(args.seed)
    exact_mi = lemmas.check_matrix_inversion_identity(64, rng)
    exact_res = lemmas.check_resolvent_identity(64, rng)
    records = [
        lemmas.check_trace_lemma(sizes, rng, n_trials=args.trials),
        lemmas.check_rank1_perturbation(sizes, rng, n_trials=args.trials),
        lemmas.check_free_probability_traces(sizes, rng, n_trials=args.trials),
    ]
    devs = lemmas.check_quadratic_form_identities(top, 0.9, rng,
                                                  n_trials=max(args.trials // 2, 10),
                                                  M_osc=m_osc)
    _write(lemmas.convergence_to_csv(records), args.out)
    _report(f"exact identities: matrix-inversion {exact_mi:.2e}, resolvent {exact_res:.2e}")
    _report(f"quadratic-form deviations at M={top}: {', '.join(f'{d:.3g}' for d in devs)}")
    if not (exact_mi <= 1e-10 and exact_res <= 1e-10):  # a NaN deviation fails too
        raise FloatingPointError(f"exact identity tolerance 1e-10 exceeded: matrix-inversion "
                                 f"{exact_mi:.2e}, resolvent {exact_res:.2e}")


def _cmd_validate(args) -> None:
    config, axis, values = load_config(args.config)
    # sweep's own plan: every point, closed form and channel-set memory gate
    plan_sweep(config, axis, values)
    _write(f"ok: M={config.M} K={config.K} M_osc={config.M_osc} "
           f"q0={config.q0} tau={config.tau} sweep={axis}[{len(values)}]\n", "-")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"sweep": _cmd_sweep, "preset": _cmd_preset,
                "lemmas": _cmd_lemmas, "validate-config": _cmd_validate}
    try:
        handlers[args.command](args)
    except ConfigError as exc:
        _report(f"configuration error: {exc}")
        return EXIT_CONFIG
    except MemoryError as exc:  # a buffer the gates did not count
        _report(f"configuration error: out of memory: {exc}")
        return EXIT_CONFIG
    except ArithmeticError as exc:  # a nan cell, the rejection cap, a lemma bound
        _report(f"numerical failure: {exc}")
        return EXIT_NUMERICAL
    except KeyboardInterrupt:
        _report("interrupted")
        return EXIT_INTERRUPTED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
