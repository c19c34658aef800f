"""Scenario configuration: the SystemConfig record, its derived values and
its file format.

Config files are flat INI text with a [system] section of key = value pairs
and a [sweep] section naming the axis and its values; both are required.
SystemConfig derives its scenario scalars once, from the formulas here:
the phase increment variances (deg_to_var), E|T_PN|^2
(t_pn_second_moment), through which phase noise reaches every closed form
as q_eff = q0 E|T_PN|^2, and the SINR-maximizing RZF regularizer
(optimal_alpha).  Every other pnmimo module reads this one, and it imports
none of them.  The numpy work of a derivation (the power profile with its
pairwise sum, and np.exp of E|T_PN|^2) is memoized per distinct input, so
a sweep point whose inputs were seen before is derived on Python floats
alone, with the same bits.

The memory gate (check_buffer) lives here beside ConfigError, its error type,
and so does the other limit of the machine that pnmimo heeds: the BLAS
thread count its own work runs at (blas_threads), with the worker threads
that run it (workers).  The count is the process's, so blas_threads holds
it at one for all its callers together: threads that call pnmimo at once
(two run_sweep calls, a sweep beside a lemma check) get the bits of serial
calls.  numpy.random, which the Monte-Carlo kernel and the lemmas verb
need, loads on first use through numpy_random.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import os
import sys
import threading
from dataclasses import dataclass, fields

import numpy as np

__all__ = ["ConfigError", "SystemConfig", "load_config", "check_buffer", "blas_threads",
           "workers", "numpy_random", "deg_to_var", "t_pn_second_moment", "optimal_alpha"]


class ConfigError(ValueError):
    """Configuration rejected; message names the offending field."""


@functools.cache
def _memory_limit() -> int:
    """The machine's physical memory in bytes where the OS reports it, and
    never more than numpy can index (sys.maxsize, the largest np.intp).
    Read once per process."""
    limit = sys.maxsize
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return limit
    return min(limit, pages * size) if pages > 0 and size > 0 else limit


@functools.cache
def _openblas():
    """The (get, set) thread-count functions of the OpenBLAS numpy links,
    or None where numpy links another BLAS.  A symbol looked up through
    numpy's core extension module is searched for in the libraries that
    module links, so the library's file name is never needed.  Found once
    per process."""
    import ctypes  # numpy has imported it already
    core = (sys.modules.get("numpy._core._multiarray_umath")
            or sys.modules.get("numpy.core._multiarray_umath"))  # numpy 1.x
    try:
        lib = ctypes.CDLL(core.__file__)
    except (AttributeError, OSError):  # no such module, or it cannot be opened
        return None
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


# blas_threads' budget: the callers inside it, and the thread count that
# the first of them found
_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved = 1


@contextlib.contextmanager
def blas_threads():
    """numpy's OpenBLAS at one thread for the body of a with statement.

    The count is process-wide, so one module lock and depth count hold it
    for every caller at once, nested or on other threads: the first entry
    saves the count and sets 1, later entries only count, and the last
    exit restores the saved count, whether or not a body raises.  So a
    table never depends on how concurrent callers interleave.  It does
    nothing where no OpenBLAS is found, and makes no set call where the
    count is already 1 (a set call makes OpenBLAS re-create its threads).
    """
    global _blas_depth, _blas_saved
    blas = _openblas()
    with _blas_lock:
        if not _blas_depth and blas is not None:
            _blas_saved = blas[0]()
            if _blas_saved > 1:
                blas[1](1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if not _blas_depth and blas is not None and _blas_saved > 1:
                blas[1](_blas_saved)


@contextlib.contextmanager
def workers(n: int):
    """A pool of n worker threads for the body of a with statement, with
    numpy's OpenBLAS at one thread (blas_threads), so that every thread's
    BLAS work gives the bits of a serial run at one thread.  The threads are
    joined when the block exits, and the count is restored once no other
    caller is inside blas_threads.  The thread pool's module loads on first
    use."""
    from concurrent.futures.thread import ThreadPoolExecutor
    with blas_threads(), ThreadPoolExecutor(max_workers=n) as pool:
        yield pool


@functools.cache
def numpy_random():
    """The numpy.random module, imported on first use by a helper thread
    while the caller waits in join().  A SIGINT that lands during the
    import then raises KeyboardInterrupt in the caller, at or just after
    the join; on the main thread the import itself can swallow it, and the
    run would go on to the end.  Loaded lazily, so that importing pnmimo
    does not load numpy.random."""
    loader = threading.Thread(target=importlib.import_module, args=("numpy.random",))
    loader.start()
    loader.join()
    return importlib.import_module("numpy.random")  # the loader's error, if it failed


def check_buffer(name: str, value, nbytes: int) -> None:
    """Raise ConfigError naming the field `name` when buffers of nbytes
    cannot be allocated: more than physical memory or numpy's index range."""
    limit = _memory_limit()
    if nbytes > limit:
        raise ConfigError(f"{name}: the buffers need {nbytes} bytes, more than "
                          f"the {limit} bytes available, got {name} = {value}")


def _power_profile(K: int, powers) -> tuple:
    """(shape, entries, p_sum) of a powers field at K users: the shape of
    its float64 array, its entries as a tuple of floats (empty where the
    shape is not (K,)) and their sum, nan where an entry is < 0.  The sum
    is numpy's pairwise sum, whose bits the closed forms read, and inf
    where it overflows; numpy would report that overflow (a RuntimeWarning,
    or a FloatingPointError under a sweep plan's raise mode), so it is
    muted, which changes no value.  A NaN entry makes the sum NaN, where
    min may pass over it, and an inf entry makes it inf."""
    p = np.full(K, 1.0 / K) if isinstance(powers, str) else np.array(powers, dtype=float)
    if p.shape != (K,):
        return p.shape, (), math.nan
    entries = tuple(p.tolist())
    with np.errstate(over="ignore"):
        return p.shape, entries, float(p.sum()) if min(entries) >= 0 else math.nan


# the power profiles of "equal" and of tuples of floats at up to
# _MEMO_USERS users are memoized, 16 at most, so the memo holds at most
# 16 * 2 * 32 * _MEMO_USERS bytes of tuples (1 MiB)
_MEMO_USERS = 1024
_memo_power_profile = functools.lru_cache(maxsize=16)(_power_profile)


def deg_to_var(sigma_deg: float) -> float:
    """Per-symbol increment variance (rad^2) from a std dev given in degrees,
    inf where the square overflows.  The same bits as
    float(np.deg2rad(sigma_deg) ** 2): both scale by pi/180 and square with
    the C library's pow, but on a Python float, without numpy's scalar
    dispatch or its overflow report."""
    try:
        return math.radians(sigma_deg) ** 2
    except OverflowError:
        return math.inf


def t_pn_second_moment(M_osc: int, tau: int, sigma2_bs: float) -> float:
    """Second moment of T_PN over phase draws.

    T_PN = (1/M) sum_m exp(j * BS phase drift over tau symbols at antenna m).
    E|T_PN|^2 = (1 - e^{-tau*sigma2}) / M_osc + e^{-tau*sigma2}; equals 1 for a common
    oscillator and decreases to e^{-tau*sigma2} as M_osc grows.
    """
    e = _exp(-tau * sigma2_bs)
    return (1.0 - e) / M_osc + e


@functools.lru_cache(maxsize=256)
def _exp(x: float) -> float:
    """float(np.exp(x)), memoized: a sweep's points share few exponents.
    np.exp, since math.exp's bits differ."""
    return float(np.exp(x))


def optimal_alpha(q0: float, e_tpn2: float, sigma_w2: float, beta: float) -> float:
    """SINR-maximizing regularization for the RZF precoder.

    alpha = (sigma_w^2 + 1 - E|T|^2 q0^2) / (E|T|^2 q0^2 beta).
    """
    q = e_tpn2 * q0 * q0
    return (sigma_w2 + 1.0 - q) / (q * beta)


@dataclass(frozen=True)
class SystemConfig:
    """All parameters of one simulation scenario.

    Exactly one of snr_db / sigma_w2 is the noise handle: when snr_db is
    set, sigma_w2 is derived as p_k / snr_linear for the observed UE.

    alpha is the RZF regularizer: None selects the SINR-maximizing value,
    and a set alpha (> 0) is used as is.  powers is stored as a tuple of
    floats; a tuple of floats is kept as given.  Every float field that is set must be finite, and so must tau
    sigma^2 and the noise variance sigma_w2, which must also be > 0.
    n_realizations >= 2, so every Monte-Carlo row has a finite standard
    error.  K is gated on memory (check_buffer) before any per-user data is
    built.  An unset alpha's optimum must be finite and > 0: it divides by
    q0^2 E|T_PN|^2, so q0 = 0 or an underflowing q0^2 needs an explicit alpha.

    The derived values are computed once, here, as plain attributes: beta =
    M/K, sigma_w2, the BS and UE phase increment variances sigma2_bs and
    sigma2_ue (rad^2 per symbol), p_k, p_sum, e_tpn2 = E|T_PN|^2, q_eff =
    q0 * e_tpn2 and rzf_alpha, the configured alpha or else its optimum.

    A SystemConfig is a value: every field, powers included, is a plain
    immutable value, so the dataclass's == and hash compare by value and a
    dataclasses.replace copy equals the original.
    """

    M: int = 50
    K: int = 10
    M_osc: int = 1
    q0: float = 0.9
    sigma_deg_bs: float = 6.0
    sigma_deg_ue: float = 6.0
    tau: int = 10
    T_c: int = 100
    snr_db: float | None = 10.0
    sigma_w2_value: float | None = None
    powers: tuple[float, ...] | str = "equal"
    alpha: float | None = None
    ue_index: int = 0
    n_realizations: int = 2000
    master_seed: int = 12345
    parallelism: int = 1

    def __post_init__(self):
        # range checks on the sizes come before any arithmetic on them
        if self.M < 1:
            raise ConfigError(f"M: must be >= 1, got {self.M}")
        if not 1 <= self.K <= self.M:
            raise ConfigError(f"K: need 1 <= K <= M, got K={self.K}, M={self.M}")
        if not 1 <= self.M_osc <= self.M or self.M % self.M_osc != 0:
            raise ConfigError(f"M_osc: must divide M with 1 <= M_osc <= M, "
                              f"got M_osc={self.M_osc}, M={self.M}")
        # per user, this scenario's transient float64 array, float objects
        # and list and tuple pointers (48 B), and the 32 B of floats and
        # pointers in the powers tuple of the scenario a sweep point is
        # built from; tests/test_config.py checks it against tracemalloc
        check_buffer("K", self.K, 80 * self.K + 8192)
        powers = self.powers
        if isinstance(powers, str) and powers != "equal":
            raise ConfigError(f"powers: unknown keyword {powers!r}")
        # an ndarray, a list or a tuple of other entries is derived afresh;
        # a tuple of floats keeps its own entries, since the memo's equal key
        # may hold -0.0 where it holds 0.0
        floats = type(powers) is tuple and set(map(type, powers)) == {float}
        derive = (_memo_power_profile if self.K <= _MEMO_USERS
                  and (floats or isinstance(powers, str)) else _power_profile)
        shape, entries, p_sum = derive(self.K, powers)
        for name, value in (("q0", self.q0), ("sigma_deg_bs", self.sigma_deg_bs),
                            ("sigma_deg_ue", self.sigma_deg_ue), ("snr_db", self.snr_db),
                            ("sigma_w2", self.sigma_w2_value), ("alpha", self.alpha)):
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name}: must be finite, got {value}")
        if not 0.0 <= self.q0 <= 1.0:
            raise ConfigError(f"q0: must be in [0, 1], got {self.q0}")
        if not 1 <= self.tau <= self.T_c:
            raise ConfigError(f"tau: need 1 <= tau <= T_c = {self.T_c}, got {self.tau}")
        if (self.snr_db is None) == (self.sigma_w2_value is None):
            raise ConfigError("snr_db/sigma_w2: set exactly one noise handle")
        # a variance whose square overflows is inf, rejected here
        sigma2_bs, sigma2_ue = deg_to_var(self.sigma_deg_bs), deg_to_var(self.sigma_deg_ue)
        for name, deg, var in (("sigma_deg_bs", self.sigma_deg_bs, sigma2_bs),
                               ("sigma_deg_ue", self.sigma_deg_ue, sigma2_ue)):
            if deg < 0 or not math.isfinite(self.tau * var):
                raise ConfigError(f"{name}: need >= 0 and tau * sigma^2 < inf, got {deg}")
        if shape != (self.K,):
            raise ConfigError(f"powers: shape {shape}, expected ({self.K},)")
        if not floats:
            powers = entries
        if not 0 < p_sum < math.inf:
            raise ConfigError("powers: need entries >= 0 with a finite positive sum")
        if self.alpha is not None and self.alpha <= 0:
            raise ConfigError(f"alpha: must be > 0, got {self.alpha}")
        if not 0 <= self.ue_index < self.K:
            raise ConfigError(f"ue_index: out of range for K={self.K}")
        p_k = powers[self.ue_index]
        try:
            sigma_w2 = (self.sigma_w2_value if self.snr_db is None
                        else p_k / 10.0 ** (self.snr_db / 10.0))
        except ArithmeticError:  # 10^(snr_db/10) overflows, or underflows to 0
            sigma_w2 = math.nan
        if not 0.0 < sigma_w2 < math.inf:
            handle = (f"sigma_w2 = {self.sigma_w2_value}" if self.snr_db is None
                      else f"snr_db = {self.snr_db}")
            raise ConfigError(f"sigma_w2: the noise variance must be finite and > 0, "
                              f"got {handle}")
        beta = self.M / self.K
        e_tpn2 = t_pn_second_moment(self.M_osc, self.tau, sigma2_bs)
        alpha = self.alpha
        if alpha is None:
            try:
                alpha = optimal_alpha(self.q0, e_tpn2, sigma_w2, beta)
            except ArithmeticError:  # q0^2 E|T_PN|^2 underflows to 0
                alpha = math.nan
            if not 0.0 < alpha < math.inf:
                raise ConfigError(f"q0: optimal alpha is {alpha}; set an explicit alpha")
        if self.n_realizations < 2:
            raise ConfigError(f"n_realizations: must be >= 2 for a standard error, "
                              f"got {self.n_realizations}")
        if self.parallelism < 1:
            raise ConfigError(f"parallelism: must be >= 1, got {self.parallelism}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed: must be >= 0, got {self.master_seed}")
        # the powers tuple, then the derived values as plain attributes, not
        # fields, so that equality, replace() and the Monte-Carlo draw key ignore them
        self.__dict__.update(powers=powers, beta=beta, sigma_w2=sigma_w2,
                             sigma2_bs=sigma2_bs, sigma2_ue=sigma2_ue, p_k=p_k, p_sum=p_sum,
                             e_tpn2=e_tpn2, q_eff=self.q0 * e_tpn2, rzf_alpha=alpha)


# INI key -> SystemConfig field: each field's own name, but sigma_w2 sets
# sigma_w2_value.  An int field parses as int, any other as float (the
# annotations are strings under postponed evaluation); powers also takes "equal".
_FIELDS = {"sigma_w2" if f.name == "sigma_w2_value" else f.name: f
           for f in fields(SystemConfig)}


def _number(key: str, raw: str, kind: type):
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected {kind.__name__}, got {raw!r}") from None


def _parse_system(items: dict[str, str]) -> SystemConfig:
    kwargs: dict = {}
    for key, raw in items.items():
        field = _FIELDS.get(key)
        if field is None:
            raise ConfigError(f"{key}: unknown configuration key")
        if key == "powers":
            kwargs[key] = raw if raw == "equal" else tuple(
                _number(key, x, float) for x in raw.split())
        else:
            kwargs[field.name] = _number(key, raw, int if field.type == "int" else float)
    if "sigma_w2_value" in kwargs and "snr_db" not in kwargs:
        kwargs["snr_db"] = None
    return SystemConfig(**kwargs)


def load_config(path: str) -> tuple[SystemConfig, str, list[float]]:
    """Parse a config file; returns (config, sweep_axis, sweep_values).

    Only parse errors are raised here: the encoding, the sections and keys,
    and every number.  sweep_axis is the raw axis text ("" when absent) and
    sweep_values the parsed numbers ([] when absent); sweep.plan_sweep
    checks both, as it does for a sweep the Python API starts."""
    import configparser  # only the sweep and validate-config verbs read files
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",),
                                       interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (M vs m_osc)
    try:
        read = parser.read(path, encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config: not UTF-8 text, byte {exc.start}: {exc.reason}") from None
    except configparser.Error as exc:
        # duplicate keys/sections and a missing header carry .lineno; a line
        # without '=' is a ParsingError listing (lineno, line) pairs
        lineno = getattr(exc, "lineno", None) or exc.errors[0][0]
        raise ConfigError(f"config: line {lineno}: {' '.join(str(exc).split())}") from None
    if not read:
        raise ConfigError(f"config: cannot read {path}")
    for section in ("system", "sweep"):
        if section not in parser:
            raise ConfigError(f"config: missing [{section}] section")
    config = _parse_system(dict(parser["system"]))
    sweep = parser["sweep"]
    values = [_number("sweep.values", x, float) for x in sweep.get("values", "").split()]
    return config, sweep.get("axis", ""), values
