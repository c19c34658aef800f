"""Scenario configuration: the SystemConfig record and its file format.

Config files are flat INI text with a [system] section of key = value pairs
and an optional [sweep] section naming the axis and its values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .phase_noise import deg_to_var, t_pn_second_moment
from .rmt import optimal_alpha

__all__ = ["ConfigError", "SystemConfig", "load_config", "SWEEP_AXES"]

SWEEP_AXES = ("snr", "m_osc", "beta", "sigma_phi", "alpha")


class ConfigError(ValueError):
    """Configuration rejected; message names the offending field."""


@dataclass(frozen=True, eq=False)  # == and hash are value_key()'s, below
class SystemConfig:
    """All parameters of one simulation scenario.

    Exactly one of snr_db / sigma_w2 is the noise handle: when snr_db is
    set, sigma_w2 is derived as p_k / snr_linear for the observed UE.

    alpha is the RZF regularizer: None selects the SINR-maximizing value,
    and a set alpha (> 0) is used as is.  powers is stored as a read-only
    copy.  Every float field that is set must be finite, and so must tau
    sigma^2 and the noise variance sigma_w2, which must also be > 0.
    n_realizations >= 2, so every Monte-Carlo row has a finite standard
    error.  An unset alpha's optimum must be finite and > 0: it divides by
    q0^2 E|T_PN|^2, so q0 = 0 or an underflowing q0^2 needs an explicit alpha.

    The derived values are computed once, here, as plain attributes: beta =
    M/K, sigma_w2, the BS and UE phase increment variances sigma2_bs and
    sigma2_ue (rad^2 per symbol), p_k, p_sum, e_tpn2 = E|T_PN|^2, q_eff =
    q0 * e_tpn2 and rzf_alpha, the configured alpha or else its optimum.

    A SystemConfig is a value: == and hash compare value_key(), its fields
    with powers by value, so a dataclasses.replace copy equals the original.
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
    powers: np.ndarray | str = "equal"
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
        if isinstance(self.powers, str):
            if self.powers != "equal":
                raise ConfigError(f"powers: unknown keyword {self.powers!r}")
            p = np.full(self.K, 1.0 / self.K)
        else:
            p = np.array(self.powers, dtype=float)  # a copy: the caller's stays writable
        p.setflags(write=False)
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
        with np.errstate(over="ignore"):  # an overflow is the inf rejected here
            sigma2_bs, sigma2_ue = map(deg_to_var, (self.sigma_deg_bs, self.sigma_deg_ue))
            for name, deg, var in (("sigma_deg_bs", self.sigma_deg_bs, sigma2_bs),
                                   ("sigma_deg_ue", self.sigma_deg_ue, sigma2_ue)):
                if deg < 0 or not math.isfinite(self.tau * var):
                    raise ConfigError(f"{name}: need >= 0 and tau * sigma^2 < inf, got {deg}")
            if p.shape != (self.K,):
                raise ConfigError(f"powers: shape {p.shape}, expected ({self.K},)")
            # a NaN minimum fails >= 0, and an inf entry makes the sum inf
            if not p.min() >= 0 or not 0 < (p_sum := float(p.sum())) < math.inf:
                raise ConfigError("powers: need entries >= 0 with a finite positive sum")
        if self.alpha is not None and self.alpha <= 0:
            raise ConfigError(f"alpha: must be > 0, got {self.alpha}")
        if not 0 <= self.ue_index < self.K:
            raise ConfigError(f"ue_index: out of range for K={self.K}")
        p_k = float(p[self.ue_index])
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
        # the powers copy, then the derived values as plain attributes, not
        # fields, so that equality, replace() and the Monte-Carlo draw key ignore them
        self.__dict__.update(powers=p, beta=beta, sigma_w2=sigma_w2, sigma2_bs=sigma2_bs,
                             sigma2_ue=sigma2_ue, p_k=p_k, p_sum=p_sum, e_tpn2=e_tpn2,
                             q_eff=self.q0 * e_tpn2, rzf_alpha=alpha)

    def value_key(self) -> tuple:
        """The field values in field order, powers as a tuple of floats."""
        return tuple(tuple(self.powers.tolist()) if f.name == "powers"
                     else getattr(self, f.name) for f in fields(self))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.value_key() == other.value_key()

    def __hash__(self):
        return hash(self.value_key())


_INT_KEYS = {"M", "K", "M_osc", "tau", "T_c", "ue_index", "n_realizations",
             "master_seed", "parallelism"}
_FLOAT_KEYS = {"q0", "sigma_deg_bs", "sigma_deg_ue", "snr_db", "alpha"}


def _number(key: str, raw: str, kind: type):
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected {kind.__name__}, got {raw!r}") from None


def _parse_system(items: dict[str, str]) -> SystemConfig:
    kwargs: dict = {}
    for key, raw in items.items():
        if key in _INT_KEYS:
            kwargs[key] = _number(key, raw, int)
        elif key in _FLOAT_KEYS:
            kwargs[key] = _number(key, raw, float)
        elif key == "sigma_w2":
            kwargs["sigma_w2_value"] = _number(key, raw, float)
        elif key == "powers":
            kwargs["powers"] = raw if raw == "equal" else np.array(
                [_number(key, x, float) for x in raw.split()], dtype=float)
        else:
            raise ConfigError(f"{key}: unknown configuration key")
    if "sigma_w2_value" in kwargs and "snr_db" not in kwargs:
        kwargs["snr_db"] = None
    return SystemConfig(**kwargs)


def load_config(path: str) -> tuple[SystemConfig, str | None, list[float] | None]:
    """Parse a config file; returns (config, sweep_axis, sweep_values)."""
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
    if "system" not in parser:
        raise ConfigError("config: missing [system] section")
    config = _parse_system(dict(parser["system"]))
    axis = values = None
    if "sweep" in parser:
        sweep = parser["sweep"]
        axis = sweep.get("axis")
        if axis not in SWEEP_AXES:
            raise ConfigError(f"sweep.axis: must be one of {SWEEP_AXES}, got {axis!r}")
        raw = sweep.get("values")
        if not raw:
            raise ConfigError("sweep.values: required when [sweep] present")
        values = [_number("sweep.values", x, float) for x in raw.split()]
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"sweep.values: must be finite, got {raw!r}")
    return config, axis, values
