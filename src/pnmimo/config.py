"""Scenario configuration: the SystemConfig record and its file format.

Config files are flat INI text with a [system] section of key = value pairs
and an optional [sweep] section naming the axis and its values.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace

import numpy as np

from .phase_noise import deg_to_var

__all__ = ["ConfigError", "SystemConfig", "load_config", "SWEEP_AXES"]

SWEEP_AXES = ("snr", "m_osc", "beta", "sigma_phi", "alpha")

ALPHA_MODES = ("optimal", "fixed")


class ConfigError(ValueError):
    """Configuration rejected; message names the offending field."""


@dataclass(frozen=True)
class SystemConfig:
    """All parameters of one simulation scenario.

    Exactly one of snr_db / sigma_w2 is the noise handle: when snr_db is
    set, sigma_w2 is derived as p_k / snr_linear for the observed UE.

    Every float field that is set must be finite, and so must the noise
    variance sigma_w2, which must also be > 0.  n_realizations >= 2, so every
    Monte-Carlo row has a finite standard error.  q0 = 0 (no channel
    knowledge) is accepted only with alpha_mode = "fixed": the optimal
    regularization divides by q0, so the default "optimal" mode rejects it.
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
    alpha_mode: str = "optimal"
    alpha: float | None = None
    ue_index: int = 0
    n_realizations: int = 2000
    master_seed: int = 12345
    parallelism: int = 1

    def __post_init__(self):
        if isinstance(self.powers, str):
            if self.powers != "equal":
                raise ConfigError(f"powers: unknown keyword {self.powers!r}")
            object.__setattr__(self, "powers", np.full(self.K, 1.0 / self.K))
        else:
            object.__setattr__(self, "powers", np.asarray(self.powers, dtype=float))
        p = self.powers
        for name, value in (("q0", self.q0), ("sigma_deg_bs", self.sigma_deg_bs),
                            ("sigma_deg_ue", self.sigma_deg_ue), ("snr_db", self.snr_db),
                            ("sigma_w2", self.sigma_w2_value), ("alpha", self.alpha)):
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name}: must be finite, got {value}")
        if self.M < 1:
            raise ConfigError(f"M: must be >= 1, got {self.M}")
        if not 1 <= self.K <= self.M:
            raise ConfigError(f"K: need 1 <= K <= M, got K={self.K}, M={self.M}")
        if self.M % self.M_osc != 0 or not 1 <= self.M_osc <= self.M:
            raise ConfigError(f"M_osc: must divide M with 1 <= M_osc <= M, "
                              f"got M_osc={self.M_osc}, M={self.M}")
        if not 0.0 <= self.q0 <= 1.0:
            raise ConfigError(f"q0: must be in [0, 1], got {self.q0}")
        if self.q0 == 0.0 and self.alpha_mode == "optimal":
            raise ConfigError("q0: 0 leaves the optimal regularization undefined; "
                              "set alpha_mode = fixed with an explicit alpha")
        if self.sigma_deg_bs < 0 or self.sigma_deg_ue < 0:
            raise ConfigError("sigma_deg_bs/sigma_deg_ue: must be >= 0")
        if self.tau < 1:
            raise ConfigError(f"tau: must be >= 1, got {self.tau}")
        if self.tau > self.T_c:
            raise ConfigError(f"tau: must be <= T_c, got tau={self.tau}, T_c={self.T_c}")
        if (self.snr_db is None) == (self.sigma_w2_value is None):
            raise ConfigError("noise: set exactly one of snr_db, sigma_w2")
        if p.shape != (self.K,):
            raise ConfigError(f"powers: shape {p.shape}, expected ({self.K},)")
        if not np.all(np.isfinite(p)) or np.any(p < 0) or p.sum() <= 0:
            raise ConfigError("powers: entries must be finite and >= 0 with positive sum")
        if self.alpha_mode not in ALPHA_MODES:
            raise ConfigError(f"alpha_mode: must be one of {ALPHA_MODES}, got {self.alpha_mode!r}")
        if self.alpha_mode == "fixed" and (self.alpha is None or self.alpha <= 0):
            raise ConfigError("alpha: fixed mode requires alpha > 0")
        if not 0 <= self.ue_index < self.K:
            raise ConfigError(f"ue_index: out of range for K={self.K}")
        try:
            noise_ok = 0.0 < self.sigma_w2 < math.inf
        except ArithmeticError:  # 10^(snr_db/10) overflows, or underflows to 0
            noise_ok = False
        if not noise_ok:
            handle = (f"sigma_w2 = {self.sigma_w2_value}" if self.snr_db is None
                      else f"snr_db = {self.snr_db}")
            raise ConfigError(f"sigma_w2: the noise variance must be finite and > 0, "
                              f"got {handle}")
        if self.n_realizations < 2:
            raise ConfigError(f"n_realizations: must be >= 2 for a standard error, "
                              f"got {self.n_realizations}")
        if self.parallelism < 1:
            raise ConfigError(f"parallelism: must be >= 1, got {self.parallelism}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed: must be >= 0, got {self.master_seed}")

    @property
    def beta(self) -> float:
        return self.M / self.K

    @property
    def sigma_w2(self) -> float:
        if self.sigma_w2_value is not None:
            return self.sigma_w2_value
        return float(self.powers[self.ue_index]) / 10.0 ** (self.snr_db / 10.0)

    @property
    def sigma2_bs(self) -> float:
        """BS phase increment variance, rad^2 per symbol."""
        return deg_to_var(self.sigma_deg_bs)

    @property
    def sigma2_ue(self) -> float:
        """UE phase increment variance, rad^2 per symbol."""
        return deg_to_var(self.sigma_deg_ue)

    def with_(self, **changes) -> "SystemConfig":
        return replace(self, **changes)


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
        elif key == "alpha_mode":
            kwargs["alpha_mode"] = raw
        else:
            raise ConfigError(f"{key}: unknown configuration key")
    if "sigma_w2_value" in kwargs and "snr_db" not in kwargs:
        kwargs["snr_db"] = None
    return SystemConfig(**kwargs)


def load_config(path: str) -> tuple[SystemConfig, str | None, list[float] | None]:
    """Parse a config file; returns (config, sweep_axis, sweep_values)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",),
                                       interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (M vs m_osc)
    try:
        read = parser.read(path)
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
