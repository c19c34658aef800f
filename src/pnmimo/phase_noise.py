"""Wiener phase-noise traces, per-antenna phase rotations, and E|T_PN|^2.

An oscillator topology is described by the pair (M, M_osc): M antennas fed
by M_osc free-running oscillators, M/M_osc antennas per oscillator.  The two
named extremes are the common-oscillator setup (M_osc = 1) and the
distributed setup (M_osc = M).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "OscillatorTopology",
    "PhaseNoiseParams",
    "PhaseTrace",
    "deg_to_var",
    "simulate_wiener",
    "theta_vector",
    "t_pn_second_moment",
]


def deg_to_var(sigma_deg: float) -> float:
    """Per-symbol increment variance (rad^2) from a std dev given in degrees."""
    return float(np.deg2rad(sigma_deg) ** 2)


@dataclass(frozen=True)
class OscillatorTopology:
    """M antennas driven by M_osc oscillators in contiguous equal blocks."""

    M: int
    M_osc: int

    def __post_init__(self):
        if not 1 <= self.M_osc <= self.M:
            raise ValueError(f"need 1 <= M_osc <= M, got M_osc={self.M_osc}, M={self.M}")
        if self.M % self.M_osc != 0:
            raise ValueError(f"M_osc={self.M_osc} must divide M={self.M}")

    @property
    def block(self) -> int:
        return self.M // self.M_osc

    def expand(self, per_oscillator: np.ndarray) -> np.ndarray:
        """Map a length-M_osc vector to length M, constant within each block."""
        return np.repeat(np.asarray(per_oscillator), self.block)


@dataclass(frozen=True)
class PhaseNoiseParams:
    """Increment variances (rad^2 per symbol) and the training-to-data lag."""

    sigma2_bs: float
    sigma2_ue: float
    tau: int

    def __post_init__(self):
        if self.sigma2_bs < 0 or self.sigma2_ue < 0:
            raise ValueError("increment variances must be >= 0")
        if self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")


@dataclass
class PhaseTrace:
    """Oscillator phases at symbols 0 and tau.

    bs_phases : (2, M_osc) array, rows are symbol 0 and symbol tau
    ue_phases : (2, K) array, same layout
    """

    bs_phases: np.ndarray
    ue_phases: np.ndarray


def _wiener_endpoints(n: int, tau: int, sigma2: float, rng: np.random.Generator):
    """Phases at 0 and tau for n independent Wiener processes."""
    phi0 = rng.uniform(0.0, 2.0 * np.pi, size=n)
    # A single Gaussian of variance tau*sigma2 is distributionally identical
    # to the sum of tau i.i.d. steps.
    phit = phi0 + rng.normal(0.0, np.sqrt(tau * sigma2), size=n)
    return np.vstack([phi0, phit])


def simulate_wiener(topology: OscillatorTopology, K: int, params: PhaseNoiseParams,
                    rng: np.random.Generator) -> PhaseTrace:
    """Draw one joint realization of BS-oscillator and UE phase processes.

    Each process starts uniform on [0, 2*pi) and advances by a zero-mean
    Gaussian increment of variance tau*sigma2 between symbols 0 and tau.
    """
    bs = _wiener_endpoints(topology.M_osc, params.tau, params.sigma2_bs, rng)
    ue = _wiener_endpoints(K, params.tau, params.sigma2_ue, rng)
    return PhaseTrace(bs_phases=bs, ue_phases=ue)


def _row(symbol: int, tau: int) -> int:
    if symbol == 0:
        return 0
    if symbol == tau:
        return 1
    raise IndexError(f"only symbols 0 and {tau} are materialized, got {symbol}")


def theta_vector(trace: PhaseTrace, ue: int, symbol: int, tau: int,
                 topology: OscillatorTopology) -> np.ndarray:
    """Diagonal of the per-UE phase matrix at `symbol`, as a length-M vector.

    Entry m is exp(j(ue_phase + bs_phase of the oscillator feeding antenna m)).
    """
    r = _row(symbol, tau)
    bs = topology.expand(trace.bs_phases[r])
    return np.exp(1j * (trace.ue_phases[r, ue] + bs))


def t_pn_second_moment(M_osc: int, tau: int, sigma2_bs: float) -> float:
    """Second moment of T_PN over phase draws.

    T_PN = (1/M) sum_m exp(j * BS phase drift over tau symbols at antenna m).
    E|T_PN|^2 = (1 - e^{-tau*sigma2}) / M_osc + e^{-tau*sigma2}; equals 1 for a common
    oscillator and decreases to e^{-tau*sigma2} as M_osc grows.
    """
    if M_osc < 1:
        raise ValueError(f"M_osc must be >= 1, got {M_osc}")
    e = np.exp(-tau * sigma2_bs)
    return float((1.0 - e) / M_osc + e)
