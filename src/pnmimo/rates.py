"""Achievable-rate bounds derived from an effective SINR.

Two upper bounds are combined: the AWGN capacity log2(1 + S) and a
high-SNR bound that subtracts the differential entropy rate of the residual
phase process.  Their minimum is the reported rate for common-vs-distributed
oscillator comparisons; the ergodic approximation log2(1 + S_eff) is used
everywhere else.
"""

from __future__ import annotations

import math

__all__ = ["rate_awgn_bound", "rate_lapidoth", "rate_min", "rate_report"]


def rate_awgn_bound(sinr: float) -> float:
    """AWGN channel capacity log2(1 + sinr), bits per channel use."""
    if sinr < 0:
        raise ValueError(f"sinr must be >= 0, got {sinr}")
    return math.log2(1.0 + sinr)


def rate_lapidoth(sinr: float, tau: int, sigma2_ue: float, sigma2_bs: float,
                  M_osc: int) -> float:
    """High-SNR bound 0.5*log2(2*pi*sinr) - 0.5*log2(2*pi*e*v).

    v is the accumulated phase variance tau*(sigma2_ue + delta*sigma2_bs),
    where delta = 1 only for a single common oscillator: with several
    oscillators the BS drift averages across antennas and only the UE's own
    phase survives as a common rotation.
    """
    v = tau * (sigma2_ue + (sigma2_bs if M_osc == 1 else 0.0))
    if v <= 0:
        raise ValueError("phase-variance argument is 0; bound undefined")
    if sinr <= 0:
        raise ValueError(f"sinr is {sinr}; bound undefined")
    return 0.5 * math.log2(2.0 * math.pi * sinr) - 0.5 * math.log2(2.0 * math.pi * math.e * v)


def rate_min(awgn: float, lapidoth: float | None) -> float:
    """Tight combination of the two upper bounds.

    A negative or undefined high-SNR bound carries no information, so the
    result degrades gracefully to max(0, AWGN bound) there.
    """
    if lapidoth is None or lapidoth < 0:
        return max(0.0, awgn)
    return min(awgn, lapidoth)


def rate_report(sinr: float, tau: int, sigma2_ue: float, sigma2_bs: float,
                M_osc: int) -> dict:
    """Every rate figure at one operating point, keyed by its column name.

    rate_ergodic is log2(1 + S_eff) for the phase-averaged effective SINR,
    the same number as rate_awgn: it ignores the differential entropy rate
    of the phase processes, exact for the common- and distributed-oscillator
    extremes and an approximation in between.  rate_lapidoth is None where
    the bound is undefined (zero phase variance or zero SINR); rate_min then
    falls back to max(0, rate_awgn).
    """
    awgn = rate_awgn_bound(sinr)
    try:
        lap = rate_lapidoth(sinr, tau, sigma2_ue, sigma2_bs, M_osc)
    except ValueError:
        lap = None
    return {"rate_awgn": awgn, "rate_lapidoth": lap,
            "rate_min": rate_min(awgn, lap), "rate_ergodic": awgn}
