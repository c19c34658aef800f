"""Achievable-rate bounds derived from an effective SINR.

Two upper bounds are combined: the AWGN capacity log2(1 + S) and a
high-SNR bound that subtracts the differential entropy rate of the residual
phase process.  Their minimum is the reported rate for common-vs-distributed
oscillator comparisons; the ergodic approximation log2(1 + S_eff) is used
everywhere else.  Their domain is enforced once, by SystemConfig and the sweep.
"""

from __future__ import annotations

import math

__all__ = ["rate_awgn_bound", "rate_lapidoth", "rate_min", "rate_report"]


def rate_awgn_bound(sinr: float) -> float:
    """AWGN channel capacity log2(1 + sinr), bits per channel use."""
    return math.log2(1.0 + sinr)


def rate_lapidoth(sinr: float, tau: int, sigma2_ue: float, sigma2_bs: float,
                  M_osc: int) -> float | None:
    """High-SNR bound 0.5*log2(2*pi*sinr) - 0.5*log2(2*pi*e*v).

    v is the accumulated phase variance tau*(sigma2_ue + delta*sigma2_bs),
    where delta = 1 only for a single common oscillator: with several
    oscillators the BS drift averages across antennas and only the UE's own
    phase survives as a common rotation.  None at v = 0 or sinr = 0.  Where
    v or a product under a log overflows, the same bound is summed from the
    logs of the factors: 0.5*(log2(sinr) - log2(e) - log2(tau) - log2(v/tau)).
    """
    s = sigma2_ue + (sigma2_bs if M_osc == 1 else 0.0)
    v = tau * s
    if v <= 0 or sinr <= 0:
        return None
    rate = 0.5 * math.log2(2.0 * math.pi * sinr) - 0.5 * math.log2(2.0 * math.pi * math.e * v)
    if abs(rate) < math.inf:
        return rate
    # a product overflowed; s overflows only as the sum of the two
    # variances, so halve both first
    log2_s = (math.log2(s) if s < math.inf
              else 1.0 + math.log2(0.5 * sigma2_ue + 0.5 * sigma2_bs))
    return 0.5 * (math.log2(sinr) - math.log2(math.e) - math.log2(tau) - log2_s)


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
    extremes and an approximation in between.
    """
    awgn = rate_awgn_bound(sinr)
    lap = rate_lapidoth(sinr, tau, sigma2_ue, sigma2_bs, M_osc)
    return {"rate_awgn": awgn, "rate_lapidoth": lap,
            "rate_min": rate_min(awgn, lap), "rate_ergodic": awgn}
