"""Massive-MIMO downlink simulation and large-system SINR analytics under
oscillator phase noise.

Modules:
    config       the SystemConfig scenario record, the formulas of its derived
                 values (phase increment variances, E|T_PN|^2, the optimal
                 RZF regularizer) and its INI file format; it imports no
                 other pnmimo module
    rmt          the Marchenko-Pastur Stieltjes transform m and m' at -alpha
    phase_noise  per-antenna phase rotations
    channel      Gauss-Markov channel-estimate synthesis
    precoding    RZF / ZF / MF precoders from one Gram eigendecomposition
    linksim      Monte-Carlo effective-SINR estimation; draws the Rayleigh
                 channel, the Wiener phases and the estimation noise
    analytics    closed-form effective SINR per precoder
    rates        achievable-rate bounds
    lemmas       numerical checks of the underlying matrix identities
    sweep, cli   scenario presets, sweeps, and the command line
"""

from .config import ConfigError, SystemConfig

__all__ = ["SystemConfig", "ConfigError"]
__version__ = "0.1.0"
