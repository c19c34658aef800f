"""Massive-MIMO downlink simulation and large-system SINR analytics under
oscillator phase noise.

Modules:
    config       the SystemConfig scenario record and its INI file format
    rmt          closed-form random-matrix quantities
    phase_noise  per-antenna phase rotations and the E|T_PN|^2 statistic
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
