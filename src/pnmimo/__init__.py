"""Massive-MIMO downlink simulation and large-system SINR analytics under
oscillator phase noise.

Modules:
    rmt          closed-form random-matrix quantities
    phase_noise  Wiener phase traces and the T_PN statistic
    channel      Rayleigh fading and Gauss-Markov estimate synthesis
    precoding    RZF / ZF / MF precoders from one Gram eigendecomposition
    linksim      Monte-Carlo effective-SINR estimation
    analytics    closed-form effective SINR per precoder
    rates        achievable-rate bounds
    lemmas       numerical checks of the underlying matrix identities
    sweep, cli   scenario presets, sweeps, and the command line
"""

from .config import ConfigError, SystemConfig

__all__ = ["SystemConfig", "ConfigError"]
__version__ = "0.1.0"
