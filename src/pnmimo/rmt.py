"""The Marchenko-Pastur Stieltjes transform for the large-system SINR analysis.

m and its derivative m' at -alpha are deterministic functions of the load
ratio beta = M/K and the regularization parameter alpha, evaluated together
from one square root, as Python floats.  The RZF SINR that combines them
with q_eff lives in :mod:`pnmimo.analytics`, and the SINR-maximizing
regularizer in :mod:`pnmimo.config`.  The Monte-Carlo counterparts (empirical traces,
empirical precoder normalization) live in the test suite and in
:mod:`pnmimo.lemmas`.  Their domain (alpha > 0, beta >= 1) is enforced once,
by SystemConfig.
"""

from __future__ import annotations

import math

__all__ = ["stieltjes_mp"]


def stieltjes_mp(alpha: float, beta: float) -> tuple[float, float]:
    """(m, m'): the Stieltjes transform m(z) of the Marchenko-Pastur law and
    its derivative dm/dz, both at z = -alpha, m' by analytic differentiation,
    as Python floats (math.sqrt and numpy's sqrt are both correctly rounded).
    An overflow is inf and an invalid operation nan, where numpy scalars
    under a raise mode raised; a division by zero raises ZeroDivisionError.

    Finite differences are used only as an oracle in the tests.
    """
    s = math.sqrt(beta * beta * alpha * alpha + 2 * (beta + 1) * alpha * beta + (1 - beta) ** 2)
    f = beta - 1 - alpha * beta + s
    m = f / (2 * alpha * beta)
    # m(-alpha) = f(alpha) / (2 alpha beta); dm/dz|_{z=-alpha} = -d/dalpha of it
    ds = beta * (beta * alpha + beta + 1) / s
    return m, -((-beta + ds) * alpha - f) / (2 * alpha * alpha * beta)
