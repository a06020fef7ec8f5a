"""Closed forms and ladder measures that only the checks use: the exact
channels' time derivative and a ladder's excess over second order."""

import math

import numpy as np


def time_derivative(channel, x, t: float):
    """d(concentration)/dt of an exact channel, closed form: c times
    d0 ((x - center)^2 / 4s^2 - 1/2s + w^2), s the spread and w^2 the
    rate of a sinusoid's gain (none on a cone)."""
    x = np.asarray(x)
    s = channel.spread(t)
    growth = channel.wavenumber * channel.wavenumber if hasattr(channel, "wavenumber") else 0.0
    shape = (x - channel.center) ** 2 / (4.0 * s * s) - 1.0 / (2.0 * s) + growth
    return channel.d0 * channel.concentration(x, t) * shape


def slope2_deviation(result, k: int = 3) -> float:
    """Coarsest error of a ConvergenceResult over its second-order reference value.

    The reference line has slope exactly 2 and is least-squares
    fitted (in log-log) to the ``k`` finest grids, then evaluated at
    the coarsest spacing.  Ratios well above 1 mean the coarsest
    grid sits above the second-order trend of the fine grids.
    """
    h = np.log(np.asarray(result.spacings[-k:], dtype=float))
    e = np.log(np.asarray(result.errors[-k:], dtype=float))
    intercept = float(np.mean(e - 2.0 * h))
    predicted = math.exp(intercept + 2.0 * math.log(result.spacings[0]))
    return result.errors[0] / predicted
