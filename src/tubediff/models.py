"""Model variants for reduced-order diffusion in a varying-radius tube.

Everything here is a pure coefficient function of the local radius slope;
the spatial wiring lives in :mod:`tubediff.discretize`.  The menu:

* ``SIMPLE_DIFFUSION`` ignores the radius entirely.
* ``FICK_JACOBS`` adds the radial advection term with a constant
  diffusion coefficient.
* ``ZWANZIG``, ``REGUERA_RUBI`` and ``KALINAY_PERCUS`` reuse the
  Fick-Jacobs operator with a slope-dependent diffusion coefficient.
* ``KALINAY_TEMPORAL`` keeps the Fick-Jacobs operator and rescales the
  time derivative by 1 + g'(x).
* ``EXPANDED_FLUX`` augments Fick-Jacobs with grid-scaled second-order
  flux terms and its own time-derivative factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class ModelKind(Enum):
    SIMPLE_DIFFUSION = "simple-diffusion"
    FICK_JACOBS = "fick-jacobs"
    ZWANZIG = "zwanzig"
    REGUERA_RUBI = "reguera-rubi"
    KALINAY_PERCUS = "kalinay-percus"
    KALINAY_TEMPORAL = "kalinay-temporal"
    EXPANDED_FLUX = "expanded-flux"


MODEL_NAMES = {kind.value: kind for kind in ModelKind}

# Below this the arctan-based coefficients switch to their Taylor series
# to avoid 0/0; the truncation error there is ~1e-25, far below round-off.
_SERIES_CUTOFF = 1e-6


@dataclass(frozen=True)
class ModelSpec:
    """Which model to run plus its physical constants."""

    kind: ModelKind
    d0: float = 1.0
    epsilon: float = 1.0

    def __post_init__(self):
        if not self.d0 > 0.0:
            raise ValueError(f"d0 must be positive, got {self.d0}")
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")

    @classmethod
    def from_name(cls, name: str, d0: float = 1.0, epsilon: float = 1.0) -> "ModelSpec":
        if not (isinstance(name, str) and name in MODEL_NAMES):
            known = ", ".join(sorted(MODEL_NAMES))
            raise ValueError(f"unknown model {name!r}; choose one of: {known}")
        return cls(MODEL_NAMES[name], d0=d0, epsilon=epsilon)


def _arctan_over(u: np.ndarray) -> np.ndarray:
    """arctan(u)/u, continued through u = 0."""
    small = np.abs(u) < _SERIES_CUTOFF
    u2 = u * u
    safe = np.where(small, 1.0, u)
    return np.where(small, 1.0 - u2 / 3.0 + u2 * u2 / 5.0, np.arctan(safe) / safe)


def diffusion_coefficient(spec: ModelSpec, slope):
    """Effective diffusion coefficient for a local radius slope.

    Takes a float or an array of slopes and returns the same shape.  Only
    the Zwanzig, Reguera-Rubi and Kalinay-Percus variants actually depend
    on the slope; every other model runs with ``spec.d0``.
    """
    s = np.asarray(slope, dtype=float)
    if spec.kind is ModelKind.ZWANZIG:
        d = spec.d0 / (1.0 + s * s / 2.0)
    elif spec.kind is ModelKind.REGUERA_RUBI:
        d = spec.d0 / (1.0 + s * s / 4.0) ** (1.0 / 3.0)
    elif spec.kind is ModelKind.KALINAY_PERCUS:
        d = spec.d0 * _arctan_over(s / 2.0)
    else:
        d = np.full(s.shape, spec.d0)
    return d if d.ndim else float(d)


def kalinay_g(x, slope, epsilon: float = 1.0):
    """Spatial weight whose derivative rescales the time term.

    g(x) = (x/2) * (arctan(u)/u + (u/3) arctan(u) - 1) with
    u = sqrt(epsilon) * slope.  The bracket vanishes like u**4/ (45/4)
    at small slopes, so a series branch keeps it smooth through zero.
    Takes floats or equally shaped arrays.
    """
    u = math.sqrt(epsilon) * np.asarray(slope, dtype=float)
    small = np.abs(u) < _SERIES_CUTOFF
    at = np.arctan(u)
    bracket = np.where(small, (4.0 / 45.0) * u ** 4,
                       at / np.where(small, 1.0, u) + (u / 3.0) * at - 1.0)
    g = 0.5 * np.asarray(x, dtype=float) * bracket
    return g if g.ndim else float(g)


def effj_mass_factor(dx, radius, slope):
    """Expanded-flux time-derivative factor 1 + dx**2 R'**2 / (12 R**2).

    Takes floats or equally shaped arrays.
    """
    return 1.0 + (dx * dx * slope * slope) / (12.0 * radius * radius)
