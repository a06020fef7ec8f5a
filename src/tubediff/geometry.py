"""Built-in demonstration networks and the exact channels.

Two tree geometries share a common layout — a 16-node stick that
splits into two symmetric 8-node arms at stock spacing 0.2 — but put
their radius variation in different places:

``ball_on_stick``
    a fat bulb at the rooted end decays exponentially into a thin
    neck, and the arms flare exponentially toward the exits.  The
    strong gradient sits right at the root leaf, which makes the bulb
    fill or drain visibly under the radius-aware models.

``constricted_tree``
    gentle at all three leaves, with a smooth interior constriction
    midway along the stick.  Putting the strong taper on interior
    nodes only makes it the better subject for refinement studies,
    because leaf-row closure error never masks the interior operator
    differences between models.

Radius profiles are exponentials in both cases (with smoothly blended
rates for the constriction): sampled geometrically, the one-sided
second-order slope estimate of ``C + A exp(k x)`` can never disagree
in sign with the true slope, whatever the spacing, so the advection
stability screen certifies these meshes at every refinement level.
The ``levels`` argument re-evaluates the radii analytically at each
node's arc position instead of interpolating, which keeps the profiles
kink-free on refined meshes, and refinement keeps the coarse node ids
so runs on different levels can be compared id by id.

Two channel families admit exact time-dependent solutions of the
classical reduced model and therefore serve as references for every
discretization here.  In a linearly tapered tube a drifting Gaussian
stays exact because the taper contributes nothing beyond the plain heat
flow of the area-weighted field.  In a sinusoidal tube the same holds
after an exponential gain in time that offsets the curvature of the
radius profile.

One base gives the tube-integrated field G = gain(t) R(x) K(x, t), K the
heat kernel, the concentration c = G / (pi R^2) and its spatial slope (for
end conditions) as closed forms; a kind supplies its fields, R(x), the term
R'/R of the log-slope and, where the profile curves, the gain.
A channel's mesh samples R(x) at its nodes once; the solver reads the
radii from the mesh alone.  The error metrics built on them are in
``verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import NetworkMesh, c_exp, interval_mesh, refine

SPACING = 0.2
STICK_NODES = 16
ARM_NODES = 8

STICK_LENGTH = SPACING * (STICK_NODES - 1)

_NECK_FLOOR = 0.2
_BULB_AMPLITUDE = 1.3
_BULB_RATE = 5.0

_ARM_CEILING = 0.45
_ARM_RATE = 2.0

_THROAT_BASE = 0.5
_THROAT_IDLE_RATE = 0.1
_THROAT_EXTRA_RATE = 1.7
_THROAT_START = 1.0
_THROAT_END = 2.2
_THROAT_BLEND = 0.25

_FLARE_GAIN = 0.16
_FLARE_ONSET = 0.4
_FLARE_BLEND = 0.2


def _softplus(t):
    return np.logaddexp(0.0, t)


def stick_radius(x):
    """Bulb decaying exponentially into a thin neck along the stick."""
    return _NECK_FLOOR + _BULB_AMPLITUDE * c_exp(-_BULB_RATE * x)


def arm_radius(s):
    """Flare from the neck toward the exit (s measured from the branch)."""
    amplitude = _ARM_CEILING - stick_radius(STICK_LENGTH)
    return _ARM_CEILING - amplitude * c_exp(-_ARM_RATE * s)


def throat_radius(x):
    """Gentle taper with a smooth interior constriction along the stick.

    The log-slope idles at a small rate, rises to idle + extra inside
    the throat window, and relaxes back; integrating the blended rate
    keeps the profile smooth at every sampling density.
    """
    w = _THROAT_BLEND
    integral = _THROAT_IDLE_RATE * x + _THROAT_EXTRA_RATE * w * (
        _softplus((x - _THROAT_START) / w) - _softplus(-_THROAT_START / w)
        - _softplus((x - _THROAT_END) / w) + _softplus(-_THROAT_END / w)
    )
    return _THROAT_BASE * c_exp(-integral)


def throat_arm_radius(s):
    """Gentle flare leaving the constricted stick (s from the branch)."""
    a = _FLARE_GAIN * (
        _softplus((s - _FLARE_ONSET) / _FLARE_BLEND)
        - _softplus(-_FLARE_ONSET / _FLARE_BLEND)
    )
    return throat_radius(STICK_LENGTH) * c_exp(a)


def _build_tree(stick_profile, arm_profile, levels: int) -> NetworkMesh:
    x = SPACING * np.arange(STICK_NODES)
    s = SPACING * np.arange(1, ARM_NODES + 1)
    arm_x = x[-1] + math.sqrt(3.0) / 2.0 * s  # two arms at +-30 degrees
    positions = np.zeros((STICK_NODES + 2 * ARM_NODES, 3))
    positions[:, 0] = np.concatenate([x, arm_x, arm_x])
    positions[STICK_NODES:, 1] = np.concatenate([0.5 * s, -0.5 * s])
    radii = np.concatenate([stick_profile(x), arm_profile(s), arm_profile(s)])
    ids = np.arange(len(positions))
    parents = ids[1:] - 1
    parents[[STICK_NODES - 1, STICK_NODES - 1 + ARM_NODES]] = STICK_NODES - 1  # arm bases
    mesh = NetworkMesh(ids, positions, radii, np.stack([parents, ids[1:]], axis=1),
                       np.full(len(parents), SPACING), root=0)
    if levels == 0:
        return mesh
    topo = refine(mesh, levels)
    arcs = topo.arc_lengths()
    on_stick = arcs <= STICK_LENGTH
    radii = np.empty(topo.n_nodes)
    radii[on_stick] = stick_profile(arcs[on_stick])
    radii[~on_stick] = arm_profile(arcs[~on_stick] - STICK_LENGTH)
    return topo.with_radii(radii)


def ball_on_stick(levels: int = 0) -> NetworkMesh:
    """The bulb + stick + two-arm tree, bisected ``levels`` times."""
    return _build_tree(stick_radius, arm_radius, levels)


def constricted_tree(levels: int = 0) -> NetworkMesh:
    """The interior-constriction tree, bisected ``levels`` times."""
    return _build_tree(throat_radius, throat_arm_radius, levels)


def _gaussian(x, spread, sigma, center):
    """Heat-kernel factor (sigma^2/2pi)^(1/4) spread^(-1/2) exp(...)."""
    amp = (sigma * sigma / (2.0 * math.pi)) ** 0.25
    return amp / np.sqrt(spread) * np.exp(-((x - center) ** 2) / (4.0 * spread))


class _Channel:
    """Closed forms shared by the exact channels (see the module docstring)."""

    positive = ("sigma",)  # fields without which the closed forms break down

    def __post_init__(self):
        for name in self.positive:
            if not getattr(self, name) > 0.0:
                raise ValueError(f"'{name}' must be positive, got {getattr(self, name)!r}")

    def _gain(self, t):
        return 1.0

    def mesh(self, n: int) -> NetworkMesh:
        return interval_mesh(self.x0, self.x1, n, self.radius)

    def spread(self, t: float) -> float:
        return self.sigma * self.sigma + self.d0 * t

    def tube_contents(self, x, t: float):
        x = np.asarray(x)
        return (self._gain(t) * self.radius(x)
                * _gaussian(x, self.spread(t), self.sigma, self.center))

    def concentration(self, x, t: float):
        radius = self.radius(x)
        return self.tube_contents(x, t) / (math.pi * radius * radius)

    def slope(self, x, t: float):
        """d(concentration)/dx, exact."""
        x = np.asarray(x)
        s = self.spread(t)
        log_slope = -(x - self.center) / (2.0 * s) - self._radius_term(x)
        return self.concentration(x, t) * log_slope


@dataclass(frozen=True)
class ConeChannel(_Channel):
    """Linearly tapered tube R = 1 + taper * x with a Gaussian transient."""

    taper: float = 0.0
    sigma: float = 4.0
    center: float = 0.0
    x0: float = 0.0
    x1: float = 10.0
    d0: float = 1.0

    def radius(self, x):
        return 1.0 + self.taper * np.asarray(x)

    def _radius_term(self, x):
        return self.taper / self.radius(x)


@dataclass(frozen=True)
class SinusoidChannel(_Channel):
    """Tube R = sin(wavenumber * x) on a margin inside one positive arch."""

    wavenumber: float
    sigma: float = 2.0
    center: float = 1.0
    margin: float = 1.0
    d0: float = 1.0
    positive = ("sigma", "wavenumber")

    @property
    def x0(self) -> float:
        return self.margin

    @property
    def x1(self) -> float:
        return math.pi / self.wavenumber - self.margin

    def radius(self, x):
        return np.sin(self.wavenumber * np.asarray(x))

    def _radius_term(self, x):
        return self.wavenumber / np.tan(self.wavenumber * x)

    def _gain(self, t):
        return c_exp(self.d0 * self.wavenumber * self.wavenumber * t)


# the exact channel kinds by their geometry ``kind`` name
CHANNELS = {"cone": ConeChannel, "sinusoid": SinusoidChannel}
