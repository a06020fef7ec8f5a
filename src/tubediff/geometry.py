"""Built-in demonstration networks.

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
"""

from __future__ import annotations

import math

import numpy as np

from .network import NetworkMesh, c_exp, refine

SPACING = 0.2
STICK_NODES = 16
ARM_NODES = 8

STICK_LENGTH = SPACING * (STICK_NODES - 1)
ARM_LENGTH = SPACING * ARM_NODES

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

