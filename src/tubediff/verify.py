"""Closed-form transients and the error metrics built on them.

Two channel families admit exact time-dependent solutions of the
classical reduced model and therefore serve as references for every
discretization here.  In a linearly tapered tube a drifting Gaussian
stays exact because the taper contributes nothing beyond the plain heat
flow of the area-weighted field.  In a sinusoidal tube the same holds
after an exponential gain in time that offsets the curvature of the
radius profile.

One base gives the tube-integrated field G = gain(t) R(x) K(x, t), K the
heat kernel, the concentration c = G / (pi R^2), its spatial slope (for
end conditions) and its time derivative (for residual checks) as closed
forms; a kind supplies its fields, R(x), the term R'/R of the log-slope
and, where the profile curves, the gain and the rate it adds to c_t/(d0 c).
A channel's mesh samples R(x) at its nodes once; the solver reads the
radii from the mesh alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrate import BoundaryData, Trajectory, run_models
from .models import ModelKind, ModelSpec
from .network import NetworkMesh, c_exp, interval_mesh, refine

# exact values this small (relative to the largest) are excluded from
# relative-error averages
RELATIVE_FLOOR = 1e-12


def _gaussian(x, spread, sigma, center):
    """Heat-kernel factor (sigma^2/2pi)^(1/4) spread^(-1/2) exp(...)."""
    amp = (sigma * sigma / (2.0 * math.pi)) ** 0.25
    return amp / np.sqrt(spread) * np.exp(-((x - center) ** 2) / (4.0 * spread))


class _Channel:
    """Closed forms shared by the exact channels (see the module docstring)."""

    growth = 0.0
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

    def time_derivative(self, x, t: float):
        x = np.asarray(x)
        s = self.spread(t)
        shape = (x - self.center) ** 2 / (4.0 * s * s) - 1.0 / (2.0 * s) + self.growth
        return self.d0 * self.concentration(x, t) * shape


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

    @property
    def growth(self) -> float:
        return self.wavenumber * self.wavenumber

    def radius(self, x):
        return np.sin(self.wavenumber * np.asarray(x))

    def _radius_term(self, x):
        return self.wavenumber / np.tan(self.wavenumber * x)

    def _gain(self, t):
        return c_exp(self.d0 * self.wavenumber * self.wavenumber * t)


# the exact channel kinds by their geometry ``kind`` name
CHANNELS = {"cone": ConeChannel, "sinusoid": SinusoidChannel}


def l1_error(numeric: np.ndarray, exact: np.ndarray) -> float:
    """Mean relative deviation, skipping points where the reference
    is negligibly small."""
    numeric = np.asarray(numeric, dtype=float)
    exact = np.asarray(exact, dtype=float)
    if numeric.shape != exact.shape:
        raise ValueError("arrays must have matching shapes")
    peak = np.max(np.abs(exact))
    if peak == 0.0:
        raise ValueError("reference field is zero everywhere; relative error undefined")
    mask = np.abs(exact) >= RELATIVE_FLOOR * peak
    return float(np.mean(np.abs((exact[mask] - numeric[mask]) / exact[mask])))


def exact_boundary(channel, mesh: NetworkMesh) -> BoundaryData:
    """The channel's exact end slopes at the mesh leaves, as callables
    of an array of times."""
    x = mesh.positions[:, 0]
    return BoundaryData({
        int(mesh.node_ids[i]): (lambda t, xe=float(x[i]): channel.slope(xe, t))
        for i in mesh.leaf_indices()
    })


def final_error(traj: Trajectory, channel) -> float:
    """Relative L1 deviation from the exact field at the last snapshot."""
    x = traj.mesh.positions[:, 0]
    exact = channel.concentration(x, float(traj.times[-1]))
    return l1_error(traj.final, exact)


def model_errors(
    channel, specs, *, mesh: NetworkMesh, dt: float, t_end: float, force: bool = False
) -> dict[str, float]:
    """Final-time error of several models marched together on a grid from
    ``channel.mesh``, fed by the exact end slopes."""
    trajs = run_models(mesh, specs, dt=dt, t_end=t_end,
                       initial=channel.concentration(mesh.positions[:, 0], 0.0),
                       boundary=exact_boundary(channel, mesh), n_snapshots=2, force=force)
    return {traj.model: final_error(traj, channel) for traj in trajs}


def fitted_slope(spacings, errors) -> float:
    """Least-squares order of accuracy from (h, error) pairs."""
    return float(np.polyfit(np.log(np.asarray(spacings)), np.log(np.asarray(errors)), 1)[0])


@dataclass(frozen=True)
class ConvergenceResult:
    """Error ladder over grids plus its fitted order."""

    ns: tuple[int, ...]
    spacings: tuple[float, ...]
    errors: tuple[float, ...]

    @property
    def slope(self) -> float:
        return fitted_slope(self.spacings, self.errors)

    def tail_slope(self, k: int = 3) -> float:
        """Fitted order over the k finest grids only."""
        return fitted_slope(self.spacings[-k:], self.errors[-k:])

    def slope2_deviation(self, k: int = 3) -> float:
        """Coarsest error over its second-order reference value.

        The reference line has slope exactly 2 and is least-squares
        fitted (in log-log) to the ``k`` finest grids, then evaluated at
        the coarsest spacing.  Ratios well above 1 mean the coarsest
        grid sits above the second-order trend of the fine grids.
        """
        h = np.log(np.asarray(self.spacings[-k:], dtype=float))
        e = np.log(np.asarray(self.errors[-k:], dtype=float))
        intercept = float(np.mean(e - 2.0 * h))
        predicted = math.exp(intercept + 2.0 * math.log(self.spacings[0]))
        return self.errors[0] / predicted


def channel_convergence(
    channel,
    spec: ModelSpec,
    *,
    ns,
    dt: float,
    t_end: float,
    force: bool = False,
) -> ConvergenceResult:
    """Error at t_end on a ladder of uniform grids."""
    ns = tuple(int(n) for n in ns)
    errors = []
    spacings = []
    for n in ns:
        errors.append(model_errors(channel, (spec,), mesh=channel.mesh(n), dt=dt, t_end=t_end,
                                   force=force)[spec.kind.value])
        spacings.append((channel.x1 - channel.x0) / (n - 1))
    return ConvergenceResult(ns, tuple(spacings), tuple(errors))


def refinement_ladder(mesh: NetworkMesh, levels: int) -> list[NetworkMesh]:
    """The mesh followed by its successive edge bisections, ``levels`` in all."""
    meshes = [mesh]
    for _ in range(levels - 1):
        meshes.append(refine(meshes[-1], 1))
    return meshes[:levels]


def common_node_error(traj: Trajectory, reference: Trajectory) -> float:
    """Relative L1 deviation from a finer-mesh reference at shared nodes.

    Bisection keeps parent node ids, so every node of the coarse run
    exists in the reference; values are compared id by id at the final
    snapshot.
    """
    exact = reference.final[reference.mesh.indices(traj.mesh.node_ids)]
    return l1_error(traj.final, exact)


def tree_convergence(
    meshes,
    spec: ModelSpec,
    *,
    dt: float,
    t_end: float,
    initial,
    force: bool = False,
) -> ConvergenceResult:
    """Errors on nested tree meshes against a finest-grid reference run.

    ``meshes`` goes coarse to fine; the last mesh hosts the reference
    run, always of the grid-corrected (expanded-flux) model, and the
    remaining meshes are each compared to it id by id.  ``initial``
    is a callable producing the start state for a given mesh, so every
    level samples the same underlying field.  Tree resolution is
    counted in edges, which exactly doubles under bisection; reported
    spacings are the mean edge length.
    """
    meshes = list(meshes)
    if len(meshes) < 2:
        raise ValueError("need at least one coarse mesh plus the reference mesh")
    reference = run_models(
        meshes[-1], (ModelSpec(ModelKind.EXPANDED_FLUX),), dt=dt, t_end=t_end,
        initial=initial(meshes[-1]), n_snapshots=2, force=force,
    )[0]
    ns = []
    spacings = []
    errors = []
    for mesh in meshes[:-1]:
        traj = run_models(
            mesh, (spec,), dt=dt, t_end=t_end,
            initial=initial(mesh), n_snapshots=2, force=force,
        )[0]
        edges = mesh.n_nodes - 1
        ns.append(edges)
        spacings.append(mesh.total_length() / edges)
        errors.append(common_node_error(traj, reference))
    return ConvergenceResult(ns=tuple(ns), spacings=tuple(spacings),
                             errors=tuple(errors))
