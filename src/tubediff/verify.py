"""Error metrics against the exact channels' closed-form transients.

The channels (``ConeChannel``, ``SinusoidChannel``) are defined in
``geometry`` with the other tubes, so that reading a channel geometry
does not load the march this module runs; they are named here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ConeChannel, SinusoidChannel  # re-exported, see above
from .integrate import BoundaryData, Trajectory, run_models
from .models import ModelKind, ModelSpec
from .network import NetworkMesh

# exact values this small (relative to the largest) are excluded from
# relative-error averages
RELATIVE_FLOOR = 1e-12


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

    def __post_init__(self):
        for k, err in enumerate(self.errors):  # a log-log fit needs each error > 0
            if not 0.0 < err < math.inf:
                raise ValueError(f"convergence level {k} (N={self.ns[k]}) has error {err!r}, "
                                 "so no order can be fitted to the ladder")

    @property
    def slope(self) -> float:
        return fitted_slope(self.spacings, self.errors)

    @property
    def orders(self) -> tuple[float, ...]:
        """The fitted slope of each pair of neighbouring rungs."""
        return tuple(fitted_slope(self.spacings[k:k + 2], self.errors[k:k + 2])
                     for k in range(len(self.errors) - 1))


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
