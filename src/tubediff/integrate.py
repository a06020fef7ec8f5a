"""Explicit time stepping for the assembled spatial operators.

The driver assembles one operator, screens the step size against the
stability bounds, then marches forward Euler while recording evenly
spaced snapshots.  Boundary end slopes may vary in time, lateral wall
flux follows a windowed schedule, and an optional constraint policy
overrides the wall flux at designated nodes based on the local
concentration.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .discretize import (
    LateralFluxField,
    SpatialOperator,
    assemble_model,
    lateral_operator,
)
from .models import ModelSpec
from .network import NetworkMesh
from .stability import StabilityReport, check_model


class SimulationError(RuntimeError):
    """The march produced a non-finite state."""


class StabilityError(SimulationError):
    """The requested step fails the stability screen."""

    def __init__(self, report: StabilityReport):
        super().__init__(
            f"dt={report.dt:g} exceeds the stable limit dt_max={report.dt_max:g} "
            f"(binding node {report.binding_node}); pass force=True to march anyway"
        )
        self.report = report


@dataclass(frozen=True)
class BoundaryData:
    """End slopes dc/ds (away from the root) at leaf nodes.

    Values are either constants or callables of time.  Leaves absent
    from the mapping keep a zero slope (closed end).
    """

    slopes: Mapping[int, float | Callable[[float], float]]

    def vector(self, boundary_nodes: tuple[int, ...], t: float) -> np.ndarray:
        out = np.zeros(len(boundary_nodes))
        for k, node_id in enumerate(boundary_nodes):
            v = self.slopes.get(node_id, 0.0)
            out[k] = float(v(t)) if callable(v) else float(v)
        return out

    def validate(self, mesh: NetworkMesh) -> None:
        leaves = {int(mesh.node_ids[i]) for i in mesh.leaf_indices()}
        unknown = set(self.slopes) - leaves
        if unknown:
            raise ValueError(f"boundary data names non-leaf nodes: {sorted(unknown)}")


@dataclass(frozen=True)
class ConstraintPolicy:
    """Concentration-triggered override of the wall flux at chosen nodes.

    Above ``c_hi`` the node is forced to shed mass at ``outflow_strength``;
    below ``c_lo`` its wall flux is shut off; in between the scheduled
    value stands.  ``node_ids=None`` applies the thresholds at every node.
    """

    node_ids: tuple[int, ...] | None = None
    c_hi: float = 6.0
    c_lo: float = 4.0
    outflow_strength: float = 2.0

    def __post_init__(self):
        if self.c_lo >= self.c_hi:
            raise ValueError("c_lo must lie below c_hi")
        if self.outflow_strength <= 0.0:
            raise ValueError("outflow_strength must be positive")

    def adjust(self, mesh: NetworkMesh, c: np.ndarray, base: np.ndarray) -> np.ndarray:
        out = base.copy()
        if self.node_ids is None:
            out[c > self.c_hi] = -self.outflow_strength
            out[c < self.c_lo] = 0.0
            return out
        for node_id in self.node_ids:
            i = mesh.index(node_id)
            if c[i] > self.c_hi:
                out[i] = -self.outflow_strength
            elif c[i] < self.c_lo:
                out[i] = 0.0
        return out


@dataclass
class Trajectory:
    """Snapshots of a single model run."""

    mesh: NetworkMesh
    model: str
    radii: np.ndarray
    times: np.ndarray
    states: np.ndarray                    # (n_snapshots, n_nodes)
    fluxes: np.ndarray | None = None      # effective wall flux, same shape
    notes: tuple[str, ...] = ()
    stability: StabilityReport | None = None
    step_time_s: float | None = None      # wall time of the march per step

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def tube_contents(self, k: int = -1) -> np.ndarray:
        """Cross-section-integrated concentration pi R^2 c at snapshot k."""
        return math.pi * self.radii**2 * self.states[k]

    def to_csv(self, path) -> None:
        """One row per snapshot and node; floats keep full precision."""
        cols = "t,node_id,x_arc,c,G"
        if self.fluxes is not None:
            cols += ",J"
        lines = [cols]
        arc = self.mesh.arc_lengths()
        for k, t in enumerate(self.times):
            big_g = self.tube_contents(k)
            for i in range(self.mesh.n_nodes):
                row = (
                    f"{float(t)!r},{self.mesh.node_ids[i]},{float(arc[i])!r},"
                    f"{float(self.states[k, i])!r},{float(big_g[i])!r}"
                )
                if self.fluxes is not None:
                    row += f",{float(self.fluxes[k, i])!r}"
                lines.append(row)
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")


def trapezoid_weights(mesh: NetworkMesh) -> np.ndarray:
    """Nodal quadrature weights: half the incident edge lengths."""
    return 0.5 * mesh.incident_sums()[1]


def step(
    c: np.ndarray,
    op: SpatialOperator,
    dt: float,
    neumann_values=None,
    source: np.ndarray | None = None,
) -> np.ndarray:
    """One forward-Euler update; raises on non-finite results."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = c + dt * op.apply(c, neumann_values, source)
    if not np.isfinite(out).all():
        raise SimulationError("state became non-finite; reduce dt or check data")
    return out


def run(
    mesh: NetworkMesh,
    profile,
    spec: ModelSpec,
    *,
    dt: float,
    t_end: float,
    initial,
    boundary: BoundaryData | None = None,
    lateral: LateralFluxField | None = None,
    policy: ConstraintPolicy | None = None,
    n_snapshots: int = 11,
    force: bool = False,
) -> Trajectory:
    """March one model from t=0 to t_end recording evenly spaced snapshots.

    ``initial`` is a node-ordered array or a scalar fill value.  The
    stability screen runs first and refuses an over-large step unless
    ``force`` is set.  ``n_snapshots`` counts the initial and the final
    state, so it must be at least 2.
    """
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if n_snapshots < 2:
        raise ValueError(
            f"n_snapshots={n_snapshots}: need at least 2 (the initial and the final state)"
        )
    n_steps = max(1, int(round(t_end / dt)))
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError(f"t_end={t_end} is not a whole number of steps of dt={dt}")

    report = check_model(mesh, profile, spec, dt)
    if not report.passed and not force:
        raise StabilityError(report)

    if boundary is not None:
        boundary.validate(mesh)

    c = np.asarray(initial, dtype=float)
    if c.ndim == 0:
        c = np.full(mesh.n_nodes, float(c))
    if c.shape != (mesh.n_nodes,):
        raise ValueError(f"initial state must have {mesh.n_nodes} entries")

    op = assemble_model(mesh, profile, spec)
    lat = lateral_operator(mesh, profile, spec) if lateral is not None else None

    snap_steps = np.unique(np.round(np.linspace(0, n_steps, n_snapshots)).astype(int))
    snap_set = set(int(s) for s in snap_steps)
    times, states, fluxes = [], [], []

    def record(k_step: int, state: np.ndarray, j_eff: np.ndarray | None) -> None:
        times.append(k_step * dt)
        states.append(state.copy())
        if lateral is not None:
            fluxes.append(j_eff.copy())

    start = time.perf_counter()
    for k in range(n_steps + 1):
        t = k * dt
        j_eff = None
        source = None
        if lateral is not None:
            j_eff = lateral.values(mesh, t)
            if policy is not None:
                j_eff = policy.adjust(mesh, c, j_eff)
            source = lat @ j_eff
        if k in snap_set:
            record(k, c, j_eff)
        if k == n_steps:
            break
        g = boundary.vector(op.boundary_nodes, t) if boundary is not None else None
        c = step(c, op, dt, g, source)
    march_s = time.perf_counter() - start

    return Trajectory(
        mesh=mesh,
        model=spec.kind.value,
        radii=profile.radii(mesh),
        times=np.array(times),
        states=np.array(states),
        fluxes=np.array(fluxes) if lateral is not None else None,
        notes=op.notes,
        stability=report,
        step_time_s=march_s / n_steps,
    )
