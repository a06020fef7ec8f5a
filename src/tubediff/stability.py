"""Explicit-Euler stability screening of the assembled spatial operators.

The screen reads the operator the march steps, ``mass_diag * dc/dt =
matrix @ c + ...``, and bounds each row of B = M^-1 A by its absolute
sum (the Gershgorin row bound):

    dt_max_i = 2 m_i / sum_j |a_ij|

The smallest of these keeps dt * rho(B) <= 2 for every step it passes,
and on a uniform cable it is exactly h**2 / 2D.  A row dominated by an
advective or third-derivative term lowers its own bound.

Two conditions admit no step at all and fail their nodes with
``dt_max`` 0: a mass factor m(x) <= 0, whose time derivative has the
wrong sign or none, and a downwind upwind stencil (the operator's
``downwind`` mask).  Reports name the binding node and the nodes that
fail, and warn of every stencil the assembly degraded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import assemble_model
from .models import ModelSpec
from .network import NetworkMesh

# float slack so a step sitting exactly at its bound still passes
TOLERANCE = 1e-12


@dataclass
class StabilityReport:
    """Outcome of a stability screen at one candidate time step."""

    dt: float
    dt_max: float
    passed: bool
    binding_node: int
    failing_nodes: list[int]
    warnings: tuple[str, ...] = ()

    def as_table(self) -> str:
        head = (f"dt={self.dt:.6g}  dt_max={self.dt_max:.6g}  "
                f"{'PASS' if self.passed else 'FAIL'}")
        lines = [head, f"binding node: {self.binding_node}"]
        bad = self.failing_nodes
        if bad:
            lines.append("failing nodes: " + ", ".join(str(i) for i in bad))
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines)


def check_model(mesh: NetworkMesh, spec: ModelSpec, dt: float) -> StabilityReport:
    """Row bound on the model's assembled operator, per node."""
    if dt <= 0.0:
        raise ValueError("time step must be positive")
    op = assemble_model(mesh, spec)
    mass = op.mass_diag
    row_sums = np.bincount(op.matrix.rows, weights=np.abs(op.matrix.data),
                           minlength=mesh.n_nodes)

    reversed_time = mass <= 0.0
    warnings = [*(f"nonpositive-mass-factor node={mesh.node_ids[i]}"
                  for i in np.flatnonzero(reversed_time)),
                *op.notes,
                *(f"downwind-amplification node={mesh.node_ids[i]}"
                  for i in np.flatnonzero(op.downwind))]
    refused = reversed_time | op.downwind

    passes = (dt * row_sums <= 2.0 * mass * (1.0 + TOLERANCE)) & ~refused
    dt_max = np.where(refused, 0.0, 2.0 * mass / row_sums)
    worst = int(np.argmin(dt_max))
    return StabilityReport(
        dt=dt,
        dt_max=float(dt_max[worst]),
        passed=bool(passes.all()),
        binding_node=int(mesh.node_ids[worst]),
        failing_nodes=mesh.node_ids[~passes].tolist(),
        warnings=tuple(warnings),
    )
