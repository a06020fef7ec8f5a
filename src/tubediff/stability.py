"""Explicit-Euler stability screening for the spatial operators.

Two per-node criteria are applied.  The diffusive bound keeps the
update's own-node coefficient non-negative:

    alpha * beta <= 1,   alpha = 2 D dt / sum(dx_j),   beta = sum(1/dx_j)

with the sums running over the edges incident to the node.  The
advection bound tracks the most oscillatory grid mode through the
upwind stencils: with A_k = dt * coef * w_k for stencil weights w_k,
the mode multiplier is

    rho(pi) = 1 + A_0 - A_1 + A_2        (sign alternating with k)

and a node passes when |rho(pi)| <= 1.  Models that carry a mass
factor m(x) on the time derivative are screened with the effective
step dt / m(x); a node where m(x) <= 0 admits no step at all.

Both bounds also yield the largest admissible step; reports name the
binding node and the nodes that fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretize import Fields, fields
from .models import ModelKind, ModelSpec
from .network import NetworkMesh
from .sparse import CSR, scale_rows

# float slack so a bound sitting exactly at 1 still passes
TOLERANCE = 1e-12

_XI_SAMPLES = 65


@dataclass
class StabilityReport:
    """Outcome of a stability screen at one candidate time step."""

    dt: float
    dt_max: float
    passed: bool
    binding_node: int
    alpha_beta: float
    advection_rho: float
    failing_nodes: list[int]
    warnings: tuple[str, ...] = ()

    def as_table(self) -> str:
        head = (
            f"dt={self.dt:.6g}  dt_max={self.dt_max:.6g}  "
            f"alpha*beta={self.alpha_beta:.6g}  |rho(pi)|={self.advection_rho:.6g}  "
            f"{'PASS' if self.passed else 'FAIL'}"
        )
        lines = [head, f"binding node: {self.binding_node}"]
        bad = self.failing_nodes
        if bad:
            lines.append("failing nodes: " + ", ".join(str(i) for i in bad))
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines)


def _abs_row_sums(m: CSR) -> np.ndarray:
    return np.bincount(m.rows, weights=np.abs(m.data), minlength=m.shape[0])


def _advection_screen(mesh, f: Fields, diff, mass, dt):
    """Per-node pi-mode data: (rho(pi), dt bound, pass flags, warnings)."""
    n = mesh.n_nodes
    rows, _, weights, _ = f.wind
    coef = f.wind_coefficients(diff)
    q = np.bincount(rows, weights=coef * (weights[:, 0] - weights[:, 1] + weights[:, 2]),
                    minlength=n)
    rho_pi = 1.0 + dt * q / mass
    with np.errstate(divide="ignore"):
        dt_max = np.where(q < 0.0, 2.0 * mass / -q, np.where(q > 0.0, 0.0, math.inf))
    passes = np.abs(rho_pi) <= 1.0 + TOLERANCE
    warnings = list(f.wind_notes)
    warnings += [f"downwind-amplification node={mesh.node_ids[i]}"
                 for i in np.flatnonzero(q > 0.0)]

    # |1 + (dt/m) (C0 + C1 e^{i xi} + C2 e^{2i xi})| over the sampled xi,
    # with C_k the node's sum of coef * w_k
    scale = dt / mass
    c0, c1, c2 = (np.bincount(rows, weights=coef * weights[:, k], minlength=n)
                  for k in range(3))
    peak = np.zeros(n)
    for xi in np.linspace(0.0, math.pi, _XI_SAMPLES):
        re = 1.0 + scale * (c0 + c1 * math.cos(xi) + c2 * math.cos(2.0 * xi))
        im = scale * (c1 * math.sin(xi) + c2 * math.sin(2.0 * xi))
        peak = np.maximum(peak, np.hypot(re, im))
    growing = np.flatnonzero((peak > 1.0 + TOLERANCE) & passes)
    if growing.size:
        worst = growing[np.argmax(peak[growing])]
        warnings.append(
            f"mode-growth at {growing.size} node(s) "
            f"(worst node={mesh.node_ids[worst]}, max|rho|-1={peak[worst] - 1.0:.3g})"
        )
    return rho_pi, dt_max, passes, warnings


def check_model(mesh: NetworkMesh, spec: ModelSpec, dt: float) -> StabilityReport:
    """Combined screen: diffusive bound and advection bound per node.

    A node whose mass factor is not positive fails with ``dt_max`` 0:
    its time derivative has the wrong sign or none, so no step is stable.
    """
    if dt <= 0.0:
        raise ValueError("time step must be positive")
    f = fields(mesh)
    diff = f.diffusivity(spec)
    if spec.kind is ModelKind.EXPANDED_FLUX:
        # the grid-scaled term raises the effective second-derivative
        # coefficient, so screen with it included
        diff = diff * (1.0 + f.expansion[0])
    mass = f.mass(spec)
    rate = 2.0 * diff * f.inverse_sums / f.edge_sums
    ab = dt * rate / mass
    dt_max = mass / rate

    reversed_time = mass <= 0.0
    passes = (ab <= 1.0 + TOLERANCE) & ~reversed_time
    warnings = [f"nonpositive-mass-factor node={mesh.node_ids[i]}"
                for i in np.flatnonzero(reversed_time)]
    rho_max = 1.0

    if spec.kind is not ModelKind.SIMPLE_DIFFUSION:
        rho_pi, adv_dt, adv_pass, adv_warn = _advection_screen(mesh, f, diff, mass, dt)
        warnings.extend(adv_warn)
        rho_max = float(np.abs(rho_pi).max())
        passes &= adv_pass
        dt_max = np.minimum(dt_max, adv_dt)

    if spec.kind is ModelKind.EXPANDED_FLUX:
        k1, k2 = f.expansion
        lap_rows = _abs_row_sums(scale_rows(1.0 + k1, f.laplacian[0]))
        thr_rows = _abs_row_sums(scale_rows(k2, f.third[0]))
        warnings += [f"expansion-dominates-diffusion node={mesh.node_ids[i]}"
                     for i in np.flatnonzero(thr_rows > lap_rows)]

    dt_max = np.where(reversed_time, 0.0, dt_max)
    worst = int(np.argmin(dt_max))
    return StabilityReport(
        dt=dt,
        dt_max=float(dt_max[worst]),
        passed=bool(passes.all()),
        binding_node=int(mesh.node_ids[worst]),
        alpha_beta=float(ab.max()),
        advection_rho=rho_max,
        failing_nodes=mesh.node_ids[~passes].tolist(),
        warnings=tuple(warnings),
    )
