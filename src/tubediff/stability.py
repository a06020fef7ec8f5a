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
step dt / m(x).

Both bounds also yield the largest admissible step; reports keep the
per-node outcomes so a failing mesh pinpoints its binding node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .discretize import Fields, fields
from .models import ModelKind, ModelSpec
from .network import NetworkMesh

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
    node_pass: dict[int, bool] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    @property
    def failing_nodes(self) -> list[int]:
        return [i for i, ok in self.node_pass.items() if not ok]

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


def _screened_coefficients(f: Fields, spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-node diffusivity and mass factor the screens bound with."""
    diff = f.diffusivity(spec)
    if spec.kind is ModelKind.EXPANDED_FLUX:
        # the grid-scaled term raises the effective second-derivative
        # coefficient, so screen with it included
        diff = diff * (1.0 + f.expansion[0])
    return diff, f.mass(spec)


def _advection_screen(mesh, f: Fields, diff, mass, dt):
    """Per-node pi-mode data: (|rho(pi)|, dt bound, pass flag, warnings)."""
    per_node: dict[int, list[tuple[float, tuple[float, ...]]]] = {}
    for st in f.wind:
        coef = diff[st.node] * (2.0 / f.radii[st.node]) * st.radius_slope
        per_node.setdefault(st.node, []).append((coef, st.weights))
    warnings = list(f.wind_notes)
    growing: list[tuple[int, float]] = []
    n = mesh.n_nodes
    rho_pi = np.ones(n)
    dt_max = np.full(n, math.inf)
    node_pass = {int(mesh.node_ids[i]): True for i in range(n)}
    xi = np.linspace(0.0, math.pi, _XI_SAMPLES)

    for i, entries in per_node.items():
        q = sum(
            coef * sum((-1.0) ** k * w for k, w in enumerate(weights))
            for coef, weights in entries
        )
        rho_pi[i] = 1.0 + dt * q / mass[i]
        if q < 0.0:
            dt_max[i] = 2.0 * mass[i] / (-q)
        elif q > 0.0:
            dt_max[i] = 0.0
            warnings.append(f"downwind-amplification node={mesh.node_ids[i]}")
        node_pass[int(mesh.node_ids[i])] = bool(abs(rho_pi[i]) <= 1.0 + TOLERANCE)

        symbol = np.ones_like(xi, dtype=complex)
        for coef, weights in entries:
            for k, w in enumerate(weights):
                symbol += (dt / mass[i]) * coef * w * np.exp(1j * k * xi)
        peak = float(np.abs(symbol).max())
        if peak > 1.0 + TOLERANCE and abs(rho_pi[i]) <= 1.0 + TOLERANCE:
            growing.append((int(mesh.node_ids[i]), peak))
    if growing:
        worst_node, worst_peak = max(growing, key=lambda pair: pair[1])
        warnings.append(
            f"mode-growth at {len(growing)} node(s) "
            f"(worst node={worst_node}, max|rho|-1={worst_peak - 1.0:.3g})"
        )
    return rho_pi, dt_max, node_pass, warnings


def check_advection(
    mesh: NetworkMesh, profile, spec: ModelSpec, dt: float
) -> StabilityReport:
    """Pi-mode amplification bound for the upwind advection rows alone."""
    if dt <= 0.0:
        raise ValueError("time step must be positive")
    f = fields(mesh, profile)
    diff, mass = _screened_coefficients(f, spec)
    rho_pi, dt_max, node_pass, warnings = _advection_screen(mesh, f, diff, mass, dt)
    worst = int(np.argmin(dt_max))
    return StabilityReport(
        dt=dt,
        dt_max=float(dt_max[worst]),
        passed=all(node_pass.values()),
        binding_node=int(mesh.node_ids[worst]),
        alpha_beta=0.0,
        advection_rho=float(np.abs(rho_pi).max()),
        node_pass=node_pass,
        warnings=tuple(warnings),
    )


def check_model(
    mesh: NetworkMesh, profile, spec: ModelSpec, dt: float
) -> StabilityReport:
    """Combined screen: diffusive bound and advection bound per node."""
    if dt <= 0.0:
        raise ValueError("time step must be positive")
    f = fields(mesh, profile)
    diff, mass = _screened_coefficients(f, spec)
    rate = 2.0 * diff * f.inverse_sums / f.edge_sums
    ab = dt * rate / mass
    dt_max = mass / rate

    n = mesh.n_nodes
    node_pass = {
        int(mesh.node_ids[i]): bool(ab[i] <= 1.0 + TOLERANCE) for i in range(n)
    }
    warnings: list[str] = []
    rho_max = 1.0

    if spec.kind is not ModelKind.SIMPLE_DIFFUSION:
        rho_pi, adv_dt, adv_pass, adv_warn = _advection_screen(mesh, f, diff, mass, dt)
        warnings.extend(adv_warn)
        rho_max = float(np.abs(rho_pi).max())
        for node_id, ok in adv_pass.items():
            node_pass[node_id] = node_pass[node_id] and ok
        dt_max = np.minimum(dt_max, adv_dt)

    if spec.kind is ModelKind.EXPANDED_FLUX:
        k1, k2 = f.expansion
        lap_rows = abs(sp.diags(1.0 + k1) @ f.laplacian[0]).sum(axis=1).A1
        thr_rows = abs(sp.diags(k2) @ f.third[0]).sum(axis=1).A1
        for i in np.flatnonzero(thr_rows > lap_rows):
            warnings.append(f"expansion-dominates-diffusion node={mesh.node_ids[i]}")

    worst = int(np.argmin(dt_max))
    return StabilityReport(
        dt=dt,
        dt_max=float(dt_max[worst]),
        passed=all(node_pass.values()),
        binding_node=int(mesh.node_ids[worst]),
        alpha_beta=float(ab.max()),
        advection_rho=rho_max,
        node_pass=node_pass,
        warnings=tuple(warnings),
    )
