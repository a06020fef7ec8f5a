"""Explicit time stepping for the assembled spatial operators.

The march screens the step size of every model against the stability
bounds, assembles their operators and stacks them into one block
system, then marches forward Euler while recording evenly spaced
snapshots.  Boundary end slopes may vary in time, lateral wall flux
follows a windowed schedule, and an optional constraint policy
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
from .sparse import CSR, matvec_into
from .stability import StabilityReport, check_model


class SimulationError(RuntimeError):
    """The march produced a non-finite state."""


class StabilityError(SimulationError):
    """The requested step fails the stability screen."""

    def __init__(self, report: StabilityReport, model: str):
        super().__init__(
            f"{model}: dt={report.dt:g} exceeds the stable limit dt_max={report.dt_max:g} "
            f"(binding node {report.binding_node}); pass force=True to march anyway"
        )
        self.report = report


@dataclass(frozen=True)
class BoundaryData:
    """End slopes dc/ds (away from the root) at leaf nodes.

    Values are either constants or callables of an array of times,
    returning one slope per time (a scalar is broadcast).  Leaves absent
    from the mapping keep a zero slope (closed end).
    """

    slopes: Mapping[int, float | Callable[[np.ndarray], np.ndarray | float]]

    def series(self, boundary_nodes: tuple[int, ...], times) -> np.ndarray:
        """Slopes at every one of ``times``, shape (len(times), len(boundary_nodes))."""
        times = np.asarray(times, dtype=float)
        out = np.zeros((len(times), len(boundary_nodes)))
        for k, node_id in enumerate(boundary_nodes):
            v = self.slopes.get(node_id, 0.0)
            out[:, k] = v(times) if callable(v) else v
        return out

    def validate(self, mesh: NetworkMesh) -> None:
        leaves = set(mesh.node_ids[mesh.leaf_indices()].tolist())
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

    def where(self, mesh: NetworkMesh, copies: int = 1):
        """Positions the thresholds govern in ``copies`` stacked states
        of the mesh: an index array, or every position."""
        if self.node_ids is None:
            return slice(None)
        idx = _distinct(mesh.indices(self.node_ids))
        return (idx + mesh.n_nodes * np.arange(copies)[:, None]).ravel()

    def masks(self, c: np.ndarray, where) -> tuple[np.ndarray, np.ndarray]:
        """Which of the positions ``where`` lie above ``c_hi`` and which below ``c_lo``."""
        level = c[where]
        return level > self.c_hi, level < self.c_lo

    def flux(self, base: np.ndarray, high: np.ndarray, low: np.ndarray, where) -> np.ndarray:
        """``base`` with the thresholds applied at the positions ``where``,
        given their ``masks``."""
        out = base.copy()
        sub = out[where]
        sub[high] = -self.outflow_strength
        sub[low] = 0.0
        out[where] = sub
        return out


@dataclass
class Trajectory:
    """Snapshots of a single model run."""

    mesh: NetworkMesh
    model: str
    times: np.ndarray
    states: np.ndarray                    # (n_snapshots, n_nodes)
    fluxes: np.ndarray | None = None      # effective wall flux, same shape
    notes: tuple[str, ...] = ()
    stability: StabilityReport | None = None
    step_time_s: float | None = None      # wall time of the march per model-step

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def tube_contents(self, k: int = -1) -> np.ndarray:
        """Cross-section-integrated concentration pi R^2 c at snapshot k."""
        return math.pi * self.mesh.radii**2 * self.states[k]

    def to_csv(self, path) -> None:
        """One row per snapshot and node, written a snapshot at a time;
        floats keep full precision."""
        heads = [f"{i},{x!r}" for i, x in zip(self.mesh.node_ids.tolist(),
                                               self.mesh.arc_lengths().tolist())]
        big_g = math.pi * self.mesh.radii**2 * self.states
        with open(path, "w") as f:
            f.write("t,node_id,x_arc,c,G" + (",J\n" if self.fluxes is not None else "\n"))
            for k, t in enumerate(self.times.tolist()):
                rows = zip(heads, self.states[k].tolist(), big_g[k].tolist())
                if self.fluxes is None:
                    f.write("".join(f"{t!r},{h},{c!r},{g!r}\n" for h, c, g in rows))
                else:
                    f.write("".join(f"{t!r},{h},{c!r},{g!r},{j!r}\n"
                                    for (h, c, g), j in zip(rows, self.fluxes[k].tolist())))


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


# one precomputed Neumann block, and the table of lateral sources, hold at
# most this many doubles (256 KB); 1 MB blocks were no faster and added
# 1.3 MB to the peak RSS of a seven-model compare on 160 nodes
CHUNK_VALUES = 2**15


def _stack(blocks, diagonal: bool) -> CSR:
    """CSR blocks one below the other, each row in its stored order.

    With ``diagonal`` each block also takes its own columns (a block
    diagonal); without, all blocks share the columns of the first.
    """
    nnz = np.cumsum([0] + [b.nnz for b in blocks])
    cols = np.cumsum([0] + [b.shape[1] for b in blocks]) if diagonal else [0] * len(blocks)
    indptr = np.concatenate([[0]] + [b.indptr[1:] + off for b, off in zip(blocks, nnz)])
    indices = np.concatenate([b.indices + off for b, off in zip(blocks, cols)])
    data = np.concatenate([b.data for b in blocks])
    shape = (sum(b.shape[0] for b in blocks), cols[-1] if diagonal else blocks[0].shape[1])
    return CSR(indptr, indices, data, shape)


def _schedule(lateral: LateralFluxField, mesh: NetworkMesh, copies: int, t: float):
    """Scheduled wall flux at ``t`` for ``copies`` stacked states, and the
    next window edge, the first time after ``t`` it can change."""
    edges = [e for w in lateral.windows for e in (w.t_start, w.t_end) if e > t]
    return np.tile(lateral.values(mesh, t), copies), min(edges, default=math.inf)


def _distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``a`` (``np.unique`` without its
    ``numpy.ma`` import)."""
    a = np.sort(a)
    return a[np.concatenate([[True], a[1:] != a[:-1]])[: len(a)]]


def _chunks(snap_steps: np.ndarray, length: int):
    """Step ranges [k0, k1) of at most ``length`` steps, ending at every snapshot."""
    for a, z in zip(snap_steps[:-1], snap_steps[1:]):
        for k0 in range(a, z, length):
            yield k0, min(k0 + length, z)


def run_models(
    mesh: NetworkMesh,
    specs,
    *,
    dt: float,
    t_end: float,
    initial,
    boundary: BoundaryData | None = None,
    lateral: LateralFluxField | None = None,
    policy: ConstraintPolicy | None = None,
    n_snapshots: int = 11,
    force: bool = False,
) -> list[Trajectory]:
    """March several models on one mesh from t=0 to t_end, as one system.

    ``initial`` is a node-ordered array or a scalar fill value, shared by
    every model.  Every model passes the stability screen before any
    marching, or the first to fail it is refused unless ``force`` is set.
    ``n_snapshots`` counts the initial and the final state, so it must be
    at least 2.

    The models' operators are stacked block by block into one sparse
    system, so each forward-Euler step is one matrix-vector product for
    all of them.  The end slopes are evaluated for a chunk of steps at a
    time (chunks end at every snapshot), and the state is checked for
    finiteness at the end of every chunk.  The lateral source is computed
    once per schedule window and threshold pattern.  Every model's states
    equal, bit for bit, those of a one-step-at-a-time march.
    """
    specs = tuple(specs)
    if not specs:
        raise ValueError("need at least one model")
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if n_snapshots < 2:
        raise ValueError(
            f"n_snapshots={n_snapshots}: need at least 2 (the initial and the final state)"
        )
    n_steps = max(1, int(round(t_end / dt)))
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError(f"t_end={t_end} is not a whole number of steps of dt={dt}")

    reports = []
    for spec in specs:
        report = check_model(mesh, spec, dt)
        if not report.passed and not force:
            raise StabilityError(report, spec.kind.value)
        reports.append(report)

    if boundary is not None:
        boundary.validate(mesh)

    n, copies = mesh.n_nodes, len(specs)
    c0 = np.asarray(initial, dtype=float)
    if c0.ndim == 0:
        c0 = np.full(n, float(c0))
    if c0.shape != (n,):
        raise ValueError(f"initial state must have {n} entries")

    ops = [assemble_model(mesh, spec) for spec in specs]
    matvec = matvec_into(_stack([op.matrix for op in ops], diagonal=True))
    neumann = _stack([op.neumann for op in ops], diagonal=False)
    # only the rows of leaves hold entries; the product runs over those
    live = np.flatnonzero(np.diff(neumann.indptr))
    neumann_live = CSR(np.concatenate([[0], neumann.indptr[live + 1]]), neumann.indices,
                       neumann.data, (len(live), neumann.shape[1]))
    mass = np.concatenate([op.mass_diag for op in ops])
    if lateral is not None:
        lat_matvec = matvec_into(_stack(
            [lateral_operator(mesh, spec) for spec in specs], diagonal=True))
        where = policy.where(mesh, copies) if policy is not None else None
        base, next_edge = _schedule(lateral, mesh, copies, 0.0)
    c = np.tile(c0, copies)
    j = None
    table: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

    snap_steps = _distinct(np.round(np.linspace(0, n_steps, n_snapshots)).astype(int))
    snap_set = set(snap_steps.tolist())
    times, states, fluxes = [], [], []

    def wall_flux(k: int) -> tuple[np.ndarray, np.ndarray]:
        """Wall flux and lateral source at step k, looked up by the threshold
        masks in a table of the current window's fluxes."""
        nonlocal base, next_edge
        t = k * dt
        if t >= next_edge:
            base, next_edge = _schedule(lateral, mesh, copies, t)
            table.clear()
        high = low = None
        key = b""
        if policy is not None:
            high, low = policy.masks(c, where)
            key = high.tobytes() + low.tobytes()
        hit = table.get(key)
        if hit is None:
            if (len(table) + 1) * 2 * c.size > CHUNK_VALUES:
                table.clear()
            flux = base if policy is None else policy.flux(base, high, low, where)
            hit = table[key] = (flux, lat_matvec(flux).copy())
        return hit

    def record(k: int) -> None:
        times.append(k * dt)
        states.append(c.copy())
        if lateral is not None:
            fluxes.append(j)

    start = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, k1 in _chunks(snap_steps, max(1, CHUNK_VALUES // c.size)):
            b = None
            if boundary is not None:
                g = boundary.series(ops[0].boundary_nodes, np.arange(k0, k1) * dt)
                b = np.zeros((k1 - k0, neumann.shape[0]))
                b[:, live] = (neumann_live @ g.T).T
            for k in range(k0, k1):
                if lateral is not None:
                    j, source = wall_flux(k)
                if k == k0 and k in snap_set:
                    record(k)
                rhs = matvec(c)
                if b is not None:
                    rhs += b[k - k0]
                if lateral is not None:
                    rhs += source
                rhs /= mass
                rhs *= dt
                c += rhs
            if not np.isfinite(c).all():
                bad = [spec.kind.value for spec, block in zip(specs, c.reshape(copies, n))
                       if not np.isfinite(block).all()]
                raise SimulationError(
                    f"state of {', '.join(bad)} became non-finite by t={k1 * dt:g}; "
                    "reduce dt or check data"
                )
        if lateral is not None:
            j = wall_flux(n_steps)[0]
        record(n_steps)
    march_s = time.perf_counter() - start

    states = np.array(states).reshape(len(times), copies, n)
    fluxes = np.array(fluxes).reshape(len(times), copies, n) if lateral is not None else None
    return [
        Trajectory(
            mesh=mesh,
            model=spec.kind.value,
            times=np.array(times),
            states=states[:, i].copy(),
            fluxes=fluxes[:, i].copy() if fluxes is not None else None,
            notes=op.notes,
            stability=report,
            step_time_s=march_s / (n_steps * copies),
        )
        for i, (spec, op, report) in enumerate(zip(specs, ops, reports))
    ]


def run(
    mesh: NetworkMesh,
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
    """March one model from t=0 to t_end recording evenly spaced snapshots
    (``run_models`` with a single model)."""
    return run_models(
        mesh, (spec,), dt=dt, t_end=t_end, initial=initial,
        boundary=boundary, lateral=lateral, policy=policy,
        n_snapshots=n_snapshots, force=force,
    )[0]
