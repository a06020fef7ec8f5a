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
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .discretize import (
    LateralFluxField,
    SpatialOperator,
    assemble_model,
    lateral_operator,
)
from .network import NetworkMesh
from .sparse import CSR, scale_rows
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


class StabilityWarning(UserWarning):
    """A step that fails the stability screen is marched anyway (``force``)."""


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

    @cached_property
    def limits(self) -> np.ndarray:
        """The lowest and the highest level (rows) of each band (columns)."""
        return np.array([[-np.inf, self.c_lo, np.nextafter(self.c_hi, np.inf)],
                         [np.nextafter(self.c_lo, -np.inf), self.c_hi, np.inf]])

    def bands(self, c: np.ndarray, where) -> np.ndarray:
        """The band of the level at each of the positions ``where``: 0 below
        ``c_lo``, 1 from ``c_lo`` to ``c_hi``, 2 above ``c_hi`` (or NaN)."""
        return self.limits[0, 1:].searchsorted(c[where], "right")

    def flux(self, base: np.ndarray, band: np.ndarray, where) -> np.ndarray:
        """``base`` with the thresholds applied at the positions ``where``,
        given their ``bands``."""
        out = base.copy()
        fixed = np.array([0.0, 0.0, -self.outflow_strength])[band]
        out[where] = np.where(band == 1, base[where], fixed)
        return out


@dataclass
class Trajectory:
    """Snapshots of a single model run."""

    mesh: NetworkMesh
    model: str
    times: np.ndarray
    states: np.ndarray                    # (n_snapshots, n_nodes)
    fluxes: np.ndarray | None = None      # effective wall flux, same shape
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
            for k, t in enumerate(map(repr, self.times.tolist())):
                rows = zip(heads, self.states[k].tolist(), big_g[k].tolist())
                if self.fluxes is None:
                    f.write("".join(f"{t},{h},{c!r},{g!r}\n" for h, c, g in rows))
                else:
                    f.write("".join(f"{t},{h},{c!r},{g!r},{j!r}\n"
                                    for (h, c, g), j in zip(rows, self.fluxes[k].tolist())))


def trapezoid_weights(mesh: NetworkMesh) -> np.ndarray:
    """Nodal quadrature weights: half the incident edge lengths."""
    return 0.5 * mesh.incident_lengths()


def step(c: np.ndarray, op: SpatialOperator, dt: float, neumann_values=None,
         source: np.ndarray | None = None) -> np.ndarray:
    """One forward-Euler update, ``(dt M^-1 A c + c) + (dt/m) N g + (dt/m)
    source`` summed in that order as ``run_models`` does, with the end slopes
    g in ``op.boundary_nodes`` order (None: all zero); raises on non-finite results."""
    n_b = len(op.boundary_nodes)
    g = np.zeros(n_b) if neumann_values is None else np.asarray(neumann_values, dtype=float)
    if g.shape != (n_b,):
        raise ValueError(f"expected {n_b} boundary slopes, got shape {g.shape}")
    scale = dt / op.mass_diag
    with np.errstate(over="ignore", invalid="ignore"):
        out = scale_rows(scale, op.matrix) @ c
        out += c
        out += scale * (op.neumann @ g)
        if source is not None:
            out += scale * source
    if not np.isfinite(out).all():
        raise SimulationError("state became non-finite; reduce dt or check data")
    return out


# a chunk's end slopes and Neumann terms, a block's states and the table of lateral
# sources each span at most this many doubles (256 KB).  Below BAND_ROWS stacked
# rows a step gathers: the band's strided product and separate identity add cost
# more (1.5 us a step at 41 rows on a 2-core Xeon VM; even near 400 rows)
CHUNK_VALUES, BLOCK_STEPS, BAND_ROWS = 2**15, 32, 400


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


def _schedule(lateral: LateralFluxField, mesh: NetworkMesh, copies: int, k: int, dt: float):
    """Scheduled wall flux at step ``k`` for ``copies`` stacked states, and the
    first step with ``k * dt`` at or past the next window edge (``ceil(edge / dt)``
    can be a step late), where it can change."""
    edge = min((e for w in lateral.windows for e in (w.t_start, w.t_end) if e > k * dt),
               default=math.inf)
    edge_step = max(int(edge / dt) - 1, k) if edge < math.inf else edge
    while edge_step * dt < edge:
        edge_step += 1
    return np.tile(lateral.values(mesh, k * dt), copies), edge_step


def _distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``a`` (``np.unique`` without its
    ``numpy.ma`` import)."""
    a = np.sort(a)
    return a[np.concatenate([[True], a[1:] != a[:-1]])[: len(a)]]


def _chunks(snap_steps: list[int], length: int):
    """Step ranges [k0, k1) of at most ``length`` steps, ending at every snapshot."""
    for a, z in zip(snap_steps[:-1], snap_steps[1:]):
        for k0 in range(a, z, length):
            yield k0, min(k0 + length, z)


class _Plan(NamedTuple):
    """The models' stacked step, built once per run, and its row format: the
    models one after another, each its n entries (at ``place``) and then
    ``margin`` zeros that the band reads for columns outside the model."""

    mesh: NetworkMesh
    names: tuple[str, ...]
    dt: float
    lo: int                   # the lowest band offset (0 when padded)
    margin: int
    place: np.ndarray
    cols: np.ndarray | None   # I + dt M^-1 A padded, its identity a last slot ...
    vals: np.ndarray          # ... or dt M^-1 A for positions -lo ... size - hi - 1
    scale: np.ndarray         # dt/m, model after model
    boundary_nodes: tuple[int, ...]
    neumann: CSR              # the Neumann terms of the rows in live ...
    live: np.ndarray          # ... the stacked rows of leaves, the only ones with entries
    lat: CSR | None           # the models' lateral maps, stacked

    @classmethod
    def build(cls, mesh: NetworkMesh, specs, ops, dt: float, lateral) -> _Plan:
        n, copies = mesh.n_nodes, len(specs)
        lat = (_stack([lateral_operator(mesh, spec) for spec in specs], diagonal=True)
               if lateral is not None else None)
        scale = dt / np.concatenate([op.mass_diag for op in ops])
        with np.errstate(over="ignore", invalid="ignore"):  # dt M^-1 A
            increment = scale_rows(scale, _stack([op.matrix for op in ops], diagonal=True))
        band = increment.band if copies * n >= BAND_ROWS else None
        lo, margin = (band[0], len(band[1]) - 1) if band else (0, 0)
        size = copies * (n + margin)
        place = (np.arange(n) - lo + (n + margin) * np.arange(copies)[:, None]).ravel()
        if band is None:
            cols, vals = increment.padded
            cols = np.vstack([cols, np.arange(len(cols[0]))])
            vals = np.vstack([vals, np.ones(len(cols[0]))])
        else:  # 0.0 off the models
            cols, vals = None, np.zeros((margin + 1, size))
            vals[:, place] = band[1]
            vals = vals[:, -lo:size - margin - lo]
        neumann = _stack([op.neumann for op in ops], diagonal=False)
        live = np.flatnonzero(np.diff(neumann.indptr))
        return cls(mesh, tuple(spec.kind.value for spec in specs), dt, lo, margin, place,
                   cols, vals, scale, ops[0].boundary_nodes,
                   CSR(np.concatenate([[0], neumann.indptr[live + 1]]), neumann.indices,
                       neumann.data, (len(live), neumann.shape[1])), live, lat)

    def row(self, c0: np.ndarray) -> np.ndarray:
        """Every model at the state ``c0``, as a row."""
        out = np.zeros(len(self.names) * (self.mesh.n_nodes + self.margin))
        out[self.place] = np.tile(c0, len(self.names))
        return out

    def unstack(self, rows) -> np.ndarray:
        """Rows back to (snapshot, model, node)."""
        n = self.mesh.n_nodes
        return np.array(rows).reshape(len(rows), len(self.names), -1)[:, :, -self.lo:n - self.lo]


def _euler(plan: _Plan, c: np.ndarray, snap_steps: list[int], boundary: BoundaryData | None,
           lateral: LateralFluxField | None, policy: ConstraintPolicy | None):
    """Forward Euler from the row ``c``: the times, rows and (with ``lateral``)
    wall fluxes at ``snap_steps``.  End slopes are evaluated, and finiteness
    checked, once per chunk of steps; the threshold bands once per block."""
    (mesh, names, dt, lo, margin, place, cols, vals, scale, boundary_nodes, neumann, live,
     lat) = plan
    n, copies, live_at = mesh.n_nodes, len(names), place[live]
    width, size = n + margin, copies * (n + margin)
    where = policy.where(mesh, copies) if policy is not None else None
    held = place[where] if policy is not None else None
    base, edge_step = (_schedule(lateral, mesh, copies, 0, dt) if lateral is not None
                       else (None, math.inf))
    j = source = None
    table: dict[bytes, tuple] = {}
    snap_set = set(snap_steps)
    times, states, fluxes = [], [], []

    def wall_flux(k: int):
        """The threshold bands at step k, as bytes, and their entry in the
        window's table: wall flux, scaled lateral source and, per position,
        the lowest and the highest level that keep its band."""
        nonlocal base, edge_step
        if k >= edge_step:
            base, edge_step = _schedule(lateral, mesh, copies, k, dt)
            table.clear()
        band = policy.bands(c, held) if policy is not None else None
        key = band.tobytes() if policy is not None else b""
        hit = table.get(key)
        if hit is None:
            flux, limits = base, None
            if policy is not None:
                flux = policy.flux(base, band, where)
                limits = np.array([[-np.inf], [np.inf]]).repeat(c.size, axis=1)
                limits[:, held] = policy.limits[:, band]
            hit = (flux, np.zeros(size), limits)
            hit[1][place] = scale * (lat @ flux)
            if (len(table) + 1) * sum(np.size(a) for a in hit) > CHUNK_VALUES:
                table.clear()
            table[key] = hit
        return key, hit

    def record(k: int) -> None:
        times.append(k * dt)
        states.append(c.copy())
        if lateral is not None:
            fluxes.append(j)

    # per step, a chunk (one end-slope call, one finite check) holds the end slopes and
    # the Neumann terms padded, summed and scaled; without end data, it counts a state
    length = max(1, CHUNK_VALUES // (size if boundary is None else len(boundary_nodes)
                                     + (len(neumann.padded[0]) + 2) * len(live_at)))
    # rows[r]: the state after step r of a block, half as long as its bands have
    # held; only a policy looks back over a block, so without one two rows take turns
    block = np.zeros((min(length, BLOCK_STEPS) + 1 if policy is not None else 2, size))
    rows = [block[r % len(block)] for r in range(min(length, BLOCK_STEPS) + 1)]
    # windows[r][s, p] is rows[r][p + s]; a step sums windows[r - 1] * vals into sums[r]
    # (rows[r] from -lo on), then zeroes gaps[r], the margins between its models
    if cols is None:
        windows = [np.lib.stride_tricks.sliding_window_view(row, vals.shape[1]) for row in rows]
        sums = [row[-lo:size - margin - lo] for row in rows]
        gaps = [row[n - lo:size - width + n - lo].reshape(copies - 1, width)[:, :margin]
                for row in rows]
        terms = np.empty(vals.shape)
    pattern, since = None, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, k1 in _chunks(snap_steps, length):
            if boundary is not None:
                g = boundary.series(boundary_nodes, np.arange(k0, k1) * dt)
                ends = (neumann @ g.T).T * scale[live]
            k = k0
            while k < k1:
                if lateral is not None:
                    key, (j, source, limits) = wall_flux(k)
                    pattern, since = (pattern, since) if key == pattern else (key, k)
                if k == k0 and k in snap_set:
                    record(k)
                end = min(k1, edge_step, k + max(1, (k - since) // 2), k + len(rows) - 1)
                rows[0][:] = c
                for r in range(1, end - k + 1):
                    if cols is not None:
                        terms = rows[r - 1].take(cols)
                        terms *= vals
                        np.add.reduce(terms, axis=0, out=rows[r])
                    else:  # c + (the summed increment), then the margins zeroed again
                        np.multiply(windows[r - 1], vals, out=terms)
                        np.add.reduce(terms, axis=0, out=sums[r])
                        sums[r] += sums[r - 1]
                        gaps[r].fill(0.0)
                    if boundary is not None:
                        rows[r][live_at] += ends[k - k0 + r - 1]
                    if source is not None:
                        rows[r] += source
                if policy is not None and end - k > 1:  # back to the first state out of band
                    outside = (block[1:end - k] < limits[0]) | (block[1:end - k] > limits[1])
                    first = int(outside.argmax())
                    if outside.flat[first]:
                        end = k + first // c.size + 1
                c = rows[end - k]
                k = end
            if not np.isfinite(c).all():
                bad = [name for name, part in zip(names, plan.unstack([c])[0])
                       if not np.isfinite(part).all()]
                raise SimulationError(
                    f"state of {', '.join(bad)} became non-finite by t={k1 * dt:g}; "
                    "reduce dt or check data"
                )
        if lateral is not None:
            j = wall_flux(snap_steps[-1])[1][0]
        record(snap_steps[-1])
    return times, states, fluxes


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
    at least 2.  A ``policy`` overrides scheduled wall flux, so it needs
    ``lateral`` windows.

    The models' step matrices I + dt M^-1 A are stacked (:class:`_Plan`)
    and marched as one (:func:`_euler`); the states equal, bit for bit,
    those of ``step``.
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
    if policy is not None and lateral is None:
        raise ValueError("a policy overrides lateral wall flux, but there is no 'lateral' "
                         "section; a window of strength 0.0 gives the policy alone")
    n_steps = max(1, int(round(t_end / dt)))
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError(f"t_end={t_end} is not a whole number of steps of dt={dt}")

    reports = []
    for spec in specs:
        report = check_model(mesh, spec, dt)
        if not report.passed:
            if not force:
                raise StabilityError(report, spec.kind.value)
            warnings.warn(f"{spec.kind.value}: dt={dt:g} exceeds the stable limit "
                          f"dt_max={report.dt_max:g}; marching anyway", StabilityWarning)
        reports.append(report)

    if boundary is not None:
        boundary.validate(mesh)

    n, copies = mesh.n_nodes, len(specs)
    c0 = np.asarray(initial, dtype=float)
    c0 = np.full(n, float(c0)) if c0.ndim == 0 else c0
    if c0.shape != (n,):
        raise ValueError(f"initial state must have {n} entries")

    ops = [assemble_model(mesh, spec) for spec in specs]
    plan = _Plan.build(mesh, specs, ops, dt, lateral)
    snap_steps = _distinct(np.round(np.linspace(0, n_steps, n_snapshots)).astype(int)).tolist()
    start = time.perf_counter()
    times, rows, fluxes = _euler(plan, plan.row(c0), snap_steps, boundary, lateral, policy)
    march_s = time.perf_counter() - start
    states = plan.unstack(rows)
    fluxes = np.array(fluxes).reshape(len(times), copies, n) if lateral is not None else None
    return [
        Trajectory(
            mesh=mesh,
            model=spec.kind.value,
            times=np.array(times),
            states=states[:, i].copy(),
            fluxes=fluxes[:, i].copy() if fluxes is not None else None,
            stability=report,
            step_time_s=march_s / (n_steps * copies),
        )
        for i, (spec, report) in enumerate(zip(specs, reports))
    ]
