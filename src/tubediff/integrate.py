"""Explicit time stepping for the assembled spatial operators.

The march assembles the operator of every model, screens the step size
against its stability bound and stacks the operators into one block
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
    assemble_model,
    forget,
    lateral_operator,
)
from .network import NetworkMesh
from .sparse import CSR, nonempty_rows, scale_rows, stack
from .stability import (
    SimulationError,
    StabilityError,
    StabilityReport,
    StabilityWarning,
    check_model,
)


# trajectory rows formatted at a time: a snapshot of a large tree is never
# one string
CSV_PIECE = 1024


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
        mesh.indices(list(self.slopes))  # an unknown id before a non-leaf one
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
        if not self.c_lo < self.c_hi:  # NaN compares false too
            raise ValueError("c_lo must lie below c_hi")
        if not self.outflow_strength > 0.0:
            raise ValueError("outflow_strength must be positive")
        if self.node_ids is not None and not self.node_ids:  # None: every node
            raise ValueError("the node list is empty: name at least one node, or all")

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

    def contents_ledger(self) -> dict:
        """Total tube contents sum w pi R^2 c, w the trapezoid weights (half
        the incident edge lengths), at the first and the last snapshot."""
        w = 0.5 * self.mesh.incident_lengths()
        initial, final = (float(w @ (math.pi * self.mesh.radii**2 * self.states[k]))
                          for k in (0, -1))
        change = (final - initial) / initial if initial != 0.0 else None
        return {"initial": initial, "final": final, "relative_change": change}

    def to_csv(self, path) -> None:
        """One row per snapshot and node, written ``CSV_PIECE`` rows at a
        time; floats keep full precision."""
        heads = [f"{i},{x!r}" for i, x in zip(self.mesh.node_ids.tolist(),
                                               self.mesh.arc_lengths().tolist())]
        area = math.pi * self.mesh.radii**2
        with open(path, "w") as f:
            f.write("t,node_id,x_arc,c,G" + (",J\n" if self.fluxes is not None else "\n"))
            for k, t in enumerate(map(repr, self.times.tolist())):
                for p in range(0, len(heads), CSV_PIECE):
                    piece = slice(p, p + CSV_PIECE)
                    conc = self.states[k, piece]
                    rows = zip(heads[piece], conc.tolist(), (area[piece] * conc).tolist())
                    if self.fluxes is None:
                        f.write("".join(f"{t},{h},{c!r},{g!r}\n" for h, c, g in rows))
                    else:
                        f.write("".join(f"{t},{h},{c!r},{g!r},{j!r}\n" for (h, c, g), j
                                        in zip(rows, self.fluxes[k, piece].tolist())))


# a chunk's end slopes and Neumann terms, a block's states and the table of lateral
# sources each span at most this many doubles (256 KB).  Below BAND_ROWS stacked
# rows a step gathers: the band's strided product and separate identity add cost
# more (1.5 us a step at 41 rows on a 2-core Xeon VM; even near 400 rows)
CHUNK_VALUES, BLOCK_STEPS, BAND_ROWS = 2**15, 32, 400


def _distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``a`` (``np.unique`` without its
    ``numpy.ma`` import)."""
    a = np.sort(a)
    return a[np.concatenate([[True], a[1:] != a[:-1]])[: len(a)]]


def _chunks(snap_steps: list[int], length: int):
    """Step ranges [k0, k1) of at most ``length`` steps to each snapshot, then (last, last)."""
    for a, z in zip(snap_steps[:-1], snap_steps[1:]):
        for k0 in range(a, z, length):
            yield k0, min(k0 + length, z)
    yield snap_steps[-1], snap_steps[-1]


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
    neumann: CSR              # the Neumann terms of the rows in live, the stacked rows
    live: np.ndarray          # with any: leaves and, for expanded-flux, their neighbours
    lat: CSR | None           # the models' lateral maps, stacked

    @classmethod
    def build(cls, mesh: NetworkMesh, specs, ops, dt: float, lats) -> _Plan:
        """The plan of the models ``specs`` with operators ``ops`` and lateral
        maps ``lats`` (``lateral_operator``, or None without lateral flux)."""
        n, copies = mesh.n_nodes, len(specs)
        lat = stack(lats, diagonal=True) if lats is not None else None
        scale = dt / np.concatenate([op.mass_diag for op in ops])
        with np.errstate(over="ignore", invalid="ignore"):  # dt M^-1 A
            increment = scale_rows(scale, stack([op.matrix for op in ops], diagonal=True))
        band = increment.band if copies * n >= BAND_ROWS else None
        lo, margin = (band[0], len(band[1]) - 1) if band else (0, 0)
        size = copies * (n + margin)
        place = (np.arange(n) - lo + (n + margin) * np.arange(copies)[:, None]).ravel()
        if band is None:
            cols, vals = increment.pad(identity=True)
        else:  # 0.0 off the models
            cols, vals = None, np.zeros((margin + 1, size))
            vals[:, place] = band[1]
            vals = vals[:, -lo:size - margin - lo]
        live, neumann = nonempty_rows(stack([op.neumann for op in ops], diagonal=False))
        return cls(mesh, tuple(spec.kind.value for spec in specs), dt, lo, margin, place,
                   cols, vals, scale, neumann, live, lat)

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
    """Forward Euler from the row ``c``: the rows and (with ``lateral``) wall
    fluxes at ``snap_steps``.  End slopes are evaluated, and finiteness
    checked, once per chunk of steps; the threshold bands once per block."""
    mesh, names, dt, lo, margin, place, cols, vals, scale, neumann, live, lat = plan
    n, copies, live_at, last = mesh.n_nodes, len(names), place[live], snap_steps[-1]
    width, size = n + margin, copies * (n + margin)
    changes = lateral.change_steps(dt, last) if lateral is not None else set()
    leaves = mesh.node_ids[mesh.leaf_indices()].tolist()  # the Neumann columns' order
    snap_set = set(snap_steps)
    states, fluxes, table = [], [], {}
    # the wall flux at step k: the table's entry for the window and for key, the bands
    # at the held positions as bytes (rows c < c_lo and c <= c_hi; NaN lies above both).
    # It is looked up only where it can change: at a chunk start on a window edge, or
    # where key differs from looked.  since: the step where the bands last changed
    key, looked, pattern, since = b"", None if lateral is not None else b"", None, 0
    j = source = None
    if policy is not None:  # where the policy holds every position, c itself
        where = policy.where(mesh, copies)
        held = place[where] if len(place[where]) < size else slice(None)
        bits, tops = np.empty((2, c[held].size), bool), policy.limits[1, :2, None]
    # per step, a chunk (one end-slope call, one finite check) holds the end slopes and
    # the Neumann terms padded, summed and scaled; without end data, it counts a state
    length = max(1, CHUNK_VALUES // (size if boundary is None else len(leaves)
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
    reduce, multiply, less_equal = np.add.reduce, np.multiply, np.less_equal
    with np.errstate(over="ignore", invalid="ignore"):
        # the last chunk, (last, last), only looks up and records the final state
        for k0, k1 in _chunks(sorted(snap_set | changes), length):
            if boundary is not None and k0 < k1:
                g = boundary.series(leaves, np.arange(k0, k1) * dt)
                ends = (neumann @ g.T).T * scale[live]
            if k0 in changes:
                base, looked = np.tile(lateral.values(mesh, k0 * dt), copies), None
                table.clear()
            k = k0
            while k < k1 or k == k0:
                if policy is not None:
                    less_equal(c[held], tops, bits)
                    key = bits.tobytes()
                if key != looked:  # (flux, scaled lateral source, each position's band limits)
                    hit = table.pop(key, None)  # the least recently used entry comes first
                    if hit is None:
                        flux, limits = base, None
                        if policy is not None:
                            band = 2 - bits.sum(0)  # as policy.bands(c, held) reads it
                            flux = policy.flux(base, band, where)
                            limits = np.array([[-np.inf], [np.inf]]).repeat(size, axis=1)
                            limits[:, held] = policy.limits[:, band]
                        hit = (flux, np.zeros(size), limits)
                        hit[1][place] = scale * (lat @ flux)
                        if table and (len(table) + 1) * sum(map(np.size, hit)) > CHUNK_VALUES:
                            del table[next(iter(table))]
                    j, source, limits = table[key] = hit
                    pattern, since, looked = key, k if key != pattern else since, key
                if k == k0 and k in snap_set:
                    states.append(c.copy())
                    if lateral is not None:
                        fluxes.append(j)
                if k == k1:
                    break
                steps = 1 if k - since < 4 else min(k1 - k, (k - since) // 2, len(rows) - 1)
                x = c  # a gather reads c in place; the band's identity add reads sums[0]
                if cols is None:
                    rows[0][:] = c
                for r in range(1, steps + 1):
                    if cols is not None:
                        terms = x.take(cols)
                        terms *= vals
                        x = reduce(terms, 0, out=rows[r])
                    else:  # c + (the summed increment), then the margins zeroed again
                        multiply(windows[r - 1], vals, out=terms)
                        reduce(terms, 0, out=sums[r])
                        sums[r] += sums[r - 1]
                        gaps[r].fill(0.0)
                        x = rows[r]
                    if boundary is not None:
                        x[live_at] += ends[k - k0 + r - 1]
                    if source is not None:
                        x += source
                if steps > 1 and policy is not None:  # back to the first state out of band
                    outside = (block[1:steps] < limits[0]) | (block[1:steps] > limits[1])
                    first = int(outside.argmax())
                    if outside.flat[first]:
                        steps = first // size + 1
                c = rows[steps]
                k += steps
            if not np.isfinite(c).all():
                bad = [name for name, part in zip(names, plan.unstack([c])[0])
                       if not np.isfinite(part).all()]
                raise SimulationError(
                    f"state of {', '.join(bad)} became non-finite by t={k1 * dt:g}; "
                    "reduce dt or check data"
                )
    return states, fluxes


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
    and marched as one (:func:`_euler`).
    """
    for name, value in ("dt", dt), ("t_end", t_end):
        if not 0.0 < value < math.inf:  # NaN compares false too
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    specs = tuple(specs)
    if not specs:
        raise ValueError("need at least one model")
    if n_snapshots < 2:
        raise ValueError(
            f"n_snapshots={n_snapshots}: need at least 2 (the initial and the final state)"
        )
    if policy is not None and lateral is None:
        raise ValueError("a policy overrides lateral wall flux, but there is no 'lateral' "
                         "section; a window of strength 0.0 gives the policy alone")
    if not t_end / dt < 2**53:
        raise ValueError(f"t_end={t_end} is {t_end / dt:g} steps of dt={dt}; "
                         "the step count must stay below 2**53")
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * t_end:
        raise ValueError(f"t_end={t_end} is not a whole number of steps of dt={dt}")

    n, copies = mesh.n_nodes, len(specs)
    c0 = np.asarray(initial, dtype=float)
    c0 = np.full(n, float(c0)) if c0.ndim == 0 else c0
    if c0.shape != (n,):
        raise ValueError(f"initial state must have {n} entries")
    named = [w.node_ids for w in lateral.windows] if lateral is not None else []
    named += [policy.node_ids or ()] if policy is not None else []
    for node_ids in named:  # every id, in a window that opens or not, before any assembly
        mesh.indices(node_ids)
    if boundary is not None:
        boundary.validate(mesh)

    ops, reports = [], []
    for spec in specs:  # each model assembled once: screened, then marched
        ops.append(assemble_model(mesh, spec))
        report = check_model(mesh, ops[-1], dt)
        if not report.passed:
            if not force:
                raise StabilityError(report, spec.kind.value)
            warnings.warn(f"{spec.kind.value}: dt={dt:g} exceeds the stable limit "
                          f"dt_max={report.dt_max:g}; marching anyway", StabilityWarning)
        reports.append(report)

    lats = [lateral_operator(mesh, spec) for spec in specs] if lateral is not None else None
    forget(mesh)  # the plan, the march and the artifacts reuse the parts' memory
    plan = _Plan.build(mesh, specs, ops, dt, lats)
    del ops, lats
    snap_points = np.linspace(0, n_steps, min(n_snapshots, n_steps + 1))  # more only repeat
    snap_steps = _distinct(np.round(snap_points).astype(int)).tolist()
    start = time.perf_counter()
    rows, fluxes = _euler(plan, plan.row(c0), snap_steps, boundary, lateral, policy)
    march_s = time.perf_counter() - start
    times = np.array(snap_steps) * dt
    states = plan.unstack(rows)
    fluxes = np.array(fluxes).reshape(len(times), copies, n) if lateral is not None else None
    return [
        Trajectory(
            mesh=mesh,
            model=spec.kind.value,
            times=times.copy(),
            states=states[:, i].copy(),
            fluxes=fluxes[:, i].copy() if fluxes is not None else None,
            stability=report,
            step_time_s=march_s / (n_steps * copies),
        )
        for i, (spec, report) in enumerate(zip(specs, reports))
    ]
