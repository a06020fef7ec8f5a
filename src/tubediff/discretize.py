"""Sparse spatial operators on tree meshes.

The semi-discrete system assembled here is

    mass_diag * dc/dt = matrix @ c + neumann @ g(t) + source(t)

where ``g`` collects the prescribed end-slope (Neumann) values at the
leaves.  All stencils work on arbitrary trees with nonuniform spacing:

* second derivative: the branched generalization of (1, -2, 1)/h**2,
  closed at leaves with a mirrored ghost node built from the end slope;
* first derivative: second-order upwinding along two-edge paths chosen on
  the side the information comes from;
* third derivative: a central difference of the nodal second-derivative
  field, with dedicated one-sided closures at the leaves.

Matrix/vector layouts use mesh storage indices throughout; leaf slots in
the ``neumann`` coupling follow storage order as well.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from tubediff.network import (
    AWAY,
    TOWARD,
    NetworkMesh,
    two_paths,
    upwind_stencil,
)
from tubediff.models import (
    ModelKind,
    ModelSpec,
    diffusion_coefficient,
    effj_mass_factor,
    kalinay_mass_factors,
)


@dataclass(frozen=True)
class SpatialOperator:
    """Assembled right-hand side of the semi-discrete system."""

    matrix: sp.csr_matrix
    neumann: sp.csr_matrix
    boundary_nodes: tuple[int, ...]
    mass_diag: np.ndarray
    notes: tuple[str, ...] = ()

    @property
    def n_nodes(self) -> int:
        return self.matrix.shape[0]

    def boundary_affine(self, values) -> np.ndarray:
        """Neumann contribution vector for given leaf end slopes.

        ``values`` may be None (homogeneous), a mapping from leaf node id
        to slope, or an array in ``boundary_nodes`` order.  Slopes are
        derivatives of concentration along arc length away from the root.
        """
        n_b = len(self.boundary_nodes)
        if values is None:
            g = np.zeros(n_b)
        elif isinstance(values, dict):
            g = np.array([float(values.get(b, 0.0)) for b in self.boundary_nodes])
        else:
            g = np.asarray(values, dtype=float)
            if g.shape != (n_b,):
                raise ValueError(f"expected {n_b} boundary slopes, got shape {g.shape}")
        return self.neumann @ g

    def apply(self, c: np.ndarray, neumann_values=None, source: np.ndarray | None = None) -> np.ndarray:
        """Evaluate dc/dt for a state vector."""
        rhs = self.matrix @ c + self.boundary_affine(neumann_values)
        if source is not None:
            rhs = rhs + source
        return rhs / self.mass_diag


class _Builder:
    """Accumulates (row, col, value) triplets with exact-zero row sums.

    Row interiors are accumulated per call; ``add_row`` computes the
    diagonal as minus the float sum of the off-diagonal weights so that
    constants sit in the kernel as exactly as the arithmetic allows.
    """

    def __init__(self, n_rows: int, n_cols: int):
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.vals: list[float] = []
        self.shape = (n_rows, n_cols)

    def add(self, i: int, j: int, v: float) -> None:
        if v != 0.0:
            self.rows.append(i)
            self.cols.append(j)
            self.vals.append(v)

    def add_many(self, i: int, cols, vals) -> None:
        for j, v in zip(cols, vals):
            self.add(i, j, v)

    def matrix(self) -> sp.csr_matrix:
        m = sp.coo_matrix((self.vals, (self.rows, self.cols)), shape=self.shape)
        return m.tocsr()


def local_spacings(mesh: NetworkMesh) -> np.ndarray:
    """Node-local grid spacing: arithmetic mean of incident edge lengths."""
    degree, lengths, _ = mesh.incident_sums()
    return lengths / degree


def _leaf_slots(mesh: NetworkMesh) -> tuple[dict[int, int], tuple[int, ...]]:
    leaves = mesh.leaf_indices()
    slot = {i: k for k, i in enumerate(leaves)}
    ids = tuple(mesh.node_ids[i] for i in leaves)
    return slot, ids


# ----------------------------------------------------------------------
# component stencils
# ----------------------------------------------------------------------


def laplacian_parts(mesh: NetworkMesh) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Second-derivative matrix and its Neumann coupling (no diffusion
    coefficient applied).

    Interior node i:  (2 / sum dx_j) * (sum c_j / dx_j - c_i sum 1/dx_j).
    Leaf: ghost node mirrored across the boundary using the end slope g,
    giving the row 2 (c_nbr - c_leaf) / dx**2 with affine term
    -(2/dx) g at the root leaf and +(2/dx) g elsewhere (g measured away
    from the root at every leaf).
    """
    n = mesh.n_nodes
    slot, _ = _leaf_slots(mesh)
    mat = _Builder(n, n)
    neu = _Builder(n, len(slot))
    for i in range(n):
        nbrs = mesh.neighbors(i)
        if mesh.is_leaf(i):
            (j, dx) = nbrs[0]
            w = 2.0 / (dx * dx)
            mat.add(i, j, w)
            mat.add(i, i, -w)
            sign = -1.0 if mesh.parent_index(i) < 0 else 1.0
            neu.add(i, slot[i], sign * 2.0 / dx)
        else:
            scale = 2.0 / sum(dx for _, dx in nbrs)
            weights = [scale / dx for _, dx in nbrs]
            for (j, _), w in zip(nbrs, weights):
                mat.add(i, j, w)
            mat.add(i, i, -sum(weights))
    return mat.matrix(), neu.matrix()


def slope_matrix(mesh: NetworkMesh) -> sp.csr_matrix:
    """Central away-from-root first derivative of a nodal field, as a matrix.

    Interior rows take the mean away-side value minus the mean toward-side
    value over the mean span.  Where one side is empty (leaves and a
    leaf root) the row falls back to the second-order two-path stencil
    into the populated side, averaged over paths, or to a single-edge
    difference when the mesh is too small for a two-edge path.
    """
    n = mesh.n_nodes
    mat = _Builder(n, n)
    for i in range(n):
        toward = mesh.side_neighbors(i, TOWARD)
        away = mesh.side_neighbors(i, AWAY)
        if toward and away:
            span = float(
                np.mean([dx for _, dx in away]) + np.mean([dx for _, dx in toward])
            )
            for j, _ in away:
                mat.add(i, j, 1.0 / (len(away) * span))
            for j, _ in toward:
                mat.add(i, j, -1.0 / (len(toward) * span))
            continue
        # one-sided: second-order along two-edge paths where available
        node_id = mesh.node_ids[i]
        placed = False
        for side, sign in ((AWAY, 1.0), (TOWARD, -1.0)):
            paths = two_paths(mesh, node_id, side)
            if paths:
                share = sign / len(paths)
                for p in paths:
                    a0, a1, a2 = upwind_stencil(p.dx1, p.dx2)
                    mat.add(i, i, share * a0)
                    mat.add(i, mesh.index(p.first), share * a1)
                    mat.add(i, mesh.index(p.second), share * a2)
                placed = True
                break
            nbrs = mesh.side_neighbors(i, side)
            if nbrs:
                share = sign / len(nbrs)
                for j, dx in nbrs:
                    mat.add(i, j, share / dx)
                    mat.add(i, i, -share / dx)
                placed = True
                break
        if not placed:  # pragma: no cover - single-node meshes are rejected earlier
            raise ValueError("isolated node")
    return mat.matrix()


@dataclass(frozen=True)
class WindStencil:
    """One upwind contribution to the first-derivative row of a node.

    ``cols`` holds storage indices ordered along the path starting at the
    origin; ``weights`` are the matching derivative weights and
    ``radius_slope`` is dR/ds along the same direction, so the product
    radius_slope * weights is orientation-free.
    """

    node: int
    cols: tuple[int, ...]
    weights: tuple[float, ...]
    radius_slope: float
    first_order: bool = False


def wind_stencils(
    mesh: NetworkMesh, radii: np.ndarray, slopes: np.ndarray
) -> tuple[list[WindStencil], list[str]]:
    """Upwind first-derivative stencils for every non-leaf node.

    The wind side follows the sign of the central radius slope: the term
    transports information from the side the radius grows toward, so
    positive slope selects away-from-root paths and negative slope
    toward-root paths.  A zero slope contributes nothing.  When the wind
    side offers no two-edge path the stencil degrades to a first-order
    single-edge difference and the degradation is reported in the notes.
    """
    stencils: list[WindStencil] = []
    notes: list[str] = []
    for i in range(mesh.n_nodes):
        if mesh.is_leaf(i):
            continue  # leaves carry the prescribed end slope instead
        s = slopes[i]
        if s == 0.0:
            continue
        side = AWAY if s > 0.0 else TOWARD
        node_id = mesh.node_ids[i]
        paths = two_paths(mesh, node_id, side)
        if paths:
            for p in paths:
                a = upwind_stencil(p.dx1, p.dx2)
                i1, i2 = mesh.index(p.first), mesh.index(p.second)
                dr_ds = a[0] * radii[i] + a[1] * radii[i1] + a[2] * radii[i2]
                stencils.append(WindStencil(i, (i, i1, i2), a, dr_ds))
            continue
        nbrs = mesh.side_neighbors(i, side)
        if not nbrs:
            notes.append(f"no-upwind-side node={node_id}")
            continue
        for j, dx in nbrs:
            weights = (-1.0 / dx, 1.0 / dx)
            dr_ds = (radii[j] - radii[i]) / dx
            stencils.append(WindStencil(i, (i, j), weights, dr_ds, first_order=True))
        notes.append(f"first-order-upwind node={node_id}")
    return stencils, notes


# ----------------------------------------------------------------------
# shared fields
# ----------------------------------------------------------------------

# Parts derived from each mesh, built on first request and dropped with
# the mesh.  Meshes never change after construction, so entries never
# go stale.
_DERIVED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _per_mesh(mesh: NetworkMesh, build, *args):
    """``build(mesh, *args)``, computed once per mesh and arguments."""
    store = _DERIVED.setdefault(mesh, {})
    key = (build, *args)
    if key not in store:
        store[key] = build(mesh, *args)
    return store[key]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Fields:
    """Stencils and coefficient fields of one mesh and radius profile.

    :func:`fields` builds one record per (mesh, profile); assembly, the
    lateral map, the Kalinay mass factors and the stability screen all
    read it.  ``slopes`` is ``slope @ radii``.  Arrays are read-only and
    the sparse parts are shared, so treat them as read-only too.
    """

    profile: object
    radii: np.ndarray
    slopes: np.ndarray
    spacings: np.ndarray       # mean incident edge length
    edge_sums: np.ndarray      # sum of incident edge lengths
    inverse_sums: np.ndarray   # sum of their reciprocals
    slope: sp.csr_matrix
    laplacian: tuple[sp.csr_matrix, sp.csr_matrix]
    wind: tuple[WindStencil, ...]
    wind_notes: tuple[str, ...]
    mesh_ref: weakref.ref      # weak, so the record never keeps its mesh alive

    @property
    def third(self) -> tuple[sp.csr_matrix, sp.csr_matrix, tuple[str, ...]]:
        """Third-derivative parts, built when first asked for."""
        return _per_mesh(self.mesh_ref(), third_derivative_parts)

    @property
    def expansion(self) -> tuple[np.ndarray, np.ndarray]:
        """Expanded-flux grid factors dx**2 R'**2 / (4 R**2) and dx**2 R' / (4 R)."""
        dx, radii, slopes = self.spacings, self.radii, self.slopes
        return dx * dx * slopes * slopes / (4.0 * radii * radii), dx * dx * slopes / (4.0 * radii)

    def diffusivity(self, spec: ModelSpec) -> np.ndarray:
        """Per-node diffusion coefficient D(x) of a model."""
        return np.array([diffusion_coefficient(spec, s) for s in self.slopes])

    def mass(self, spec: ModelSpec) -> np.ndarray:
        """Per-node factor on the time derivative of a model."""
        if spec.kind is ModelKind.KALINAY_TEMPORAL:
            return kalinay_mass_factors(self.mesh_ref(), self.profile, spec.epsilon)
        if spec.kind is ModelKind.EXPANDED_FLUX:
            return effj_mass_factor(self.spacings, self.radii, self.slopes)
        return np.ones(len(self.radii))


def _build_fields(mesh: NetworkMesh, profile) -> Fields:
    radii = _read_only(profile.radii(mesh))
    slope = _per_mesh(mesh, slope_matrix)
    slopes = _read_only(slope @ radii)
    _, lengths, inverses = mesh.incident_sums()
    wind, notes = wind_stencils(mesh, radii, slopes)
    return Fields(
        profile=profile,
        radii=radii,
        slopes=slopes,
        spacings=_read_only(local_spacings(mesh)),
        edge_sums=_read_only(lengths),
        inverse_sums=_read_only(inverses),
        slope=slope,
        laplacian=_per_mesh(mesh, laplacian_parts),
        wind=tuple(wind),
        wind_notes=tuple(notes),
        mesh_ref=weakref.ref(mesh),
    )


def fields(mesh: NetworkMesh, profile) -> Fields:
    """The shared :class:`Fields` of a mesh and a (hashable) profile."""
    return _per_mesh(mesh, _build_fields, profile)


def advection_parts(
    mesh: NetworkMesh, profile, spec: ModelSpec
) -> tuple[sp.csr_matrix, sp.csr_matrix, tuple[str, ...]]:
    """Rows for the radial advection term D(x) (2/R) (dR/dx) dc/dx.

    Interior nodes use the two-path upwind machinery; multiple wind-side
    paths are summed.  At a leaf the concentration slope is known from
    the Neumann data, so the whole term moves into the boundary coupling.
    """
    n = mesh.n_nodes
    f = fields(mesh, profile)
    diff = f.diffusivity(spec)
    slot, _ = _leaf_slots(mesh)
    mat = _Builder(n, n)
    neu = _Builder(n, len(slot))

    for st in f.wind:
        i = st.node
        coef = diff[i] * (2.0 / f.radii[i]) * st.radius_slope
        vals = [coef * w for w in st.weights]
        # pin the origin weight to minus the rest so the scaled row still
        # annihilates constants after rounding
        vals[0] = -sum(vals[1:])
        mat.add_many(i, st.cols, vals)
    for i in mesh.leaf_indices():
        coef = diff[i] * (2.0 / f.radii[i]) * f.slopes[i]
        neu.add(i, slot[i], coef)
    return mat.matrix(), neu.matrix(), f.wind_notes


def third_derivative_parts(
    mesh: NetworkMesh,
) -> tuple[sp.csr_matrix, sp.csr_matrix, tuple[str, ...]]:
    """Third-derivative rows in the away-from-root sense (no coefficient).

    Interior nodes take a central difference of the discrete
    second-derivative field, composing the slope rule with the assembled
    second-derivative operator so constants stay exactly in the kernel.
    Leaf closures, with h the mean spacing of the inward two-edge path
    and g the end slope:

        root leaf:      (c2 - 4 c1 + 3 c0) / (2 h**3) + g / h**2
        other leaves:   (-3 cn + 4 cp - c_pp) / (2 h**3) + g / h**2
    """
    lap_m, lap_n = _per_mesh(mesh, laplacian_parts)
    slope = _per_mesh(mesh, slope_matrix).tolil()
    leaf_rows = mesh.leaf_indices()
    for i in leaf_rows:
        slope.rows[i] = []
        slope.data[i] = []
    interior_slope = slope.tocsr()
    mat = (interior_slope @ lap_m).tolil()
    neu = (interior_slope @ lap_n).tolil()

    slot, _ = _leaf_slots(mesh)
    notes: list[str] = []
    for i in leaf_rows:
        node_id = mesh.node_ids[i]
        is_root = mesh.parent_index(i) < 0
        side = AWAY if is_root else TOWARD
        paths = two_paths(mesh, node_id, side)
        if not paths:
            notes.append(f"no-third-derivative-closure node={node_id}")
            continue
        row: dict[int, float] = {}
        neu_w = 0.0
        for p in paths:
            h = 0.5 * (p.dx1 + p.dx2)
            w = 1.0 / (2.0 * h * h * h)
            i1, i2 = mesh.index(p.first), mesh.index(p.second)
            if is_root:
                terms = {i: 3.0 * w, i1: -4.0 * w, i2: w}
            else:
                terms = {i: -3.0 * w, i1: 4.0 * w, i2: -w}
            for j, v in terms.items():
                row[j] = row.get(j, 0.0) + v / len(paths)
            neu_w += 1.0 / (h * h) / len(paths)
        mat.rows[i] = sorted(row)
        mat.data[i] = [row[j] for j in mat.rows[i]]
        neu.rows[i] = [slot[i]]
        neu.data[i] = [neu_w]
    return mat.tocsr(), neu.tocsr(), tuple(notes)


# ----------------------------------------------------------------------
# full models
# ----------------------------------------------------------------------


def assemble_model(mesh: NetworkMesh, profile, spec: ModelSpec) -> SpatialOperator:
    """Assemble the full spatial operator for one model variant."""
    f = fields(mesh, profile)
    _, boundary_ids = _leaf_slots(mesh)
    lap_m, lap_n = f.laplacian
    mass = f.mass(spec)

    if spec.kind is ModelKind.SIMPLE_DIFFUSION:
        matrix = (spec.d0 * lap_m).tocsr()
        neumann = (spec.d0 * lap_n).tocsr()
        return SpatialOperator(matrix, neumann, boundary_ids, mass)

    adv_m, adv_n, notes = advection_parts(mesh, profile, spec)

    if spec.kind in (ModelKind.ZWANZIG, ModelKind.REGUERA_RUBI, ModelKind.KALINAY_PERCUS):
        d = sp.diags(f.diffusivity(spec))
        matrix = d @ lap_m + adv_m
        neumann = d @ lap_n + adv_n
    elif spec.kind is ModelKind.EXPANDED_FLUX:
        thr_m, thr_n, thr_notes = f.third
        notes = notes + thr_notes
        k1, k2 = (sp.diags(k) for k in f.expansion)
        matrix = spec.d0 * (lap_m + k1 @ lap_m + k2 @ thr_m) + adv_m
        neumann = spec.d0 * (lap_n + k1 @ lap_n + k2 @ thr_n) + adv_n
    else:  # Fick-Jacobs, and the temporal model with its own mass factor
        matrix = spec.d0 * lap_m + adv_m
        neumann = spec.d0 * lap_n + adv_n
    return SpatialOperator(matrix.tocsr(), neumann.tocsr(), boundary_ids, mass, notes)


# ----------------------------------------------------------------------
# lateral flux
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FluxWindow:
    """Constant lateral flux on a set of nodes during [t_start, t_end)."""

    node_ids: tuple[int, ...]
    strength: float
    t_start: float = 0.0
    t_end: float = float("inf")


@dataclass(frozen=True)
class LateralFluxField:
    """Scheduled per-node lateral flux J(x, t) as a sum of windows."""

    windows: tuple[FluxWindow, ...] = ()

    def values(self, mesh: NetworkMesh, t: float) -> np.ndarray:
        out = np.zeros(mesh.n_nodes)
        for w in self.windows:
            if w.t_start <= t < w.t_end:
                for node_id in w.node_ids:
                    out[mesh.index(node_id)] += w.strength
        return out


def lateral_operator(mesh: NetworkMesh, profile, spec: ModelSpec) -> sp.csr_matrix:
    """Linear map from nodal lateral flux values J to the source vector.

    Every model keeps the leading wall-exchange term (2/R) J.  The
    expanded-flux model adds its grid-scaled correction

        (dx**2 / (12 R)) * ((2/R) R' J' + J'' + J'''/3)

    built from the same stencils as the concentration derivatives; leaf
    closures reuse one-sided slope estimates of J itself in place of
    external end-slope data.
    """
    f = fields(mesh, profile)
    radii, slopes, dx = f.radii, f.slopes, f.spacings
    lead = sp.diags(2.0 / radii)
    if spec.kind is not ModelKind.EXPANDED_FLUX:
        return lead.tocsr()

    s_full = f.slope
    s_bound = s_full[list(mesh.leaf_indices()), :]
    lap_m, lap_n = f.laplacian
    thr_m, thr_n, _ = f.third
    j2 = lap_m + lap_n @ s_bound
    j3 = thr_m + thr_n @ s_bound
    correction = sp.diags(dx * dx / (12.0 * radii)) @ (
        sp.diags(2.0 * slopes / radii) @ s_full + j2 + j3 / 3.0
    )
    return (lead + correction).tocsr()
