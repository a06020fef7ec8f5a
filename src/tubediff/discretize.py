"""Sparse spatial operators on tree meshes.

The semi-discrete system assembled here is

    mass_diag * dc/dt = matrix @ c + neumann @ g(t) + source(t)

where ``g`` collects the prescribed end-slope (Neumann) values at the
leaves.  All stencils work on arbitrary trees with nonuniform spacing:

* second derivative: the branched generalization of (1, -2, 1)/h**2,
  closed at leaves with a mirrored ghost node built from the end slope;
* first derivative: second-order upwinding along two-edge walks chosen on
  the side the information comes from;
* third derivative: a central difference of the nodal second-derivative
  field, with dedicated one-sided closures at the leaves.

The radius R and its slope come from the mesh's node radii alone, and
every stencil and coefficient field is built once per mesh within a run
(see :func:`_per_mesh` and :func:`forget`).  Matrix/vector layouts use
mesh storage indices throughout; leaf slots in the ``neumann`` coupling
follow storage order as well.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .models import (
    ModelKind,
    ModelSpec,
    diffusion_coefficient,
    effj_mass_factor,
    kalinay_g,
)
from .network import MeshError, NetworkMesh
from .sparse import CSR, add, build, row_slots, scale_rows


@dataclass(frozen=True)
class SpatialOperator:
    """Assembled right-hand side of the semi-discrete system."""

    matrix: CSR
    neumann: CSR  # one column per leaf, in storage order
    mass_diag: np.ndarray
    downwind: np.ndarray  # nodes no step is stable at (see :func:`upwind`)
    notes: tuple[str, ...] = ()


# ----------------------------------------------------------------------
# component stencils
# ----------------------------------------------------------------------


def two_edge_walks(mesh: NetworkMesh, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Directed edges ``(e1, e2)`` of the two-edge walks origin -> first ->
    second (second != origin) that start on the edges masked by ``starts``,
    ordered by origin, then first id, then second id."""
    first = np.flatnonzero(starts)
    e1 = np.repeat(first, mesh.degree[mesh.nbr[first]])
    e2 = row_slots(mesh.indptr, mesh.nbr[first])
    keep = mesh.nbr[e2] != mesh.origin[e1]
    return e1[keep], e2[keep]


def upwind_stencil(dx1: float, dx2: float) -> tuple[float, float, float]:
    """Second-order one-sided derivative weights along a two-edge walk.

    Returns (a0, a1, a2) with f'(origin) ~= a0*f0 + a1*f1 + a2*f2, exact for
    quadratics, on floats or equally shaped arrays.  a0 = -(a1 + a2), so the
    weights annihilate constants exactly in floating point; on a uniform
    spacing h they are the familiar (-3, 4, -1) / (2h).
    """
    r = 1.0 / (dx1 * dx2 * (dx1 + dx2))
    a1 = r * (dx1 + dx2) ** 2
    a2 = -r * dx1 * dx1
    a0 = -(a1 + a2)
    return a0, a1, a2


def laplacian_parts(mesh: NetworkMesh) -> tuple[CSR, CSR]:
    """Second-derivative matrix and its Neumann coupling (no diffusion
    coefficient applied).

    Interior node i:  (2 / sum dx_j) * (sum c_j / dx_j - c_i sum 1/dx_j).
    Leaf: ghost node mirrored across the boundary using the end slope g,
    giving the row 2 (c_nbr - c_leaf) / dx**2 with affine term
    -(2/dx) g at the root leaf and +(2/dx) g elsewhere (g measured away
    from the root at every leaf).
    """
    n = mesh.n_nodes
    rows, dx = mesh.origin, mesh.nbr_dx
    lengths = mesh.incident_lengths()
    w = np.where(mesh.degree[rows] == 1, 2.0 / (dx * dx), (2.0 / lengths)[rows] / dx)
    diag = np.arange(n)
    matrix = build(np.concatenate([rows, diag]), np.concatenate([mesh.nbr, diag]),
                   np.concatenate([w, -np.bincount(rows, weights=w, minlength=n)]), (n, n))
    leaves = mesh.leaf_indices()  # in storage order, as the Neumann slots
    sign = np.where(mesh.parent[leaves] < 0, -1.0, 1.0)
    neumann = build(leaves, np.arange(len(leaves)), sign * 2.0 / dx[mesh.indptr[leaves]],
                    (n, len(leaves)))
    return matrix, neumann


def slope_matrix(mesh: NetworkMesh) -> CSR:
    """Central away-from-root first derivative of a nodal field, as a matrix.

    Interior rows take the mean away-side value minus the mean toward-side
    value over the mean span.  Where one side is empty (leaves and the
    root) every neighbour lies on the other side, so the row falls back
    to the second-order two-path stencil over all walks leaving the node,
    averaged, or to a single-edge difference when the mesh is too small
    for a two-edge path.
    """
    n = mesh.n_nodes
    rows, cols, dx = mesh.origin, mesh.nbr, mesh.nbr_dx
    has_parent = mesh.parent >= 0
    n_away = mesh.degree - has_parent
    central = has_parent & (n_away > 0)
    sign = np.where(has_parent, -1.0, 1.0)  # one-sided rows: toward leaves, away root

    toward = mesh.parent[rows] == cols
    away_dx = np.bincount(rows[~toward], weights=dx[~toward], minlength=n)
    span = np.zeros(n)
    span[rows[toward]] = dx[toward]
    span[central] += away_dx[central] / n_away[central]
    c = central[rows]
    central_w = np.where(toward[c], -1.0 / span[rows[c]],
                         1.0 / (n_away[rows[c]] * span[rows[c]]))

    e1, e2 = two_edge_walks(mesh, ~central[rows])
    o = rows[e1]
    n_walks = np.bincount(o, minlength=n)
    share = sign / np.maximum(n_walks, 1)
    a0, a1, a2 = upwind_stencil(dx[e1], dx[e2])
    path_cols = np.stack([o, cols[e1], cols[e2]], axis=1)
    path_w = share[o, None] * np.stack([a0, a1, a2], axis=1)

    e = (~central & (n_walks == 0))[rows]  # too small for a two-edge path
    edge_w = (sign / mesh.degree)[rows[e]] / dx[e]
    return build(
        np.concatenate([rows[c], np.repeat(o, 3), np.repeat(rows[e], 2)]),
        np.concatenate([cols[c], path_cols.ravel(),
                        np.stack([cols[e], rows[e]], axis=1).ravel()]),
        np.concatenate([central_w, path_w.ravel(),
                        np.stack([edge_w, -edge_w], axis=1).ravel()]),
        (n, n),
    )


def wind_stencils(mesh: NetworkMesh, radii: np.ndarray, slopes: np.ndarray):
    """Upwind first-derivative stencils for every non-leaf node, as arrays.

    The wind side follows the sign of the central radius slope: the term
    transports information from the side the radius grows toward, so
    positive slope selects away-from-root paths and negative slope
    toward-root paths.  A zero slope contributes nothing.  When the wind
    side offers no two-edge path the stencil degrades to a first-order
    single-edge difference and the degradation is reported in the notes.

    Returns ``(rows, cols, weights, radius_slope, notes)``:
    one stencil per entry of ``rows``, ordered by row.  ``cols`` (m x 3)
    walks outward from the row's node and ``weights`` (m x 3) are the
    matching derivative weights (a first-order stencil pads its third
    column with a zero weight on the node itself); ``radius_slope`` is
    dR/ds along the same walk, so radius_slope * weights is
    orientation-free.
    """
    n = mesh.n_nodes
    active = (mesh.degree > 1) & (slopes != 0.0)  # leaves carry the end slope
    upwind_toward = ~(slopes > 0.0)

    rows, nbr, dx = mesh.origin, mesh.nbr, mesh.nbr_dx
    on_side = active[rows] & ((mesh.parent[rows] == nbr) == upwind_toward[rows])
    e1, e2 = two_edge_walks(mesh, on_side)
    o, i1, i2 = rows[e1], nbr[e1], nbr[e2]
    a0, a1, a2 = upwind_stencil(dx[e1], dx[e2])
    path_slope = a0 * radii[o] + a1 * radii[i1] + a2 * radii[i2]

    fallback = active & (np.bincount(o, minlength=n) == 0)
    e = fallback[rows] & on_side
    i, j, dx = rows[e], nbr[e], dx[e]
    edge_slope = (radii[j] - radii[i]) / dx

    stencil_rows = np.concatenate([o, i])
    order = np.argsort(stencil_rows, kind="stable")
    cols = np.concatenate([np.stack([o, i1, i2], axis=1), np.stack([i, j, i], axis=1)])
    weights = np.concatenate([np.stack([a0, a1, a2], axis=1),
                              np.stack([-1.0 / dx, 1.0 / dx, np.zeros_like(dx)], axis=1)])
    radius_slope = np.concatenate([path_slope, edge_slope])

    sideless = np.bincount(i, minlength=n) == 0
    notes = tuple(
        f"{'no-upwind-side' if sideless[k] else 'first-order-upwind'} node={mesh.node_ids[k]}"
        for k in np.flatnonzero(fallback)
    )
    return stencil_rows[order], cols[order], weights[order], radius_slope[order], notes


# ----------------------------------------------------------------------
# per-mesh parts
# ----------------------------------------------------------------------

# Parts derived from each mesh, built on first request and kept until a
# run forgets them (:func:`forget`) or the mesh is dropped.  Meshes never
# change after construction, so entries never go stale.
_DERIVED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _per_mesh(mesh: NetworkMesh, make):
    """``make(mesh)``, computed once per mesh."""
    store = _DERIVED.setdefault(mesh, {})
    if make not in store:
        store[make] = make(mesh)
    return store[make]


def forget(mesh: NetworkMesh) -> None:
    """Drop the parts built for ``mesh``; a later request builds them anew."""
    _DERIVED.pop(mesh, None)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def radius_slopes(mesh: NetworkMesh) -> np.ndarray:
    """Central radius slope dR/ds at every node, ``slope_matrix @ radii``."""
    return _read_only(_per_mesh(mesh, slope_matrix) @ mesh.radii)


def spacings(mesh: NetworkMesh) -> np.ndarray:
    """Mean incident edge length at every node."""
    return _read_only(mesh.incident_lengths() / mesh.degree)


def upwind(mesh: NetworkMesh):
    """The mesh's wind stencils ``(rows, cols, weights, radius_slope)``,
    their notes, and the downwind mask: nodes whose upwind stencils
    amplify the alternating mode, where the sum of dR/ds (w0 - w1 + w2)
    is positive.  Every model scales a node's stencils by the same
    positive D (2/R), so the mask holds for all."""
    *wind, notes = wind_stencils(mesh, mesh.radii, _per_mesh(mesh, radius_slopes))
    rows, _, w, radius_slope = wind
    pi_mode = np.bincount(rows, weights=radius_slope * (w[:, 0] - w[:, 1] + w[:, 2]),
                          minlength=mesh.n_nodes)
    return tuple(_read_only(a) for a in wind), notes, _read_only(pi_mode > 0.0)


def advection_parts(mesh: NetworkMesh, spec: ModelSpec) -> tuple[CSR, CSR, tuple[str, ...]]:
    """Rows for the radial advection term D(x) (2/R) (dR/dx) dc/dx.

    Interior nodes use the two-path upwind machinery; multiple wind-side
    paths are summed.  At a leaf the concentration slope is known from
    the Neumann data, so the whole term moves into the boundary coupling.
    """
    n, radii, slopes = mesh.n_nodes, mesh.radii, _per_mesh(mesh, radius_slopes)
    diff = diffusion_coefficient(spec, slopes)
    (rows, cols, weights, radius_slope), notes, _ = _per_mesh(mesh, upwind)
    vals = (diff[rows] * (2.0 / radii[rows]) * radius_slope)[:, None] * weights
    # pin the origin weight to minus the rest so the scaled row still
    # annihilates constants after rounding
    vals[:, 0] = -(vals[:, 1] + vals[:, 2])
    leaves = mesh.leaf_indices()
    coef = diff[leaves] * (2.0 / radii[leaves]) * slopes[leaves]
    return (build(rows[:, None], cols, vals, (n, n)),
            build(leaves, np.arange(len(leaves)), coef, (n, len(leaves))),
            notes)


def third_derivative_parts(
    mesh: NetworkMesh,
) -> tuple[CSR, CSR, tuple[str, ...]]:
    """Third-derivative rows in the away-from-root sense (no coefficient).

    Interior nodes take a central difference of the discrete
    second-derivative field, composing the slope rule with the assembled
    second-derivative operator so constants stay exactly in the kernel.
    Leaf closures average over the two-edge walks leaving the leaf, with
    h the mean spacing of the walk and g the end slope:

        root leaf:      (c2 - 4 c1 + 3 c0) / (2 h**3) + g / h**2
        other leaves:   (-3 cn + 4 cp - c_pp) / (2 h**3) + g / h**2
    """
    n = mesh.n_nodes
    lap_m, lap_n = _per_mesh(mesh, laplacian_parts)
    slope = _per_mesh(mesh, slope_matrix)
    interior_slope = scale_rows((mesh.degree > 1).astype(float), slope)

    leaves = mesh.leaf_indices()
    e1, e2 = two_edge_walks(mesh, mesh.degree[mesh.origin] == 1)
    o = mesh.origin[e1]
    n_walks = np.bincount(o, minlength=n)
    count = n_walks[o]
    h = 0.5 * (mesh.nbr_dx[e1] + mesh.nbr_dx[e2])
    w = 1.0 / (2.0 * h * h * h)
    sign = np.where(mesh.parent[o] < 0, 1.0, -1.0)
    cols = np.stack([o, mesh.nbr[e1], mesh.nbr[e2]], axis=1)
    vals = (sign[:, None] * np.array([3.0, -4.0, 1.0]) * w[:, None]) / count[:, None]
    slot = np.searchsorted(leaves, o)
    neu_w = np.bincount(slot, weights=1.0 / (h * h) / count, minlength=len(leaves))

    matrix = add(interior_slope @ lap_m, build(o[:, None], cols, vals, (n, n)))
    neumann = add(interior_slope @ lap_n, build(leaves, np.arange(len(leaves)), neu_w,
                                                (n, len(leaves))))
    notes = tuple(f"no-third-derivative-closure node={mesh.node_ids[i]}"
                  for i in leaves[n_walks[leaves] == 0])
    return matrix, neumann, notes


# ----------------------------------------------------------------------
# full models
# ----------------------------------------------------------------------


def assemble_model(mesh: NetworkMesh, spec: ModelSpec) -> SpatialOperator:
    """A model variant's full spatial operator, assembled from the mesh's
    parts on every call by one rule: A = D(x) L + advection, where L is the
    Laplacian plus, for expanded-flux, its grid-scaled k1 L and k2 L3
    terms, and the advection rows, with their downwind mask, join for
    every model but simple diffusion.  The time-derivative factor is 1
    but for expanded-flux (its grid-scaled factor) and the temporal model:
    1 + g'(x), g from the radius slope, differentiated with the slope
    matrix.  g reads the absolute axial coordinate, which node x
    positions carry on unbranched channels only."""
    n, radii, slopes = mesh.n_nodes, mesh.radii, _per_mesh(mesh, radius_slopes)
    lap_m, lap_n = _per_mesh(mesh, laplacian_parts)
    mass, downwind, notes = np.ones(n), np.zeros(n, dtype=bool), ()
    if spec.kind is ModelKind.EXPANDED_FLUX:
        thr_m, thr_n, notes = _per_mesh(mesh, third_derivative_parts)
        dx = _per_mesh(mesh, spacings)
        k1, k2 = dx * dx * slopes * slopes / (4.0 * radii * radii), dx * dx * slopes / (4.0 * radii)
        lap_m = add(lap_m, scale_rows(k1, lap_m), scale_rows(k2, thr_m))
        lap_n = add(lap_n, scale_rows(k1, lap_n), scale_rows(k2, thr_n))
        mass = effj_mass_factor(dx, radii, slopes)
    elif spec.kind is ModelKind.KALINAY_TEMPORAL:
        if mesh.degree.max() > 2:
            raise MeshError("the temporally corrected model is only defined on unbranched channels")
        g = kalinay_g(mesh.positions[:, 0], slopes, spec.epsilon)
        mass = 1.0 + _per_mesh(mesh, slope_matrix) @ g
    d = diffusion_coefficient(spec, slopes)
    matrix, neumann = scale_rows(d, lap_m), scale_rows(d, lap_n)
    if spec.kind is not ModelKind.SIMPLE_DIFFUSION:
        adv_m, adv_n, adv_notes = advection_parts(mesh, spec)
        matrix, neumann, notes = add(matrix, adv_m), add(neumann, adv_n), adv_notes + notes
        downwind = _per_mesh(mesh, upwind)[2]
    return SpatialOperator(matrix, neumann, _read_only(mass), _read_only(downwind), notes)


# ----------------------------------------------------------------------
# lateral flux
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FluxWindow:
    """Constant lateral flux on a set of distinct nodes during [t_start, t_end)."""

    node_ids: tuple[int, ...]
    strength: float
    t_start: float = 0.0
    t_end: float = float("inf")

    def __post_init__(self):
        if not self.t_end > self.t_start:  # NaN compares false too
            raise ValueError(f"lateral window from {self.t_start!r} until {self.t_end!r} "
                             "never acts: 'until' must come after 'from'")
        seen = set()
        for node_id in self.node_ids:
            if node_id in seen:  # each window adds its strength once per node
                raise ValueError(f"lateral window names node {node_id} twice")
            seen.add(node_id)


@dataclass(frozen=True)
class LateralFluxField:
    """Scheduled per-node lateral flux J(x, t) as a sum of windows."""

    windows: tuple[FluxWindow, ...] = ()

    def values(self, mesh: NetworkMesh, t: float) -> np.ndarray:
        out = np.zeros(mesh.n_nodes)
        for w in self.windows:
            if w.t_start <= t < w.t_end:
                out[mesh.indices(w.node_ids)] += w.strength
        return out

    def change_steps(self, dt: float, last: int) -> set[int]:
        """The steps 0 ... ``last`` of size ``dt`` at which ``values`` can
        change: 0 and, per window edge in the run, the first k with k * dt at
        or past it (ceil(edge / dt) can be a step late)."""
        changes = {0}
        for edge in {e for w in self.windows for e in (w.t_start, w.t_end)}:
            if 0.0 < edge <= last * dt:
                k = max(int(edge / dt) - 1, 0)
                while k * dt < edge:
                    k += 1
                changes.add(k)
        return changes


def lateral_operator(mesh: NetworkMesh, spec: ModelSpec) -> CSR:
    """Linear map from nodal lateral flux values J to the source vector.

    Every model keeps the leading wall-exchange term (2/R) J.  The
    expanded-flux model adds its grid-scaled correction

        (dx**2 / (12 R)) * ((2/R) R' J' + J'' + J'''/3)

    built from the same stencils as the concentration derivatives; leaf
    closures reuse one-sided slope estimates of J itself in place of
    external end-slope data.
    """
    radii, n, leaves = mesh.radii, mesh.n_nodes, mesh.leaf_indices()
    lead = build(np.arange(n), np.arange(n), 2.0 / radii, (n, n))
    if spec.kind is not ModelKind.EXPANDED_FLUX:
        return lead

    slopes, dx = _per_mesh(mesh, radius_slopes), _per_mesh(mesh, spacings)
    s_full = _per_mesh(mesh, slope_matrix)
    s_bound = build(np.arange(len(leaves)), leaves, 1.0, (len(leaves), n)) @ s_full
    lap_m, lap_n = _per_mesh(mesh, laplacian_parts)
    thr_m, thr_n, _ = _per_mesh(mesh, third_derivative_parts)
    j2 = add(lap_m, lap_n @ s_bound)
    j3 = add(thr_m, thr_n @ s_bound)
    correction = scale_rows(dx * dx / (12.0 * radii),
                            add(scale_rows(2.0 * slopes / radii, s_full), j2, (1.0 / 3.0) * j3))
    return add(lead, correction)
