"""Tree-shaped 1D networks of tubes with per-node radii.

A network is a connected, cycle-free graph embedded in 3D.  One node is
designated the root; "toward-root" and "away-from-root" give every other
node a well-defined left/right sense that the difference stencils rely on.
Each node carries the tube radius there; the mesh is the one source of
radii for every stencil, coefficient field and artifact, so a tube with
a closed-form profile is sampled into its mesh once, when it is built.
Meshes are treated as immutable once constructed: operations that change
geometry (refinement, new radii) return new meshes.
"""

from __future__ import annotations

import copy
import math
from pathlib import Path

import numpy as np

from .sparse import row_slots

# One two-edge walk origin -> first -> second; node fields are storage indices.
WALK_DTYPE = np.dtype([("origin", np.intp), ("first", np.intp), ("second", np.intp),
                       ("dx1", float), ("dx2", float)])


class MeshError(ValueError):
    """Invalid network topology or geometry."""


class GeometryParseError(MeshError):
    """Malformed geometry document.  Remembers the offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# the C library's exp, element by element: numpy's vectorized exp differs
# from it in the last bit for some inputs on some CPUs, and a closed form
# must not depend on whether it is taken at one point or at many
c_exp = np.vectorize(math.exp, otypes=[float])


def _raise_first(checks) -> None:
    """Raise for the earliest item that fails a check.

    ``checks`` pairs a failure mask over the items with a function of an
    item's position that words the failure; an item failing several
    checks reports the first, as a check-by-check loop over items would.
    """
    hits = [(np.flatnonzero(mask), message) for mask, message in checks]
    first = min((h[0] for h, _ in hits if len(h)), default=None)
    for h, message in hits:
        if len(h) and h[0] == first:
            raise MeshError(message(first))


def _distance(v: np.ndarray) -> float:
    """Euclidean length of ``v``, one vector at a time (a batched norm
    rounds apart).  Where the squares overflow or underflow, the length
    is taken again with ``v`` scaled by its largest magnitude."""
    with np.errstate(over="ignore"):
        length = np.linalg.norm(v)
        if not 0.0 < length < math.inf:
            s = np.abs(v).max()
            if 0.0 < s < math.inf:
                length = s * np.linalg.norm(v / s)
    return float(length)


def _radius_check(ids: np.ndarray, radii: np.ndarray):
    return (~((radii > 0.0) & (radii < math.inf)),
            lambda i: f"node {ids[i]}: radius must be positive and finite, got {radii[i]}")


class NetworkMesh:
    """Connected tree of tubular segments, held in read-only arrays.

    Node ``i`` has id ``node_ids[i]``, position ``positions[i]`` and
    radius ``radii[i]``.  Edge ``k`` joins the node ids ``edges[k]`` with
    length ``lengths[k]`` (NaN: the Euclidean distance of its ends) and
    is kept as storage indices, ``ends[k]``.  ``root`` is the root's id.

    Adjacency is held over storage indices: directed edge ``k`` runs
    from ``origin[k]`` to ``nbr[k]`` with length ``nbr_dx[k]``, and node
    ``i``'s edges fill ``indptr[i]:indptr[i+1]``, sorted by neighbour id.
    ``parent`` (-1 at the root) orients the tree, ``degree`` counts
    incident edges and ``walks`` lists every two-edge walk (see
    ``WALK_DTYPE``) in the same order.
    """

    def __init__(self, node_ids, positions, radii, edges, lengths, root: int):
        try:
            ids = np.array(node_ids, dtype=np.intp).reshape(-1)
            pairs = np.array(edges, dtype=np.intp).reshape(-1, 2)
        except OverflowError:
            raise MeshError("node ids must fit in 64 bits") from None
        n = len(ids)
        if n < 2:
            raise MeshError(f"mesh needs at least two nodes, got {n}")
        positions = np.array(positions, dtype=float).reshape(n, 3)
        radii = np.array(radii, dtype=float).reshape(n)
        lengths = np.array(lengths, dtype=float).reshape(len(pairs))

        # ids sorted once: duplicates sit side by side, lookups bisect
        self._order = np.argsort(ids, kind="stable")
        self._sorted = ids[self._order]
        repeat = np.zeros(n, dtype=bool)
        repeat[self._order[1:][self._sorted[1:] == self._sorted[:-1]]] = True
        _raise_first([(repeat, lambda i: f"duplicate node id {ids[i]}"),
                      _radius_check(ids, radii),
                      (~np.isfinite(positions).all(axis=1),
                       lambda i: f"node {ids[i]}: position must be finite, "
                                 f"got {positions[i].tolist()}")])

        ends, known = self._lookup(pairs)
        a, b = pairs[:, 0], pairs[:, 1]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        by_pair = np.lexsort((hi, lo))  # stable: a repeat follows its first
        repeat = np.zeros(len(pairs), dtype=bool)
        repeat[by_pair[1:]] = (np.diff(lo[by_pair]) == 0) & (np.diff(hi[by_pair]) == 0)
        missing = np.isnan(lengths)
        if missing.any():
            with np.errstate(over="ignore"):  # an infinite length is refused below
                d = positions[ends[missing, 1]] - positions[ends[missing, 0]]
            lengths[missing] = [_distance(v) for v in d]
        _raise_first([
            (~known[:, 0], lambda k: f"edge ({a[k]}, {b[k]}) references unknown node {a[k]}"),
            (~known[:, 1], lambda k: f"edge ({a[k]}, {b[k]}) references unknown node {b[k]}"),
            (a == b, lambda k: f"edge ({a[k]}, {b[k]}) is a self-loop"),
            (repeat, lambda k: f"duplicate edge between {a[k]} and {b[k]} creates a cycle"),
            (~((lengths > 0.0) & (lengths < math.inf)),
             lambda k: f"edge ({a[k]}, {b[k]}): length must be positive and finite, "
                       f"got {lengths[k]}"),
        ])

        root = int(root)
        iroot, is_node = self._lookup(root)
        if not is_node:
            raise MeshError(f"root id {root} is not a node")
        self.root: int = root
        if len(pairs) != n - 1:
            raise MeshError(f"a tree on {n} nodes needs {n - 1} edges, got {len(pairs)}"
                            " (extra edges close a cycle)")

        # Directed edges in CSR form: row i holds i's neighbours, sorted by
        # neighbour id so that every stencil enumeration is deterministic.
        tail = np.concatenate([ends[:, 0], ends[:, 1]])
        head = np.concatenate([ends[:, 1], ends[:, 0]])
        order = np.lexsort((ids[head], tail))
        self.degree = np.bincount(tail, minlength=n)
        self.indptr = np.concatenate([[0], np.cumsum(self.degree)])
        self.origin = tail[order]
        self.nbr = head[order]
        self.nbr_dx = np.concatenate([lengths, lengths])[order]

        # Orientation: breadth-first from the root over the CSR rows, as
        # lists (a numpy walk per BFS level is slower on deep trees and
        # chains).  parent[i] is the toward-root neighbour, -1 at the root.
        starts, nbr, dx = self.indptr.tolist(), self.nbr.tolist(), self.nbr_dx.tolist()
        iroot = int(iroot)
        parent = [-1] * n
        arc = [math.nan] * n
        arc[iroot] = 0.0
        visited = [False] * n
        visited[iroot] = True
        queue = [iroot]
        for i in queue:  # the queue grows while it is walked
            for k in range(starts[i], starts[i + 1]):
                j = nbr[k]
                if not visited[j]:
                    visited[j] = True
                    parent[j] = i
                    arc[j] = arc[i] + dx[k]
                    queue.append(j)
        if len(queue) < n:
            missing = ids[~np.array(visited)].tolist()
            raise MeshError(f"mesh is disconnected; unreachable nodes: {missing}")
        self.parent = np.array(parent, dtype=np.intp)
        self._arc = np.array(arc)

        # Every two-edge walk origin -> first -> second with second != origin,
        # ordered by origin, then first id, then second id.
        e1 = np.repeat(np.arange(len(self.nbr)), self.degree[self.nbr])
        e2 = row_slots(self.indptr, self.nbr)
        keep = self.nbr[e2] != self.origin[e1]
        e1, e2 = e1[keep], e2[keep]
        self.walks = np.empty(len(e1), dtype=WALK_DTYPE)
        self.walks["origin"] = self.origin[e1]
        self.walks["first"] = self.nbr[e1]
        self.walks["second"] = self.nbr[e2]
        self.walks["dx1"] = self.nbr_dx[e1]
        self.walks["dx2"] = self.nbr_dx[e2]

        self.node_ids, self.positions, self.radii = ids, positions, radii
        self.ends, self.lengths = ends, lengths
        for arr in (ids, positions, radii, ends, lengths, self.degree, self.indptr,
                    self.origin, self.nbr, self.nbr_dx, self.parent, self.walks):
            arr.flags.writeable = False

    def with_radii(self, radii) -> NetworkMesh:
        """The same tree with other (positive) node radii."""
        radii = np.array(radii, dtype=float).reshape(self.n_nodes)
        _raise_first([_radius_check(self.node_ids, radii)])
        radii.flags.writeable = False
        out = copy.copy(self)
        out.radii = radii
        return out

    # ------------------------------------------------------------------
    # basic queries (by storage index unless the name says id)
    # ------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    def index(self, node_id: int) -> int:
        return int(self.indices([node_id])[0])

    def indices(self, node_ids) -> np.ndarray:
        """Storage indices of ``node_ids``, in the order given."""
        found, known = self._lookup(node_ids)
        if not known.all():
            raise MeshError(f"no node with id {np.asarray(node_ids)[~known][0]}")
        return found

    def _lookup(self, node_ids) -> tuple[np.ndarray, np.ndarray]:
        """Storage index of each id (any node's if unknown), and whether it is known."""
        want = np.asarray(node_ids)
        slot = np.minimum(np.searchsorted(self._sorted, want), len(self._sorted) - 1)
        return self._order[slot], self._sorted[slot] == want

    def arc_lengths(self) -> np.ndarray:
        """Path distance of every node from the root."""
        return self._arc.copy()

    def leaf_indices(self) -> np.ndarray:
        """Storage indices of the degree-one nodes, ascending."""
        return np.flatnonzero(self.degree == 1)

    def total_length(self) -> float:
        # summed in edge order (np.sum pairs terms and rounds differently)
        return float(sum(self.lengths.tolist()))

    def incident_sums(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per node: incident edge count, summed lengths, summed reciprocals."""
        n = self.n_nodes
        lengths = np.bincount(self.origin, weights=self.nbr_dx, minlength=n)
        inverses = np.bincount(self.origin, weights=1.0 / self.nbr_dx, minlength=n)
        return self.degree, lengths, inverses

    def __repr__(self) -> str:  # pragma: no cover
        return (f"NetworkMesh(n_nodes={self.n_nodes}, n_edges={len(self.lengths)}, "
                f"root={self.root})")


# ----------------------------------------------------------------------
# geometry documents
# ----------------------------------------------------------------------


def load_mesh(text: str) -> NetworkMesh:
    """Parse a geometry document.

    Grammar (one statement per line, '#' starts a comment)::

        node <id> <x> <y> <z> <radius>
        edge <idA> <idB> [length]
        root <id>
    """
    ids: list[int] = []
    positions: list[list[float]] = []
    radii: list[float] = []
    edges: list[tuple[int, int]] = []
    lengths: list[float] = []
    root: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind, args = tokens[0], tokens[1:]
        try:
            if kind == "node":
                if len(args) != 5:
                    raise ValueError("expected: node <id> <x> <y> <z> <radius>")
                ids.append(int(args[0]))
                positions.append([float(v) for v in args[1:4]])
                radii.append(float(args[4]))
            elif kind == "edge":
                if len(args) not in (2, 3):
                    raise ValueError("expected: edge <idA> <idB> [length]")
                length = float(args[2]) if len(args) == 3 else math.nan
                if len(args) == 3 and math.isnan(length):
                    raise ValueError("edge length must be positive, got nan")
                edges.append((int(args[0]), int(args[1])))
                lengths.append(length)
            elif kind == "root":
                if len(args) != 1:
                    raise ValueError("expected: root <id>")
                root = int(args[0])
            else:
                raise ValueError(f"unknown statement {kind!r}")
        except ValueError as exc:
            raise GeometryParseError(lineno, str(exc)) from None
    if root is None:
        raise GeometryParseError(0, "missing 'root' statement")
    return NetworkMesh(ids, positions, radii, edges, lengths, root)


def format_mesh(mesh: NetworkMesh) -> str:
    """Serialize a mesh so that load_mesh(format_mesh(m)) reproduces it bit for bit."""
    lines = [f"node {i} {x!r} {y!r} {z!r} {r!r}" for i, (x, y, z), r in zip(
        mesh.node_ids.tolist(), mesh.positions.tolist(), mesh.radii.tolist())]
    lines += [f"edge {a} {b} {length!r}" for (a, b), length in zip(
        mesh.node_ids[mesh.ends].tolist(), mesh.lengths.tolist())]
    lines.append(f"root {mesh.root}")
    return "\n".join(lines) + "\n"


def read_mesh(path) -> NetworkMesh:
    return load_mesh(Path(path).read_text())


def write_mesh(mesh: NetworkMesh, path) -> None:
    Path(path).write_text(format_mesh(mesh))


# ----------------------------------------------------------------------
# mesh generation and refinement
# ----------------------------------------------------------------------


def interval_mesh(x0: float, x1: float, n: int, radius) -> NetworkMesh:
    """Uniform chain of ``n`` nodes on [x0, x1], rooted at the x0 end,
    with radii ``radius(x)`` of the array of node x positions."""
    if n < 2:
        raise MeshError("interval mesh needs at least two nodes")
    xs = np.linspace(float(x0), float(x1), int(n))
    positions = np.zeros((len(xs), 3))
    positions[:, 0] = xs
    ids = np.arange(len(xs))
    return NetworkMesh(ids, positions, radius(xs), np.stack([ids[:-1], ids[1:]], axis=1),
                       np.diff(xs), root=0)


def refine(mesh: NetworkMesh, levels: int = 1) -> NetworkMesh:
    """Bisect every edge ``levels`` times.

    Each pass keeps all existing nodes (ids included) and appends one
    midpoint node per edge, in edge order and with fresh ids counting up
    from the largest, at the mean position and radius of the edge's ends;
    edge ``(a, b)`` becomes ``(a, mid), (mid, b)``, each of exactly half
    the length.  The passes run on arrays and the result is built once.
    ``levels == 0`` returns the mesh unchanged.
    """
    if levels < 0:
        raise MeshError(f"levels must be >= 0, got {levels}")
    if levels == 0:
        return mesh
    ids, positions, radii = mesh.node_ids, mesh.positions, mesh.radii
    ends, lengths = mesh.ends, mesh.lengths
    for _ in range(levels):
        a, b = ends[:, 0], ends[:, 1]
        mid = len(ids) + np.arange(len(ends))
        ids = np.concatenate([ids, ids.max() + 1 + np.arange(len(ends))])
        positions = np.concatenate([positions, 0.5 * (positions[a] + positions[b])])
        radii = np.concatenate([radii, 0.5 * (radii[a] + radii[b])])
        ends = np.stack([a, mid, mid, b], axis=1).reshape(-1, 2)
        lengths = np.repeat(lengths / 2.0, 2)
    return NetworkMesh(ids, positions, radii, ids[ends], lengths, mesh.root)


# ----------------------------------------------------------------------
# stencil weights
# ----------------------------------------------------------------------


def upwind_stencil(dx1: float, dx2: float) -> tuple[float, float, float]:
    """Second-order one-sided derivative weights along a two-edge path.

    Returns (a0, a1, a2) with f'(origin) ~= a0*f0 + a1*f1 + a2*f2, exact for
    quadratics; takes floats or equally shaped arrays.  a0 is defined as -(a1 + a2) so the weights annihilate
    constants exactly in floating point.  On a uniform spacing h this is the
    familiar (-3, 4, -1) / (2h) one-sided difference.
    """
    r = 1.0 / (dx1 * dx2 * (dx1 + dx2))
    a1 = r * (dx1 + dx2) ** 2
    a2 = -r * dx1 * dx1
    a0 = -(a1 + a2)
    return a0, a1, a2
