"""Tree-shaped 1D networks of tubes with per-node radii.

A network is a connected, cycle-free graph embedded in 3D.  One node is
designated the root; "toward-root" and "away-from-root" give every other
node a well-defined left/right sense that the difference stencils rely on.
Meshes are treated as immutable once constructed: operations that change
geometry (refinement) return new meshes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

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


@dataclass(frozen=True)
class Node:
    id: int
    position: tuple[float, float, float]
    radius: float


@dataclass(frozen=True)
class Edge:
    a: int
    b: int
    length: float


def _as_node(spec) -> Node:
    if isinstance(spec, Node):
        return spec
    nid, pos, radius = spec
    x, y, z = (float(v) for v in pos)
    return Node(int(nid), (x, y, z), float(radius))


class NetworkMesh:
    """Connected tree of tubular segments.

    Parameters
    ----------
    nodes : iterable of Node or (id, (x, y, z), radius)
    edges : iterable of Edge, (a, b) or (a, b, length)
        Edges without an explicit length get the Euclidean distance
        between their endpoints.
    root : int
        Id of the designated root node.

    Adjacency is held as read-only arrays over storage indices: directed
    edge ``k`` runs from ``origin[k]`` to ``nbr[k]`` with length
    ``nbr_dx[k]``, and node ``i``'s edges fill ``indptr[i]:indptr[i+1]``,
    sorted by neighbour id.  ``parent`` (-1 at the root) orients the tree,
    ``degree`` counts incident edges and ``walks`` lists every two-edge
    walk (see ``WALK_DTYPE``) in the same order.
    """

    def __init__(self, nodes: Iterable, edges: Iterable, root: int):
        self.nodes: tuple[Node, ...] = tuple(_as_node(n) for n in nodes)
        if not self.nodes:
            raise MeshError("mesh needs at least one node")
        self._index: dict[int, int] = {}
        for i, node in enumerate(self.nodes):
            if node.id in self._index:
                raise MeshError(f"duplicate node id {node.id}")
            if not node.radius > 0.0:
                raise MeshError(f"node {node.id}: radius must be positive, got {node.radius}")
            self._index[node.id] = i

        resolved = []
        seen_pairs = set()
        for spec in edges:
            if isinstance(spec, Edge):
                a, b, length = spec.a, spec.b, spec.length
            elif len(spec) == 2:
                a, b = spec
                length = None
            else:
                a, b, length = spec
            a, b = int(a), int(b)
            for nid in (a, b):
                if nid not in self._index:
                    raise MeshError(f"edge ({a}, {b}) references unknown node {nid}")
            if a == b:
                raise MeshError(f"edge ({a}, {b}) is a self-loop")
            pair = (min(a, b), max(a, b))
            if pair in seen_pairs:
                raise MeshError(f"duplicate edge between {a} and {b} creates a cycle")
            seen_pairs.add(pair)
            if length is None:
                pa = np.asarray(self.nodes[self._index[a]].position)
                pb = np.asarray(self.nodes[self._index[b]].position)
                length = float(np.linalg.norm(pb - pa))
            length = float(length)
            if not length > 0.0:
                raise MeshError(f"edge ({a}, {b}): length must be positive, got {length}")
            resolved.append(Edge(a, b, length))
        self.edges: tuple[Edge, ...] = tuple(resolved)

        root = int(root)
        if root not in self._index:
            raise MeshError(f"root id {root} is not a node")
        self.root: int = root

        n = len(self.nodes)
        if len(self.edges) != n - 1:
            raise MeshError(
                f"a tree on {n} nodes needs {n - 1} edges, got {len(self.edges)}"
                " (extra edges close a cycle)"
            )

        # Directed edges in CSR form: row i holds i's neighbours, sorted by
        # neighbour id so that every stencil enumeration is deterministic.
        self.node_ids: tuple[int, ...] = tuple(nd.id for nd in self.nodes)
        ids = np.array(self.node_ids)
        ends = np.array([(self._index[e.a], self._index[e.b]) for e in self.edges],
                        dtype=np.intp).reshape(-1, 2)
        lengths = np.array([e.length for e in self.edges])
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
        iroot = self._index[self.root]
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
            missing = [nd.id for nd, seen in zip(self.nodes, visited) if not seen]
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

        self.radii: np.ndarray = np.array([nd.radius for nd in self.nodes])
        self.positions: np.ndarray = np.array([nd.position for nd in self.nodes])
        for a in (self.radii, self.positions, self.degree, self.indptr, self.origin,
                  self.nbr, self.nbr_dx, self.parent, self.walks):
            a.flags.writeable = False

    # ------------------------------------------------------------------
    # basic queries (by storage index unless the name says id)
    # ------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def index(self, node_id: int) -> int:
        try:
            return self._index[node_id]
        except KeyError:
            raise MeshError(f"no node with id {node_id}") from None

    def indices(self, node_ids) -> np.ndarray:
        """Storage indices of ``node_ids``, in the order given."""
        return np.array([self.index(node_id) for node_id in node_ids], dtype=np.intp)

    def parent_index(self, i: int) -> int:
        """Toward-root neighbor index, or -1 at the root."""
        return int(self.parent[i])

    def arc_lengths(self) -> np.ndarray:
        """Path distance of every node from the root."""
        return self._arc.copy()

    def leaf_indices(self) -> np.ndarray:
        """Storage indices of the degree-one nodes, ascending."""
        return np.flatnonzero(self.degree == 1)

    def total_length(self) -> float:
        return float(sum(e.length for e in self.edges))

    def incident_sums(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per node: incident edge count, summed lengths, summed reciprocals."""
        n = self.n_nodes
        lengths = np.bincount(self.origin, weights=self.nbr_dx, minlength=n)
        inverses = np.bincount(self.origin, weights=1.0 / self.nbr_dx, minlength=n)
        return self.degree, lengths, inverses

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"NetworkMesh(n_nodes={self.n_nodes}, n_edges={len(self.edges)}, "
            f"root={self.root})"
        )


# ----------------------------------------------------------------------
# radius profiles
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TabulatedRadius:
    """Radii read straight off the mesh nodes.  No closed form available."""

    analytic = False

    def radii(self, mesh: NetworkMesh) -> np.ndarray:
        return mesh.radii.copy()


@dataclass(frozen=True)
class ConeRadius:
    """Linearly expanding tube, R(x) = 1 + taper * x."""

    taper: float
    analytic = True

    def radius(self, x: float) -> float:
        return 1.0 + self.taper * x

    def slope(self, x: float) -> float:
        return self.taper

    def radii(self, mesh: NetworkMesh) -> np.ndarray:
        r = 1.0 + self.taper * mesh.positions[:, 0]
        if np.any(r <= 0.0):
            raise MeshError("cone profile gives nonpositive radius on this mesh")
        return r


@dataclass(frozen=True)
class SinusoidRadius:
    """Periodically constricted tube, R(x) = sin(wavenumber * x)."""

    wavenumber: float
    analytic = True

    def radius(self, x: float) -> float:
        return math.sin(self.wavenumber * x)

    def slope(self, x: float) -> float:
        return self.wavenumber * math.cos(self.wavenumber * x)

    def radii(self, mesh: NetworkMesh) -> np.ndarray:
        r = np.sin(self.wavenumber * mesh.positions[:, 0])
        if np.any(r <= 0.0):
            raise MeshError("sinusoid profile gives nonpositive radius on this mesh")
        return r


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
    nodes: list[tuple] = []
    edges: list[tuple] = []
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
                nodes.append((int(args[0]), tuple(float(v) for v in args[1:4]), float(args[4])))
            elif kind == "edge":
                if len(args) == 2:
                    edges.append((int(args[0]), int(args[1])))
                elif len(args) == 3:
                    edges.append((int(args[0]), int(args[1]), float(args[2])))
                else:
                    raise ValueError("expected: edge <idA> <idB> [length]")
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
    return NetworkMesh(nodes, edges, root)


def format_mesh(mesh: NetworkMesh) -> str:
    """Serialize a mesh so that load_mesh(format_mesh(m)) reproduces it bit for bit."""
    lines = []
    for nd in mesh.nodes:
        x, y, z = nd.position
        lines.append(f"node {nd.id} {x!r} {y!r} {z!r} {nd.radius!r}")
    for e in mesh.edges:
        lines.append(f"edge {e.a} {e.b} {e.length!r}")
    lines.append(f"root {mesh.root}")
    return "\n".join(lines) + "\n"


def read_mesh(path) -> NetworkMesh:
    return load_mesh(Path(path).read_text())


def write_mesh(mesh: NetworkMesh, path) -> None:
    Path(path).write_text(format_mesh(mesh))


# ----------------------------------------------------------------------
# mesh generation and refinement
# ----------------------------------------------------------------------


def interval_mesh(x0: float, x1: float, n: int, profile) -> NetworkMesh:
    """Uniform chain of ``n`` nodes on [x0, x1], rooted at the x0 end.

    Radii are sampled from an analytic profile, or taken as 1 when the
    profile is tabulated (callers then override per node).
    """
    if n < 2:
        raise MeshError("interval mesh needs at least two nodes")
    xs = np.linspace(float(x0), float(x1), int(n))
    nodes = []
    for i, x in enumerate(xs):
        r = profile.radius(float(x)) if getattr(profile, "analytic", False) else 1.0
        if not r > 0.0:
            raise MeshError(f"profile radius is nonpositive at x={x}")
        nodes.append((i, (float(x), 0.0, 0.0), float(r)))
    edges = [(i, i + 1, float(xs[i + 1] - xs[i])) for i in range(int(n) - 1)]
    return NetworkMesh(nodes, edges, root=0)


def refine(mesh: NetworkMesh, levels: int = 1) -> NetworkMesh:
    """Bisect every edge ``levels`` times.

    Each pass keeps all existing nodes (ids included), inserts one midpoint
    node per edge with linearly interpolated radius and position, and halves
    edge lengths exactly.  ``levels == 0`` returns the mesh unchanged.
    """
    if levels < 0:
        raise MeshError(f"levels must be >= 0, got {levels}")
    current = mesh
    for _ in range(levels):
        next_id = max(nd.id for nd in current.nodes) + 1
        nodes = list(current.nodes)
        edges: list[tuple] = []
        for e in current.edges:
            ia, ib = current.index(e.a), current.index(e.b)
            pa = np.asarray(current.nodes[ia].position)
            pb = np.asarray(current.nodes[ib].position)
            mid_pos = tuple(float(v) for v in (0.5 * (pa + pb)))
            mid_rad = 0.5 * (current.nodes[ia].radius + current.nodes[ib].radius)
            nodes.append(Node(next_id, mid_pos, mid_rad))
            half = e.length / 2.0
            edges.append((e.a, next_id, half))
            edges.append((next_id, e.b, half))
            next_id += 1
        current = NetworkMesh(nodes, edges, current.root)
    return current


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
