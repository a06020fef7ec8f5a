"""Tree-shaped 1D networks of tubes with per-node radii.

A network is a connected, cycle-free graph embedded in 3D.  One node is
designated the root; "toward-root" and "away-from-root" give every other
node a well-defined left/right sense that the difference stencils rely on.
Each node carries the tube radius there; the mesh is the one source of
radii for every stencil, coefficient field and artifact, so a tube with
a closed-form profile is sampled into its mesh once, when it is built.
Meshes are treated as immutable once constructed: operations that change
geometry (refinement, new radii) return new meshes.  The stencils built
on a mesh, and the two-edge walks they run along, live in :mod:`.discretize`.
"""

from __future__ import annotations

import copy
import math
from pathlib import Path

import numpy as np

from .sparse import row_slots


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


def _orient(ids, indptr, nbr, twin, dx, iroot: int):
    """Orient a tree from storage index ``iroot``: each node's parent
    (-1 at the root) and its arc length from the root.

    ``twin[k]`` is the reverse of directed edge ``k``.  One walk of the
    Euler tour gives both: from the root's first edge, after edge
    u -> v it takes v's next edge after v -> u in its row (cyclically),
    and so takes each directed edge of a tree once.  An edge u -> v to a
    node other than u's parent reaches v for the first time: v's arc is
    u's plus the edge length, as a breadth-first walk adds them, so the
    bits do not depend on the order of the walk.  Where the n - 1 edges
    close a cycle, some node stays unreached and the mesh is refused.
    """
    n = len(indptr) - 1
    parent = np.full(n, -1, dtype=np.intp)
    arc = np.full(n, math.nan)
    arc[iroot] = 0.0
    if indptr[iroot] < indptr[iroot + 1]:  # an isolated root reaches nothing
        after = twin + 1
        wrap = after == indptr[nbr + 1]
        after[wrap] = indptr[nbr[wrap]]
        to, nxt, length = (memoryview(a) for a in (nbr, after, dx))
        up, at = memoryview(parent), memoryview(arc)
        u, k = iroot, int(indptr[iroot])
        for _ in range(len(to)):  # the tour's length: a walk round a cycle never ends
            v = to[k]
            if v != up[u]:
                up[v], at[v] = u, at[u] + length[k]
            u, k = v, nxt[k]
    if np.isnan(arc).any():  # not a tree: its n - 1 edges close a cycle
        reached = np.zeros(n, dtype=bool)
        reached[iroot] = True
        frontier = np.array([iroot])
        while len(frontier):
            ahead = np.zeros(n, dtype=bool)
            ahead[nbr[row_slots(indptr, frontier)]] = True
            frontier = np.flatnonzero(ahead & ~reached)
            reached |= ahead
        raise MeshError(f"mesh is disconnected; unreachable nodes: {ids[~reached].tolist()}")
    return parent, arc


class NetworkMesh:
    """Connected tree of tubular segments, held in read-only arrays.

    Node ``i`` has id ``node_ids[i]``, position ``positions[i]`` and
    radius ``radii[i]``.  Edge ``k`` joins the node ids ``edges[k]`` with
    length ``lengths[k]`` (NaN: the Euclidean distance of its ends) and
    is kept as storage indices, ``ends[k]``.  ``root`` is the root's id.

    Adjacency is held over storage indices: directed edge ``k`` runs
    from ``origin[k]`` to ``nbr[k]`` with length ``nbr_dx[k]``, and node
    ``i``'s edges fill ``indptr[i]:indptr[i+1]``, sorted by neighbour id.
    ``parent`` (-1 at the root) orients the tree and ``degree`` counts
    incident edges.
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
        # what only checks or builds the tree is dropped once used: a large
        # tree's peak memory is its own arrays plus the largest of these
        del pairs, a, b, lo, hi, by_pair, repeat, known, missing

        root = int(root)
        iroot, is_node = self._lookup(root)
        if not is_node:
            raise MeshError(f"root id {root} is not a node")
        self.root: int = root
        if len(lengths) != n - 1:
            raise MeshError(f"a tree on {n} nodes needs {n - 1} edges, got {len(lengths)}"
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
        # the reverse of each directed edge: edge j of the two concatenated
        # halves is reversed by the edge one half away
        twin = np.empty_like(order)
        twin[order] = np.arange(len(order))
        twin = twin[(order + len(lengths)) % len(order)]
        del tail, head, order

        self.parent, self._arc = _orient(ids, self.indptr, self.nbr, twin, self.nbr_dx,
                                         int(iroot))
        del twin

        self.node_ids, self.positions, self.radii = ids, positions, radii
        self.ends, self.lengths = ends, lengths
        for arr in (ids, positions, radii, ends, lengths, self.degree, self.indptr,
                    self.origin, self.nbr, self.nbr_dx, self.parent):
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

    def incident_lengths(self) -> np.ndarray:
        """Per node: the summed lengths of its incident edges."""
        return np.bincount(self.origin, weights=self.nbr_dx, minlength=self.n_nodes)

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


# lines of mesh text made at a time, so that hashing or writing a large
# mesh never holds its whole text
TEXT_PIECE = 1024


def format_mesh(mesh: NetworkMesh) -> str:
    """Serialize a mesh so that load_mesh(format_mesh(m)) reproduces it bit for bit."""
    return "".join(_text_pieces(mesh))


def _text_pieces(mesh: NetworkMesh):
    """The text of ``format_mesh``, ``TEXT_PIECE`` lines at a time."""
    ids = mesh.node_ids
    for p in range(0, mesh.n_nodes, TEXT_PIECE):
        piece = slice(p, p + TEXT_PIECE)
        yield "".join(f"node {i} {x!r} {y!r} {z!r} {r!r}\n" for i, (x, y, z), r in zip(
            ids[piece].tolist(), mesh.positions[piece].tolist(), mesh.radii[piece].tolist()))
    for p in range(0, len(mesh.lengths), TEXT_PIECE):
        piece = slice(p, p + TEXT_PIECE)
        yield "".join(f"edge {a} {b} {length!r}\n" for (a, b), length in zip(
            ids[mesh.ends[piece]].tolist(), mesh.lengths[piece].tolist()))
    yield f"root {mesh.root}\n"


def read_mesh(path) -> NetworkMesh:
    return load_mesh(Path(path).read_text())


def write_mesh(mesh: NetworkMesh, path) -> None:
    with open(path, "w") as f:
        f.writelines(_text_pieces(mesh))


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
