"""Scalar references for mesh construction: tuple specs, per-edge
bisection and per-node orientation, written as plain loops.

A mesh spec is ``(nodes, edges, root)`` with nodes ``(id, (x, y, z),
radius)`` and edges ``(a, b)`` or ``(a, b, length)`` by node id.
"""

import math
from collections import deque

import numpy as np

from tubediff.network import NetworkMesh


def mesh_from(nodes, edges, root):
    """NetworkMesh from a tuple spec; edges without a length get the
    Euclidean one."""
    ids, positions, radii = zip(*nodes) if nodes else ((), (), ())
    lengths = [e[2] if len(e) == 3 else math.nan for e in edges]
    return NetworkMesh(ids, positions, radii, [e[:2] for e in edges], lengths, root)


def spec_of(mesh):
    """The tuple spec of a mesh, in its storage and edge order."""
    nodes = [(i, tuple(p), r) for i, p, r in zip(
        mesh.node_ids.tolist(), mesh.positions.tolist(), mesh.radii.tolist())]
    edges = [(a, b, length) for (a, b), length in zip(
        mesh.node_ids[mesh.ends].tolist(), mesh.lengths.tolist())]
    return nodes, edges, mesh.root


def loop_refine(nodes, edges, levels):
    """Bisect every edge ``levels`` times, one edge at a time: each
    midpoint takes the next fresh id, the mean position and radius of
    the edge's ends, and half its length."""
    for _ in range(levels):
        index = {nid: i for i, (nid, _, _) in enumerate(nodes)}
        next_id = max(nid for nid, _, _ in nodes) + 1
        nodes, halves = list(nodes), []
        for a, b, length in edges:
            _, pa, ra = nodes[index[a]]
            _, pb, rb = nodes[index[b]]
            mid = tuple(float(v) for v in 0.5 * (np.asarray(pa) + np.asarray(pb)))
            nodes.append((next_id, mid, 0.5 * (ra + rb)))
            halves += [(a, next_id, length / 2.0), (next_id, b, length / 2.0)]
            next_id += 1
        edges = halves
    return nodes, edges


def loop_orientation(nodes, edges, root):
    """Per node (storage order): the parent index (-1 at the root) and
    the arc length from the root, by a breadth-first walk over
    neighbours in id order; and every two-edge walk ``(origin, first,
    second, dx1, dx2)`` with second != origin, by origin, then first id,
    then second id."""
    ids = [nid for nid, _, _ in nodes]
    index = {nid: i for i, nid in enumerate(ids)}
    adj = [[] for _ in ids]
    for a, b, length in edges:
        adj[index[a]].append((index[b], length))
        adj[index[b]].append((index[a], length))
    for row in adj:
        row.sort(key=lambda pair: ids[pair[0]])
    parent, arc = [-1] * len(ids), [math.nan] * len(ids)
    arc[index[root]] = 0.0
    queue = deque([index[root]])
    while queue:
        i = queue.popleft()
        for j, length in adj[i]:
            if math.isnan(arc[j]):
                parent[j], arc[j] = i, arc[i] + length
                queue.append(j)
    walks = [(i, j, k, dx1, dx2) for i in range(len(ids)) for j, dx1 in adj[i]
             for k, dx2 in adj[j] if k != i]
    return parent, arc, walks
