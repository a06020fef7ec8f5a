"""Invariants on random valid trees, and refusal of broken ones.

Every tree is grown breadth-first with 1-4 children per interior node,
random edge lengths and radii, shuffled node ids and a root that is
either a leaf or an interior node.
"""

import contextlib
import io

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from tubediff.cli import main
from tubediff.discretize import assemble_model, slope_matrix
from tubediff.models import ModelKind, ModelSpec
from tubediff.network import MeshError, format_mesh, load_mesh, refine
from tests.mesh_reference import loop_orientation, loop_refine, mesh_from, spec_of
from tests.sparse_oracle import dense
from tests.test_discretize import loop_slopes

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=100)


@st.composite
def tree_specs(draw, min_nodes=2, max_nodes=16):
    """A random valid tree as ``(nodes, edges, root)`` tuples."""
    n = draw(st.integers(min_nodes, max_nodes))
    edges, frontier = [], [0]
    for parent in frontier:  # grows while it is walked
        if len(frontier) == n:
            break
        for _ in range(draw(st.integers(1, min(4, n - len(frontier))))):
            edges.append((parent, len(frontier)))
            frontier.append(len(frontier))
    ids = draw(st.permutations(range(n)))
    lengths = draw(st.lists(st.floats(0.05, 2.0), min_size=n - 1, max_size=n - 1))
    radii = draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n))
    degree = np.bincount(np.ravel(edges), minlength=n)
    leaf_root = draw(st.booleans()) or not (degree > 1).any()
    root = draw(st.sampled_from(np.flatnonzero((degree == 1) == leaf_root).tolist()))
    nodes = [(ids[i], (float(i), 0.0, 0.0), radii[i]) for i in range(n)]
    return nodes, [(ids[a], ids[b], dx) for (a, b), dx in zip(edges, lengths)], ids[root]


def trees(max_nodes=16):
    return tree_specs(max_nodes=max_nodes).map(lambda spec: mesh_from(*spec))


@PROPERTY
@given(trees(), st.data())
def test_slope_matrix_matches_the_scalar_walk(mesh, data):
    values = np.array(data.draw(st.lists(st.floats(0.1, 3.0), min_size=mesh.n_nodes,
                                         max_size=mesh.n_nodes)))
    mat = slope_matrix(mesh)
    scale = np.abs(dense(mat)) @ np.abs(values)
    assert np.all(np.abs(mat @ values - loop_slopes(values, mesh)) <= 1e-12 * scale)


@PROPERTY
@given(trees())
def test_every_assembled_row_annihilates_constants(mesh):
    for kind in ModelKind:
        if kind is ModelKind.KALINAY_TEMPORAL and mesh.degree.max() > 2:
            continue  # defined on unbranched channels only
        matrix = assemble_model(mesh, ModelSpec(kind)).matrix
        row_abs = np.abs(dense(matrix)).sum(axis=1)
        assert np.all(np.abs(matrix @ np.ones(mesh.n_nodes)) <= 1e-12 * row_abs), kind


@PROPERTY
@given(trees())
def test_mesh_text_round_trips_bit_exactly(mesh):
    again = load_mesh(format_mesh(mesh))
    assert np.array_equal(again.node_ids, mesh.node_ids) and again.root == mesh.root
    assert np.array_equal(again.ends, mesh.ends)
    assert np.array_equal(again.lengths, mesh.lengths)
    assert np.array_equal(again.radii, mesh.radii)
    assert np.array_equal(again.positions, mesh.positions)
    for name in ("indptr", "nbr", "nbr_dx", "parent", "walks"):
        assert np.array_equal(getattr(again, name), getattr(mesh, name)), name


@PROPERTY
@given(trees())
def test_refine_keeps_ids_and_halves_lengths(mesh):
    fine = refine(mesh, 1)
    n = mesh.n_nodes
    assert np.array_equal(fine.node_ids[:n], mesh.node_ids) and fine.root == mesh.root
    assert np.array_equal(fine.radii[:n], mesh.radii)
    assert fine.n_nodes == 2 * n - 1
    for (a, b), length, left, right, half_l, half_r in zip(
            mesh.ends, mesh.lengths, fine.ends[::2], fine.ends[1::2],
            fine.lengths[::2], fine.lengths[1::2]):
        assert (left[0], right[1]) == (a, b) and left[1] == right[0]
        assert half_l == half_r == length / 2.0


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@PROPERTY
@given(tree_specs(), st.integers(1, 3), st.data())
def test_array_refine_matches_the_edge_loop(spec, levels, data):
    nodes, edges, root = spec
    corners = data.draw(st.lists(st.tuples(*[st.floats(-10.0, 10.0)] * 3),
                                 min_size=len(nodes), max_size=len(nodes)))
    nodes = [(nid, corner, radius) for (nid, _, radius), corner in zip(nodes, corners)]
    fine = refine(mesh_from(nodes, edges, root), levels)
    want_nodes, want_edges = loop_refine(nodes, edges, levels)
    got_nodes, got_edges, got_root = spec_of(fine)
    assert got_root == root
    assert [n[0] for n in got_nodes] == [n[0] for n in want_nodes]
    for k in (1, 2):
        assert bits([n[k] for n in got_nodes]) == bits([n[k] for n in want_nodes])
    assert [e[:2] for e in got_edges] == [e[:2] for e in want_edges]
    assert bits([e[2] for e in got_edges]) == bits([e[2] for e in want_edges])

    parent, arc, walks = loop_orientation(want_nodes, want_edges, root)
    assert fine.parent.tolist() == parent
    assert bits(fine.arc_lengths()) == bits(arc)
    assert [w[:3] for w in fine.walks.tolist()] == [w[:3] for w in walks]
    assert bits([w[3:] for w in fine.walks.tolist()]) == bits([w[3:] for w in walks])


# each fault and the words of the error it must raise
FAULTS = {
    "duplicate id": "duplicate node id",
    "duplicate edge": "duplicate edge",
    "reversed edge": "duplicate edge",
    "unknown id": "unknown node",
    "self-loop": "self-loop",
    "radius": "radius must be positive",
    "length": "length must be positive",
    "disconnected": "disconnected",
    "edge count": "needs [0-9]+ edges",
}


@st.composite
def broken_specs(draw):
    """A valid tree spec with one fault put in, and the fault's name."""
    nodes, edges, root = draw(tree_specs(min_nodes=3))
    fault = draw(st.sampled_from(sorted(FAULTS)))
    ids = [nid for nid, _, _ in nodes]
    i = draw(st.integers(0, len(nodes) - 1))
    k = draw(st.integers(0, len(edges) - 1))
    a, b, length = edges[k]
    later = draw(st.integers(k + 1, len(edges)))
    if fault == "duplicate id":
        j = draw(st.integers(0, len(nodes) - 1).filter(lambda j: j != i))
        nodes[j] = (ids[i],) + nodes[j][1:]
    elif fault == "duplicate edge":
        edges.insert(later, (a, b, length))
    elif fault == "reversed edge":
        edges.insert(later, (b, a, length))
    elif fault == "unknown id":
        edges[k] = draw(st.sampled_from([(a, max(ids) + 1, length), (min(ids) - 1, b, length)]))
    elif fault == "self-loop":
        edges[k] = (a, a, length)
    elif fault == "radius":
        nodes[i] = nodes[i][:2] + (draw(st.sampled_from([0.0, -0.0, -1.5, np.inf])),)
    elif fault == "length":
        edges[k] = (a, b, draw(st.sampled_from([0.0, -0.0, -0.5, np.inf])))
    elif fault == "disconnected":
        # close a cycle over a two-edge walk; the edge count stays right
        walks = mesh_from(nodes, edges, root).walks
        origin, _, second, _, _ = walks[draw(st.integers(0, len(walks) - 1))]
        edges.append((ids[origin], ids[second], 1.0))
        nodes.append((max(ids) + 1, (0.0, 0.0, 0.0), 1.0))
    else:
        del edges[k]
    return fault, (nodes, edges, root)


def document(nodes, edges, root) -> str:
    lines = [f"node {nid} {x!r} {y!r} {z!r} {r!r}" for nid, (x, y, z), r in nodes]
    lines += [f"edge {a} {b} {length!r}" for a, b, length in edges]
    return "\n".join(lines + [f"root {root}"]) + "\n"


@PROPERTY
@given(broken_specs())
def test_broken_meshes_are_refused(tmp_path_factory, case):
    fault, spec = case
    with pytest.raises(MeshError, match=FAULTS[fault]):
        mesh_from(*spec)
    with pytest.raises(MeshError, match=FAULTS[fault]):
        load_mesh(document(*spec))

    out = tmp_path_factory.mktemp("broken")
    (out / "tree.geom").write_text(document(*spec))
    (out / "run.yaml").write_text(yaml.safe_dump({
        "run": {"model": "fick-jacobs", "dt": 1.0e-4, "t_end": 1.0e-3},
        "geometry": {"kind": "file", "path": str(out / "tree.geom")},
    }))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["simulate", "--config", str(out / "run.yaml"), "--out", str(out)])
    assert code == 2
    (line,) = err.getvalue().splitlines()
    assert line.startswith("error: ") and "Traceback" not in line
