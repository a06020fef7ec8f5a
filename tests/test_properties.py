"""Invariants on random valid trees.

Every tree is grown breadth-first with 1-4 children per interior node,
random edge lengths and radii, shuffled node ids and a root that is
either a leaf or an interior node.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tubediff.discretize import assemble_model, slope_matrix
from tubediff.models import ModelKind, ModelSpec
from tubediff.network import NetworkMesh, TabulatedRadius, format_mesh, load_mesh, refine
from tests.sparse_oracle import dense
from tests.test_discretize import loop_slopes

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=100)


@st.composite
def trees(draw, max_nodes=16):
    n = draw(st.integers(2, max_nodes))
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
    return NetworkMesh(
        nodes, [(ids[a], ids[b], dx) for (a, b), dx in zip(edges, lengths)], ids[root]
    )


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
        matrix = assemble_model(mesh, TabulatedRadius(), ModelSpec(kind)).matrix
        row_abs = np.abs(dense(matrix)).sum(axis=1)
        assert np.all(np.abs(matrix @ np.ones(mesh.n_nodes)) <= 1e-12 * row_abs), kind


@PROPERTY
@given(trees())
def test_mesh_text_round_trips_bit_exactly(mesh):
    again = load_mesh(format_mesh(mesh))
    assert again.node_ids == mesh.node_ids and again.root == mesh.root
    assert again.edges == mesh.edges
    assert np.array_equal(again.radii, mesh.radii)
    assert np.array_equal(again.positions, mesh.positions)
    for name in ("indptr", "nbr", "nbr_dx", "parent", "walks"):
        assert np.array_equal(getattr(again, name), getattr(mesh, name)), name


@PROPERTY
@given(trees())
def test_refine_keeps_ids_and_halves_lengths(mesh):
    fine = refine(mesh, 1)
    n = mesh.n_nodes
    assert fine.node_ids[:n] == mesh.node_ids and fine.root == mesh.root
    assert np.array_equal(fine.radii[:n], mesh.radii)
    assert fine.n_nodes == 2 * n - 1
    for e, (left, right) in zip(mesh.edges, zip(fine.edges[::2], fine.edges[1::2])):
        assert (left.a, right.b) == (e.a, e.b) and left.b == right.a
        assert left.length == right.length == e.length / 2.0
