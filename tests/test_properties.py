"""Invariants on random valid trees, and refusal of broken ones.

Every tree is grown breadth-first with 1-4 children per interior node,
random edge lengths and radii, shuffled node ids and a root that is
either a leaf or an interior node.
"""

import contextlib
import io
import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from tubediff.cli import main
from tubediff.discretize import assemble_model, slope_matrix
from tubediff.geometry import ball_on_stick, constricted_tree
from tubediff.models import ModelKind, ModelSpec
from tubediff.network import MeshError, format_mesh, load_mesh, refine
from tubediff.sparse import add, build
from tubediff.stability import check_model
from tests.mesh_reference import loop_orientation, loop_refine, mesh_from, spec_of
from tests.sparse_oracle import dense
from tests.test_discretize import loop_slopes
from tests.test_network import all_walks

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
@given(trees(max_nodes=40))
def test_a_screened_step_keeps_the_spectrum_in_bounds(mesh):
    # dt_max * rho(M^-1 A) <= 2 on every operator the screen admits; where
    # the spectrum is real and not growing, the step it admits is stable
    for kind in ModelKind:
        if kind is ModelKind.KALINAY_TEMPORAL and mesh.degree.max() > 2:
            continue
        spec = ModelSpec(kind)
        op = assemble_model(mesh, spec)
        dt_max = check_model(mesh, op, 1.0).dt_max
        if dt_max == 0.0:
            continue  # refused
        lam = np.linalg.eigvals(dense(op.matrix) / op.mass_diag[:, None])
        assert dt_max * np.abs(lam).max() <= 2.0 * (1.0 + 1e-12), kind
        if np.all(lam.imag == 0.0) and np.all(lam.real <= 1e-9 * np.abs(lam).max()):
            assert np.abs(1.0 + dt_max * lam).max() <= 1.0 + 1e-12, kind


@PROPERTY
@given(trees())
def test_mesh_text_round_trips_bit_exactly(mesh):
    again = load_mesh(format_mesh(mesh))
    assert np.array_equal(again.node_ids, mesh.node_ids) and again.root == mesh.root
    assert np.array_equal(again.ends, mesh.ends)
    assert np.array_equal(again.lengths, mesh.lengths)
    assert np.array_equal(again.radii, mesh.radii)
    assert np.array_equal(again.positions, mesh.positions)
    for name in ("indptr", "nbr", "nbr_dx", "parent"):
        assert np.array_equal(getattr(again, name), getattr(mesh, name)), name
    assert all_walks(again) == all_walks(mesh)


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
    got = all_walks(fine)
    assert [w[:3] for w in got] == [w[:3] for w in walks]
    assert bits([w[3:] for w in got]) == bits([w[3:] for w in walks])


def joined_spec(parents, root, seed):
    """A tree spec in which node ``i + 1`` joins node ``parents[i]``, with
    shuffled ids, random lengths and the root at node ``root``."""
    rng = np.random.default_rng(seed)
    n = len(parents) + 1
    ids = rng.permutation(n).tolist()
    lengths = rng.uniform(0.05, 2.0, n - 1).tolist()
    nodes = [(ids[i], (float(i), 0.0, 0.0), 1.0) for i in range(n)]
    edges = [(ids[p], ids[i + 1], dx) for i, (p, dx) in enumerate(zip(parents, lengths))]
    return nodes, edges, ids[root]


def assert_oriented_as_the_walk(spec):
    mesh = mesh_from(*spec)
    parent, arc, walks = loop_orientation(*spec)
    assert mesh.parent.tolist() == parent
    assert bits(mesh.arc_lengths()) == bits(arc)
    assert all_walks(mesh) == walks


@PROPERTY
@given(tree_specs(max_nodes=40))
def test_orientation_equals_the_breadth_first_walk(spec):
    assert_oriented_as_the_walk(spec)


@PROPERTY
@given(st.integers(2, 400), st.integers(0, 2**32 - 1), st.data())
def test_random_recursive_trees_orient_as_the_walk(n, seed, data):
    # node i joins a uniformly drawn earlier node
    parents = np.random.default_rng(seed).integers(0, np.arange(1, n)).tolist()
    assert_oriented_as_the_walk(joined_spec(parents, data.draw(st.integers(0, n - 1)), seed))


def caterpillar(k):
    """A spine of ``k`` nodes, each with one leg."""
    return list(range(k - 1)) + list(range(k))


SHAPES = {  # parents, root
    "chain rooted mid-chain": (list(range(1000)), 500),
    "chain of 10^4 nodes": (list(range(9999)), 0),
    "chain of 10^4 nodes rooted at its far end": (list(range(9999)), 9999),
    "star rooted at its centre": ([0] * 300, 0),
    "star rooted at a leaf": ([0] * 300, 17),
    "caterpillar rooted mid-spine": (caterpillar(500), 250),
    "broom: a long handle ending in a star": (list(range(400)) + [400] * 400, 0),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_tree_shapes_orient_as_the_walk(shape):
    parents, root = SHAPES[shape]
    assert_oriented_as_the_walk(joined_spec(parents, root, seed=len(parents)))


@pytest.mark.parametrize("level", range(10))
@pytest.mark.parametrize("builder", [constricted_tree, ball_on_stick])
def test_shipped_trees_orient_as_the_walk(builder, level):
    assert_oriented_as_the_walk(spec_of(builder(level)))


def test_an_arc_that_overflows_is_infinite():
    # no warning either: a RuntimeWarning fails the suite
    spec = ([(i, (float(i), 0.0, 0.0), 1.0) for i in range(4)],
            [(0, 1, 1e308), (1, 2, 1e308), (2, 3, 1.0)], 0)
    assert_oriented_as_the_walk(spec)
    assert mesh_from(*spec).arc_lengths().tolist() == [0.0, 1e308, math.inf, math.inf]


@st.composite
def cyclic_specs(draw):
    """A valid tree spec with cycles closed in it: a chord between two
    nodes not yet joined, a separate triangle, or both; or a new root
    with no edges and a triangle on a node of the tree.  One spec keeps
    the chord without a node added, and has one edge too many."""
    nodes, edges, root = draw(tree_specs(min_nodes=3))
    ids = [nid for nid, _, _ in nodes]
    top = max(ids)
    kind = draw(st.sampled_from(["chord", "chord and node", "triangle", "both",
                                 "isolated root"]))
    if kind == "isolated root":
        root, a, b, c = top + 1, draw(st.sampled_from(ids)), top + 2, top + 3
        nodes.insert(draw(st.integers(0, len(nodes))), (root, (0.0, 0.0, 0.0), 1.0))
        nodes += [(b, (0.0, 0.0, 0.0), 1.0), (c, (0.0, 0.0, 0.0), 1.0)]
        edges += [(a, b, 1.0), (b, c, 1.0), (c, a, 1.0)]
    elif kind != "triangle":
        joined = {frozenset(e[:2]) for e in edges}
        a, b = draw(st.sampled_from([(a, b) for a in ids for b in ids
                                     if a < b and frozenset((a, b)) not in joined]))
        edges.insert(draw(st.integers(0, len(edges))), (a, b, 1.0))
        if kind != "chord":
            top += 1
            nodes.insert(draw(st.integers(0, len(nodes))), (top, (0.0, 0.0, 0.0), 1.0))
    if kind in ("triangle", "both"):
        t = [top + 1, top + 2, top + 3]
        nodes += [(i, (0.0, 0.0, 0.0), 1.0) for i in t]
        edges += [(t[0], t[1], 1.0), (t[1], t[2], 1.0), (t[2], t[0], 1.0)]
    return nodes, edges, root


@PROPERTY
@given(cyclic_specs())
def test_cycles_are_refused_in_the_walks_words(spec):
    nodes, edges, root = spec
    n = len(nodes)
    if len(edges) != n - 1:
        words = f"a tree on {n} nodes needs {n - 1} edges, got {len(edges)} " \
                "(extra edges close a cycle)"
    else:
        _, arc, _ = loop_orientation(*spec)
        unreached = [nid for (nid, _, _), x in zip(nodes, arc) if math.isnan(x)]
        words = f"mesh is disconnected; unreachable nodes: {unreached}"
    with pytest.raises(MeshError) as refused:
        mesh_from(*spec)
    assert str(refused.value) == words


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
        walks = all_walks(mesh_from(nodes, edges, root))
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


def triplet_build(rows, cols, vals, shape):
    """The sum that keeps its triplets: rows and columns ride through a
    stable sort by (row, column), each run of duplicates is summed by a
    bincount in the order given, and sums of 0.0 are left out.  Returns
    ``(indptr, indices, data)``."""
    rows, cols, vals = (np.ravel(a) for a in np.broadcast_arrays(rows, cols, vals))
    order = np.argsort(rows.astype(np.int64) * shape[1] + cols, kind="stable")
    rows, cols, vals = rows[order], cols[order], vals[order]
    new = np.concatenate([[True], (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])])
    new = new[: len(rows)]
    sums = np.bincount(np.cumsum(new) - 1, weights=vals, minlength=int(new.sum()))
    kept = sums != 0.0
    rows, cols = rows[new][kept], cols[new][kept]
    return (np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=shape[0]))]), cols,
            sums[kept])


def assert_same_arrays(ours, reference):
    for a, b in zip((ours.indptr, ours.indices, ours.data), reference):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def triplets(draw, shape):
    """Up to 30 triplets on a few positions of ``shape``, so that they
    repeat: values that cancel (1e16, -1e16), exact zeros, and, on a
    drawn flag, the negated triplets once more, so that sums reach 0.0."""
    def position(n):
        return st.sampled_from(sorted({0, n // 2, n - 1})) | st.integers(0, n - 1)

    size = draw(st.integers(0, 30))
    rows, cols = (draw(st.lists(position(n), min_size=size, max_size=size)) for n in shape)
    vals = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 0.1, 3.0e-7])
                         | st.floats(-5.0, 5.0), min_size=size, max_size=size))
    if draw(st.booleans()):
        rows, cols, vals = rows * 2, cols * 2, vals + [-v for v in vals]
    return (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
            np.array(vals, dtype=float))


# 70,000**2 >= 2**31: that shape sums by 64-bit keys, the others by 32-bit
KEY_SHAPES = {"32-bit": st.sampled_from([(1, 1), (4, 3), (2, 9), (12, 12)]),
              "64-bit": st.just((70_000, 70_000))}


@pytest.mark.parametrize("keys", sorted(KEY_SHAPES))
@settings(PROPERTY, max_examples=40)
@given(st.data())
def test_keyed_build_equals_the_triplet_build(keys, data):
    shape = data.draw(KEY_SHAPES[keys])
    rows, cols, vals = data.draw(triplets(shape))
    assert_same_arrays(build(rows, cols, vals, shape), triplet_build(rows, cols, vals, shape))


@pytest.mark.parametrize("keys", sorted(KEY_SHAPES))
@settings(PROPERTY, max_examples=40)
@given(st.data())
def test_keyed_add_equals_concatenating_the_terms(keys, data):
    shape = data.draw(KEY_SHAPES[keys])
    terms = [build(*data.draw(triplets(shape)), shape)
             for _ in range(data.draw(st.integers(1, 4)))]
    if data.draw(st.booleans()):  # whole terms cancel
        terms.append(-1.0 * terms[data.draw(st.integers(0, len(terms) - 1))])
    reference = triplet_build(np.concatenate([m.rows for m in terms]),
                              np.concatenate([m.indices for m in terms]),
                              np.concatenate([m.data for m in terms]), shape)
    assert_same_arrays(add(*terms), reference)
