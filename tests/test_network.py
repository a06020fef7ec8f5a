"""Mesh loading, refinement, orientation, and derivative stencils."""

import math
import warnings

import numpy as np
import pytest

from tests.mesh_reference import mesh_from
from tests.sparse_oracle import dense
from tubediff.discretize import slope_matrix
from tubediff.network import (
    GeometryParseError,
    MeshError,
    format_mesh,
    interval_mesh,
    load_mesh,
    refine,
    upwind_stencil,
)

TWO_NODE_DOC = """\
# minimal channel
node 0 0.0 0.0 0.0 1.0
node 1 1.0 0.0 0.0 1.0
edge 0 1
root 0
"""


def chain_mesh(radii, h=1.0):
    nodes = [(i, (i * h, 0.0, 0.0), r) for i, r in enumerate(radii)]
    edges = [(i, i + 1, h) for i in range(len(radii) - 1)]
    return mesh_from(nodes, edges, root=0)


def y_mesh(radii=(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)):
    """Chain 0-1-2 continuing into two arms 2-3-4 and 2-5, unit lengths."""
    nodes = [
        (0, (0.0, 0.0, 0.0), radii[0]),
        (1, (1.0, 0.0, 0.0), radii[1]),
        (2, (2.0, 0.0, 0.0), radii[2]),
        (3, (3.0, 1.0, 0.0), radii[3]),
        (4, (4.0, 2.0, 0.0), radii[4]),
        (5, (3.0, -1.0, 0.0), radii[5]),
    ]
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (2, 5, 1.0)]
    return mesh_from(nodes, edges, root=0)


def walks_from(mesh, node_id, side):
    """Two-edge walks leaving a node ``toward`` the root or ``away`` from it,
    read off ``mesh.walks`` as (first id, second id, dx1, dx2)."""
    w = mesh.walks[mesh.walks["origin"] == mesh.index(node_id)]
    w = w[(mesh.parent[w["origin"]] == w["first"]) == (side == "toward")]
    return [(mesh.node_ids[j], mesh.node_ids[k], dx1, dx2)
            for j, k, dx1, dx2 in zip(w["first"], w["second"], w["dx1"], w["dx2"])]


class TestLoading:
    def test_two_node_document(self):
        mesh = load_mesh(TWO_NODE_DOC)
        assert mesh.n_nodes == 2
        assert len(mesh.lengths) == 1
        assert mesh.lengths[0] == 1.0
        assert mesh.root == 0

    def test_one_node_document_rejected(self):
        with pytest.raises(MeshError, match="at least two nodes, got 1"):
            load_mesh("node 0 0 0 0 1.0\nroot 0\n")

    def test_explicit_edge_length_overrides_euclidean(self):
        doc = TWO_NODE_DOC.replace("edge 0 1", "edge 0 1 2.5")
        mesh = load_mesh(doc)
        assert mesh.lengths[0] == 2.5

    def test_duplicate_edge_is_a_cycle_error(self):
        doc = TWO_NODE_DOC + "edge 1 0\n"
        with pytest.raises(MeshError, match="cycle"):
            load_mesh(doc)

    def test_disconnected_mesh_rejected(self):
        doc = """\
node 0 0 0 0 1.0
node 1 1 0 0 1.0
node 2 5 0 0 1.0
node 3 6 0 0 1.0
edge 0 1
edge 2 3
root 0
"""
        with pytest.raises(MeshError):
            load_mesh(doc)

    def test_nonpositive_radius_rejected(self):
        doc = TWO_NODE_DOC.replace("node 1 1.0 0.0 0.0 1.0", "node 1 1.0 0.0 0.0 0.0")
        with pytest.raises(MeshError, match="radius"):
            load_mesh(doc)

    def test_parse_error_carries_line_number(self):
        doc = "node 0 0 0 0 1.0\nnode 1 1 0 0\nedge 0 1\nroot 0\n"
        with pytest.raises(GeometryParseError) as err:
            load_mesh(doc)
        assert err.value.line == 2

    def test_nan_edge_length_names_the_line(self):
        doc = TWO_NODE_DOC.replace("edge 0 1", "edge 0 1 nan")
        with pytest.raises(GeometryParseError, match="length") as err:
            load_mesh(doc)
        assert err.value.line == 4

    def test_earliest_faulty_edge_is_reported(self):
        nodes = [(i, (float(i), 0.0, 0.0), 1.0) for i in range(3)]
        with pytest.raises(MeshError, match=r"edge \(1, 1\) is a self-loop"):
            mesh_from(nodes, [(0, 1), (1, 1), (0, 7)], root=0)

    @pytest.mark.parametrize("old, new, words", [
        ("edge 0 1", "edge 0 1 inf",
         r"edge \(0, 1\): length must be positive and finite, got inf"),
        ("node 1 1.0 0.0 0.0 1.0", "node 1 1.0 0.0 0.0 inf",
         "node 1: radius must be positive and finite, got inf"),
        ("node 1 1.0 0.0 0.0 1.0", "node 1 1.0 nan 0.0 1.0", "node 1: position must be finite"),
        ("node 1 1.0 0.0 0.0 1.0", "node 1 -inf 0.0 0.0 1.0", "node 1: position must be finite"),
        # finite ends whose distance overflows: the filled-in length is checked too
        ("0.0 0.0 0.0 1.0\nnode 1 1.0", "-1e308 0.0 0.0 1.0\nnode 1 1e308",
         r"edge \(0, 1\): length must be positive and finite, got inf"),
    ])
    def test_non_finite_geometry_names_the_node_or_edge(self, old, new, words):
        doc = TWO_NODE_DOC.replace(old, new)
        assert doc != TWO_NODE_DOC
        with pytest.raises(MeshError, match=words):
            load_mesh(doc)

    @pytest.mark.parametrize("x", ["1e200", "1e-200"])
    def test_missing_length_of_an_extreme_distance(self, x):
        # the squares of these distances overflow or underflow a double
        doc = TWO_NODE_DOC.replace("node 1 1.0 0.0 0.0 1.0", f"node 1 {x} 0.0 0.0 1.0")
        assert doc != TWO_NODE_DOC
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mesh = load_mesh(doc)
        assert mesh.lengths[0] == float(x)

    def test_id_beyond_64_bits_is_a_mesh_error(self):
        huge = 2**64
        doc = TWO_NODE_DOC.replace("node 1 ", f"node {huge} ")
        doc = doc.replace("edge 0 1", f"edge 0 {huge}")
        with pytest.raises(MeshError, match="64 bits"):
            load_mesh(doc)

    def test_unknown_id_lookup_is_a_mesh_error(self):
        with pytest.raises(MeshError, match="no node with id 9"):
            y_mesh().indices([2, 9])

    def test_missing_root_rejected(self):
        doc = "node 0 0 0 0 1.0\nnode 1 1 0 0 1.0\nedge 0 1\n"
        with pytest.raises(GeometryParseError):
            load_mesh(doc)

    def test_round_trip_is_bit_exact(self):
        mesh = y_mesh(radii=(1.2, 0.7, 0.31, 0.9, 1.05, 0.4))
        text = format_mesh(mesh)
        again = load_mesh(text)
        assert np.array_equal(again.node_ids, mesh.node_ids)
        assert np.array_equal(again.radii, mesh.radii)
        assert np.array_equal(again.positions, mesh.positions)
        assert np.array_equal(again.ends, mesh.ends)
        assert np.array_equal(again.lengths, mesh.lengths)
        assert format_mesh(again) == text


class TestWithRadii:
    def test_swaps_radii_and_keeps_the_tree(self):
        mesh = y_mesh()
        other = mesh.with_radii(np.arange(1.0, 7.0))
        assert np.array_equal(other.radii, np.arange(1.0, 7.0))
        assert np.array_equal(mesh.radii, np.ones(6))
        for name in ("node_ids", "positions", "ends", "lengths", "parent", "walks"):
            assert getattr(other, name) is getattr(mesh, name), name
        assert not other.radii.flags.writeable

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(MeshError, match="node 3: radius must be positive"):
            y_mesh().with_radii([1.0, 1.0, 1.0, 0.0, 1.0, 1.0])
        with pytest.raises(MeshError, match="node 4: radius must be positive and finite"):
            y_mesh().with_radii([1.0, 1.0, 1.0, 1.0, math.inf, 1.0])


class TestRefine:
    def test_single_edge_bisection(self):
        mesh = load_mesh(TWO_NODE_DOC)
        fine = refine(mesh, 1)
        assert fine.n_nodes == 3
        assert sorted(fine.lengths.tolist()) == [0.5, 0.5]
        # original ids survive, the midpoint picks up a fresh id
        assert set(mesh.node_ids) <= set(fine.node_ids)

    def test_zero_levels_is_identity(self):
        mesh = y_mesh()
        assert refine(mesh, 0) is mesh

    def test_node_count_follows_edge_count(self):
        mesh = y_mesh()
        counts = [mesh.n_nodes]
        current = mesh
        for _ in range(4):
            current = refine(current)
            counts.append(current.n_nodes)
        # each level adds one node per edge: n -> 2n - 1 on a tree
        assert counts == [6, 11, 21, 41, 81]

    def test_total_length_preserved_exactly(self):
        mesh = y_mesh()
        fine = refine(mesh, 3)
        assert fine.total_length() == mesh.total_length()

    def test_refined_mesh_is_still_a_tree(self):
        fine = refine(y_mesh(), 2)
        assert len(fine.lengths) == fine.n_nodes - 1

    def test_midpoint_radius_is_linear_interpolant(self):
        mesh = chain_mesh([1.0, 2.0])
        fine = refine(mesh, 1)
        mid = fine.index(2)  # fresh id comes after 0 and 1
        assert fine.radii[mid] == 1.5


class TestOrientation:
    def test_cable_parents(self):
        mesh = chain_mesh([1.0, 1.0, 1.0])
        parents = [mesh.parent[mesh.index(node_id)] for node_id in (0, 1, 2)]
        assert parents == [-1, mesh.index(0), mesh.index(1)]

    def test_branch_sides(self):
        mesh = y_mesh()
        i2 = mesh.index(2)
        nbrs = mesh.nbr[mesh.indptr[i2]:mesh.indptr[i2 + 1]]
        toward = nbrs[nbrs == mesh.parent[i2]]
        away = nbrs[mesh.parent[nbrs] == i2]
        assert [mesh.node_ids[j] for j in toward] == [1]
        assert sorted(mesh.node_ids[j] for j in away) == [3, 5]

    def test_degree_three_node_present_in_y(self):
        mesh = y_mesh()
        assert mesh.degree[mesh.index(2)] == 3


class TestTwoPaths:
    def test_interior_cable_node_has_one_path_each_side(self):
        mesh = chain_mesh([1.0] * 5)
        assert len(walks_from(mesh, 2, "away")) == 1
        assert len(walks_from(mesh, 2, "toward")) == 1

    def test_branching_gives_two_away_paths(self):
        mesh = y_mesh()
        paths = walks_from(mesh, 1, "away")
        assert [(first, second) for first, second, _, _ in paths] == [(2, 3), (2, 5)]

    def test_leaf_has_no_away_paths(self):
        mesh = chain_mesh([1.0] * 4)
        assert walks_from(mesh, 3, "away") == []

    def test_path_step_lengths_match_edges(self):
        mesh = chain_mesh([1.0] * 4, h=0.25)
        ((_, _, dx1, dx2),) = walks_from(mesh, 1, "away")
        assert (dx1, dx2) == (0.25, 0.25)


class TestUpwindStencil:
    def test_uniform_weights_match_one_sided_second_order(self):
        h = 0.5  # power of two keeps the arithmetic exact
        a0, a1, a2 = upwind_stencil(h, h)
        assert (a0, a1, a2) == (-3.0 / (2 * h), 4.0 / (2 * h), -1.0 / (2 * h))

    def test_weights_annihilate_constants_exactly(self):
        a = upwind_stencil(0.31, 0.47)
        assert a[0] + a[1] + a[2] == 0.0

    @pytest.mark.parametrize("dx1,dx2", [(1.0, 1.0), (0.3, 0.7), (0.11, 0.05)])
    def test_exact_for_quadratics(self, dx1, dx2):
        a0, a1, a2 = upwind_stencil(dx1, dx2)
        s1, s2 = dx1, dx1 + dx2
        for poly, deriv in [
            (lambda s: 1.0, 0.0),
            (lambda s: s, 1.0),
            (lambda s: s * s, 0.0),  # derivative of s^2 at s=0
        ]:
            got = a0 * poly(0.0) + a1 * poly(s1) + a2 * poly(s2)
            assert got == pytest.approx(deriv, abs=1e-12)


class TestRadiusDerivative:
    """Radius slopes: the rows of slope_matrix against analytic slopes."""

    def test_cone_analytic_slope(self):
        mesh = interval_mesh(0.0, 10.0, 11, lambda x: 1.0 + 0.2 * x)
        slopes = slope_matrix(mesh) @ mesh.radii
        assert slopes[mesh.index(5)] == pytest.approx(0.2, rel=1e-12)  # the taper

    def test_sinusoid_analytic_slope(self):
        mesh = interval_mesh(1.0, 5.0, 401, lambda x: np.sin(0.5 * x))
        x = mesh.positions[:, 0]
        assert np.array_equal(mesh.radii, np.sin(0.5 * x))
        slopes = slope_matrix(mesh) @ mesh.radii
        # second order: h = 0.01 leaves a relative error of about h^2 w^2 / 6
        assert slopes[1:-1] == pytest.approx(0.5 * np.cos(0.5 * x[1:-1]), rel=1e-5)

    def test_tabulated_central_difference(self):
        mesh = chain_mesh([1.0, 1.1, 1.2])
        row = dense(slope_matrix(mesh))[1]
        assert np.array_equal(row, [-0.5, 0.0, 0.5])  # central, no own weight
        assert row @ mesh.radii == pytest.approx(0.1, rel=1e-12)

    def test_central_at_leaf_falls_back_one_sided(self):
        mesh = chain_mesh([1.0, 1.1, 1.2])
        row = dense(slope_matrix(mesh))[0]
        assert np.array_equal(row, [-1.5, 2.0, -0.5])  # (-3, 4, -1) / 2h
        # radii are linear in x, the two-path stencil is exact
        assert row @ mesh.radii == pytest.approx(0.1, rel=1e-12)

    def test_central_matches_analytic_on_linear_radii(self):
        mesh = interval_mesh(0.0, 4.0, 17, lambda x: 1.0 + 0.7 * x)
        slopes = slope_matrix(mesh) @ mesh.radii
        assert slopes == pytest.approx(np.full(17, 0.7), rel=1e-12)

    def test_non_root_leaf_sign_points_away_from_root(self):
        mesh = chain_mesh([1.0, 1.1, 1.2])
        row = dense(slope_matrix(mesh))[2]
        assert np.array_equal(row, [0.5, -2.0, 1.5])  # toward-root stencil, negated
        assert row @ mesh.radii == pytest.approx(0.1, rel=1e-12)

    def test_path_mode_is_directional(self):
        mesh = chain_mesh([1.0, 1.1, 1.2, 1.3])
        ((first, second, dx1, dx2),) = walks_from(mesh, 2, "toward")
        weights = upwind_stencil(dx1, dx2)
        walk = [mesh.index(n) for n in (2, first, second)]
        # walking toward the root the radius shrinks
        assert np.dot(weights, mesh.radii[walk]) == pytest.approx(-0.1, rel=1e-12)


class TestIntervalMesh:
    def test_counts_and_root(self):
        mesh = interval_mesh(0.0, 10.0, 160, lambda x: 1.0 + x)
        assert mesh.n_nodes == 160
        assert mesh.root == 0
        assert mesh.arc_lengths()[-1] == pytest.approx(10.0, rel=1e-14)

    def test_sinusoid_domain_must_keep_radius_positive(self):
        with pytest.raises(MeshError):
            interval_mesh(0.0, 10.0, 20, lambda x: np.sin(0.5 * x))  # sin crosses zero

    def test_infinite_profile_radius_is_refused(self):
        # infinite at the last node only
        with pytest.raises(MeshError, match="node 4: radius must be positive and finite, got inf"):
            interval_mesh(0.0, 2.0, 5, lambda x: np.where(x < 2.0, 1.0, math.inf))
