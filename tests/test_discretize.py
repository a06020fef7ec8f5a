"""Spatial operator assembly: stencil rows, closures, and model variants."""

import gc
import math
import weakref

import numpy as np
import pytest
import yaml

from tubediff import cli, discretize, integrate
from tubediff.discretize import (
    FluxWindow,
    LateralFluxField,
    advection_parts,
    assemble_model,
    laplacian_parts,
    lateral_operator,
    radius_slopes,
    slope_matrix,
    spacings,
    third_derivative_parts,
    upwind,
    upwind_stencil,
    wind_stencils,
)
from tubediff.models import ModelKind, ModelSpec
from tests.sparse_oracle import dense
from tubediff.network import MeshError, interval_mesh, refine
from tubediff.geometry import ConeChannel
from tubediff.verify import model_errors, tree_convergence
from tests.mesh_reference import mesh_from
from tests.test_network import chain_mesh, y_mesh

FJ = ModelSpec(ModelKind.FICK_JACOBS)
EF = ModelSpec(ModelKind.EXPANDED_FLUX)


def star_mesh():
    """Degree-three hub with three unit spokes; rooted at a spoke tip."""
    nodes = [
        (0, (0.0, 0.0, 0.0), 1.0),
        (1, (-1.0, 0.0, 0.0), 1.0),
        (2, (1.0, 0.0, 0.0), 1.0),
        (3, (0.0, 1.0, 0.0), 1.0),
    ]
    edges = [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)]
    return mesh_from(nodes, edges, root=1)


TOWARD, AWAY = "toward", "away"


def scalar_adjacency(mesh):
    """Per node, (neighbour index, edge length) pairs sorted by neighbour
    id, read straight off the edge list."""
    adj = [[] for _ in range(mesh.n_nodes)]
    for (ia, ib), length in zip(mesh.ends.tolist(), mesh.lengths.tolist()):
        adj[ia].append((ib, length))
        adj[ib].append((ia, length))
    for pairs in adj:
        pairs.sort(key=lambda pair: mesh.node_ids[pair[0]])
    return adj


def side_neighbors(mesh, adj, i, side):
    """Neighbours of node i ``toward`` the root or ``away`` from it."""
    p = mesh.parent[i]
    return [(j, dx) for j, dx in adj[i] if (j == p) == (side == TOWARD)]


def two_paths(mesh, adj, i, side):
    """Two-edge walks (first, second, dx1, dx2) leaving node i on one side."""
    return [(j, k, dx1, dx2)
            for j, dx1 in side_neighbors(mesh, adj, i, side)
            for k, dx2 in adj[j] if k != i]


def loop_spacings(mesh):
    """Mean incident edge length of every node, one node at a time."""
    return np.array([sum(dx for _, dx in pairs) / len(pairs)
                     for pairs in scalar_adjacency(mesh)])


def loop_slopes(values, mesh):
    """Reference for :func:`slope_matrix`, one node at a time.

    Central: mean away-side value minus mean toward-side value over the
    mean span.  Where a side is empty, the second-order two-path stencil
    into the populated side (mean over paths), else a single edge.
    """
    adj = scalar_adjacency(mesh)
    out = np.empty(mesh.n_nodes)
    for i in range(mesh.n_nodes):
        toward = side_neighbors(mesh, adj, i, TOWARD)
        away = side_neighbors(mesh, adj, i, AWAY)
        if toward and away:
            r_away = np.mean([values[j] for j, _ in away])
            r_toward = np.mean([values[j] for j, _ in toward])
            span = np.mean([dx for _, dx in away]) + np.mean([dx for _, dx in toward])
            out[i] = (r_away - r_toward) / span
            continue
        for side, sign in ((AWAY, 1.0), (TOWARD, -1.0)):
            paths = two_paths(mesh, adj, i, side)
            if paths:
                ests = []
                for i1, i2, dx1, dx2 in paths:
                    a0, a1, a2 = upwind_stencil(dx1, dx2)
                    ests.append(sign * (a0 * values[i] + a1 * values[i1] + a2 * values[i2]))
                out[i] = np.mean(ests)
                break
            nbrs = side_neighbors(mesh, adj, i, side)
            if nbrs:
                out[i] = np.mean([sign * (values[j] - values[i]) / dx for j, dx in nbrs])
                break
    return out


class TestLaplacian:
    def test_uniform_interior_row_is_bit_exact(self):
        h = 0.25
        mesh = chain_mesh([1.0] * 5, h=h)
        mat, _ = laplacian_parts(mesh)
        row = dense(mat)[2]
        expected = np.zeros(5)
        expected[1], expected[2], expected[3] = 1.0 / h**2, -2.0 / h**2, 1.0 / h**2
        assert np.array_equal(row, expected)

    def test_degree_three_hub_value(self):
        mesh = star_mesh()
        mat, _ = laplacian_parts(mesh)
        c = np.zeros(4)
        c[[mesh.index(1), mesh.index(2), mesh.index(3)]] = 1.0
        # (2/3) * (1 + 1 + 1) = 2 at the hub
        assert (mat @ c)[mesh.index(0)] == pytest.approx(2.0, rel=1e-15)

    def test_annihilates_constants_exactly_on_uniform_mesh(self):
        mesh = chain_mesh([1.0] * 6, h=0.5)
        mat, _ = laplacian_parts(mesh)
        assert np.array_equal(mat @ np.ones(6), np.zeros(6))

    def test_annihilates_constants_on_ragged_mesh(self):
        nodes = [(i, (x, 0.0, 0.0), 1.0) for i, x in enumerate([0.0, 0.31, 0.9, 1.17])]
        edges = [(i, i + 1) for i in range(3)]
        mesh = mesh_from(nodes, edges, root=0)
        mat, _ = laplacian_parts(mesh)
        scale = max(np.abs(mat.data).max(), 1.0)
        assert np.max(np.abs(mat @ np.ones(4))) <= 1e-12 * scale

    def test_leaf_rows_use_mirrored_ghost(self):
        h = 0.5
        mesh = chain_mesh([1.0] * 4, h=h)
        mat, neu = laplacian_parts(mesh)
        first = dense(mat)[0]
        assert first[0] == -2.0 / h**2 and first[1] == 2.0 / h**2
        # root leaf gets -2/dx, the far leaf +2/dx
        assert dense(neu)[0, 0] == -2.0 / h
        assert dense(neu)[3, 1] == 2.0 / h


class TestSlopeMatrix:
    @pytest.mark.parametrize("mesh", [chain_mesh([1.0] * 7, h=0.3), y_mesh()])
    def test_matches_loop_implementation(self, mesh):
        rng = np.random.default_rng(7)
        values = rng.uniform(0.5, 2.0, mesh.n_nodes)
        via_matrix = slope_matrix(mesh) @ values
        via_loop = loop_slopes(values, mesh)
        assert via_matrix == pytest.approx(via_loop, rel=1e-13, abs=1e-13)


class TestAdvection:
    def test_uniform_cable_forward_stencil(self):
        # radii 1..5 on unit spacing: slope 1, wind blows from the away side
        mesh = chain_mesh([1.0, 2.0, 3.0, 4.0, 5.0])
        mat, _, notes = advection_parts(mesh, FJ)
        row = dense(mat)[1]
        # (2 D / R1) * dR/ds = 1, times (-3, 4, -1)/(2h)
        assert np.array_equal(row[1:4], np.array([-1.5, 2.0, -0.5]))

    def test_flat_radius_gives_empty_rows(self):
        mesh = chain_mesh([2.0] * 5)
        mat, neu, notes = advection_parts(mesh, FJ)
        assert mat.nnz == 0 and neu.nnz == 0 and notes == ()

    def test_decreasing_radius_uses_toward_side(self):
        mesh = chain_mesh([5.0, 4.0, 3.0, 2.0, 1.0])
        mat, _, _ = advection_parts(mesh, FJ)
        row = dense(mat)[2]
        assert row[3] == row[4] == 0.0  # nothing downwind
        # directional product: (2/R)(dR/ds)(dc/ds) with both slopes along
        # the toward-root walk; on c = x this must give (2/3)(-1)(+1)
        c = np.arange(5.0)
        assert (mat @ c)[2] == pytest.approx(-2.0 / 3.0, rel=1e-14)

    def test_adjacent_leaf_degrades_to_first_order(self):
        mesh = chain_mesh([1.0, 2.0, 3.0, 4.0, 5.0])
        mat, _, notes = advection_parts(mesh, FJ)
        assert any("first-order-upwind node=3" in n for n in notes)
        row = dense(mat)[3]
        # coef = (2/R3) dR = 0.5 over the single downwind edge
        assert np.array_equal(row[3:5], np.array([-0.5, 0.5]))

    def test_two_wind_side_paths_are_summed(self):
        # branch at node 1 with two full arms, radius grows along both
        nodes = [
            (0, (0.0, 0.0, 0.0), 1.0),
            (1, (1.0, 0.0, 0.0), 2.0),
            (2, (2.0, 1.0, 0.0), 3.0),
            (3, (3.0, 2.0, 0.0), 4.0),
            (4, (2.0, -1.0, 0.0), 3.0),
            (5, (3.0, -2.0, 0.0), 4.0),
        ]
        edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (1, 4, 1.0), (4, 5, 1.0)]
        mesh = mesh_from(nodes, edges, root=0)
        rows, _, weights, _, notes = wind_stencils(
            mesh, mesh.radii, slope_matrix(mesh) @ mesh.radii
        )
        at_branch = rows == mesh.index(1)
        assert at_branch.sum() == 2
        # the mid-arm nodes sit one step from a tip, so their wind side
        # only offers a single edge and they drop to first order
        assert notes == ("first-order-upwind node=2", "first-order-upwind node=4")
        # a first-order stencil pads its third weight with a zero
        assert [mesh.node_ids[i] for i in rows[weights[:, 2] == 0.0]] == [2, 4]

    def test_leaf_slope_moves_to_neumann_coupling(self):
        mesh = chain_mesh([1.0, 2.0, 3.0, 4.0, 5.0])
        _, neu, _ = advection_parts(mesh, FJ)
        # far leaf: (2/R) dR/dx = (2/5) * 1
        assert dense(neu)[4, 1] == pytest.approx(0.4, rel=1e-14)
        # root leaf: (2/1) * 1
        assert dense(neu)[0, 0] == pytest.approx(2.0, rel=1e-14)

    def test_rows_annihilate_constants_bit_exact(self):
        # powers-of-two radii keep every scaled weight exactly representable,
        # so the row sums cancel in any association order
        mesh = chain_mesh([1.0, 2.0, 4.0, 8.0, 16.0], h=0.5)
        mat, _, _ = advection_parts(mesh, FJ)
        assert np.array_equal(mat @ np.ones(5), np.zeros(5))

    def test_rows_annihilate_constants_to_rounding(self):
        mesh = chain_mesh([1.0, 2.0, 3.0, 4.0, 5.0], h=0.5)
        mat, _, _ = advection_parts(mesh, FJ)
        scale = np.abs(mat.data).max()
        assert np.max(np.abs(mat @ np.ones(5))) <= 1e-15 * scale


class TestThirdDerivative:
    def test_interior_rows_recover_six_on_cubic(self):
        mesh = chain_mesh([1.0] * 7)
        x = mesh.positions[:, 0]
        c = x**3
        g = {0: 0.0, 6: 3.0 * 36.0}
        mat, neu, _ = third_derivative_parts(mesh)
        slopes = np.array([g[0], g[6]])
        vals = mat @ c + neu @ slopes
        assert vals[2:5] == pytest.approx(np.full(3, 6.0), rel=1e-12)

    def test_boundary_closures_on_cubic_return_two(self):
        # the one-sided closures trade accuracy for locality: on c = x**3
        # with a zero end slope they evaluate to 2, not the true 6
        mesh = chain_mesh([1.0] * 7)
        x = mesh.positions[:, 0]
        c = x**3
        mat, neu, _ = third_derivative_parts(mesh)
        vals = mat @ c + neu @ np.array([0.0, 108.0])
        assert vals[0] == 2.0
        assert vals[6] == 2.0

    def test_annihilates_constants(self):
        mesh = chain_mesh([1.0] * 7, h=0.5)
        mat, neu = third_derivative_parts(chain_mesh([1.0] * 7, h=0.5))[:2]
        assert np.max(np.abs(mat @ np.ones(7))) == 0.0


class TestAssembleModel:
    def test_simple_diffusion_is_scaled_laplacian(self):
        mesh = chain_mesh([1.0, 2.0, 3.0, 2.0, 1.0])
        spec = ModelSpec(ModelKind.SIMPLE_DIFFUSION, d0=2.0)
        op = assemble_model(mesh, spec)
        lap, _ = laplacian_parts(mesh)
        assert np.array_equal(dense(op.matrix), dense(2.0 * lap))
        assert np.array_equal(op.mass_diag, np.ones(5))

    def test_zwanzig_scales_every_fick_jacobs_row_by_two_thirds(self):
        mesh = chain_mesh([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])  # unit slope everywhere
        fj = assemble_model(mesh, FJ)
        zw = assemble_model(mesh, ModelSpec(ModelKind.ZWANZIG))
        assert dense(zw.matrix) == pytest.approx(
            (2.0 / 3.0) * dense(fj.matrix), rel=1e-14
        )
        assert dense(zw.neumann) == pytest.approx(
            (2.0 / 3.0) * dense(fj.neumann), rel=1e-14
        )

    def test_kalinay_temporal_mass_and_channel_restriction(self):
        mesh = chain_mesh([1.0, 2.0, 3.0, 4.0, 5.0])
        spec = ModelSpec(ModelKind.KALINAY_TEMPORAL)
        op = assemble_model(mesh, spec)
        fj = assemble_model(mesh, FJ)
        assert np.array_equal(dense(op.matrix), dense(fj.matrix))
        assert op.mass_diag == pytest.approx(np.full(5, 1.0235987755982988), rel=1e-12)
        with pytest.raises(MeshError, match="unbranched"):
            assemble_model(y_mesh(), spec)

    def test_expanded_flux_mass_factors(self):
        mesh = chain_mesh([1.0, 2.0, 3.0, 4.0, 5.0], h=0.5)
        op = assemble_model(mesh, EF)
        dx = loop_spacings(mesh)
        slopes = loop_slopes(mesh.radii, mesh)
        expected = 1.0 + dx**2 * slopes**2 / (12.0 * mesh.radii**2)
        assert op.mass_diag == pytest.approx(expected, rel=1e-14)
        assert np.all(op.mass_diag > 1.0)

    def test_constants_are_steady_states_for_every_model(self):
        # correction factors are irrational, so allow rounding at the
        # last-ulp level while still pinning the invariant
        mesh = chain_mesh([1.0, 2.0, 3.0, 4.0, 5.0], h=0.5)
        ones = np.ones(5)
        for kind in ModelKind:
            op = assemble_model(mesh, ModelSpec(kind))
            scale = np.abs(op.matrix.data).max()
            assert np.max(np.abs(op.matrix @ ones)) <= 1e-14 * scale, kind

    def test_constants_steady_on_ragged_branched_mesh(self):
        mesh = y_mesh(radii=(1.2, 0.7, 0.31, 0.9, 1.05, 0.4))
        ones = np.ones(mesh.n_nodes)
        op = assemble_model(mesh, EF)
        scale = max(np.abs(op.matrix.data).max(), 1.0)
        assert np.max(np.abs(op.matrix @ ones)) <= 1e-12 * scale

    def test_expanded_flux_tends_to_fick_jacobs(self):
        """Operator action difference shrinks about fourfold per bisection."""
        def action_gap(n):
            mesh = interval_mesh(0.0, 10.0, n, lambda x: 1.0 + x)
            x = mesh.positions[:, 0]
            c = np.exp(-((x - 4.0) ** 2) / 8.0)
            cp = c * (-(x - 4.0) / 4.0)
            g = np.array([cp[0], cp[-1]])  # the end slopes at nodes 0 and n - 1
            ef = assemble_model(mesh, EF)
            fj = assemble_model(mesh, FJ)
            return np.max(np.abs((ef.matrix @ c + ef.neumann @ g) / ef.mass_diag
                                 - (fj.matrix @ c + fj.neumann @ g) / fj.mass_diag))

        gaps = [action_gap(n) for n in (40, 80, 160)]
        assert gaps[0] > gaps[1] > gaps[2]
        for coarse, fine in zip(gaps, gaps[1:]):
            assert coarse / fine == pytest.approx(4.0, rel=0.35)

    def test_remark_large_spacing_regime(self):
        # after mass division the first-derivative coefficient dies off as
        # dx**-2 while the grid-scaled second-order term levels out
        radius, slope = 1.0, 5.0

        def mass(dx):
            return 1.0 + dx**2 * slope**2 / (12.0 * radius**2)

        def first_order_coef(dx):
            return (2.0 * slope / radius) / mass(dx)

        def expansion_coef(dx):
            return (dx**2 * slope**2 / (4.0 * radius**2)) / mass(dx)

        big, bigger = 20.0, 40.0
        assert first_order_coef(bigger) / first_order_coef(big) == pytest.approx(0.25, rel=0.02)
        assert expansion_coef(bigger) / expansion_coef(big) == pytest.approx(1.0, rel=0.02)
        assert expansion_coef(bigger) == pytest.approx(3.0, rel=0.01)


class TestLateralFlux:
    def test_zero_field_gives_zero_source(self):
        mesh = chain_mesh([1.0] * 5)
        field = LateralFluxField()
        s = lateral_operator(mesh, FJ) @ field.values(mesh, 0.0)
        assert np.array_equal(s, np.zeros(5))

    def test_window_schedule(self):
        mesh = chain_mesh([1.0] * 5)
        field = LateralFluxField((FluxWindow((2,), 3.0, 0.0, 1.0),))
        assert field.values(mesh, 0.5)[2] == 3.0
        assert np.array_equal(field.values(mesh, 1.0), np.zeros(5))

    def test_change_steps_are_the_first_steps_at_or_past_each_edge(self):
        field = LateralFluxField((FluxWindow((1,), 1.0, t_start=0.3, t_end=1.0e308),
                                  FluxWindow((2,), 1.0, t_start=3 * 0.1, t_end=1.0)))
        # 3 * 0.1 rounds above 0.3, so both starts switch at step 3, where
        # ceil(3 * 0.1 / 0.1) would be a step late; 1.0 is 10 * 0.1 exactly, kept
        # at the last step; 1.0e308 / 0.1 would overflow, but that edge lies past the run
        assert field.change_steps(0.1, 10) == {0, 3, 10}
        assert field.change_steps(0.1, 9) == {0, 3}
        assert LateralFluxField().change_steps(0.1, 10) == {0}
        mesh = chain_mesh([1.0] * 5)
        values = [field.values(mesh, k * 0.1).tolist() for k in range(11)]
        assert {k for k in range(1, 11) if values[k] != values[k - 1]} == {3, 10}

    @pytest.mark.parametrize("t_start,t_end", [(1.0, 1.0), (2.0, 1.0), (0.0, math.nan)])
    def test_a_window_that_never_acts_is_refused(self, t_start, t_end):
        with pytest.raises(ValueError, match="never acts"):
            FluxWindow((2,), 3.0, t_start, t_end)

    def test_leading_term_for_fick_jacobs(self):
        mesh = chain_mesh([2.0] * 5)
        field = LateralFluxField((FluxWindow((0, 1, 2, 3, 4), 3.0),))
        s = lateral_operator(mesh, FJ) @ field.values(mesh, 0.0)
        assert s == pytest.approx(np.full(5, 3.0), rel=1e-14)  # (2/R) J = J at R=2

    def test_expanded_flux_reduces_to_leading_term_for_linear_j(self):
        mesh = chain_mesh([1.0] * 7)
        x = mesh.positions[:, 0]
        j = x.copy()
        lam = lateral_operator(mesh, EF)
        assert lam @ j == pytest.approx(2.0 * x, abs=1e-12)

    def test_expanded_flux_constant_j_constant_radius(self):
        mesh = chain_mesh([2.0] * 6, h=0.5)
        lam = lateral_operator(mesh, EF)
        assert lam @ np.full(6, 4.0) == pytest.approx(np.full(6, 4.0), abs=1e-12)


class TestSharedFields:
    def test_one_part_per_mesh(self):
        mesh = y_mesh(radii=(1.2, 0.7, 0.31, 0.9, 1.05, 0.4))
        slopes = discretize._per_mesh(mesh, radius_slopes)
        assert discretize._per_mesh(mesh, radius_slopes) is slopes
        assert discretize._per_mesh(y_mesh(), radius_slopes) is not slopes
        dx = discretize._per_mesh(mesh, spacings)
        _, _, downwind = discretize._per_mesh(mesh, upwind)
        assert assemble_model(mesh, FJ).downwind is downwind
        assert np.array_equal(slopes, slope_matrix(mesh) @ mesh.radii)
        assert np.array_equal(dx, loop_spacings(mesh))
        for a in (mesh.radii, slopes, dx, downwind):
            assert not a.flags.writeable

    def test_operators_are_assembled_on_every_call_and_never_stored(self):
        mesh = y_mesh(radii=(1.2, 0.7, 0.31, 0.9, 1.05, 0.4))
        op = assemble_model(mesh, EF)
        again = assemble_model(mesh, EF)
        assert again is not op
        assert np.array_equal(dense(again.matrix), dense(op.matrix))
        assert not any(isinstance(part, discretize.SpatialOperator)
                       for part in discretize._DERIVED[mesh].values())

    def test_slopes_match_the_loop_reference(self):
        mesh = interval_mesh(0.0, 5.0, 41, lambda x: 1.0 + 0.3 * x)
        slopes = discretize._per_mesh(mesh, radius_slopes)
        assert slopes == pytest.approx(loop_slopes(mesh.radii, mesh), rel=1e-13)

    def test_new_radii_get_their_own_parts(self):
        r1, r2 = (1.2, 0.7, 0.31, 0.9, 1.05, 0.4), (0.5, 0.9, 1.4, 1.1, 0.6, 0.8)
        mesh = y_mesh(radii=r1)
        before = discretize._per_mesh(mesh, radius_slopes)
        original = dense(assemble_model(mesh, EF).matrix)
        swapped = mesh.with_radii(r2)
        assert discretize._per_mesh(swapped, radius_slopes) is not before
        got, want = assemble_model(swapped, EF), assemble_model(y_mesh(radii=r2), EF)
        assert np.array_equal(dense(got.matrix), dense(want.matrix))
        assert np.array_equal(dense(got.neumann), dense(want.neumann))
        assert np.array_equal(got.mass_diag, want.mass_diag)
        # the original mesh keeps its parts and its operator
        assert discretize._per_mesh(mesh, radius_slopes) is before
        assert np.array_equal(mesh.radii, r1)
        assert np.array_equal(dense(assemble_model(mesh, EF).matrix), original)

    def test_record_is_dropped_with_its_mesh(self):
        gc.collect()  # meshes that earlier tests left to the collector go first
        mesh = chain_mesh([1.0, 2.0, 3.0, 4.0, 5.0])
        assemble_model(mesh, EF)
        assert mesh in discretize._DERIVED
        count = len(discretize._DERIVED)
        gone = weakref.ref(mesh)
        del mesh
        gc.collect()
        # the record does not keep its mesh alive, and the entry went with it
        assert gone() is None
        assert len(discretize._DERIVED) <= count - 1

    def test_simulate_builds_each_part_once(self, tmp_path, monkeypatch):
        # a lateral expanded-flux tree run needs every stencil: the
        # screen, the assembly and the lateral map must share them
        calls = {}

        def counted(name):
            build = getattr(discretize, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return build(*args, **kwargs)
            return wrapper

        for name in ("slope_matrix", "laplacian_parts", "third_derivative_parts",
                     "wind_stencils", "assemble_model"):
            monkeypatch.setattr(discretize, name, counted(name))
        monkeypatch.setattr(integrate, "assemble_model", discretize.assemble_model)

        doc = yaml.safe_load(open("configs/ball_on_stick_regulated.yaml"))
        doc["run"]["t_end"] = 0.05
        doc["run"]["snapshots"] = 3
        path = tmp_path / "lateral.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert calls == {"slope_matrix": 1, "laplacian_parts": 1,
                         "third_derivative_parts": 1, "wind_stencils": 1,
                         "assemble_model": 1}

    def test_compare_builds_each_part_once(self, monkeypatch):
        # the seven models of a compare run share every stencil: their
        # screens, assemblies and march plan build each part once
        calls = {}

        def counted(name):
            build = getattr(discretize, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return build(*args, **kwargs)
            return wrapper

        for name in ("slope_matrix", "laplacian_parts", "third_derivative_parts",
                     "wind_stencils"):
            monkeypatch.setattr(discretize, name, counted(name))
        channel = ConeChannel(taper=2.0)
        errors = model_errors(channel, [ModelSpec(kind) for kind in ModelKind],
                              mesh=channel.mesh(41), dt=2.0e-4, t_end=2.0e-3)
        assert len(errors) == len(ModelKind)
        assert calls == {"slope_matrix": 1, "laplacian_parts": 1,
                         "third_derivative_parts": 1, "wind_stencils": 1}

    def test_a_convergence_ladder_holds_one_rung_of_parts(self, monkeypatch):
        meshes = [refine(y_mesh(), k) for k in range(4)]
        held = []
        build = integrate.assemble_model

        def counted(mesh, spec):
            held.append(sum(m in discretize._DERIVED for m in meshes if m is not mesh))
            return build(mesh, spec)

        monkeypatch.setattr(integrate, "assemble_model", counted)
        tree_convergence(meshes, FJ, dt=5e-4, t_end=1e-2,
                         initial=lambda mesh: 1.0 + np.exp(-mesh.arc_lengths()))
        # each rung's run drops its parts before the next rung assembles
        assert held == [0, 0, 0, 0]
        assert not any(m in discretize._DERIVED for m in meshes)
