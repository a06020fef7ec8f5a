"""Tests for the explicit-Euler stability screens."""

import tracemalloc

import numpy as np
import pytest

from tubediff.geometry import constricted_tree
from tubediff.models import ModelKind, ModelSpec
from tubediff.network import interval_mesh
from tubediff.stability import StabilityReport, check_model

from tests.mesh_reference import mesh_from
from tests.test_network import chain_mesh

FJ = ModelSpec(ModelKind.FICK_JACOBS)
EF = ModelSpec(ModelKind.EXPANDED_FLUX)
SIMPLE = ModelSpec(ModelKind.SIMPLE_DIFFUSION)


def diffusive_screen(mesh, dt, d0=1.0):
    """The diffusive bound alone: the screen of the radius-blind model."""
    spec = ModelSpec(ModelKind.SIMPLE_DIFFUSION, d0=d0)
    return check_model(mesh, spec, dt)


def symmetric_y_mesh():
    """Branch with two identical two-edge arms, radius growing outward."""
    nodes = [
        (0, (0.0, 0.0, 0.0), 1.0),
        (1, (1.0, 0.0, 0.0), 2.0),
        (2, (2.0, 1.0, 0.0), 3.0),
        (3, (3.0, 2.0, 0.0), 4.0),
        (4, (2.0, -1.0, 0.0), 3.0),
        (5, (3.0, -2.0, 0.0), 4.0),
    ]
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (1, 4, 1.0), (4, 5, 1.0)]
    return mesh_from(nodes, edges, root=0)


class TestDiffusionBound:
    def test_uniform_grid_limit_is_h_squared_over_2d(self):
        mesh = interval_mesh(0.0, 1.0, 11, np.ones_like)
        report = diffusive_screen(mesh, dt=0.001)
        assert report.dt_max == pytest.approx(0.005, rel=1e-12)
        assert diffusive_screen(mesh, dt=1.0, d0=2.0).dt_max == pytest.approx(0.0025, rel=1e-12)

    def test_passes_exactly_at_the_bound(self):
        mesh = interval_mesh(0.0, 1.0, 11, np.ones_like)
        report = diffusive_screen(mesh, dt=0.005)
        assert report.passed
        assert report.alpha_beta == pytest.approx(1.0, rel=1e-12)

    def test_fails_just_past_the_bound(self):
        mesh = interval_mesh(0.0, 1.0, 11, np.ones_like)
        report = diffusive_screen(mesh, dt=0.00501)
        assert not report.passed
        assert report.alpha_beta == pytest.approx(1.002, rel=1e-12)

    def test_alpha_beta_value(self):
        mesh = interval_mesh(0.0, 1.0, 11, np.ones_like)
        report = diffusive_screen(mesh, dt=0.004)
        assert report.alpha_beta == pytest.approx(0.8, rel=1e-12)

    def test_short_leaf_edge_binds(self):
        # edges 0.5 and 0.25: interior bound 0.75/12, leaf bounds dx^2/2
        nodes = [
            (0, (0.0, 0.0, 0.0), 1.0),
            (1, (0.5, 0.0, 0.0), 1.0),
            (2, (0.75, 0.0, 0.0), 1.0),
        ]
        edges = [(0, 1, 0.5), (1, 2, 0.25)]
        mesh = mesh_from(nodes, edges, root=0)
        report = diffusive_screen(mesh, dt=0.001)
        assert report.dt_max == pytest.approx(0.03125, rel=1e-12)
        assert report.binding_node == 2

    def test_rejects_nonpositive_step(self):
        mesh = interval_mesh(0.0, 1.0, 5, np.ones_like)
        with pytest.raises(ValueError):
            diffusive_screen(mesh, dt=0.0)
        with pytest.raises(ValueError):
            diffusive_screen(mesh, dt=0.001, d0=-1.0)


class TestAdvectionBound:
    # On the symmetric Y the branch node sums two wind-side paths, which
    # halves its advective step to 0.25, below every diffusive bound (0.5):
    # the advective bound binds the combined screen there.

    def test_branch_bound_and_binding_node(self):
        # node 1: R = 2, dR = 1, so coef = 1 and q = 2 * (a0 - a1 + a2) = -8
        report = check_model(symmetric_y_mesh(), FJ, dt=0.1)
        assert report.dt_max == pytest.approx(0.25, rel=1e-12)
        assert report.binding_node == 1

    def test_pass_at_bound_fail_past_it(self):
        mesh = symmetric_y_mesh()
        assert check_model(mesh, FJ, dt=0.25).passed
        report = check_model(mesh, FJ, dt=0.26)
        assert not report.passed
        assert report.failing_nodes == [1]
        assert report.advection_rho == pytest.approx(1.08, rel=1e-12)

    def test_two_symmetric_paths_halve_the_step(self):
        y = symmetric_y_mesh()
        chain = chain_mesh([1.0, 2.0, 3.0, 4.0], h=1.0)
        dt_y = check_model(y, FJ, dt=0.01).dt_max
        dt_c = check_model(chain, FJ, dt=0.01).dt_max
        assert dt_c / dt_y == pytest.approx(2.0, rel=1e-12)
        assert dt_y == pytest.approx(0.25, rel=1e-12)

    def test_first_order_fallback_note_is_carried(self):
        report = check_model(symmetric_y_mesh(), FJ, dt=0.25)
        assert "first-order-upwind node=2" in report.warnings
        assert "first-order-upwind node=4" in report.warnings

    def test_intermediate_mode_growth_is_warned_not_failed(self):
        # second-order upwinding amplifies some interior modes slightly;
        # the pi-mode bound still passes
        report = check_model(symmetric_y_mesh(), FJ, dt=0.25)
        assert report.passed
        assert any(w.startswith("mode-growth") for w in report.warnings)


class TestModelScreen:
    def test_simple_diffusion_matches_diffusion_only(self):
        # the radius-blind model screens with the h^2 / 2 D bound alone
        mesh = chain_mesh([1.0, 2.0, 3.0, 4.0, 5.0], h=0.5)
        combined = check_model(mesh, SIMPLE, dt=0.01)
        assert combined.dt_max == 0.125
        assert combined.advection_rho == 1.0
        assert combined.warnings == ()

    def test_combined_takes_the_tighter_bound(self):
        # uniform cable: diffusion gives 0.5; advection also 0.5 at node 1
        mesh = chain_mesh([1.0, 2.0, 3.0, 4.0, 5.0], h=1.0)
        report = check_model(mesh, FJ, dt=0.1)
        assert report.dt_max == pytest.approx(0.5, rel=1e-12)
        # shallower taper: advection relaxes, diffusion still binds at 0.5
        wide = chain_mesh([4.0, 5.0, 6.0, 7.0, 8.0], h=1.0)
        report = check_model(wide, FJ, dt=0.1)
        assert report.dt_max == pytest.approx(0.5, rel=1e-12)

    def test_mass_factor_scales_the_admissible_step(self):
        # linear cone, slope 1: the temporal-correction mass factor is
        # constant and equals 1 + (pi/3 - 1)/2
        mesh = interval_mesh(0.0, 3.0, 7, lambda x: 1.0 + x)
        fj = check_model(mesh, FJ, dt=1e-3)
        kal = check_model(mesh, ModelSpec(ModelKind.KALINAY_TEMPORAL), dt=1e-3)
        assert kal.dt_max / fj.dt_max == pytest.approx(1.0235987755982988, rel=1e-12)

    def test_corrected_models_loosen_the_diffusive_bound(self):
        # Zwanzig shrinks D, so the admissible step grows by 1 + s^2/2
        mesh = chain_mesh([1.0, 2.0, 3.0, 4.0, 5.0], h=1.0)
        zw = check_model(mesh, ModelSpec(ModelKind.ZWANZIG), dt=0.01)
        fj = check_model(mesh, FJ, dt=0.01)
        assert zw.dt_max > fj.dt_max

    def test_expansion_dominance_warning_on_ragged_leaf(self):
        # long leaf edge, then a very short one: the one-sided closure
        # spacing is about half the leaf edge and the third-order row
        # overtakes the diffusive row there
        xs = [0.0, 1.0, 1.02, 2.02, 3.02]
        rs = [1.0, 2.0, 2.02, 3.02, 4.02]
        nodes = [(i, (x, 0.0, 0.0), r) for i, (x, r) in enumerate(zip(xs, rs))]
        edges = [(i, i + 1, xs[i + 1] - xs[i]) for i in range(4)]
        mesh = mesh_from(nodes, edges, root=0)
        report = check_model(mesh, EF, dt=1e-5)
        assert any(
            w == "expansion-dominates-diffusion node=0" for w in report.warnings
        )

    def test_no_dominance_warning_on_smooth_channel(self):
        mesh = interval_mesh(0.0, 10.0, 41, lambda x: 1.0 + 0.2 * x)
        report = check_model(mesh, EF, dt=1e-4)
        assert not any("expansion-dominates" in w for w in report.warnings)

    def test_nonpositive_mass_factor_fails_with_zero_step(self):
        # the temporal factor 1 + g' is about (-9.59, 3.16, 15.9) here
        nodes = [(0, (0.0, 0.0, 0.0), 0.35), (1, (1.0, 0.0, 0.0), 0.79),
                 (2, (2.0, 0.0, 0.0), 2.42)]
        mesh = mesh_from(nodes, [(0, 1, 1.185), (1, 2, 0.234)], root=0)
        report = check_model(mesh, ModelSpec(ModelKind.KALINAY_TEMPORAL), dt=1e-3)
        assert not report.passed
        assert report.dt_max == 0.0
        assert report.failing_nodes == [0]
        assert "nonpositive-mass-factor node=0" in report.warnings
        # the same chain under a model without the factor passes
        assert check_model(mesh, FJ, dt=1e-3).passed

    def test_report_table_mentions_verdict(self):
        mesh = interval_mesh(0.0, 1.0, 11, np.ones_like)
        good = diffusive_screen(mesh, dt=0.004).as_table()
        bad = diffusive_screen(mesh, dt=0.00501).as_table()
        assert "PASS" in good
        assert "FAIL" in bad and "failing nodes" in bad

    def test_rejects_nonpositive_step(self):
        mesh = chain_mesh([1.0, 2.0, 3.0], h=1.0)
        with pytest.raises(ValueError):
            check_model(mesh, FJ, dt=-0.1)

    def test_expanded_flux_screen_memory_stays_sparse(self):
        # 993 nodes: one dense n x n float64 matrix would take 7.9 MB
        mesh = constricted_tree(5)
        n = mesh.n_nodes
        tracemalloc.start()
        try:
            check_model(mesh, EF, dt=1e-6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n == 993
        assert peak < 8 * n * n
