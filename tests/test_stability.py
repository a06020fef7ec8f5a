"""Tests for the explicit-Euler stability screens."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tubediff
from tubediff.discretize import FluxWindow, LateralFluxField, assemble_model, lateral_operator
from tubediff.geometry import ConeChannel, ball_on_stick, constricted_tree
from tubediff.integrate import ConstraintPolicy, _Plan, run_models
from tubediff.models import ModelKind, ModelSpec
from tubediff.network import interval_mesh
from tubediff.sparse import CSR
from tubediff.stability import StabilityError, StabilityReport, check_model
from tubediff.verify import model_errors

from tests.mesh_reference import mesh_from
from tests.sparse_oracle import dense
from tests.test_network import chain_mesh

FJ = ModelSpec(ModelKind.FICK_JACOBS)
EF = ModelSpec(ModelKind.EXPANDED_FLUX)
SIMPLE = ModelSpec(ModelKind.SIMPLE_DIFFUSION)


def screen(mesh, spec, dt):
    """The stability screen of the model's operator on ``mesh``."""
    return check_model(mesh, assemble_model(mesh, spec), dt)


def diffusive_screen(mesh, dt, d0=1.0):
    """The diffusive bound alone: the screen of the radius-blind model."""
    spec = ModelSpec(ModelKind.SIMPLE_DIFFUSION, d0=d0)
    return screen(mesh, spec, dt)


def march_peak(mesh, specs, **kwargs) -> int:
    """Peak traced allocation of ``run_models``, in bytes: the mesh's parts
    are built before tracing starts, so the run's own assemblies of its
    operators, its plan and its march are what it measures."""
    for spec in specs:
        assemble_model(mesh, spec)
    tracemalloc.start()
    try:
        run_models(mesh, specs, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        assert report.failing_nodes == []

    def test_fails_just_past_the_bound(self):
        # every row of a uniform cable sums to 4 / h^2 in absolute value,
        # so every node shares the bound and fails past it
        mesh = interval_mesh(0.0, 1.0, 11, np.ones_like)
        report = diffusive_screen(mesh, dt=0.00501)
        assert not report.passed
        assert report.failing_nodes == list(range(11))

    def test_alpha_beta_value(self):
        # the old alpha * beta, the step over the cable's bound, is dt / dt_max
        mesh = interval_mesh(0.0, 1.0, 11, np.ones_like)
        report = diffusive_screen(mesh, dt=0.004)
        assert report.dt / report.dt_max == pytest.approx(0.8, rel=1e-12)
        assert report.passed

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
    # On the symmetric Y the branch node (R = 2, unit edges) has the
    # second-derivative row (2/3, -2, 2/3, 2/3), absolute sum 4.  Its
    # central radius slope is 1, so each arm adds the upwind row
    # (2/R) dR (-3, 4, -1)/2 = (-1.5, 2, -0.5): the full row is
    # (2/3, -5, 8/3, -1/2, 8/3, -1/2), absolute sum 12, bound 2/12.

    def test_branch_bound_and_binding_node(self):
        report = screen(symmetric_y_mesh(), FJ, dt=0.1)
        assert report.dt_max == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert report.binding_node == 1

    def test_pass_at_bound_fail_past_it(self):
        # the next tightest row, node 2, sums to 16/3 (bound 0.375)
        mesh = symmetric_y_mesh()
        assert screen(mesh, FJ, dt=1.0 / 6.0).passed
        report = screen(mesh, FJ, dt=0.17)
        assert not report.passed
        assert report.failing_nodes == [1]

    def test_two_symmetric_paths_halve_the_step(self):
        # both meshes give node 1 the diffusive bound 0.5; the second arm
        # doubles the advective weight of the row (4 on the chain, 8 on
        # the Y), so it halves the advective part of the step
        y = symmetric_y_mesh()
        chain = chain_mesh([1.0, 2.0, 3.0, 4.0], h=1.0)
        dt_y = screen(y, FJ, dt=0.01).dt_max
        dt_c = screen(chain, FJ, dt=0.01).dt_max
        dt_d = screen(chain, SIMPLE, dt=0.01).dt_max
        assert dt_d == pytest.approx(0.5, rel=1e-12)
        assert 1.0 / dt_y - 1.0 / dt_d == pytest.approx(2.0 * (1.0 / dt_c - 1.0 / dt_d),
                                                        rel=1e-12)
        assert (dt_c, dt_y) == pytest.approx((0.25, 1.0 / 6.0), rel=1e-12)

    def test_first_order_fallback_note_is_carried(self):
        report = screen(symmetric_y_mesh(), FJ, dt=0.25)
        assert "first-order-upwind node=2" in report.warnings
        assert "first-order-upwind node=4" in report.warnings


class TestModelScreen:
    def test_simple_diffusion_matches_diffusion_only(self):
        # the radius-blind model screens with the h^2 / 2 D bound alone
        mesh = chain_mesh([1.0, 2.0, 3.0, 4.0, 5.0], h=0.5)
        combined = screen(mesh, SIMPLE, dt=0.01)
        assert combined.dt_max == 0.125
        assert combined.warnings == ()

    def test_combined_takes_the_tighter_bound(self):
        # unit spacing, unit radius slope: node 1 (R = 2) adds the upwind
        # row (-1.5, 2, -0.5) to (1, -2, 1), so the row (1, -3.5, 3, -0.5)
        # sums to 8 and binds at 0.25, below the diffusive 0.5
        mesh = chain_mesh([1.0, 2.0, 3.0, 4.0, 5.0], h=1.0)
        report = screen(mesh, FJ, dt=0.1)
        assert report.dt_max == pytest.approx(0.25, rel=1e-12)
        assert report.binding_node == 1
        # shallower taper: at R = 5 the upwind row is 0.4 (-1.5, 2, -0.5),
        # the row sums to 5.6 and the bound relaxes toward 0.5
        wide = chain_mesh([4.0, 5.0, 6.0, 7.0, 8.0], h=1.0)
        report = screen(wide, FJ, dt=0.1)
        assert report.dt_max == pytest.approx(2.0 / 5.6, rel=1e-12)

    def test_mass_factor_scales_the_admissible_step(self):
        # linear cone, slope 1: the temporal-correction mass factor is
        # constant and equals 1 + (pi/3 - 1)/2
        mesh = interval_mesh(0.0, 3.0, 7, lambda x: 1.0 + x)
        fj = screen(mesh, FJ, dt=1e-3)
        kal = screen(mesh, ModelSpec(ModelKind.KALINAY_TEMPORAL), dt=1e-3)
        assert kal.dt_max / fj.dt_max == pytest.approx(1.0235987755982988, rel=1e-12)

    def test_corrected_models_loosen_the_diffusive_bound(self):
        # Zwanzig shrinks D, so the admissible step grows by 1 + s^2/2
        mesh = chain_mesh([1.0, 2.0, 3.0, 4.0, 5.0], h=1.0)
        zw = screen(mesh, ModelSpec(ModelKind.ZWANZIG), dt=0.01)
        fj = screen(mesh, FJ, dt=0.01)
        assert zw.dt_max > fj.dt_max

    def test_warns_of_every_assembly_note(self):
        # on two nodes neither leaf has a two-edge walk for its
        # third-derivative closure
        mesh = interval_mesh(0.0, 1.0, 2, lambda x: 1.0 + 0.5 * x)
        op = assemble_model(mesh, EF)
        assert op.notes == ("no-third-derivative-closure node=0",
                            "no-third-derivative-closure node=1")
        assert check_model(mesh, op, dt=1e-3).warnings == op.notes

    def test_nonpositive_mass_factor_fails_with_zero_step(self):
        # the temporal factor 1 + g' is about (-9.59, 3.16, 15.9) here
        nodes = [(0, (0.0, 0.0, 0.0), 0.35), (1, (1.0, 0.0, 0.0), 0.79),
                 (2, (2.0, 0.0, 0.0), 2.42)]
        mesh = mesh_from(nodes, [(0, 1, 1.185), (1, 2, 0.234)], root=0)
        report = screen(mesh, ModelSpec(ModelKind.KALINAY_TEMPORAL), dt=1e-3)
        assert not report.passed
        assert report.dt_max == 0.0
        assert report.failing_nodes == [0]
        assert "nonpositive-mass-factor node=0" in report.warnings
        # the same chain under a model without the factor passes
        assert screen(mesh, FJ, dt=1e-3).passed

    def test_report_table_mentions_verdict(self):
        mesh = interval_mesh(0.0, 1.0, 11, np.ones_like)
        good = diffusive_screen(mesh, dt=0.004).as_table()
        bad = diffusive_screen(mesh, dt=0.00501).as_table()
        assert "PASS" in good
        assert "FAIL" in bad and "failing nodes" in bad

    def test_rejects_nonpositive_step(self):
        mesh = chain_mesh([1.0, 2.0, 3.0], h=1.0)
        with pytest.raises(ValueError):
            screen(mesh, FJ, dt=-0.1)

    def test_rejects_a_nan_step(self):
        # a NaN step failed every node of a report instead
        with pytest.raises(ValueError, match="time step must be positive"):
            screen(ball_on_stick(1), FJ, math.nan)

    def test_expanded_flux_screen_memory_stays_sparse(self):
        # the operator's assembly and screen: 155 B per operator non-zero at
        # their peak (1.5 MB), where builds that kept their row and column
        # triplets through the sort took 198 B, a build with 64-bit keys
        # and a group array 232 B, chained sums of the terms, each matrix
        # keeping its row index, 267 B, and one dense 1985 x 1985 matrix
        # 31.5 MB
        mesh = constricted_tree(6)
        tracemalloc.start()
        try:
            screen(mesh, EF, dt=1e-7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        nnz = assemble_model(mesh, EF).matrix.nnz
        assert nnz == 9921
        assert peak <= 170 * nnz

    def test_seven_model_band_march_memory_stays_sparse(self):
        # 7 x 2000 stacked rows, assembled and marched through their band;
        # the peak is 4.0 MB (71 B per stacked non-zero), and one dense
        # model matrix would take 32 MB
        channel = ConeChannel(taper=0.2)
        mesh = channel.mesh(2000)
        specs = tuple(ModelSpec(kind) for kind in ModelKind)
        peak = march_peak(mesh, specs, dt=1.0e-5, t_end=4.0e-4, n_snapshots=3,
                          initial=channel.concentration(mesh.positions[:, 0], 0.0))
        nnz = sum(assemble_model(mesh, spec).matrix.nnz for spec in specs)
        assert nnz == 55_967
        assert peak < 125 * nnz

    def test_padded_march_with_a_policy_memory_stays_sparse(self):
        # 993 nodes, one lateral window and a policy on every node; the
        # peak is 0.97 MB, and one dense n x n matrix would take 7.9 MB
        mesh = constricted_tree(5)
        peak = march_peak(mesh, (EF,), dt=1.5e-5, t_end=6.0e-4, n_snapshots=3, initial=5.0,
                          lateral=LateralFluxField((FluxWindow((11, 12, 13), 3.0),)),
                          policy=ConstraintPolicy(c_hi=5.05, c_lo=4.95))
        assert peak < 2.2e6

    def test_a_single_model_plan_build_peaks_near_its_operator(self):
        # a tree has no band, so the plan pads its one operator: 55 B per
        # non-zero at the peak, where a plan that copied the lone block,
        # scaled it through a row index per entry, sought the band through
        # per-entry offsets and stacked the identity slot onto a padded
        # copy took 72 B
        mesh = constricted_tree(6)
        ops = [assemble_model(mesh, EF)]
        tracemalloc.start()
        try:
            _Plan.build(mesh, (EF,), ops, 1.0e-7, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 60 * ops[0].matrix.nnz

    @pytest.mark.parametrize("case", ["seven-model-cone", "tree-window"])
    def test_a_plan_keeps_only_its_own_arrays(self, case):
        # a first plan warms the mesh's caches; one at a new dt then leaves
        # nothing allocated but its own arrays: a stacked step matrix kept
        # alive, or a scaled copy of each operator kept per dt, would add to
        # them (0.79 MB of arrays on the cone, 0.23 MB on the tree)
        if case == "seven-model-cone":
            mesh, specs, lateral = (ConeChannel(taper=0.2).mesh(2000),
                                    tuple(ModelSpec(kind) for kind in ModelKind), None)
        else:
            mesh, specs = constricted_tree(5), (EF,)
            lateral = LateralFluxField((FluxWindow((11, 12, 13), 3.0),))
        ops = [assemble_model(mesh, spec) for spec in specs]

        # built inside the trace, as a run builds them for its plan: a lone
        # map is the plan's own array, so it must count on both sides
        def lats():
            return [lateral_operator(mesh, s) for s in specs] if lateral is not None else None

        _Plan.build(mesh, specs, ops, 1.0e-5, lats())
        tracemalloc.start()
        try:
            plan = _Plan.build(mesh, specs, ops, 5.0e-6, lats())
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        parts = [p for p in plan if isinstance(p, (np.ndarray, CSR))]
        owned = sum(a.nbytes for p in parts
                    for a in ((p.indptr, p.indices, p.data) if isinstance(p, CSR) else (p,)))
        assert kept <= 1.1 * owned, f"{kept} bytes kept for {owned} bytes of plan arrays"


class TestStepsThePerNodeScreenPassed:
    # The per-node screen this one replaced bounded diffusion and
    # advection apart and passed these steps; the rows that carry both
    # refuse them.

    @pytest.mark.parametrize("builder", [ball_on_stick, constricted_tree])
    @pytest.mark.parametrize("kind,old_dt_max", [
        (ModelKind.FICK_JACOBS, {"ball_on_stick": 5.0e-3, "constricted_tree": 5.0e-3}),
        (ModelKind.EXPANDED_FLUX, {"ball_on_stick": 4.861981966144715e-3,
                                   "constricted_tree": 4.9809271234380285e-3}),
    ])
    def test_shipped_trees_refuse_nine_tenths_of_the_old_limit(self, builder, kind,
                                                               old_dt_max):
        mesh = builder(1)
        report = screen(mesh, ModelSpec(kind), 0.9 * old_dt_max[builder.__name__])
        assert not report.passed
        assert report.failing_nodes

    def test_steep_cone_step_that_blew_up_is_refused(self):
        # marched anyway, this run ends with an error of about 2e99
        cone = ConeChannel(taper=5.0)
        with pytest.raises(StabilityError, match="fick-jacobs: dt=0.0016 exceeds"):
            model_errors(cone, (FJ,), mesh=cone.mesh(160), dt=1.6e-3, t_end=10.0)


class TestGrowingChain:
    # x = (0, 1, 1.02, 2.02, 3.02), R = (1, 2, 2.02, 3.02, 4.02): the
    # expanded-flux leaf row at x = 3.02 has a positive diagonal (its
    # third-derivative closure outweighs the Laplacian) and B = M^-1 A an
    # eigenvalue +0.0959, so every step grows; the row bound gives
    # dt_max 6.72e-3 all the same.  ROADMAP item 1: the screen bounds
    # |lambda| but does not certify Re(lambda) <= 0.

    @staticmethod
    def chain():
        xs = (0.0, 1.0, 1.02, 2.02, 3.02)
        nodes = [(i, (x, 0.0, 0.0), r)
                 for i, (x, r) in enumerate(zip(xs, (1.0, 2.0, 2.02, 3.02, 4.02)))]
        edges = [(i, i + 1, xs[i + 1] - xs[i]) for i in range(len(xs) - 1)]
        return mesh_from(nodes, edges, root=0)

    @pytest.mark.xfail(strict=True, reason="the screen passes a growing operator "
                                           "(ROADMAP item 1)")
    def test_expanded_flux_step_is_refused(self):
        mesh = self.chain()
        report = screen(mesh, EF, 1.0)
        assert not screen(mesh, EF, report.dt_max / 2).passed

    def test_fick_jacobs_on_the_same_chain_is_admitted(self):
        mesh = self.chain()
        op = assemble_model(mesh, FJ)
        eigenvalues = np.linalg.eigvals(dense(op.matrix) / op.mass_diag[:, None])
        assert eigenvalues.real.max() < 1e-12 * np.abs(eigenvalues).max()
        report = check_model(mesh, op, 1.0)
        assert check_model(mesh, op, report.dt_max / 2).passed


def test_importing_the_screen_loads_no_assembly_and_no_models():
    src = Path(tubediff.__file__).resolve().parents[1]
    code = ("import sys, tubediff.stability; print(sorted(m for m in sys.modules "
            "if m in ('tubediff.discretize', 'tubediff.models')))")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
