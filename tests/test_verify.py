"""Tests for the closed-form transients and error metrics."""

import math
from functools import partial

import numpy as np
import pytest

from tubediff.discretize import assemble_model
from tubediff.geometry import ConeChannel, SinusoidChannel
from tubediff.integrate import Trajectory, run_models
from tubediff.models import ModelKind, ModelSpec
from tubediff.network import refine
from tubediff.verify import (
    ConvergenceResult,
    channel_convergence,
    common_node_error,
    exact_boundary,
    fitted_slope,
    l1_error,
    model_errors,
    tree_convergence,
)

from tests.test_network import y_mesh
from tests.verify_reference import slope2_deviation, time_derivative

FJ = ModelSpec(ModelKind.FICK_JACOBS)

# frozen closed-form samples (sigma defaults: cone 4, sinusoid 2)
CONE_G_ORIGIN = 0.31580938887303234          # = 0.5 * (2 pi)^(-1/4)
SIN_G_AT_2 = 0.3530496419610133              # = sin(1) (2/pi)^(1/4) / 2 * e^(-1/16)


class TestConeChannel:
    def test_initial_contents_at_origin(self):
        cone = ConeChannel(taper=0.2)
        assert cone.tube_contents(0.0, 0.0) == pytest.approx(
            CONE_G_ORIGIN, rel=1e-14
        )
        # independent algebra for the same number
        assert cone.tube_contents(0.0, 0.0) == pytest.approx(
            0.5 * (2.0 * math.pi) ** -0.25, rel=1e-14
        )

    def test_taper_scales_contents_linearly(self):
        cone = ConeChannel(taper=0.2)
        ratio = cone.tube_contents(5.0, 0.0) / cone.tube_contents(5.0, 0.0)
        assert ratio == 1.0
        wide = ConeChannel(taper=5.0)
        x = 2.0
        expected = (1.0 + 5.0 * x) / (1.0 + 0.2 * x)
        assert wide.tube_contents(x, 0.0) / cone.tube_contents(x, 0.0) == pytest.approx(
            expected, rel=1e-14
        )

    def test_slope_matches_finite_difference(self):
        cone = ConeChannel(taper=0.2)
        d = 1e-6
        for x, t in [(1.3, 0.0), (6.1, 4.0)]:
            fd = (cone.concentration(x + d, t) - cone.concentration(x - d, t)) / (2 * d)
            assert cone.slope(x, t) == pytest.approx(fd, rel=1e-7)

    def test_time_derivative_matches_finite_difference(self):
        cone = ConeChannel(taper=0.2)
        d = 1e-6
        for x, t in [(3.7, 2.0), (8.0, 7.5)]:
            fd = (cone.concentration(x, t + d) - cone.concentration(x, t - d)) / (2 * d)
            assert time_derivative(cone, x, t) == pytest.approx(fd, rel=1e-6)

    def test_spread_grows_with_diffusivity(self):
        cone = ConeChannel(taper=0.2, d0=2.0)
        assert cone.spread(3.0) == pytest.approx(16.0 + 6.0, rel=1e-15)


class TestSinusoidChannel:
    def test_domain_stays_inside_one_arch(self):
        chan = SinusoidChannel(wavenumber=0.5)
        assert chan.x0 == 1.0
        assert chan.x1 == pytest.approx(2.0 * math.pi - 1.0, rel=1e-15)
        mesh = chan.mesh(41)
        assert mesh.radii.min() > 0.0

    def test_initial_contents_sample(self):
        chan = SinusoidChannel(wavenumber=0.5)
        assert chan.tube_contents(2.0, 0.0) == pytest.approx(SIN_G_AT_2, rel=1e-14)

    def test_contents_grow_exponentially_in_time(self):
        chan = SinusoidChannel(wavenumber=0.5)
        g0 = chan.tube_contents(2.0, 0.0)
        g1 = chan.tube_contents(2.0, 1.5)
        # gain e^(d0 w^2 t) times the slower Gaussian spread at fixed x
        assert g1 > g0

    def test_slope_and_time_derivative_match_finite_differences(self):
        chan = SinusoidChannel(wavenumber=0.5)
        d = 1e-6
        x, t = 2.5, 1.0
        fd_x = (chan.concentration(x + d, t) - chan.concentration(x - d, t)) / (2 * d)
        fd_t = (chan.concentration(x, t + d) - chan.concentration(x, t - d)) / (2 * d)
        assert chan.slope(x, t) == pytest.approx(fd_x, rel=1e-7)
        assert time_derivative(chan, x, t) == pytest.approx(fd_t, rel=1e-6)


class TestClosedFormBits:
    # float.hex of (concentration, slope, tube_contents, time_derivative)
    # at x0 + 0.3, the midpoint and x1 - 0.3, at t = 0 then t = 0.7, as the
    # per-kind closed forms gave them before the kinds shared one base;
    # any reassociation of the shared expressions changes a bit here
    PINNED = {
        "cone": [
            ("0x1.3c496a1d68cb3p-4", "-0x1.ec8681ac90d8fp-5",
             "0x1.a3d08ec9e1b86p-2", "-0x1.3b65b022ed381p-9"),
            ("0x1.73792820f28fep-7", "-0x1.dfd1d3d5394f2p-9",
             "0x1.483946171ca9ap+0", "-0x1.450a031cd43dep-14"),
            ("0x1.1b1660fb1f1cfp-9", "-0x1.c1121092ab2a3p-11",
             "0x1.8dbd2630f4b54p-1", "0x1.12a39749631abp-13"),
            ("0x1.359af509eb770p-4", "-0x1.e1e0abb9f2e7cp-5",
             "0x1.9af23a850ebbap-2", "-0x1.27d41b03b915cp-9"),
            ("0x1.719b678a0925dp-7", "-0x1.d3b9edd1effbdp-9",
             "0x1.46932510b8a52p+0", "-0x1.643c27e868351p-14"),
            ("0x1.26b40afb738e7p-9", "-0x1.c484f69a54f23p-11",
             "0x1.9e0f287ca81ffp-1", "0x1.008652343c6afp-13"),
        ],
        "sinusoid": [
            ("0x1.7cc1e3dd3bcb4p-2", "-0x1.242a9730f73a7p-2",
             "0x1.59ccff7a01297p-3", "-0x1.99506e8dd37a9p-7"),
            ("0x1.7b6db00c8307fp-5", "-0x1.91d04726f2ac5p-6",
             "0x1.2a009eb2d8756p-3", "0x1.74663d3baa5c8p-7"),
            ("0x1.793a0ca9098dcp-8", "-0x1.b8195be9e0d8cp-10",
             "0x1.5698231fb14b5p-9", "0x1.7c6aa53bbb4e7p-8"),
            ("0x1.766a5c87769e5p-2", "-0x1.1d357986856c6p-2",
             "0x1.540a85ba62dddp-3", "-0x1.702bd7cc8f493p-8"),
            ("0x1.b890e19c40f6ep-5", "-0x1.8d12147dc27e5p-6",
             "0x1.5a0509e34c767p-3", "0x1.48ff90656b1d4p-7"),
            ("0x1.590d9e02fdfb0p-7", "-0x1.81293cd4e08e8p-10",
             "0x1.395fe04a2098ap-8", "0x1.fe44270f93c50p-8"),
        ],
    }

    @pytest.mark.parametrize("kind,channel", [("cone", ConeChannel(taper=1.0)),
                                              ("sinusoid", SinusoidChannel(wavenumber=0.3))])
    def test_closed_forms_keep_every_bit(self, kind, channel):
        xs = (channel.x0 + 0.3, 0.5 * (channel.x0 + channel.x1), channel.x1 - 0.3)
        got = [tuple(float(f(x, t)).hex() for f in (channel.concentration, channel.slope,
                                                    channel.tube_contents,
                                                    partial(time_derivative, channel)))
               for t in (0.0, 0.7) for x in xs]
        assert got == self.PINNED[kind]


class TestExactnessUnderDiscretization:
    """The classical model's operator applied to the exact field must
    reproduce the exact time derivative to second order in h."""

    @pytest.mark.parametrize(
        "channel",
        [ConeChannel(taper=0.2), SinusoidChannel(wavenumber=0.5)],
        ids=["cone", "sinusoid"],
    )
    def test_interior_residual_shrinks_toward_fourfold(self, channel):
        def residual(n):
            mesh = channel.mesh(n)
            x = mesh.positions[:, 0]
            t = 1.0
            c = channel.concentration(x, t)
            ends = channel.slope(x[mesh.leaf_indices()], t)
            op = assemble_model(mesh, FJ)
            rhs = (op.matrix @ c + op.neumann @ ends) / op.mass_diag
            exact = time_derivative(channel, x, t)
            return np.max(np.abs(rhs[2:-2] - exact[2:-2]))

        r1, r2, r3 = residual(81), residual(161), residual(321)
        assert r1 > r2 > r3
        # the worst interior point approaches its asymptotic rate from
        # below, so allow some slack under the clean factor of four
        assert 2.8 <= r2 / r3 <= 5.0


class TestL1Error:
    def test_hand_computed_average(self):
        assert l1_error([1.1, 2.0], [1.0, 2.0]) == pytest.approx(0.05, rel=1e-14)

    def test_small_reference_values_are_excluded(self):
        err = l1_error([1.1, 123.0], [1.0, 1e-15])
        assert err == pytest.approx(0.1, rel=1e-12)

    def test_all_zero_reference_is_rejected(self):
        with pytest.raises(ValueError):
            l1_error([1.0, 2.0], [0.0, 0.0])

    def test_shape_mismatch_is_rejected(self):
        with pytest.raises(ValueError):
            l1_error([1.0], [1.0, 2.0])


class TestExactBoundary:
    @pytest.mark.parametrize("channel", [ConeChannel(taper=1.0),
                                         SinusoidChannel(wavenumber=0.3)])
    def test_series_equals_scalar_slopes_bit_for_bit(self, channel):
        mesh = channel.mesh(21)
        ends = tuple(int(mesh.node_ids[i]) for i in mesh.leaf_indices())
        times = np.arange(1000) * 0.0137
        series = exact_boundary(channel, mesh).series(ends, times)
        x = mesh.positions[:, 0]
        scalar = [[float(channel.slope(float(x[mesh.index(e)]), float(t))) for e in ends]
                  for t in times]
        assert np.array_equal(series, scalar)


class TestChannelRuns:
    def test_short_run_tracks_the_exact_solution(self):
        cone = ConeChannel(taper=0.2)
        errors = model_errors(cone, (FJ,), mesh=cone.mesh(81), dt=0.002, t_end=0.5)
        assert errors["fick-jacobs"] < 2e-4

    def test_error_falls_with_resolution(self):
        cone = ConeChannel(taper=0.2)
        coarse, fine = (model_errors(cone, (FJ,), mesh=cone.mesh(n), dt=0.002, t_end=0.5)
                        for n in (21, 81))
        assert fine["fick-jacobs"] < coarse["fick-jacobs"]

    def test_model_errors_keys_follow_the_specs(self):
        cone = ConeChannel(taper=0.2)
        specs = [FJ, ModelSpec(ModelKind.SIMPLE_DIFFUSION)]
        table = model_errors(cone, specs, mesh=cone.mesh(21), dt=0.005, t_end=0.2)
        assert set(table) == {"fick-jacobs", "simple-diffusion"}
        assert all(v > 0.0 for v in table.values())

    @pytest.mark.parametrize("n_snapshots", [0, 1])
    def test_fewer_than_two_snapshots_are_refused(self, n_snapshots):
        # one snapshot used to hold only the initial state, none crashed
        with pytest.raises(ValueError, match=f"n_snapshots={n_snapshots}"):
            run_models(ConeChannel(taper=0.2).mesh(21), (FJ,), dt=0.005, t_end=0.2,
                       initial=1.0, n_snapshots=n_snapshots)

    def test_two_snapshots_end_at_t_end(self):
        traj = run_models(ConeChannel(taper=0.2).mesh(21), (FJ,), dt=0.005, t_end=0.2,
                          initial=1.0, n_snapshots=2)[0]
        assert list(traj.times) == pytest.approx([0.0, 0.2])
        assert traj.step_time_s > 0.0


class TestConvergence:
    def test_fitted_slope_recovers_a_power_law(self):
        hs = [0.4, 0.2, 0.1]
        errs = [7.0 * h**2 for h in hs]
        assert fitted_slope(hs, errs) == pytest.approx(2.0, rel=1e-12)

    def test_classical_model_is_second_order(self):
        cone = ConeChannel(taper=0.2)
        result = channel_convergence(cone, FJ, ns=(21, 41, 81), dt=0.002, t_end=0.5)
        assert isinstance(result, ConvergenceResult)
        assert result.errors[0] > result.errors[-1]
        assert 1.7 <= result.slope <= 2.3

    @pytest.mark.parametrize("bad", [0.0, -1.0e-3, math.inf, math.nan])
    def test_a_ladder_error_that_cannot_be_fitted_is_refused(self, bad):
        with pytest.raises(ValueError, match=r"level 1 \(N=21\) has error"):
            ConvergenceResult(ns=(11, 21, 41), spacings=(0.4, 0.2, 0.1), errors=(1.0, bad, 0.1))

    def test_slope2_deviation_against_hand_values(self):
        # finest three sit exactly on e = 0.375 h^2, so the reference at
        # h = 0.8 is 0.24 and the coarsest error is 1.0 / 0.24 above it
        result = ConvergenceResult(
            ns=(11, 21, 41, 81),
            spacings=(0.8, 0.4, 0.2, 0.1),
            errors=(1.0, 0.06, 0.015, 0.00375),
        )
        assert slope2_deviation(result, 3) == pytest.approx(1.0 / 0.24, rel=1e-12)

    def test_slope2_deviation_is_one_on_a_pure_power_law(self):
        spacings = (0.8, 0.4, 0.2, 0.1)
        result = ConvergenceResult(
            ns=(11, 21, 41, 81),
            spacings=spacings,
            errors=tuple(0.375 * h**2 for h in spacings),
        )
        assert slope2_deviation(result, 3) == pytest.approx(1.0, rel=1e-12)


class TestBranchedComparison:
    def test_common_node_error_against_synthetic_reference(self):
        coarse = y_mesh()
        fine = refine(coarse, 1)

        def traj(mesh, values):
            return Trajectory(
                mesh=mesh,
                model="fick-jacobs",
                times=np.array([0.0]),
                states=np.array([values]),
            )

        ref_vals = fine.arc_lengths() + 1.0
        coarse_vals = 1.01 * (coarse.arc_lengths() + 1.0)
        err = common_node_error(traj(coarse, coarse_vals), traj(fine, ref_vals))
        assert err == pytest.approx(0.01, rel=1e-12)

    def test_tree_convergence_errors_shrink_with_refinement(self):
        meshes = [refine(y_mesh(), k) for k in range(4)]

        def initial(mesh):
            return 1.0 + np.exp(-mesh.arc_lengths())

        result = tree_convergence(
            meshes, ModelSpec(ModelKind.FICK_JACOBS),
            dt=5e-4, t_end=0.2, initial=initial,
        )
        assert result.ns == (5, 10, 20)          # edge counts double exactly
        assert result.spacings[0] == pytest.approx(meshes[0].total_length() / 5)
        assert result.errors[0] > result.errors[1] > result.errors[2]

    def test_tree_convergence_needs_a_reference_mesh(self):
        with pytest.raises(ValueError):
            tree_convergence([y_mesh()], ModelSpec(ModelKind.FICK_JACOBS),
                             dt=1e-3, t_end=0.1, initial=lambda m: 1.0)
