"""Tests for the forward-Euler driver and its supporting pieces."""

import numpy as np
import pytest

import tubediff.integrate as integrate
from tubediff.discretize import (
    FluxWindow,
    LateralFluxField,
    assemble_model,
    lateral_operator,
)
from tubediff.geometry import ball_on_stick
from tubediff.integrate import (
    BoundaryData,
    ConstraintPolicy,
    SimulationError,
    StabilityError,
    Trajectory,
    run,
    run_models,
    step,
    trapezoid_weights,
)
from tubediff.sparse import matvec_into
from tubediff.models import ModelKind, ModelSpec
from tubediff.network import interval_mesh
from tubediff.verify import ConeChannel, SinusoidChannel, exact_boundary

from tests.csv_reference import reference_csv
from tests.test_network import chain_mesh, y_mesh

SIMPLE = ModelSpec(ModelKind.SIMPLE_DIFFUSION)
FJ = ModelSpec(ModelKind.FICK_JACOBS)
EF = ModelSpec(ModelKind.EXPANDED_FLUX)
ALL_MODELS = tuple(ModelSpec(kind) for kind in ModelKind)


def scalar_lateral(mesh, field, t):
    """Scheduled wall flux at one time, node by node."""
    out = np.zeros(mesh.n_nodes)
    for w in field.windows:
        if w.t_start <= t < w.t_end:
            for node_id in w.node_ids:
                out[mesh.index(node_id)] += w.strength
    return out


def scalar_policy(mesh, policy, c, base):
    """The constraint thresholds, node by node."""
    out = base.copy()
    ids = mesh.node_ids if policy.node_ids is None else policy.node_ids
    for node_id in ids:
        i = mesh.index(node_id)
        if c[i] > policy.c_hi:
            out[i] = -policy.outflow_strength
        elif c[i] < policy.c_lo:
            out[i] = 0.0
    return out


def reference_march(mesh, spec, *, dt, t_end, initial, boundary=None,
                    lateral=None, policy=None, n_snapshots=11):
    """One model, one ``step`` at a time, end slopes evaluated per step at
    a scalar time: the reference the batched march must equal bit for bit."""
    n_steps = int(round(t_end / dt))
    op = assemble_model(mesh, spec)
    lat = lateral_operator(mesh, spec) if lateral is not None else None
    c = np.array(np.broadcast_to(np.asarray(initial, dtype=float), (mesh.n_nodes,)))
    snaps = set(np.round(np.linspace(0, n_steps, n_snapshots)).astype(int).tolist())
    times, states, fluxes = [], [], []
    for k in range(n_steps + 1):
        t = k * dt
        j = source = None
        if lateral is not None:
            j = scalar_lateral(mesh, lateral, t)
            if policy is not None:
                j = scalar_policy(mesh, policy, c, j)
            source = lat @ j
        if k in snaps:
            times.append(t)
            states.append(c.copy())
            fluxes.append(j)
        if k == n_steps:
            break
        g = None
        if boundary is not None:
            g = [float(v(t)) if callable(v) else float(v)
                 for v in (boundary.slopes.get(b, 0.0) for b in op.boundary_nodes)]
        c = step(c, op, dt, g, source)
    return np.array(times), np.array(states), (
        np.array(fluxes) if lateral is not None else None)


def assert_matches_reference(trajs, specs, mesh, **kwargs):
    assert [traj.model for traj in trajs] == [spec.kind.value for spec in specs]
    for traj, spec in zip(trajs, specs):
        times, states, fluxes = reference_march(mesh, spec, **kwargs)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.states, states), spec.kind.value
        if fluxes is None:
            assert traj.fluxes is None
        else:
            assert np.array_equal(traj.fluxes, fluxes), spec.kind.value


class TestBatchedMarch:
    @pytest.mark.parametrize("channel, dt", [
        (ConeChannel(taper=2.0), 2.0e-4),
        (SinusoidChannel(wavenumber=0.3), 1.0e-4),
    ])
    def test_all_models_batched_equal_the_reference(self, channel, dt):
        mesh = channel.mesh(41)
        kwargs = dict(dt=dt, t_end=300 * dt,
                      initial=channel.concentration(mesh.positions[:, 0], 0.0),
                      boundary=exact_boundary(channel, mesh), n_snapshots=4)
        trajs = run_models(mesh, ALL_MODELS, **kwargs)
        assert_matches_reference(trajs, ALL_MODELS, mesh, **kwargs)

    @pytest.mark.parametrize("node_ids", [None, (23, 12, 11, 23, 31, 2)])
    def test_lateral_windows_and_policy_equal_the_reference(self, node_ids):
        mesh = ball_on_stick(1)
        field = LateralFluxField((
            FluxWindow((11, 12, 13), 3.0, t_start=0.0, t_end=0.05),
            FluxWindow((23, 31, 23), -2.0, t_start=0.02),
        ))
        specs = (FJ, EF)
        kwargs = dict(dt=5.0e-4, t_end=0.1, initial=5.0, lateral=field,
                      policy=ConstraintPolicy(node_ids=node_ids, c_hi=5.05, c_lo=4.95),
                      n_snapshots=7)
        trajs = run_models(mesh, specs, **kwargs)
        assert_matches_reference(trajs, specs, mesh, **kwargs)
        # the band policy really acted
        assert (trajs[1].fluxes == -2.0).any() and (trajs[1].fluxes == 0.0).any()

    @pytest.mark.parametrize("entries", [None, 3])
    def test_chattering_policy_reuses_lateral_products(self, monkeypatch, entries):
        mesh = ball_on_stick(1)
        if entries is not None:  # a table of `entries` patterns, so it is cleared often
            monkeypatch.setattr(integrate, "CHUNK_VALUES", entries * 2 * 2 * mesh.n_nodes)
        calls = []

        def counting_matvec_into(m):
            apply, k = matvec_into(m), len(calls)
            calls.append(0)

            def counted(x):
                calls[k] += 1
                return apply(x)
            return counted

        patterns, masks = [], ConstraintPolicy.masks

        def recorded_masks(policy, c, where):
            high, low = masks(policy, c, where)
            t = calls[0] * dt  # the stacked product runs once per step, after this
            patterns.append((int(t >= 0.3) + int(t >= 0.5), high.tobytes() + low.tobytes()))
            return high, low

        monkeypatch.setattr(integrate, "matvec_into", counting_matvec_into)
        monkeypatch.setattr(ConstraintPolicy, "masks", recorded_masks)
        field = LateralFluxField((
            FluxWindow((11, 12, 13), 3.0, t_start=0.0, t_end=0.3),
            FluxWindow((23, 31, 23), -2.0, t_start=0.5),
        ))
        specs, n_steps, dt = (FJ, EF), 2000, 5.0e-4
        kwargs = dict(dt=dt, t_end=n_steps * dt, initial=5.0, lateral=field,
                      policy=ConstraintPolicy(node_ids=(23, 12, 11, 23, 31, 2),
                                              c_hi=5.02, c_lo=4.98),
                      n_snapshots=7)
        trajs = run_models(mesh, specs, **kwargs)
        monkeypatch.undo()
        assert_matches_reference(trajs, specs, mesh, **kwargs)
        # the stacked matrix every step, then the lateral map a few times
        assert len(calls) == 2 and calls[0] == n_steps
        # patterns are keyed by window: the windows switch at t = 0.3 and 0.5
        flips = sum(a != b for a, b in zip(patterns, patterns[1:]))
        assert flips > n_steps / 4  # the policy chatters ...
        if entries is None:  # ... yet each (window, pattern) costs one product
            assert calls[1] == len(set(patterns)) < n_steps / 10
        else:
            assert len(set(patterns)) < calls[1] < flips  # cleared, and still reused

    def test_chunks_that_split_snapshot_intervals(self, monkeypatch):
        channel = ConeChannel(taper=1.0)
        mesh = channel.mesh(21)
        # chunks of 7 steps; 53 steps with snapshots at 0, 11, 21, 32, 42, 53
        monkeypatch.setattr(integrate, "CHUNK_VALUES", 7 * 2 * mesh.n_nodes)
        specs = (FJ, EF)
        kwargs = dict(dt=1.0e-3, t_end=0.053,
                      initial=channel.concentration(mesh.positions[:, 0], 0.0),
                      boundary=exact_boundary(channel, mesh), n_snapshots=6)
        trajs = run_models(mesh, specs, **kwargs)
        assert trajs[0].times == pytest.approx([0.0, 0.011, 0.021, 0.032, 0.042, 0.053])
        assert_matches_reference(trajs, specs, mesh, **kwargs)

    def test_blowup_names_the_model_that_blew_up(self):
        mesh = chain_mesh([1.0] * 5)  # dt_max: 0.5 at d0 = 1, 0.125 at d0 = 4
        x = mesh.positions[:, 0]
        specs = (SIMPLE, ModelSpec(ModelKind.FICK_JACOBS, d0=4.0))
        with pytest.raises(SimulationError, match="fick-jacobs") as info:
            run_models(mesh, specs, dt=0.3, t_end=900.0,
                       initial=np.sin(np.pi * x / 4.0), force=True)
        assert "simple-diffusion" not in str(info.value)

    def test_every_model_is_screened_before_marching(self):
        mesh = chain_mesh([1.0] * 5)
        specs = (SIMPLE, ModelSpec(ModelKind.FICK_JACOBS, d0=4.0))
        with pytest.raises(StabilityError):
            run_models(mesh, specs, dt=0.3, t_end=0.6, initial=1.0)


class TestStep:
    def test_single_update_is_exact(self):
        mesh = chain_mesh([1.0, 1.0, 1.0])
        op = assemble_model(mesh, SIMPLE)
        c = np.array([0.0, 1.0, 0.0])
        out = step(c, op, dt=0.1)
        # leaf rows 2(c_nbr - c_leaf)/h^2, interior (1, -2, 1)/h^2
        assert np.array_equal(out, np.array([0.2, 0.8, 0.2]))

    def test_nonfinite_state_raises(self):
        mesh = chain_mesh([1.0, 1.0, 1.0])
        op = assemble_model(mesh, SIMPLE)
        c = np.array([0.0, 1.0, 0.0])
        with pytest.raises(SimulationError):
            step(c, op, dt=1e308)


class TestQuadrature:
    def test_chain_weights(self):
        mesh = chain_mesh([1.0] * 5)
        assert np.array_equal(trapezoid_weights(mesh), [0.5, 1.0, 1.0, 1.0, 0.5])

    def test_branch_node_collects_all_edges(self):
        mesh = y_mesh()
        w = trapezoid_weights(mesh)
        assert w[mesh.index(2)] == 1.5
        assert w.sum() == pytest.approx(mesh.total_length(), rel=1e-15)


class TestConservation:
    def test_closed_network_conserves_weighted_mass(self):
        mesh = y_mesh()
        rng = np.random.default_rng(7)
        c0 = rng.uniform(0.5, 2.0, mesh.n_nodes)
        traj = run(
            mesh, SIMPLE, dt=0.05, t_end=5.0, initial=c0
        )
        w = trapezoid_weights(mesh)
        masses = traj.states @ w
        assert np.max(np.abs(masses - masses[0])) <= 1e-12 * masses[0]

    def test_end_slopes_feed_mass_at_unit_rate(self):
        # D=1: mass rate is g_far - g_root for a straight channel
        mesh = chain_mesh([1.0] * 5)
        traj = run(
            mesh,
            SIMPLE,
            dt=0.1,
            t_end=2.0,
            initial=1.0,
            boundary=BoundaryData({0: -1.0, 4: 0.0}),
            n_snapshots=21,
        )
        w = trapezoid_weights(mesh)
        masses = traj.states @ w
        rates = np.diff(masses) / 0.1
        assert rates == pytest.approx(np.ones_like(rates), rel=1e-12)


class TestRunDriver:
    def test_snapshot_times_span_the_run(self):
        mesh = chain_mesh([1.0] * 5)
        traj = run(
            mesh, SIMPLE, dt=0.01, t_end=1.0,
            initial=0.0, n_snapshots=5,
        )
        assert traj.times == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
        assert traj.states.shape == (5, 5)

    def test_initial_snapshot_is_the_initial_state(self):
        mesh = chain_mesh([1.0] * 5)
        c0 = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        traj = run(mesh, SIMPLE, dt=0.1, t_end=1.0, initial=c0)
        assert np.array_equal(traj.states[0], c0)

    def test_reruns_are_bit_identical(self):
        mesh = interval_mesh(0.0, 10.0, 41, lambda x: 1.0 + 0.2 * x)
        x = mesh.positions[:, 0]
        c0 = np.exp(-((x - 5.0) ** 2))
        a = run(mesh, FJ, dt=0.005, t_end=1.0, initial=c0)
        b = run(mesh, FJ, dt=0.005, t_end=1.0, initial=c0)
        assert np.array_equal(a.states, b.states)

    def test_overlarge_step_is_refused(self):
        mesh = chain_mesh([1.0] * 5)  # dt_max = 0.5
        with pytest.raises(StabilityError):
            run(mesh, SIMPLE, dt=0.6, t_end=1.2, initial=1.0)

    def test_force_overrides_the_gate(self):
        mesh = chain_mesh([1.0] * 5)
        traj = run(
            mesh, SIMPLE, dt=0.6, t_end=1.2,
            initial=1.0, force=True,
        )
        assert np.isfinite(traj.final).all()

    def test_forced_blowup_raises_mid_march(self):
        mesh = chain_mesh([1.0] * 5)
        x = mesh.positions[:, 0]
        with pytest.raises(SimulationError):
            # the pi-mode grows about fivefold per step at this dt, so the
            # march overflows well before t_end
            run(
                mesh, SIMPLE, dt=1.5, t_end=900.0,
                initial=np.sin(np.pi * x / 4.0), force=True,
            )

    def test_fractional_step_count_is_rejected(self):
        mesh = chain_mesh([1.0] * 5)
        with pytest.raises(ValueError):
            run(mesh, SIMPLE, dt=0.3, t_end=1.0, initial=1.0)

    def test_time_dependent_end_slope_changes_the_answer(self):
        mesh = chain_mesh([1.0] * 5)
        fixed = run(
            mesh, SIMPLE, dt=0.1, t_end=1.0, initial=1.0,
            boundary=BoundaryData({4: 0.5}),
        )
        ramped = run(
            mesh, SIMPLE, dt=0.1, t_end=1.0, initial=1.0,
            boundary=BoundaryData({4: lambda t: 0.5 * t}),
        )
        assert not np.array_equal(fixed.final, ramped.final)

    def test_boundary_data_on_interior_node_is_rejected(self):
        mesh = chain_mesh([1.0] * 5)
        with pytest.raises(ValueError):
            run(
                mesh, SIMPLE, dt=0.1, t_end=1.0,
                initial=1.0, boundary=BoundaryData({2: 1.0}),
            )


def governed_flux(policy, mesh, c, base):
    """The wall flux the march applies: ``base`` with the thresholds at
    the governed nodes of one state."""
    where = policy.where(mesh)
    return policy.flux(base, *policy.masks(c, where), where)


class TestConstraintPolicy:
    def test_flux_branches(self):
        mesh = chain_mesh([1.0, 1.0, 1.0])
        policy = ConstraintPolicy(node_ids=(0, 1, 2), c_hi=6.0, c_lo=4.0,
                                  outflow_strength=2.0)
        c = np.array([7.0, 5.0, 3.0])
        base = np.array([1.0, 1.0, 1.0])
        assert np.array_equal(governed_flux(policy, mesh, c, base), [-2.0, 1.0, 0.0])

    def test_unlisted_nodes_keep_scheduled_flux(self):
        mesh = chain_mesh([1.0, 1.0, 1.0])
        policy = ConstraintPolicy(node_ids=(1,))
        c = np.array([7.0, 7.0, 7.0])
        base = np.array([1.0, 1.0, 1.0])
        assert np.array_equal(governed_flux(policy, mesh, c, base), [1.0, -2.0, 1.0])

    def test_default_policy_governs_every_node(self):
        mesh = chain_mesh([1.0, 1.0, 1.0, 1.0])
        policy = ConstraintPolicy(c_hi=6.0, c_lo=4.0, outflow_strength=2.0)
        c = np.array([7.0, 5.0, 3.0, 6.5])
        base = np.array([1.0, 1.0, 1.0, 1.0])
        assert np.array_equal(governed_flux(policy, mesh, c, base), [-2.0, 1.0, 0.0, -2.0])

    def test_bad_parameters_are_rejected(self):
        with pytest.raises(ValueError):
            ConstraintPolicy(node_ids=(0,), c_hi=4.0, c_lo=6.0)
        with pytest.raises(ValueError):
            ConstraintPolicy(node_ids=(0,), outflow_strength=0.0)


class TestBoundarySeries:
    def test_constants_callables_and_absent_leaves(self):
        data = BoundaryData({0: -1.0, 4: lambda t: 0.5 * t, 7: lambda t: 2.0})
        out = data.series((0, 4, 7, 9), np.array([0.0, 1.0, 3.0]))
        assert np.array_equal(out, [[-1.0, 0.0, 2.0, 0.0],
                                    [-1.0, 0.5, 2.0, 0.0],
                                    [-1.0, 1.5, 2.0, 0.0]])


class TestLateralFlux:
    def test_repeated_ids_add_up(self):
        mesh = chain_mesh([1.0] * 5)
        field = LateralFluxField((FluxWindow((1, 3, 1), 0.5),
                                  FluxWindow((1,), 0.25, t_start=1.0)))
        assert np.array_equal(field.values(mesh, 0.0), [0.0, 1.0, 0.0, 0.5, 0.0])
        assert np.array_equal(field.values(mesh, 1.0), [0.0, 1.25, 0.0, 0.5, 0.0])

    def test_windows_turn_off_in_recorded_fluxes(self):
        mesh = chain_mesh([1.0] * 5)
        field = LateralFluxField((FluxWindow((1, 2), 3.0, t_start=0.0, t_end=0.5),))
        traj = run(
            mesh, SIMPLE, dt=0.05, t_end=1.0,
            initial=1.0, lateral=field, n_snapshots=3,
        )
        assert traj.fluxes is not None
        assert np.array_equal(traj.fluxes[0], [0.0, 3.0, 3.0, 0.0, 0.0])
        # window half-open: off at t = 0.5 and after
        assert np.array_equal(traj.fluxes[1], np.zeros(5))
        assert np.array_equal(traj.fluxes[2], np.zeros(5))

    def test_policy_override_is_recorded(self):
        mesh = chain_mesh([1.0] * 5)
        field = LateralFluxField((FluxWindow((1,), 3.0),))
        policy = ConstraintPolicy(node_ids=(1,), c_hi=6.0, c_lo=4.0,
                                  outflow_strength=2.0)
        traj = run(
            mesh, SIMPLE, dt=0.05, t_end=0.1,
            initial=7.0, lateral=field, policy=policy, n_snapshots=2,
        )
        assert traj.fluxes[0][mesh.index(1)] == -2.0

    def test_flux_raises_concentration(self):
        mesh = chain_mesh([1.0] * 5)
        field = LateralFluxField((FluxWindow((2,), 1.0),))
        traj = run(
            mesh, SIMPLE, dt=0.05, t_end=1.0,
            initial=1.0, lateral=field,
        )
        assert traj.final[2] > 1.0


class TestCsvOutput:
    def test_schema_and_roundtrip(self, tmp_path):
        mesh = interval_mesh(0.0, 2.0, 5, lambda x: 1.0 + 0.5 * x)
        traj = run(mesh, FJ, dt=0.05, t_end=0.5, initial=2.0, n_snapshots=3)
        path = tmp_path / "out.csv"
        traj.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,node_id,x_arc,c,G"
        assert len(lines) == 1 + 3 * 5
        t, node_id, x_arc, c, big_g = lines[1].split(",")
        assert float(t) == 0.0 and node_id == "0"
        assert float(c) == traj.states[0, 0]
        assert float(big_g) == np.pi * mesh.radii[0] ** 2 * traj.states[0, 0]

    def test_flux_column_appears_with_lateral_data(self, tmp_path):
        mesh = chain_mesh([1.0] * 5)
        field = LateralFluxField((FluxWindow((2,), 1.0),))
        traj = run(
            mesh, SIMPLE, dt=0.05, t_end=0.5,
            initial=1.0, lateral=field,
        )
        path = tmp_path / "out.csv"
        traj.to_csv(path)
        assert path.read_text().startswith("t,node_id,x_arc,c,G,J\n")

    @pytest.mark.parametrize("lateral", [False, True])
    def test_bytes_equal_the_reference_writer(self, tmp_path, lateral):
        mesh = ball_on_stick(1)
        field = LateralFluxField((FluxWindow((11, 12), 3.0, t_end=0.01),)) if lateral else None
        x = mesh.arc_lengths()
        traj = run(mesh, EF, dt=5.0e-4, t_end=0.02,
                   initial=5.0 + np.sin(x), lateral=field,
                   policy=ConstraintPolicy(c_hi=5.5, c_lo=4.5) if lateral else None,
                   n_snapshots=5)
        path = tmp_path / "out.csv"
        traj.to_csv(path)
        assert path.read_bytes() == reference_csv(traj).encode()

    def test_identical_runs_write_identical_bytes(self, tmp_path):
        mesh = y_mesh()
        out = []
        for name in ("a.csv", "b.csv"):
            traj = run(
                mesh, SIMPLE, dt=0.05, t_end=1.0, initial=2.0
            )
            p = tmp_path / name
            traj.to_csv(p)
            out.append(p.read_bytes())
        assert out[0] == out[1]
