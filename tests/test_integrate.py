"""Tests for the forward-Euler driver and its supporting pieces."""

import math
import tracemalloc

import numpy as np
import pytest

import tubediff.discretize as discretize
import tubediff.integrate as integrate
from tubediff.discretize import (
    FluxWindow,
    LateralFluxField,
    assemble_model,
    lateral_operator,
)
from tubediff.geometry import ConeChannel, SinusoidChannel, ball_on_stick, constricted_tree
from tubediff.integrate import (
    BoundaryData,
    ConstraintPolicy,
    Trajectory,
    run_models,
    trapezoid_weights,
)
from tubediff.sparse import CSR
from tubediff.models import ModelKind, ModelSpec
from tubediff.network import interval_mesh
from tubediff.stability import SimulationError, StabilityError, StabilityWarning
from tubediff.verify import exact_boundary

from tests.csv_reference import reference_csv
from tests.march_reference import step
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
                    lateral=None, policy=None, n_snapshots=11, visit=None):
    """One model, one ``step`` at a time, end slopes evaluated per step at
    a scalar time: the reference the batched march must equal bit for bit.
    ``visit(k, c)``, if given, sees the state at every step k, the last
    included."""
    n_steps = int(round(t_end / dt))
    op = assemble_model(mesh, spec)
    leaves = mesh.node_ids[mesh.leaf_indices()].tolist()  # the Neumann columns
    lat = lateral_operator(mesh, spec) if lateral is not None else None
    c = np.array(np.broadcast_to(np.asarray(initial, dtype=float), (mesh.n_nodes,)))
    snaps = set(np.round(np.linspace(0, n_steps, n_snapshots)).astype(int).tolist())
    times, states, fluxes = [], [], []
    for k in range(n_steps + 1):
        if visit is not None:
            visit(k, c)
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
                 for v in (boundary.slopes.get(b, 0.0) for b in leaves)]
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

    def test_screen_and_march_share_one_assembly_per_model(self, monkeypatch):
        assembled = []
        build = integrate.assemble_model

        def counted(mesh, spec):
            assembled.append(spec.kind)
            return build(mesh, spec)

        monkeypatch.setattr(integrate, "assemble_model", counted)
        channel = ConeChannel(taper=2.0)
        mesh = channel.mesh(41)
        run_models(mesh, ALL_MODELS, dt=2.0e-4, t_end=2.0e-3,
                   initial=channel.concentration(mesh.positions[:, 0], 0.0),
                   boundary=exact_boundary(channel, mesh))
        assert assembled == [spec.kind for spec in ALL_MODELS]

    @pytest.mark.parametrize("node_ids", [None, (23, 12, 11, 23, 31, 2)])
    def test_lateral_windows_and_policy_equal_the_reference(self, node_ids):
        mesh = ball_on_stick(1)
        field = LateralFluxField((
            FluxWindow((11, 12, 13), 3.0, t_start=0.0, t_end=0.05),
            FluxWindow((23, 31), -2.0, t_start=0.02),
            FluxWindow((23,), -2.0, t_start=0.02),
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
            monkeypatch.setattr(integrate, "CHUNK_VALUES", entries * 4 * 2 * mesh.n_nodes)
        lateral_products, product = [], CSR.__matmul__

        def counted(m, x):
            if m.shape == (2 * mesh.n_nodes, 2 * mesh.n_nodes):  # the stacked lateral map
                lateral_products.append(1)
            return product(m, x)

        monkeypatch.setattr(CSR, "__matmul__", counted)
        field = LateralFluxField((
            FluxWindow((11, 12, 13), 3.0, t_start=0.0, t_end=0.3),
            FluxWindow((23, 31), -2.0, t_start=0.5),
            FluxWindow((23,), -2.0, t_start=0.5),
        ))
        policy = ConstraintPolicy(node_ids=(23, 12, 11, 23, 31, 2), c_hi=5.02, c_lo=4.98)
        specs, n_steps, dt = (FJ, EF), 2000, 5.0e-4
        kwargs = dict(dt=dt, t_end=n_steps * dt, initial=5.0, lateral=field,
                      policy=policy, n_snapshots=7)
        trajs = run_models(mesh, specs, **kwargs)
        monkeypatch.undo()
        assert_matches_reference(trajs, specs, mesh, **kwargs)
        # the (window, threshold pattern) of the stacked state at every step,
        # from the reference: the windows switch at t = 0.3 and 0.5
        where, per_model = policy.where(mesh), []
        for spec in specs:
            seen = []
            reference_march(mesh, spec, **kwargs, visit=lambda k, c: seen.append(
                policy.bands(c, where).tobytes()))
            per_model.append(seen)
        patterns = [(int(k * dt >= 0.3) + int(k * dt >= 0.5), b"".join(models))
                    for k, models in enumerate(zip(*per_model))]
        flips = sum(a != b for a, b in zip(patterns, patterns[1:]))
        assert flips > n_steps / 4  # the policy chatters ...
        if entries is None:  # ... yet each (window, pattern) costs one product
            assert len(lateral_products) == len(set(patterns)) < n_steps / 10
        else:
            assert len(set(patterns)) < len(lateral_products) < flips  # cleared, and still reused

    def test_chunks_that_split_snapshot_intervals(self, monkeypatch):
        channel = ConeChannel(taper=1.0)
        mesh = channel.mesh(21)
        # chunks of 7 steps, each step 2 end slopes and, for each of the 6 leaf
        # rows (2 of fick-jacobs, 4 of expanded-flux), its Neumann term padded,
        # summed and scaled; 53 steps with snapshots at 0, 11, 21, 32, 42, 53
        monkeypatch.setattr(integrate, "CHUNK_VALUES", 7 * (2 + 3 * 6))
        series, calls = BoundaryData.series, []
        monkeypatch.setattr(BoundaryData, "series",
                            lambda self, *a: calls.append(1) or series(self, *a))
        specs = (FJ, EF)
        kwargs = dict(dt=1.0e-3, t_end=0.053,
                      initial=channel.concentration(mesh.positions[:, 0], 0.0),
                      boundary=exact_boundary(channel, mesh), n_snapshots=6)
        trajs = run_models(mesh, specs, **kwargs)
        assert len(calls) == 10  # two chunks per snapshot interval
        monkeypatch.undo()
        assert trajs[0].times == pytest.approx([0.0, 0.011, 0.021, 0.032, 0.042, 0.053])
        assert_matches_reference(trajs, specs, mesh, **kwargs)

    def test_band_stack_of_two_widths_equals_the_reference(self):
        channel = ConeChannel(taper=1.0)
        mesh = channel.mesh(201)
        specs = (SIMPLE, EF)
        bands = [assemble_model(mesh, spec).matrix.band for spec in specs]
        assert [(lo, len(values)) for lo, values in bands] == [(-1, 3), (-2, 5)]
        assert len(specs) * mesh.n_nodes >= integrate.BAND_ROWS  # the march reads the band
        kwargs = dict(dt=1.0e-4, t_end=0.03,
                      initial=channel.concentration(mesh.positions[:, 0], 0.0),
                      boundary=exact_boundary(channel, mesh), n_snapshots=4)
        trajs = run_models(mesh, specs, **kwargs)
        assert_matches_reference(trajs, specs, mesh, **kwargs)

    def test_band_march_with_a_chattering_policy_equals_the_reference(self):
        # from about step 1300 on the policy flips every few steps, and some
        # 36 blocks are cut and marched again from the first state out of band
        mesh = interval_mesh(0.0, 10.0, 201, lambda x: 1.0 + 0.1 * x)
        field = LateralFluxField((
            FluxWindow((50, 51, 52), 3.0, t_start=0.0, t_end=0.6),
            FluxWindow((150,), -2.0, t_start=0.3),
        ))
        specs = (FJ, EF)
        assert len(specs) * mesh.n_nodes >= integrate.BAND_ROWS
        kwargs = dict(dt=5.0e-4, t_end=1.0, initial=5.0, lateral=field, n_snapshots=5,
                      policy=ConstraintPolicy(node_ids=(51, 100, 150, 50),
                                              c_hi=5.005, c_lo=4.995))
        trajs = run_models(mesh, specs, **kwargs)
        assert_matches_reference(trajs, specs, mesh, **kwargs)
        assert (trajs[1].fluxes == -2.0).any() and (trajs[1].fluxes == 0.0).any()

    def test_blowup_names_the_model_that_blew_up(self):
        mesh = chain_mesh([1.0] * 5)  # dt_max: 0.5 at d0 = 1, 0.125 at d0 = 4
        x = mesh.positions[:, 0]
        specs = (SIMPLE, ModelSpec(ModelKind.FICK_JACOBS, d0=4.0))
        with pytest.raises(SimulationError, match="fick-jacobs") as info, \
                pytest.warns(StabilityWarning, match="fick-jacobs: dt=0.3 exceeds"):
            run_models(mesh, specs, dt=0.3, t_end=900.0,
                       initial=np.sin(np.pi * x / 4.0), force=True)
        assert "simple-diffusion" not in str(info.value)

    def test_band_blowup_stays_in_its_model(self):
        # the zeros between the models keep the overflow out of its neighbour
        mesh = chain_mesh([1.0] * 201)
        x = mesh.positions[:, 0]
        specs = (SIMPLE, ModelSpec(ModelKind.FICK_JACOBS, d0=4.0), SIMPLE)
        assert len(specs) * mesh.n_nodes >= integrate.BAND_ROWS
        with pytest.raises(SimulationError, match="fick-jacobs") as info, \
                pytest.warns(StabilityWarning):
            run_models(mesh, specs, dt=0.3, t_end=900.0,
                       initial=np.sin(np.pi * x / 4.0), force=True)
        assert "simple-diffusion" not in str(info.value)

    def test_blowup_inside_a_policy_block_names_the_model(self):
        mesh = chain_mesh([1.0] * 5)
        x = mesh.positions[:, 0]
        specs = (SIMPLE, ModelSpec(ModelKind.FICK_JACOBS, d0=4.0))
        field = LateralFluxField((FluxWindow((2,), 0.5),))
        # a wide band: the growing state keeps its bands for blocks of up to
        # 21 steps, and overflows inside such blocks
        with pytest.raises(SimulationError, match="fick-jacobs") as info, \
                pytest.warns(StabilityWarning):
            run_models(mesh, specs, dt=0.3, t_end=900.0, initial=1.0 + np.sin(np.pi * x / 4.0),
                       lateral=field, policy=ConstraintPolicy(c_hi=1e6, c_lo=-1e6), force=True)
        assert "simple-diffusion" not in str(info.value)

    def test_window_edges_switch_on_the_step_the_reference_does(self):
        # the first step with k * dt >= edge: 3 * 0.1 and 6 * 0.1 round above
        # 0.3 and 0.6, so ceil(edge / dt) would switch them a step late
        mesh = chain_mesh([1.0, 1.2, 1.5, 1.2, 1.0])
        field = LateralFluxField((
            FluxWindow((1, 2), 1.0, t_start=0.3, t_end=0.7),
            FluxWindow((3,), -0.5, t_start=3 * 0.1, t_end=6 * 0.1),
        ))
        specs = (SIMPLE, FJ)
        for policy in (None, ConstraintPolicy(c_hi=1.3, c_lo=0.9)):
            kwargs = dict(dt=0.1, t_end=1.0, initial=1.0, lateral=field, policy=policy,
                          n_snapshots=3)
            trajs = run_models(mesh, specs, **kwargs)
            assert_matches_reference(trajs, specs, mesh, **kwargs)

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

    def test_end_slopes_enter_in_boundary_node_order(self):
        mesh = chain_mesh([1.0] * 4, h=0.5)
        op = assemble_model(mesh, FJ)
        assert mesh.node_ids[mesh.leaf_indices()].tolist() == [0, 3]  # the Neumann columns
        assert op.neumann.shape[1] == 2
        c = np.zeros(4)
        assert np.array_equal(step(c, op, 0.01), step(c, op, 0.01, [0.0, 0.0]))
        # the ghost-node rows: -(2/h) g at the root leaf, +(2/h) g at the other
        out = step(c, op, 0.01, np.array([1.0, -2.0]))
        assert np.array_equal(out, 0.01 * np.array([-2.0 / 0.5 * 1.0, 0.0, 0.0,
                                                    2.0 / 0.5 * -2.0]))

    def test_rejects_the_wrong_number_of_end_slopes(self):
        mesh = chain_mesh([1.0] * 4)
        op = assemble_model(mesh, FJ)
        with pytest.raises(ValueError, match="expected 2 boundary slopes"):
            step(np.zeros(4), op, 0.01, np.zeros(3))


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
        traj = run_models(
            mesh, (SIMPLE,), dt=0.05, t_end=5.0, initial=c0
        )[0]
        w = trapezoid_weights(mesh)
        masses = traj.states @ w
        assert np.max(np.abs(masses - masses[0])) <= 1e-12 * masses[0]

    def test_end_slopes_feed_mass_at_unit_rate(self):
        # D=1: mass rate is g_far - g_root for a straight channel
        mesh = chain_mesh([1.0] * 5)
        traj = run_models(
            mesh,
            (SIMPLE,),
            dt=0.1,
            t_end=2.0,
            initial=1.0,
            boundary=BoundaryData({0: -1.0, 4: 0.0}),
            n_snapshots=21,
        )[0]
        w = trapezoid_weights(mesh)
        masses = traj.states @ w
        rates = np.diff(masses) / 0.1
        assert rates == pytest.approx(np.ones_like(rates), rel=1e-12)


class TestRunDriver:
    def test_snapshot_times_span_the_run(self):
        mesh = chain_mesh([1.0] * 5)
        traj = run_models(
            mesh, (SIMPLE,), dt=0.01, t_end=1.0,
            initial=0.0, n_snapshots=5,
        )[0]
        assert traj.times == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
        assert traj.states.shape == (5, 5)

    def test_initial_snapshot_is_the_initial_state(self):
        mesh = chain_mesh([1.0] * 5)
        c0 = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        traj = run_models(mesh, (SIMPLE,), dt=0.1, t_end=1.0, initial=c0)[0]
        assert np.array_equal(traj.states[0], c0)

    def test_reruns_are_bit_identical(self):
        mesh = interval_mesh(0.0, 10.0, 41, lambda x: 1.0 + 0.2 * x)
        x = mesh.positions[:, 0]
        c0 = np.exp(-((x - 5.0) ** 2))
        a = run_models(mesh, (FJ, EF), dt=0.005, t_end=1.0, initial=c0)
        # the run dropped the mesh's parts, so the rerun builds them anew
        assert mesh not in discretize._DERIVED
        b = run_models(mesh, (FJ, EF), dt=0.005, t_end=1.0, initial=c0)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.states, tb.states)

    def test_a_run_keeps_no_more_than_its_trajectories(self):
        # once its plan is built the run frees the mesh's stencils, fields and
        # operators (about 84 B per operator non-zero); it keeps its results
        mesh = constricted_tree(6)
        kwargs = dict(dt=1.6e-6, t_end=1.6e-5, initial=1.0)
        run_models(constricted_tree(1), (EF,), **kwargs)  # first-call allocations
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traj = run_models(mesh, (EF,), **kwargs)[0]
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        arrays = traj.times.nbytes + traj.states.nbytes
        assert kept <= 1.1 * arrays, (kept, arrays)

    def test_the_plan_is_built_after_the_parts_are_dropped(self, monkeypatch):
        # its build then reuses the parts' memory (about 84 B per operator
        # non-zero), so the march phase of a run peaks lower
        mesh, build, held = ball_on_stick(1), integrate._Plan.build, []

        def recording(*args):
            held.append(mesh in discretize._DERIVED)
            return build(*args)

        monkeypatch.setattr(integrate._Plan, "build", recording)
        run_models(mesh, (FJ, EF), dt=1.0e-5, t_end=1.0e-4, initial=1.0,
                   lateral=LateralFluxField((FluxWindow((5, 6), 1.0),)))
        assert held == [False]

    def test_overlarge_step_is_refused(self):
        mesh = chain_mesh([1.0] * 5)  # dt_max = 0.5
        with pytest.raises(StabilityError):
            run_models(mesh, (SIMPLE,), dt=0.6, t_end=1.2, initial=1.0)

    def test_force_overrides_the_gate(self):
        mesh = chain_mesh([1.0] * 5)
        with pytest.warns(StabilityWarning, match=r"dt=0.6 exceeds the stable limit dt_max=0.5"):
            traj = run_models(
                mesh, (SIMPLE,), dt=0.6, t_end=1.2,
                initial=1.0, force=True,
            )[0]
        assert np.isfinite(traj.final).all()

    def test_forced_blowup_raises_mid_march(self):
        mesh = chain_mesh([1.0] * 5)
        x = mesh.positions[:, 0]
        with pytest.raises(SimulationError), pytest.warns(StabilityWarning):
            # the pi-mode grows about fivefold per step at this dt, so the
            # march overflows well before t_end
            run_models(
                mesh, (SIMPLE,), dt=1.5, t_end=900.0,
                initial=np.sin(np.pi * x / 4.0), force=True,
            )

    def test_more_snapshots_than_steps_cost_no_memory(self):
        # every step is a snapshot either way; 10**6 requested points are not drawn
        mesh, kwargs = ball_on_stick(0), dict(dt=1.0e-4, t_end=1.0e-3, initial=1.0)
        every = run_models(mesh, (FJ,), **kwargs, n_snapshots=11)[0]
        tracemalloc.start()
        try:
            many = run_models(mesh, (FJ,), **kwargs, n_snapshots=10**6)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(many.times, every.times) and len(every.times) == 11
        assert np.array_equal(many.states, every.states)
        assert peak < 2**20

    def test_fractional_step_count_is_rejected(self):
        mesh = chain_mesh([1.0] * 5)
        with pytest.raises(ValueError):
            run_models(mesh, (SIMPLE,), dt=0.3, t_end=1.0, initial=1.0)

    @pytest.mark.parametrize("name", ["dt", "t_end"])
    @pytest.mark.parametrize("value", [0.0, -1.0e-3, math.nan, math.inf])
    def test_a_time_that_is_not_positive_and_finite_is_refused_first(self, name, value):
        # before any division by dt, where 0 raised ZeroDivisionError, a negative
        # dt was "not a whole number of steps" and a NaN "nan steps"; before the
        # empty model list too
        times = {"dt": 0.1, "t_end": 1.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be positive and finite, got {value!r}"):
            run_models(chain_mesh([1.0] * 5), (), initial=[1.0], **times)

    def test_no_models_are_refused(self):
        with pytest.raises(ValueError, match="need at least one model"):
            run_models(chain_mesh([1.0] * 5), (), dt=0.1, t_end=1.0, initial=1.0)

    def test_an_initial_state_of_the_wrong_length_is_refused(self):
        with pytest.raises(ValueError, match="initial state must have 5 entries"):
            run_models(chain_mesh([1.0] * 5), (SIMPLE,), dt=0.1, t_end=1.0,
                       initial=[1.0] * 4)

    def test_time_dependent_end_slope_changes_the_answer(self):
        mesh = chain_mesh([1.0] * 5)
        fixed = run_models(
            mesh, (SIMPLE,), dt=0.1, t_end=1.0, initial=1.0,
            boundary=BoundaryData({4: 0.5}),
        )[0]
        ramped = run_models(
            mesh, (SIMPLE,), dt=0.1, t_end=1.0, initial=1.0,
            boundary=BoundaryData({4: lambda t: 0.5 * t}),
        )[0]
        assert not np.array_equal(fixed.final, ramped.final)

    def test_boundary_data_on_interior_node_is_rejected(self):
        mesh = chain_mesh([1.0] * 5)
        with pytest.raises(ValueError):
            run_models(
                mesh, (SIMPLE,), dt=0.1, t_end=1.0,
                initial=1.0, boundary=BoundaryData({2: 1.0}),
            )


def governed_flux(policy, mesh, c, base):
    """The wall flux the march applies: ``base`` with the thresholds at
    the governed nodes of one state."""
    where = policy.where(mesh)
    return policy.flux(base, policy.bands(c, where), where)


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

    def test_a_policy_without_lateral_windows_is_refused(self):
        with pytest.raises(ValueError, match="'lateral' section.*strength 0.0"):
            run_models(ball_on_stick(), (FJ,), dt=1.0e-4, t_end=1.0e-3, initial=8.0,
                       policy=ConstraintPolicy())

    def test_bad_parameters_are_rejected(self):
        with pytest.raises(ValueError):
            ConstraintPolicy(node_ids=(0,), c_hi=4.0, c_lo=6.0)
        with pytest.raises(ValueError):
            ConstraintPolicy(node_ids=(0,), outflow_strength=0.0)

    @pytest.mark.parametrize("level", [{"c_lo": math.nan}, {"c_hi": math.nan},
                                       {"outflow_strength": math.nan}])
    def test_a_nan_level_or_outflow_is_rejected(self, level):
        # with c_lo NaN every level fell in the lowest band: a scheduled flux
        # of 3.0 was recorded as 0.0 at every snapshot
        with pytest.raises(ValueError, match="c_lo must lie below c_hi|must be positive"):
            ConstraintPolicy(**level)


class TestBoundarySeries:
    def test_constants_callables_and_absent_leaves(self):
        data = BoundaryData({0: -1.0, 4: lambda t: 0.5 * t, 7: lambda t: 2.0})
        out = data.series((0, 4, 7, 9), np.array([0.0, 1.0, 3.0]))
        assert np.array_equal(out, [[-1.0, 0.0, 2.0, 0.0],
                                    [-1.0, 0.5, 2.0, 0.0],
                                    [-1.0, 1.5, 2.0, 0.0]])


class TestLateralFlux:
    def test_repeated_ids_add_up(self):
        # a node named by several windows takes each window's strength;
        # one window may name a node only once
        mesh = chain_mesh([1.0] * 5)
        field = LateralFluxField((FluxWindow((1, 3), 0.5), FluxWindow((1,), 0.5),
                                  FluxWindow((1,), 0.25, t_start=1.0)))
        assert np.array_equal(field.values(mesh, 0.0), [0.0, 1.0, 0.0, 0.5, 0.0])
        assert np.array_equal(field.values(mesh, 1.0), [0.0, 1.25, 0.0, 0.5, 0.0])
        with pytest.raises(ValueError, match="names node 1 twice"):
            FluxWindow((1, 3, 1), 0.5)

    def test_windows_turn_off_in_recorded_fluxes(self):
        mesh = chain_mesh([1.0] * 5)
        field = LateralFluxField((FluxWindow((1, 2), 3.0, t_start=0.0, t_end=0.5),))
        traj = run_models(
            mesh, (SIMPLE,), dt=0.05, t_end=1.0,
            initial=1.0, lateral=field, n_snapshots=3,
        )[0]
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
        traj = run_models(
            mesh, (SIMPLE,), dt=0.05, t_end=0.1,
            initial=7.0, lateral=field, policy=policy, n_snapshots=2,
        )[0]
        assert traj.fluxes[0][mesh.index(1)] == -2.0

    def test_flux_raises_concentration(self):
        mesh = chain_mesh([1.0] * 5)
        field = LateralFluxField((FluxWindow((2,), 1.0),))
        traj = run_models(
            mesh, (SIMPLE,), dt=0.05, t_end=1.0,
            initial=1.0, lateral=field,
        )[0]
        assert traj.final[2] > 1.0


class TestCsvOutput:
    def test_schema_and_roundtrip(self, tmp_path):
        mesh = interval_mesh(0.0, 2.0, 5, lambda x: 1.0 + 0.5 * x)
        traj = run_models(mesh, (FJ,), dt=0.05, t_end=0.5, initial=2.0, n_snapshots=3)[0]
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
        traj = run_models(
            mesh, (SIMPLE,), dt=0.05, t_end=0.5,
            initial=1.0, lateral=field,
        )[0]
        path = tmp_path / "out.csv"
        traj.to_csv(path)
        assert path.read_text().startswith("t,node_id,x_arc,c,G,J\n")

    @pytest.mark.parametrize("piece", [integrate.CSV_PIECE, 10])
    @pytest.mark.parametrize("lateral", [False, True])
    def test_bytes_equal_the_reference_writer(self, tmp_path, monkeypatch, lateral, piece):
        # 63 nodes: a snapshot is written in pieces of 10 rows and one of 3
        monkeypatch.setattr(integrate, "CSV_PIECE", piece)
        mesh = ball_on_stick(1)
        field = LateralFluxField((FluxWindow((11, 12), 3.0, t_end=0.01),)) if lateral else None
        x = mesh.arc_lengths()
        traj = run_models(mesh, (EF,), dt=5.0e-4, t_end=0.02,
                          initial=5.0 + np.sin(x), lateral=field,
                          policy=ConstraintPolicy(c_hi=5.5, c_lo=4.5) if lateral else None,
                          n_snapshots=5)[0]
        path = tmp_path / "out.csv"
        traj.to_csv(path)
        assert path.read_bytes() == reference_csv(traj).encode()

    def test_identical_runs_write_identical_bytes(self, tmp_path):
        mesh = y_mesh()
        out = []
        for name in ("a.csv", "b.csv"):
            traj = run_models(
                mesh, (SIMPLE,), dt=0.05, t_end=1.0, initial=2.0
            )[0]
            p = tmp_path / name
            traj.to_csv(p)
            out.append(p.read_bytes())
        assert out[0] == out[1]
