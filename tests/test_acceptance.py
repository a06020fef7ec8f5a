"""Top-level acceptance gate: eleven end-to-end behavior checks.

Each test covers one scenario and yields exactly one pass/fail line
under ``pytest -v``.  Tests with several clauses evaluate every clause
and put the full verdict list in the assertion message, so a failing
run still shows which parts of the scenario held.

Order of the checks:

 1. slope-dependent diffusion coefficients against hand-evaluated values
 2. bit-level stencil reductions on a uniform cable
 3. step-size limit formula plus bounded/blow-up marches around it
 4. model ranking on tapered cones (gentle, moderate, steep)
 5. model ranking in a sinusoidally bulged tube (three wavenumbers)
 6. grid-convergence slopes on cones, including the coarse-grid excess
 7. bulb accumulation on the ball-on-stick tree under balanced feed
 8. branched self-convergence: accuracy and the grid-halving economy
 9. the two operators approach each other at second order
10. concentration-band policy on the effective lateral flux
11. one-sided third-derivative closure on a cubic, locked bit-exactly
"""

import math

import numpy as np

from tests.sparse_oracle import dense
from tests.test_network import chain_mesh
from tubediff.discretize import (
    FluxWindow,
    LateralFluxField,
    assemble_model,
    laplacian_parts,
    third_derivative_parts,
    wind_stencils,
)
from tubediff.geometry import ball_on_stick, bulb_node_id, constricted_tree
from tubediff.integrate import BoundaryData, ConstraintPolicy, run, step
from tubediff.models import (
    MODEL_NAMES,
    ModelKind,
    ModelSpec,
    diffusion_coefficient,
)
from tubediff.stability import check_model
from tubediff.verify import (
    ConeChannel,
    SinusoidChannel,
    channel_convergence,
    fitted_slope,
    model_errors,
    tree_convergence,
)

FJ = ModelSpec(ModelKind.FICK_JACOBS)
EF = ModelSpec(ModelKind.EXPANDED_FLUX)

# the six radius-aware variants compared throughout
SIX = tuple(
    ModelSpec(MODEL_NAMES[name])
    for name in (
        "fick-jacobs",
        "zwanzig",
        "reguera-rubi",
        "kalinay-percus",
        "kalinay-temporal",
        "expanded-flux",
    )
)


def check_clauses(clauses):
    """Assert every (text, ok) clause; the message lists all verdicts."""
    lines = [f"  {'PASS' if ok else 'FAIL'}  {text}" for text, ok in clauses]
    assert all(ok for _, ok in clauses), "\n" + "\n".join(lines)


def test_01_diffusion_coefficients_match_hand_values():
    hand = {
        "zwanzig": {0.0: 1.0, 1.0: 0.6666666666666666, 2.0: 0.3333333333333333},
        "reguera-rubi": {0.0: 1.0, 1.0: 0.9283177667225557, 2.0: 0.7937005259840998},
        "kalinay-percus": {0.0: 1.0, 1.0: 0.9272952180016122, 2.0: 0.7853981633974483},
        "fick-jacobs": {0.0: 1.0, 1.0: 1.0, 2.0: 1.0},
    }
    clauses = []
    for name, table in hand.items():
        spec = ModelSpec(MODEL_NAMES[name])
        for slope, expected in table.items():
            got = diffusion_coefficient(spec, slope)
            clauses.append((
                f"{name} at slope {slope}: {got!r} vs {expected!r}",
                abs(got - expected) <= 1e-12 * abs(expected),
            ))
    check_clauses(clauses)


def test_02_uniform_cable_stencils_reduce_to_the_classics():
    h = 0.25
    mesh = chain_mesh([1.0] * 7, h=h)
    lap = laplacian_parts(mesh)[0]
    row = dense(lap)[3]
    rows, _, weights, _, _ = wind_stencils(mesh, np.ones(7), np.ones(7))
    interior = weights[rows == 3]
    clauses = [
        (
            "Laplacian row is exactly [1, -2, 1] / h^2",
            row[2] == 1.0 / h**2
            and row[3] == -2.0 / h**2
            and row[4] == 1.0 / h**2,
        ),
        (
            "two-path upwind weights are exactly (-3, 4, -1) / 2h",
            all(tuple(w) == (-3.0 / (2 * h), 4.0 / (2 * h), -1.0 / (2 * h))
                for w in interior) and len(interior) >= 1,
        ),
    ]
    check_clauses(clauses)


def test_03_cable_step_limit_formula_and_empirical_behavior():
    clauses = []
    for n, d0 in ((101, 1.0), (201, 2.0), (26, 0.5)):
        channel = ConeChannel(taper=0.0)
        mesh = channel.mesh(n)
        h = 10.0 / (n - 1)
        expected = h * h / (2.0 * d0)
        spec = ModelSpec(ModelKind.FICK_JACOBS, d0=d0)
        report = check_model(mesh, spec, dt=expected)
        clauses.append((
            f"n={n} d0={d0}: dt_max {report.dt_max!r} vs h^2/2D {expected!r}",
            abs(report.dt_max - expected) <= 1e-12 * expected,
        ))

        op = assemble_model(mesh, spec)
        alternating = (-1.0) ** np.arange(n)

        c = alternating.copy()
        peak = 1.0
        for _ in range(10_000):
            c = step(c, op, 0.999 * expected)
            peak = max(peak, float(np.max(np.abs(c))))
        clauses.append((
            f"n={n} d0={d0}: bounded at 0.999 dt_max (peak {peak:.6f})",
            peak <= 1.0 + 1e-9,
        ))

        c = alternating.copy()
        grew_at = None
        for k in range(10_000):
            c = step(c, op, 1.05 * expected)
            if float(np.max(np.abs(c))) > 1.0e3:
                grew_at = k + 1
                break
        clauses.append((
            f"n={n} d0={d0}: exceeds 1e3 x initial at 1.05 dt_max "
            f"(step {grew_at})",
            grew_at is not None,
        ))
    check_clauses(clauses)


def test_04_cone_model_ranking_and_error_bands():
    cones = {taper: ConeChannel(taper=taper) for taper in (0.2, 1.0, 5.0)}
    errors = {
        taper: model_errors(cone, SIX, mesh=cone.mesh(160), dt=2.0e-4, t_end=10.0)
        for taper, cone in cones.items()
    }
    clauses = []
    for taper, e in errors.items():
        ef = e["expanded-flux"]
        rival = min(v for k, v in e.items() if k != "expanded-flux")
        clauses.append((
            f"taper {taper}: expanded-flux {ef:.3e} strictly below "
            f"best rival {rival:.3e}",
            ef < rival,
        ))
    gentle = errors[0.2]
    for name in ("fick-jacobs", "expanded-flux"):
        clauses.append((
            f"taper 0.2: {name} {gentle[name]:.3e} within [1e-6, 1e-4]",
            1.0e-6 <= gentle[name] <= 1.0e-4,
        ))
    clauses.append((
        f"taper 0.2: zwanzig {gentle['zwanzig']:.3e} >= 1e-4",
        gentle["zwanzig"] >= 1.0e-4,
    ))
    clauses.append((
        f"taper 0.2: kalinay-temporal {gentle['kalinay-temporal']:.3e} >= 1e-3",
        gentle["kalinay-temporal"] >= 1.0e-3,
    ))
    steep = errors[5.0]
    clauses.append((
        f"taper 5: expanded-flux {steep['expanded-flux']:.3e} <= "
        f"0.6 x fick-jacobs {steep['fick-jacobs']:.3e}",
        steep["expanded-flux"] <= 0.6 * steep["fick-jacobs"],
    ))
    check_clauses(clauses)


def test_05_sinusoid_model_ranking_and_error_bands():
    channels = {w: SinusoidChannel(wavenumber=w) for w in (0.05, 0.1, 0.5)}
    errors = {
        w: model_errors(channel, SIX, mesh=channel.mesh(160), dt=2.0e-4, t_end=20.0)
        for w, channel in channels.items()
    }
    clauses = []
    for w, e in errors.items():
        ef = e["expanded-flux"]
        rival = min(v for k, v in e.items() if k != "expanded-flux")
        clauses.append((
            f"wavenumber {w}: expanded-flux {ef:.3e} strictly below "
            f"best rival {rival:.3e}",
            ef < rival,
        ))
    bulged = errors[0.5]
    for name in ("fick-jacobs", "expanded-flux"):
        clauses.append((
            f"wavenumber 0.5: {name} {bulged[name]:.3e} within [1e-4, 1e-2]",
            1.0e-4 <= bulged[name] <= 1.0e-2,
        ))
    for name in ("zwanzig", "kalinay-temporal"):
        clauses.append((
            f"wavenumber 0.5: {name} {bulged[name]:.3e} >= 5e-2",
            bulged[name] >= 5.0e-2,
        ))
    check_clauses(clauses)


def test_06_cone_convergence_slopes_and_coarse_grid_excess():
    ns = (40, 80, 160, 320)
    gentle_fj = channel_convergence(
        ConeChannel(taper=0.2), FJ, ns=ns, dt=2.0e-4, t_end=10.0)
    gentle_ef = channel_convergence(
        ConeChannel(taper=0.2), EF, ns=ns, dt=2.0e-4, t_end=10.0)
    steep_ef = channel_convergence(
        ConeChannel(taper=5.0), EF, ns=ns, dt=2.0e-4, t_end=10.0)
    deviation = steep_ef.slope2_deviation(3)
    clauses = [
        (
            f"taper 0.2: fick-jacobs fitted slope {gentle_fj.slope:.3f} "
            "within [1.7, 2.3]",
            1.7 <= gentle_fj.slope <= 2.3,
        ),
        (
            f"taper 0.2: expanded-flux fitted slope {gentle_ef.slope:.3f} "
            "within [1.7, 2.3]",
            1.7 <= gentle_ef.slope <= 2.3,
        ),
        (
            f"taper 5: expanded-flux finest-three slope "
            f"{steep_ef.tail_slope(3):.3f} within [1.5, 2.5]",
            1.5 <= steep_ef.tail_slope(3) <= 2.5,
        ),
        (
            f"taper 5: coarsest error sits {deviation:.2f}x above its "
            "second-order reference (>= 2x required)",
            deviation >= 2.0,
        ),
    ]
    check_clauses(clauses)


def test_07_balanced_feed_fills_the_bulb_only_for_radius_aware_models():
    mesh = ball_on_stick(1)
    boundary = BoundaryData({0: -0.5, 23: -0.25, 31: -0.25})
    t_end = 20.0
    traces = {}
    for name in ("simple-diffusion", "fick-jacobs", "expanded-flux"):
        traj = run(
            mesh, ModelSpec(MODEL_NAMES[name]),
            dt=2.5e-4, t_end=t_end, initial=1.0, boundary=boundary,
            n_snapshots=101,
        )
        bulb = traj.mesh.index(bulb_node_id())
        window = traj.times >= 0.8 * t_end - 1e-9
        traces[name] = traj.states[window, bulb]
    flat = traces["simple-diffusion"]
    change = float((flat.max() - flat.min()) / abs(flat[0]))
    clauses = [
        (
            f"simple-diffusion bulb trace changes {change:.3%} over the "
            "final 20% (< 5% required)",
            change < 0.05,
        ),
    ]
    for name in ("fick-jacobs", "expanded-flux"):
        rising = bool(np.all(np.diff(traces[name]) > 0.0))
        clauses.append((
            f"{name} bulb trace strictly increasing over the final 20% "
            f"({traces[name][0]:.4f} -> {traces[name][-1]:.4f})",
            rising,
        ))
    check_clauses(clauses)


def test_08_branched_convergence_accuracy_and_grid_economy():
    meshes = [constricted_tree(k) for k in range(5)]

    def bump(mesh):
        arc = mesh.arc_lengths()
        return 0.2 + np.exp(-(((arc - 1.6) / 0.4) ** 2)) / mesh.radii**2

    ef = tree_convergence(meshes, EF, dt=4.0e-5, t_end=0.2, initial=bump)
    fj = tree_convergence(
        meshes, FJ, dt=4.0e-5, t_end=0.2, initial=bump, reference_spec=EF)

    past_coarsest = all(
        ef.errors[k] < fj.errors[k] for k in range(1, len(ef.errors)))

    def first_n_reaching(result, tol=5.0e-3):
        for n, err in zip(result.ns, result.errors):
            if err <= tol:
                return n
        return math.inf

    n_ef = first_n_reaching(ef)
    n_fj = first_n_reaching(fj)
    clauses = [
        (
            "expanded-flux error below fick-jacobs at every level past "
            f"the coarsest (EF {[f'{e:.2e}' for e in ef.errors]}, "
            f"FJ {[f'{e:.2e}' for e in fj.errors]})",
            past_coarsest,
        ),
        (
            f"expanded-flux reaches 5e-3 at N={n_ef}, fick-jacobs at "
            f"N={n_fj}; need N_ef <= N_fj / 2",
            2 * n_ef <= n_fj,
        ),
    ]
    check_clauses(clauses)


def test_09_operator_actions_close_at_second_order():
    channel = ConeChannel(taper=0.2)
    gaps, spacings = [], []
    for n in (40, 80, 160, 320):
        mesh = channel.mesh(n)
        x = mesh.positions[:, 0]
        phi = 2.0 + np.cos(np.pi * x / 5.0)
        ef_op = assemble_model(mesh, EF)
        fj_op = assemble_model(mesh, FJ)
        gaps.append(float(np.max(np.abs(ef_op.apply(phi) - fj_op.apply(phi)))))
        spacings.append(10.0 / (n - 1))
    slope = fitted_slope(spacings, gaps)
    assert 1.7 <= slope <= 2.3, (
        f"operator-action gap slope {slope:.4f} outside [1.7, 2.3]; "
        f"gaps {gaps}"
    )


def test_10_lateral_flux_policy_enforces_the_concentration_band():
    mesh = ball_on_stick(1)
    lateral = LateralFluxField((
        FluxWindow((11, 12, 13), 3.0, t_start=0.0, t_end=3.0),
        FluxWindow((23, 31), -2.0),
    ))
    policy = ConstraintPolicy(c_hi=6.0, c_lo=4.0, outflow_strength=2.0)
    traj = run(
        mesh, ModelSpec(MODEL_NAMES["expanded-flux"]),
        dt=5.0e-4, t_end=6.0, initial=5.0, lateral=lateral, policy=policy,
        n_snapshots=25,
    )
    high = traj.states > 6.0
    low = traj.states < 4.0
    high_violations = int(np.sum(high & (traj.fluxes >= 0.0)))
    low_violations = int(np.sum(low & (traj.fluxes != 0.0)))
    clauses = [
        (
            f"every node above c=6 has negative effective flux at the "
            f"following step ({int(high.sum())} occurrences, "
            f"{high_violations} violations)",
            high.sum() >= 1 and high_violations == 0,
        ),
        (
            f"every node below c=4 has zero effective lateral flux "
            f"({int(low.sum())} occurrences, {low_violations} violations)",
            low.sum() >= 1 and low_violations == 0,
        ),
    ]
    check_clauses(clauses)


def test_11_third_derivative_closure_on_a_cubic_is_locked_to_two():
    mesh = chain_mesh([1.0] * 7, h=1.0)
    x = mesh.positions[:, 0]
    mat, neu, _ = third_derivative_parts(mesh)
    values = mat @ (x**3) + neu @ np.array([0.0, 108.0])
    assert values[0] == 2.0 and values[6] == 2.0, (
        f"closure on a cubic with exact end slopes returned "
        f"{values[0]!r} and {values[6]!r}, expected exactly 2.0"
    )
