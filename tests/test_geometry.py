"""Tests for the built-in demonstration networks."""

from pathlib import Path

import numpy as np
import pytest

from tubediff.geometry import (
    ARM_NODES,
    SPACING,
    STICK_LENGTH,
    STICK_NODES,
    arm_radius,
    ball_on_stick,
    branch_node_id,
    bulb_node_id,
    constricted_tree,
    exit_node_ids,
    stick_radius,
    throat_arm_radius,
    throat_radius,
)
from tubediff.models import ModelKind, ModelSpec
from tubediff.network import read_mesh
from tubediff.stability import check_model

GEOMETRIES = Path(__file__).resolve().parent.parent / "geometries"


class TestProfiles:
    def test_stick_tapers_from_bulb_to_neck(self):
        assert stick_radius(0.0) == pytest.approx(1.5)
        assert stick_radius(STICK_LENGTH) == pytest.approx(0.2, abs=1e-5)
        xs = np.linspace(0.0, STICK_LENGTH, 200)
        values = [stick_radius(x) for x in xs]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_arm_flares_and_mates_with_the_stick(self):
        assert arm_radius(0.0) == pytest.approx(stick_radius(STICK_LENGTH))
        ss = np.linspace(0.0, SPACING * ARM_NODES, 200)
        values = [arm_radius(s) for s in ss]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] < 0.45

    def test_throat_constricts_mid_stick_only(self):
        # gentle at both ends of the stick, steep only inside the window
        def log_slope(f, x, h=1e-6):
            return (f(x + h) - f(x - h)) / (2 * h) / f(x)

        assert abs(log_slope(throat_radius, 0.05)) < 0.2
        assert abs(log_slope(throat_radius, 2.9)) < 0.2
        assert abs(log_slope(throat_radius, 1.6)) > 1.5
        assert throat_arm_radius(0.0) == pytest.approx(throat_radius(STICK_LENGTH))

    def test_throat_full_depth(self):
        assert throat_radius(0.0) == pytest.approx(0.5)
        assert 0.04 < throat_radius(STICK_LENGTH) < 0.06


class TestTopology:
    @pytest.mark.parametrize("builder", [ball_on_stick, constricted_tree])
    def test_level_zero_layout(self, builder):
        mesh = builder()
        assert mesh.n_nodes == STICK_NODES + 2 * ARM_NODES
        assert [mesh.node_ids[i] for i in mesh.leaf_indices()] == [0, 23, 31]
        assert mesh.degree.max() == 3
        assert mesh.root == bulb_node_id() == 0
        assert branch_node_id() == 15
        assert exit_node_ids() == (23, 31)
        assert mesh.total_length() == pytest.approx(
            STICK_LENGTH + 2 * SPACING * ARM_NODES)

    def test_refinement_counts_and_ids(self):
        sizes = [ball_on_stick(k).n_nodes for k in range(5)]
        assert sizes == [32, 63, 125, 249, 497]
        coarse = ball_on_stick(1)
        fine = ball_on_stick(2)
        assert set(coarse.node_ids) <= set(fine.node_ids)

    def test_refined_radii_are_resampled_not_interpolated(self):
        mesh = ball_on_stick(1)
        arcs = mesh.arc_lengths()
        for i in range(mesh.n_nodes):
            arc = arcs[i]
            want = (stick_radius(arc) if arc <= STICK_LENGTH
                    else arm_radius(arc - STICK_LENGTH))
            assert mesh.radii[i] == pytest.approx(want, rel=1e-12)


class TestStabilityScreen:
    @pytest.mark.parametrize("builder", [ball_on_stick, constricted_tree])
    @pytest.mark.parametrize("kind", [ModelKind.FICK_JACOBS,
                                      ModelKind.EXPANDED_FLUX])
    def test_every_level_is_certified(self, builder, kind):
        for level in range(4):
            mesh = builder(level)
            report = check_model(mesh, ModelSpec(kind), 1e-6)
            assert report.passed, f"level {level}: {report.failing_nodes}"
            assert not any("downwind" in w for w in report.warnings)


class TestShippedFiles:
    @pytest.mark.parametrize("name,builder", [
        ("ball_on_stick", ball_on_stick),
        ("constricted_tree", constricted_tree),
    ])
    def test_geom_file_matches_builder(self, name, builder):
        disk = read_mesh(GEOMETRIES / f"{name}.geom")
        built = builder()
        assert np.array_equal(disk.node_ids, built.node_ids)
        assert np.array_equal(disk.radii, built.radii)
        assert np.array_equal(disk.positions, built.positions)
        assert disk.root == built.root
