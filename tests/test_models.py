"""Coefficient functions for the model variants."""

import math
import subprocess
import sys

import numpy as np
import pytest

from tubediff.discretize import fields
from tubediff.models import (
    ModelKind,
    ModelSpec,
    diffusion_coefficient,
    effj_mass_factor,
    kalinay_g,
)
from tubediff.network import MeshError, SinusoidRadius, TabulatedRadius, interval_mesh
from tests.test_network import chain_mesh, y_mesh

ZW = ModelSpec(ModelKind.ZWANZIG)
RR = ModelSpec(ModelKind.REGUERA_RUBI)
KP = ModelSpec(ModelKind.KALINAY_PERCUS)
FJ = ModelSpec(ModelKind.FICK_JACOBS)
KT = ModelSpec(ModelKind.KALINAY_TEMPORAL)


def temporal_mass(mesh, profile):
    """The temporal model's per-node factors 1 + g'(x), as assembly reads them."""
    return fields(mesh, profile).mass(KT)


def test_models_import_no_other_package_module():
    # the package __init__ re-exports mesh names, so load the module under
    # a bare package record that skips it
    code = (
        "import importlib.util, sys, types\n"
        "pkg = types.ModuleType('tubediff')\n"
        "pkg.__path__ = importlib.util.find_spec('tubediff').submodule_search_locations\n"
        "sys.modules['tubediff'] = pkg\n"
        "import tubediff.models\n"
        "print(sorted(m for m in sys.modules if m.startswith('tubediff')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "['tubediff', 'tubediff.models']"


class TestSpec:
    def test_rejects_nonpositive_d0(self):
        with pytest.raises(ValueError, match="d0"):
            ModelSpec(ModelKind.FICK_JACOBS, d0=0.0)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            ModelSpec(ModelKind.KALINAY_TEMPORAL, epsilon=-1.0)

    def test_from_name(self):
        spec = ModelSpec.from_name("expanded-flux", d0=2.0)
        assert spec.kind is ModelKind.EXPANDED_FLUX
        assert spec.d0 == 2.0

    def test_from_name_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown model"):
            ModelSpec.from_name("osmosis")
        with pytest.raises(ValueError, match="unknown model"):
            ModelSpec.from_name(["fick-jacobs"])  # unhashable


class TestDiffusionCoefficient:
    def test_flat_tube_returns_d0(self):
        assert diffusion_coefficient(ZW, 0.0) == 1.0

    def test_zwanzig_unit_slope(self):
        assert diffusion_coefficient(ZW, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_kalinay_percus_slope_two(self):
        assert diffusion_coefficient(KP, 2.0) == pytest.approx(math.pi / 4.0, rel=1e-15)

    def test_reguera_rubi_slope_two(self):
        assert diffusion_coefficient(RR, 2.0) == pytest.approx(2.0 ** (-1.0 / 3.0), rel=1e-15)

    def test_uncorrected_kinds_ignore_slope(self):
        for kind in (
            ModelKind.SIMPLE_DIFFUSION,
            ModelKind.FICK_JACOBS,
            ModelKind.KALINAY_TEMPORAL,
            ModelKind.EXPANDED_FLUX,
        ):
            assert diffusion_coefficient(ModelSpec(kind, d0=3.5), 1.7) == 3.5

    @pytest.mark.parametrize("spec", [ZW, RR, KP])
    def test_even_in_slope(self, spec):
        for s in (0.3, 1.0, 4.2):
            assert diffusion_coefficient(spec, s) == diffusion_coefficient(spec, -s)

    @pytest.mark.parametrize("spec", [ZW, RR, KP])
    def test_monotone_nonincreasing_in_slope_magnitude(self, spec):
        slopes = np.linspace(0.0, 6.0, 40)
        vals = [diffusion_coefficient(spec, s) for s in slopes]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[0] == spec.d0

    def test_kalinay_percus_series_branch_is_continuous(self):
        # u = slope/2 crosses the 1e-6 series cutoff between these two
        below = diffusion_coefficient(KP, 1.98e-6)
        above = diffusion_coefficient(KP, 2.02e-6)
        assert below == pytest.approx(above, abs=1e-12)
        assert below == pytest.approx(1.0, abs=1e-11)


class TestKalinayG:
    def test_zero_slope(self):
        assert kalinay_g(2.0, 0.0, 1.0) == 0.0

    def test_unit_slope_closed_form(self):
        # (2/2)(arctan 1 + (1/3) arctan 1 - 1) = pi/3 - 1
        assert kalinay_g(2.0, 1.0, 1.0) == pytest.approx(math.pi / 3.0 - 1.0, rel=1e-14)

    def test_zero_position(self):
        assert kalinay_g(0.0, 0.8, 1.0) == 0.0

    def test_series_branch_matches_closed_form(self):
        s = 2e-6  # just above the cutoff
        exact = kalinay_g(1.0, s, 1.0)
        u = s
        series = 0.5 * (4.0 / 45.0) * u ** 4
        assert exact == pytest.approx(series, rel=1e-6)

    def test_even_in_slope(self):
        assert kalinay_g(3.0, 0.7) == kalinay_g(3.0, -0.7)


class TestKalinayMassFactors:
    # frozen: cone slope 1 gives the constant factor 1 + (pi/3 - 1)/2
    CONE_UNIT_SLOPE_FACTOR = 1.0235987755982988

    def test_cone_factor_is_constant_and_matches_hand_value(self):
        mesh = chain_mesh([1.0, 2.0, 3.0, 4.0, 5.0])  # radius 1 + x
        factors = temporal_mass(mesh, TabulatedRadius())
        assert factors == pytest.approx(
            np.full(5, self.CONE_UNIT_SLOPE_FACTOR), rel=1e-12
        )

    def test_flat_tube_gives_unity(self):
        mesh = chain_mesh([1.0] * 5)
        factors = temporal_mass(mesh, TabulatedRadius())
        assert factors == pytest.approx(np.ones(5), abs=1e-15)

    def test_branched_mesh_rejected(self):
        with pytest.raises(MeshError, match="unbranched"):
            temporal_mass(y_mesh(), TabulatedRadius())

    def test_against_independent_finite_differences(self):
        """Cross-check the stencil route against dense numpy differentiation."""
        profile = SinusoidRadius(0.5)
        n = 401
        mesh = interval_mesh(1.0, 5.0, n, profile)
        ours = temporal_mass(mesh, profile)

        xs = mesh.positions[:, 0]
        g = np.array([kalinay_g(x, profile.slope(x)) for x in xs])
        reference = 1.0 + np.gradient(g, xs, edge_order=2)
        assert ours == pytest.approx(reference, abs=5e-5)


class TestEffjMassFactor:
    def test_zero_spacing(self):
        assert effj_mass_factor(0.0, 1.0, 5.0) == 1.0

    def test_unit_case(self):
        assert effj_mass_factor(1.0, 1.0, 1.0) == pytest.approx(1.0 + 1.0 / 12.0, rel=1e-15)

    def test_frozen_example(self):
        assert effj_mass_factor(0.5, 2.0, 2.0) == pytest.approx(1.0208333333333333, rel=1e-12)

    def test_tends_to_one_with_refinement(self):
        vals = [effj_mass_factor(2.0 ** -k, 0.5, 3.0) for k in range(8)]
        assert all(a > b > 1.0 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-3)
