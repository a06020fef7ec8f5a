"""End-to-end checks of the command-line driver.

Each test invokes ``main`` in-process and inspects the exit code, the
console output, and the CSV artifacts.  Heavyweight experiment configs
are exercised by the acceptance suite; here the runs are kept short.
"""

import hashlib
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import tubediff
from tubediff.cli import COMMANDS, build_geometry, build_policy, main
from tubediff.geometry import ball_on_stick, constricted_tree
from tubediff.integrate import ConstraintPolicy, StabilityWarning
from tubediff.models import ModelSpec
from tubediff.network import NetworkMesh, format_mesh
from tubediff.verify import ConeChannel, SinusoidChannel

CONFIGS = "configs"


def write_config(tmp_path, doc, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return str(path)


def small_channel(**overrides):
    doc = {
        "run": {"model": "fick-jacobs", "dt": 1.0e-3, "t_end": 0.5},
        "geometry": {"kind": "cone", "taper": 0.2, "n": 40},
    }
    doc.update(overrides)
    return doc


def regulated_tree():
    """A short ball-on-stick run with one lateral window and a band policy."""
    return {
        "run": {"model": "fick-jacobs", "dt": 1.0e-4, "t_end": 1.0e-3},
        "geometry": {"kind": "ball-on-stick"},
        "lateral": [{"nodes": [11, 12, 13], "strength": 3.0, "from": 0.0, "until": 3.0}],
        "policy": {"nodes": "all", "c_hi": 6.0, "c_lo": 4.0},
    }


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.yaml")]) == 2
        assert "nope.yaml" in capsys.readouterr().err

    def test_invalid_yaml(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("run: [unclosed\n")
        assert main(["simulate", "--config", str(path)]) == 2
        assert "not valid YAML" in capsys.readouterr().err

    def test_missing_geometry_file_names_the_path(self, tmp_path, capsys):
        doc = small_channel()
        doc["geometry"] = {"kind": "file", "path": str(tmp_path / "ghost.geom")}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "ghost.geom" in capsys.readouterr().err

    def test_unknown_model_lists_choices(self, tmp_path, capsys):
        doc = small_channel()
        doc["run"]["model"] = "magic"
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "magic" in err and "expanded-flux" in err

    def test_unknown_geometry_kind(self, tmp_path, capsys):
        doc = small_channel()
        doc["geometry"]["kind"] = "torus"
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: unknown geometry kind 'torus'; choose one of: "
            "cone, sinusoid, file, ball-on-stick, constricted-tree\n")

    @pytest.mark.parametrize("geometry,message", [
        ({"kind": "sinusoid", "n": 40}, "sinusoid geometry needs 'wavenumber'"),
        ({"kind": "sinusoid", "wavenumber": None, "n": 40},
         "'wavenumber' must be a finite number, got None"),
        ({"kind": "cone", "taper": 0.2}, "cone geometry needs 'n'"),
        ({"kind": "cone", "sigma": "wide", "n": 40},
         "'sigma' must be a finite number, got 'wide'"),
        ({"kind": "cone", "x1": float("inf"), "n": 40},
         "'x1' must be a finite number, got inf"),
        ({"kind": "sinusoid", "wavenumber": 0.5, "n": 2}, "'n' must be at least 3, got 2"),
        ({"kind": "sinusoid", "wavenumber": 0.0, "n": 40},
         "'wavenumber' must be positive, got 0.0"),
        ({"kind": "sinusoid", "wavenumber": -0.5, "n": 40},
         "'wavenumber' must be positive, got -0.5"),
        ({"kind": "cone", "sigma": 0.0, "n": 40}, "'sigma' must be positive, got 0.0"),
        ({"kind": "sinusoid", "wavenumber": 0.5, "sigma": -2.0, "n": 40},
         "'sigma' must be positive, got -2.0"),
    ])
    def test_channel_geometry_error_is_one_line(self, tmp_path, capsys, geometry, message):
        cfg = write_config(tmp_path, small_channel(geometry=geometry))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_convergence_needs_three_grids(self, tmp_path, capsys):
        doc = small_channel(convergence={"ns": [40]})
        cfg = write_config(tmp_path, doc)
        assert main(["convergence", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "at least 3" in capsys.readouterr().err

    def test_compare_rejects_tree_geometry(self, tmp_path, capsys):
        doc = small_channel(compare={"models": ["fick-jacobs"]})
        doc["geometry"] = {"kind": "ball-on-stick"}
        cfg = write_config(tmp_path, doc)
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "cone or sinusoid" in capsys.readouterr().err

    def test_partial_step_count_is_a_config_error(self, tmp_path, capsys):
        doc = small_channel()
        doc["run"]["t_end"] = 0.5005
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "whole number of steps" in capsys.readouterr().err

    def test_no_arguments_is_a_usage_error(self):
        assert main([]) == 2

    @pytest.mark.parametrize("key,edit", [
        ("snapshots", lambda doc: doc["run"].update(snapshots=None)),
        ("d0", lambda doc: doc["run"].update(model={"name": "fick-jacobs", "d0": None})),
        ("model", lambda doc: doc["run"].update(model=5)),
        ("nodes", lambda doc: doc.update(policy={"nodes": 5})),
        ("from", lambda doc: doc.update(
            lateral=[{"nodes": [1], "strength": 1.0, "from": None}])),
        ("dt", lambda doc: doc["run"].update(dt=float("nan"))),
    ])
    def test_bad_value_is_one_error_line_naming_the_key(self, tmp_path, capsys, key, edit):
        doc = small_channel()
        edit(doc)
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert len(lines) == 1 and f"'{key}'" in lines[0], lines

    @pytest.mark.parametrize("command,key,edit", [
        ("simulate", "model", lambda doc: doc["run"].update(model={"name": [1]})),
        ("simulate", "kind", lambda doc: doc["geometry"].update(kind=["cone"])),
        ("compare", "compare", lambda doc: doc.update(compare={"models": [["x"]]})),
    ])
    def test_non_string_name_is_one_error_line(self, tmp_path, capsys, command, key, edit):
        doc = small_channel()
        edit(doc)
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert len(lines) == 1 and key in lines[0], lines

    @pytest.mark.parametrize("key,edit", [
        ("c_hi", lambda doc: doc["policy"].update(c_hi=math.nan)),
        ("from", lambda doc: doc["lateral"][0].update({"from": math.nan})),
        ("strength", lambda doc: doc["lateral"][0].update(strength=math.inf)),
        ("slopes", lambda doc: doc.update(boundary={"kind": "slopes", "slopes": {0: math.nan}})),
    ])
    def test_non_finite_number_is_one_error_line(self, tmp_path, capsys, key, edit):
        doc = regulated_tree()
        edit(doc)
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert len(lines) == 1 and f"'{key}'" in lines[0], lines

    @pytest.mark.parametrize("command,key,edit", [
        ("simulate", "n", lambda doc: doc["geometry"].update(n=40.7)),
        ("simulate", "levels", lambda doc: doc.update(geometry={"kind": "ball-on-stick",
                                                                "levels": 1.6})),
        ("simulate", "levels", lambda doc: doc.update(geometry={"kind": "ball-on-stick",
                                                                "levels": True})),
        ("simulate", "snapshots", lambda doc: doc["run"].update(snapshots=3.9)),
        ("convergence", "ns", lambda doc: doc.update(convergence={"ns": [20, 40.5, 80]})),
        ("simulate", "nodes", lambda doc: doc.update(
            lateral=[{"nodes": [3.7, 4.2], "strength": 1.0}])),
        ("simulate", "nodes", lambda doc: doc.update(
            lateral=[{"nodes": [3], "strength": 1.0}], policy={"nodes": [3.7, 4.2]})),
        ("simulate", "slopes", lambda doc: doc.update(
            boundary={"kind": "slopes", "slopes": {0.5: 0.1}})),
    ])
    def test_a_fractional_count_or_id_is_one_error_line(self, tmp_path, capsys, command, key,
                                                        edit):
        # int() would truncate each of these and run on a wrong input
        doc = small_channel()
        edit(doc)
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert len(lines) == 1 and f"'{key}'" in lines[0], lines

    def test_an_integral_float_is_a_whole_number(self, tmp_path):
        doc = small_channel()
        doc["geometry"]["n"] = 40.0
        doc["run"]["snapshots"] = 3.0
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 1 + 3 * 40

    @pytest.mark.parametrize("window", [{"from": 1.0, "until": 1.0}, {"from": 2.0, "until": 1.0},
                                        {"until": 0.0}, {"until": math.nan}])
    def test_a_window_that_never_acts_is_one_error_line(self, tmp_path, capsys, window):
        doc = regulated_tree()
        doc["lateral"][0].update(window)
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert len(lines) == 1 and "never acts" in lines[0], lines

    @pytest.mark.filterwarnings("always::RuntimeWarning")
    def test_only_a_forced_step_warns_with_the_force_tag(self, tmp_path, capsys, monkeypatch):
        def command(cfg, out, force):
            np.zeros(1) / np.zeros(1)
            warnings.warn("fick-jacobs: marching anyway", StabilityWarning)
            return 0
        monkeypatch.setitem(COMMANDS, "simulate", command)
        cfg = write_config(tmp_path, small_channel())
        assert main(["simulate", "--config", cfg]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: invalid value encountered in divide",
            "warning: fick-jacobs: marching anyway (--force)"]

    def test_a_window_may_stay_open_for_good(self, tmp_path, capsys):
        doc = regulated_tree()
        doc["lateral"][0]["until"] = math.inf
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "error:" not in capsys.readouterr().err

    @pytest.mark.parametrize("edit, words", [
        (("edge 1 2 1.0", "edge 1 2 inf"), "edge (1, 2): length must be positive and finite"),
        (("node 2 2.0 0.0 0.0 1.0", "node 2 2.0 0.0 0.0 inf"),
         "node 2: radius must be positive and finite"),
    ])
    def test_non_finite_geometry_is_one_error_line(self, tmp_path, capsys, edit, words):
        chain = ("node 0 0.0 0.0 0.0 1.0\nnode 1 1.0 0.0 0.0 1.0\nnode 2 2.0 0.0 0.0 1.0\n"
                 "edge 0 1 1.0\nedge 1 2 1.0\nroot 0\n")
        (tmp_path / "chain.geom").write_text(chain.replace(*edit))
        doc = small_channel(geometry={"kind": "file", "path": str(tmp_path / "chain.geom")})
        doc["run"].update(dt=0.1, t_end=1.0)
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and words in line
        assert not (tmp_path / "trajectory.csv").exists()


    @pytest.mark.parametrize("command", ["simulate", "stability-check"])
    def test_one_node_geometry_is_one_error_line(self, tmp_path, capsys, command):
        (tmp_path / "dot.geom").write_text("node 0 0 0 0 1.0\nroot 0\n")
        doc = small_channel(geometry={"kind": "file", "path": str(tmp_path / "dot.geom")})
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "at least two nodes" in line


class TestStabilityCheck:
    def test_cable_at_the_limit_passes_on_the_boundary(self, capsys):
        code = main(["stability-check", "--config",
                     f"{CONFIGS}/cable_stability_pass.yaml"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "dt=0.005  dt_max=0.005  PASS"

    def test_cable_past_the_limit_fails_with_binding_node(self, capsys):
        code = main(["stability-check", "--config",
                     f"{CONFIGS}/cable_stability_fail.yaml"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out
        assert "binding node" in out

    @pytest.mark.parametrize("command", ["simulate", "stability-check"])
    def test_negative_mass_factor_is_refused(self, tmp_path, capsys, command):
        (tmp_path / "chain.geom").write_text(
            "node 0 0 0 0 0.35\nnode 1 1 0 0 0.79\nnode 2 2 0 0 2.42\n"
            "edge 0 1 1.185\nedge 1 2 0.234\nroot 0\n")
        doc = small_channel(geometry={"kind": "file", "path": str(tmp_path / "chain.geom")})
        doc["run"].update(model="kalinay-temporal", t_end=0.01)
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        text = captured.out + captured.err
        assert "dt_max=0 " in text and "FAIL" in text
        assert "warning: nonpositive-mass-factor node=0" in text
        assert not (tmp_path / "trajectory.csv").exists()

    def test_formats_no_mesh_text(self, monkeypatch, capsys):
        # only simulate records the geometry's fingerprint
        monkeypatch.setattr("tubediff.cli.format_mesh", None)
        assert main(["stability-check", "--config",
                     f"{CONFIGS}/ball_on_stick_regulated.yaml"]) == 0

    def test_steep_cone_reports_finite_dt_max(self, capsys):
        code = main(["stability-check", "--config",
                     f"{CONFIGS}/cone_taper5_stability.yaml"])
        out = capsys.readouterr().out
        assert code == 0
        dt_max = float(re.search(r"dt_max=([0-9.e+-]+)", out).group(1))
        assert 0.0 < dt_max < 0.005


class TestSimulate:
    def test_writes_trajectory_and_manifest(self, tmp_path):
        code = main(["simulate", "--config",
                     f"{CONFIGS}/ball_on_stick_regulated.yaml",
                     "--out", str(tmp_path)])
        assert code == 0
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,node_id,x_arc,c,G,J"
        manifest = yaml.safe_load((tmp_path / "manifest.yaml").read_text())
        assert manifest["steps"] == 12000
        assert manifest["dt_max"] > 5.0e-4
        assert manifest["step_time_s"] > 0.0
        text = format_mesh(ball_on_stick(1))
        assert manifest["geometry_sha256"] == hashlib.sha256(text.encode()).hexdigest()

    def test_manifest_lists_each_stencil_note_once(self, tmp_path):
        doc = yaml.safe_load(open(f"{CONFIGS}/ball_on_stick_regulated.yaml"))
        doc["run"].update(t_end=0.05, snapshots=3)
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        text = (tmp_path / "manifest.yaml").read_text()
        notes = [f"first-order-upwind node={i}" for i in (32, 54, 62)]
        assert [text.count(note) for note in notes] == [1, 1, 1]
        assert set(notes) <= set(yaml.safe_load(text)["warnings"])

    def test_reruns_are_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            assert main(["simulate", "--config",
                         f"{CONFIGS}/ball_on_stick_regulated.yaml",
                         "--out", str(tmp_path / sub)]) == 0
        first = (tmp_path / "a" / "trajectory.csv").read_bytes()
        second = (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert first == second

    def test_a_policy_without_lateral_windows_is_one_error_line(self, tmp_path, capsys):
        doc = regulated_tree()
        del doc["lateral"]
        doc["initial"] = {"kind": "uniform", "value": 8.0}
        doc["policy"]["outflow_strength"] = 2.0
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'lateral' section" in err and "strength 0.0" in err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_single_snapshot_is_a_config_error(self, tmp_path, capsys):
        doc = small_channel()
        doc["run"]["snapshots"] = 1
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n_snapshots=1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_unstable_step_is_refused_then_forced(self, tmp_path, capsys):
        cfg = f"{CONFIGS}/cable_stability_fail.yaml"
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "binding node" in capsys.readouterr().err
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path),
                     "--force"]) == 0
        assert "marching anyway" in capsys.readouterr().err

    def test_tube_contents_ledger_matches_the_csv(self, tmp_path):
        doc = {
            "run": {"model": "fick-jacobs", "dt": 2.5e-3, "t_end": 0.1, "snapshots": 3},
            "geometry": {"kind": "constricted-tree", "levels": 1},
            "initial": {"kind": "arc-bump", "center": 1.0, "width": 0.4, "baseline": 0.2},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        ledger = yaml.safe_load((tmp_path / "manifest.yaml").read_text())["tube_contents"]

        mesh = constricted_tree(1)
        weight = dict.fromkeys(mesh.node_ids.tolist(), 0.0)
        for (a, b), length in zip(mesh.node_ids[mesh.ends].tolist(), mesh.lengths.tolist()):
            weight[a] += 0.5 * length
            weight[b] += 0.5 * length
        rows = [line.split(",") for line in
                (tmp_path / "trajectory.csv").read_text().splitlines()[1:]]
        first, last = rows[0][0], rows[-1][0]
        totals = [math.fsum(weight[int(r[1])] * float(r[4]) for r in rows if r[0] == t)
                  for t in (first, last)]
        assert ledger["initial"] == pytest.approx(totals[0], rel=1e-13)
        assert ledger["final"] == pytest.approx(totals[1], rel=1e-13)
        assert ledger["relative_change"] == pytest.approx(
            (totals[1] - totals[0]) / totals[0], rel=1e-6, abs=1e-15)

    def test_documented_cone_run_completes_50000_steps(self, tmp_path):
        code = main(["simulate", "--config",
                     f"{CONFIGS}/cone_taper1_simulate.yaml",
                     "--out", str(tmp_path)])
        assert code == 0
        manifest = yaml.safe_load((tmp_path / "manifest.yaml").read_text())
        assert manifest["steps"] == 50000
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert rows[-1].startswith("10.0,")


class TestCompare:
    def test_writes_one_error_row_per_model(self, tmp_path):
        doc = small_channel(compare={"models": ["simple-diffusion",
                                                "fick-jacobs"]})
        cfg = write_config(tmp_path, doc)
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "errors.csv").read_text().splitlines()
        assert rows[0] == "model,l1"
        table = {line.split(",")[0]: float(line.split(",")[1])
                 for line in rows[1:]}
        assert set(table) == {"simple-diffusion", "fick-jacobs"}
        assert table["fick-jacobs"] < table["simple-diffusion"]

    def test_refused_step_names_the_model(self, tmp_path, capsys):
        # on the taper-5 cone at dt = 2.7e-3 only reguera-rubi fails the
        # screen (dt_max 2.59e-3; kalinay-percus 2.81e-3, zwanzig 1.81e-2)
        doc = small_channel(compare={"models": ["zwanzig", "kalinay-percus",
                                                "reguera-rubi"]})
        doc["run"].update(dt=2.7e-3, t_end=2.7e-2)
        doc["geometry"].update(taper=5.0, n=160)
        cfg = write_config(tmp_path, doc)
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 1
        first = capsys.readouterr().err.splitlines()[0]
        assert first.startswith("error: reguera-rubi: dt=0.0027 exceeds the stable limit")

    def test_forced_step_warns_once_per_failing_model(self, tmp_path, capsys):
        # on the taper-5 cone at dt = 2.5e-3 fick-jacobs (dt_max 1.34e-3) and
        # expanded-flux (1.33e-3) fail the screen, zwanzig (1.81e-2) passes
        doc = small_channel(compare={"models": ["fick-jacobs", "zwanzig", "expanded-flux"]})
        doc["run"].update(dt=2.5e-3, t_end=2.5e-2)
        doc["geometry"].update(taper=5.0, n=160)
        cfg = write_config(tmp_path, doc)
        assert main(["compare", "--config", cfg, "--out", str(tmp_path), "--force"]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(":")[1] for line in lines] == [" fick-jacobs", " expanded-flux"]
        assert all(line.startswith("warning: ") and line.endswith("; marching anyway (--force)")
                   for line in lines)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path), "--force"]) == 0
        assert capsys.readouterr().err.splitlines() == lines[:1]  # the line simulate prints

    def test_builds_the_channel_mesh_once(self, tmp_path, monkeypatch):
        built = []
        init = NetworkMesh.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(NetworkMesh, "__init__", counting_init)
        doc = small_channel(compare={"models": ["fick-jacobs", "expanded-flux"]})
        cfg = write_config(tmp_path, doc)
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert len(built) == 1


def test_importing_the_cli_loads_no_scipy():
    # nor OpenSSL: only simulate's geometry hash imports hashlib
    src = Path(tubediff.__file__).resolve().parents[1]
    code = ("import sys; import tubediff.cli; print(sorted(m for m in sys.modules "
            "if m.startswith('scipy') or m == '_hashlib'))")
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("geometry,channel", [
    ({"kind": "cone", "n": 5}, ConeChannel(d0=2.0)),
    ({"kind": "sinusoid", "wavenumber": 0.5, "margin": 0.5, "n": 5},
     SinusoidChannel(wavenumber=0.5, margin=0.5, d0=2.0)),
])
def test_a_channel_takes_its_class_defaults_and_the_model_d0(geometry, channel):
    model = ModelSpec.from_name("fick-jacobs", d0=2.0)
    assert build_geometry({"geometry": geometry}, model).channel == channel


def test_an_absent_policy_key_keeps_the_policy_default():
    assert build_policy({"policy": {"c_lo": 3.0}}) == ConstraintPolicy(c_lo=3.0)
    assert build_policy({"policy": {}}) == ConstraintPolicy()


def test_a_policy_run_loads_no_numpy_ma(tmp_path):
    # a flagless np.unique imports numpy.ma, which every CLI process would pay for
    doc = {
        "run": {"model": "fick-jacobs", "dt": 1.0e-3, "t_end": 0.01, "snapshots": 3},
        "geometry": {"kind": "ball-on-stick"},
        "lateral": [{"nodes": [5, 6], "strength": 1.0}],
        "policy": {"nodes": [6, 5, 6]},
    }
    cfg = write_config(tmp_path, doc)
    src = Path(tubediff.__file__).resolve().parents[1]
    code = ("import sys; from tubediff.cli import main; "
            f"code = main(['simulate', '--config', {cfg!r}, '--out', {str(tmp_path)!r}]); "
            "print(code, 'numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "0 False"


class TestConvergence:
    def test_channel_ladder_shrinks_and_reports_slopes(self, tmp_path):
        doc = small_channel(convergence={"ns": [20, 40, 80]})
        cfg = write_config(tmp_path, doc)
        assert main(["convergence", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "convergence.csv").read_text().splitlines()
        assert rows[0] == "level,N,dx,l1,slope"
        assert len(rows) == 4
        assert rows[1].endswith(",")
        errors = [float(r.split(",")[3]) for r in rows[1:]]
        assert errors[0] > errors[1] > errors[2]
        assert float(rows[2].split(",")[4]) > 1.0

    def test_forced_step_warns_for_each_grid_it_fails_on(self, tmp_path, capsys):
        # dt = 0.01 passes on 20 and 40 nodes and fails on 80 (dt_max 7.6e-3)
        doc = small_channel(convergence={"ns": [20, 40, 80]})
        doc["run"].update(dt=0.01, t_end=0.02)
        cfg = write_config(tmp_path, doc)
        assert main(["convergence", "--config", cfg, "--out", str(tmp_path)]) == 1
        capsys.readouterr()
        assert main(["convergence", "--config", cfg, "--out", str(tmp_path), "--force"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: fick-jacobs: dt=0.01 exceeds the stable limit dt_max=0.00763452; "
            "marching anyway (--force)"]

    def test_tree_ladder_uses_edge_counts(self, tmp_path):
        doc = {
            "run": {"model": "fick-jacobs", "dt": 1.0e-4, "t_end": 0.1},
            "geometry": {"kind": "ball-on-stick"},
            "convergence": {"levels": 3},
            "initial": {"kind": "arc-bump", "center": 1.6, "width": 0.4,
                        "baseline": 0.2},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["convergence", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "convergence.csv").read_text().splitlines()
        ns = [int(r.split(",")[1]) for r in rows[1:]]
        assert ns == [31, 62, 124]
        errors = [float(r.split(",")[3]) for r in rows[1:]]
        assert errors[0] > errors[1] > errors[2]

    def test_file_geometry_ladder_bisects_the_file_mesh(self, tmp_path):
        doc = {
            "run": {"model": "fick-jacobs", "dt": 1.0e-4, "t_end": 0.05},
            "geometry": {"kind": "file", "path": "geometries/ball_on_stick.geom"},
            "convergence": {"levels": 3},
            "initial": {"kind": "arc-bump", "center": 1.6, "width": 0.4,
                        "baseline": 0.2},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["convergence", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "convergence.csv").read_text().splitlines()
        ns = [int(r.split(",")[1]) for r in rows[1:]]
        assert ns[1:] == [2 * ns[0], 4 * ns[0]]
