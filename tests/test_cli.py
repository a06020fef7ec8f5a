"""End-to-end checks of the command-line driver.

Each test invokes ``main`` in-process and inspects the exit code, the
console output, and the CSV artifacts.  Heavyweight experiment configs
are exercised by the acceptance suite; here the runs are kept short.
"""

import ast
import hashlib
import importlib.util
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import tubediff
import tubediff.cli as cli
import tubediff.integrate as integrate
import tubediff.verify as verify
from tubediff.cli import COMMANDS, build_geometry, build_policy, main
from tubediff.geometry import ConeChannel, SinusoidChannel, ball_on_stick, constricted_tree
from tubediff.integrate import ConstraintPolicy
from tubediff.models import ModelSpec
from tubediff.network import NetworkMesh, format_mesh, read_mesh, refine
from tubediff.stability import StabilityWarning

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

    @pytest.mark.parametrize("ns, n", [([2, 4, 8], 2), ([0, 4, 8], 0), ([20, 40, 1], 1)])
    def test_every_convergence_grid_needs_three_nodes(self, tmp_path, capsys, ns, n):
        cfg = write_config(tmp_path, small_channel(convergence={"ns": ns}))
        assert main(["convergence", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: 'ns' entries must be at least 3, got {n}\n"

    @pytest.mark.parametrize("ns, message", [([5, 5, 9], "got 5 after 5"),
                                             ([17, 9, 5], "got 9 after 17"),
                                             ([5, 9, 9, 17], "got 9 after 9")])
    def test_convergence_grids_must_grow_before_any_march(self, tmp_path, capsys, monkeypatch,
                                                          ns, message):
        # [5, 5, 9] fitted a slope to two identical grids, and [17, 9, 5]
        # took the coarsest grid for the finest
        monkeypatch.setattr(verify, "channel_convergence",
                            lambda *args, **kwargs: pytest.fail("marched a refused ladder"))
        doc = small_channel(convergence={"ns": ns})
        doc["run"].update(dt=1.0e-4, t_end=1.0e-2)
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["convergence", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: 'ns' entries must increase, {message}\n"
        assert not out.exists()

    def test_a_window_naming_a_node_twice_is_one_error_line(self, tmp_path, capsys):
        doc = regulated_tree()
        doc["lateral"][0]["nodes"] = [11, 12, 11]
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: lateral window names node 11 twice\n"

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["lateral"][0].update(nodes=[]),
         "lateral window names no node: its node list is empty"),
        (lambda doc: doc["policy"].update(nodes=[]),
         "policy: the node list is empty: name at least one node, or all"),
    ], ids=["lateral", "policy"])
    def test_an_empty_node_list_is_one_error_line_naming_its_section(self, tmp_path, capsys,
                                                                     edit, message):
        doc = regulated_tree()
        edit(doc)
        cfg, out = write_config(tmp_path, doc), tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("dt,t_end", [(4.0e-10, 1.0e-9), (1.0e-9, 1.0e-10)])
    def test_a_short_run_of_partial_steps_is_one_error_line(self, tmp_path, capsys, dt,
                                                            t_end):
        # an absolute tolerance passed both: 2 steps ending at 8e-10, and 1
        # step ending at 1e-9 that the manifest recorded as 0 steps
        doc = small_channel()
        doc["run"].update(dt=dt, t_end=t_end)
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: t_end={t_end} is not a whole number of steps of dt={dt}\n")

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
    ] + [pytest.param(key, edit, id=f"{key}-true") for key, edit in [
        # YAML reads `true` as a boolean, which float() takes for 1.0
        ("dt", lambda doc: doc["run"].update(dt=True)),
        ("t_end", lambda doc: doc["run"].update(t_end=True)),
        ("d0", lambda doc: doc["run"].update(model={"name": "fick-jacobs", "d0": True})),
        ("sigma", lambda doc: doc["geometry"].update(sigma=True)),
        ("strength", lambda doc: doc.update(lateral=[{"nodes": [1], "strength": True}])),
        ("until", lambda doc: doc.update(
            lateral=[{"nodes": [1], "strength": 1.0, "until": True}])),
        ("c_hi", lambda doc: doc.update(policy={"c_hi": True})),
        ("value", lambda doc: doc.update(initial={"kind": "uniform", "value": True})),
    ]] + [pytest.param(key, edit, id=f"{key}-text") for key, edit in [
        # float() and int() parse text, so a quoted number ran as one
        ("dt", lambda doc: doc["run"].update(dt="1.0e-3")),
        ("t_end", lambda doc: doc["run"].update(t_end="0.5")),
        ("n", lambda doc: doc["geometry"].update(n="40")),
        ("levels", lambda doc: doc.update(geometry={"kind": "constricted-tree", "levels": "1"})),
    ]])
    def test_bad_value_is_one_error_line_naming_the_key(self, tmp_path, capsys, key, edit):
        doc = small_channel()
        edit(doc)
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert len(lines) == 1 and f"'{key}'" in lines[0], lines

    def test_an_exponent_without_a_dot_is_a_number(self, tmp_path, capsys):
        # YAML 1.1 reads 2e-4 as text; the config reader takes it as 2.0e-4
        text = Path(CONFIGS, "cone_taper5_stability.yaml").read_text()
        assert "dt: 2.0e-4" in text
        printed = []
        for dt in ("2.0e-4", "2e-4"):
            path = tmp_path / f"{dt}.yaml"
            path.write_text(text.replace("dt: 2.0e-4", f"dt: {dt}"))
            assert main(["stability-check", "--config", str(path)]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0].startswith("dt=0.0002  dt_max=") and printed[1] == printed[0]

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

    @pytest.mark.parametrize("command,edit,message", [
        ("simulate", lambda doc: doc.pop("run"), "config needs a 'run' section"),
        ("simulate", lambda doc: doc.update(run=[1]), "'run' section must be a mapping"),
        ("simulate", lambda doc: doc["run"].pop("model"), "'run' section needs 'model'"),
        ("simulate", lambda doc: doc["run"].pop("dt"), "'run' section needs 'dt'"),
        ("simulate", lambda doc: doc.update(geometry={"kind": "file"}),
         "file geometry needs 'path'"),
        ("simulate", lambda doc: doc["lateral"][0].update(nodes="11 12"),
         "'nodes' must be a list of node ids, got '11 12'"),
        ("simulate", lambda doc: doc.update(initial={"kind": "exact"}),
         "initial kind 'exact' needs a cone or sinusoid geometry"),
        ("simulate", lambda doc: doc.update(boundary={"kind": "exact"}),
         "boundary kind 'exact' needs a cone or sinusoid geometry"),
        ("simulate", lambda doc: doc.update(initial={"kind": "wave"}),
         "unknown initial kind 'wave'; choose one of: uniform, exact, arc-bump"),
        ("simulate", lambda doc: doc.update(boundary={"kind": "open"}),
         "unknown boundary kind 'open'; choose one of: closed, exact, slopes"),
        ("simulate", lambda doc: doc.update(boundary={"kind": "slopes", "slopes": [1]}),
         "boundary kind 'slopes' needs a 'slopes' mapping"),
        ("simulate", lambda doc: doc.update(lateral={"nodes": [11], "strength": 1.0}),
         "'lateral' must be a list of window mappings"),
        ("simulate", lambda doc: doc["lateral"][0].pop("nodes"),
         "each lateral window needs 'nodes' and 'strength'"),
        ("simulate", lambda doc: doc["lateral"][0].pop("strength"),
         "each lateral window needs 'nodes' and 'strength'"),
        ("simulate", lambda doc: doc.update(policy=[1]), "'policy' section must be a mapping"),
        ("simulate", lambda doc: doc["policy"].update(c_lo=6.0),
         "policy: c_lo must lie below c_hi"),
        ("compare", lambda doc: doc.update(geometry={"kind": "cone", "n": 20}, compare={}),
         "'compare' section needs a nonempty 'models' list"),
        ("convergence", lambda doc: doc.update(convergence={"levels": 2}),
         "tree convergence needs 'levels' of at least 3"),
        ("simulate", lambda doc: doc["geometry"].update(levels=-1),
         "levels must be >= 0, got -1"),
    ])
    def test_a_refusal_is_one_error_line(self, tmp_path, capsys, command, edit, message):
        doc = regulated_tree()
        edit(doc)
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_document_that_is_no_mapping_is_one_error_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, [regulated_tree()])
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: config file {cfg} must hold a mapping at top level\n")

    @pytest.mark.parametrize("change,message", [
        (("root 0", "root 7"), "root id 7 is not a node"),
        (("edge 1 2 1.0", "edge 1 2 1.0 3"), "line 5: expected: edge <idA> <idB> [length]"),
        (("root 0", "root 0 1"), "line 6: expected: root <id>"),
        (("root 0", "root 0\nbranch 1"), "line 7: unknown statement 'branch'"),
    ])
    def test_a_malformed_geometry_file_is_one_error_line(self, tmp_path, capsys, change,
                                                         message):
        chain = ("node 0 0.0 0.0 0.0 1.0\nnode 1 1.0 0.0 0.0 1.0\nnode 2 2.0 0.0 0.0 1.0\n"
                 "edge 0 1 1.0\nedge 1 2 1.0\nroot 0\n")
        path = tmp_path / "chain.geom"
        path.write_text(chain.replace(*change))
        cfg = write_config(tmp_path, small_channel(geometry={"kind": "file", "path": str(path)}))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: geometry file {path}: {message}\n"

    @pytest.mark.parametrize("command", ["simulate", "compare", "convergence"])
    @pytest.mark.parametrize("dt,steps", [(1.0e-320, "inf"), (1.0e-300, "1e+300")])
    def test_a_step_count_past_2_53_is_one_error_line(self, tmp_path, capsys, command, dt,
                                                      steps):
        # int(round(t_end / dt)) overflows at the first, and numpy cannot take the second
        doc = small_channel(compare={"models": ["fick-jacobs"]},
                            convergence={"ns": [10, 20, 40]})
        doc["run"].update(dt=dt, t_end=1.0)
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: t_end=1.0 is {steps} steps of dt={dt}; the step count must stay below 2**53\n")

    @pytest.mark.parametrize("command", ["simulate", "compare", "convergence"])
    def test_a_refused_config_makes_no_output_directory(self, tmp_path, command):
        doc = small_channel(compare={"models": ["fick-jacobs"]},
                            convergence={"ns": [10, 20, 40]},
                            output={"directory": str(tmp_path / "made")})
        del doc["run"]["dt"]
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg]) == 2
        assert not (tmp_path / "made").exists()

    def test_a_directory_that_is_no_path_is_one_error_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_channel(output={"directory": 5}))
        assert main(["simulate", "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: 'directory' must be a path, got 5\n"

    @pytest.mark.parametrize("path", [7, [1, 2], True])
    def test_a_geometry_path_that_is_no_path_is_one_error_line(self, tmp_path, capsys, path):
        cfg = write_config(tmp_path, small_channel(geometry={"kind": "file", "path": path}))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: 'path' must be a path, got {path!r}\n"


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
        monkeypatch.setattr("tubediff.network._text_pieces", None)
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
    @pytest.mark.parametrize("sections", [
        {"lateral": [{"nodes": [999], "strength": 1.0, "from": 5.0}]},  # never opens
        {"lateral": [{"nodes": [999], "strength": 1.0, "from": 5.0e-3}]},  # opens midway
        {"lateral": [{"nodes": [5], "strength": 1.0}], "policy": {"nodes": [5, 999]}},
        {"boundary": {"kind": "slopes", "slopes": {999: 1.0}}},
    ])
    def test_an_unknown_node_id_is_refused_before_any_assembly(
            self, tmp_path, monkeypatch, capsys, sections):
        assembled = []
        assemble = integrate.assemble_model
        monkeypatch.setattr(integrate, "assemble_model",
                            lambda *args: assembled.append(args) or assemble(*args))
        doc = {"run": {"model": "fick-jacobs", "dt": 1.0e-3, "t_end": 0.01},
               "geometry": {"kind": "ball-on-stick"}, **sections}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: no node with id 999"]
        assert assembled == []
        assert not (tmp_path / "trajectory.csv").exists()

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
        err = capsys.readouterr().err
        assert "binding node" in err and "force=True" not in err
        assert err.splitlines()[0].endswith("; pass --force to march anyway")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path),
                     "--force"]) == 0
        assert "marching anyway" in capsys.readouterr().err

    def test_a_forced_march_that_blows_up_exits_1(self, tmp_path, capsys):
        doc = small_channel(geometry={"kind": "cone", "n": 101}, initial={"kind": "uniform"})
        doc["run"].update(dt=0.02, t_end=20.0)
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path), "--force"]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: state of fick-jacobs became non-finite by t=8; reduce dt or check data")
        assert not (tmp_path / "trajectory.csv").exists()

    def test_a_window_past_any_run_writes_what_an_open_one_does(self, tmp_path):
        # 1.0e308 / dt overflows; an edge past the run's end is never divided by dt
        for until in (1.0e308, math.inf):
            doc = regulated_tree()
            doc["lateral"][0]["until"] = until
            cfg = write_config(tmp_path, doc)
            assert main(["simulate", "--config", cfg, "--out", str(tmp_path / str(until))]) == 0
        assert ((tmp_path / "1e+308" / "trajectory.csv").read_bytes()
                == (tmp_path / "inf" / "trajectory.csv").read_bytes())

    def test_a_refined_file_geometry_writes_to_the_configured_directory(self, tmp_path):
        path, out = "geometries/ball_on_stick.geom", tmp_path / "nested" / "out"
        doc = small_channel(geometry={"kind": "file", "path": path, "levels": 1},
                            output={"directory": str(out)})
        doc["run"].update(dt=1.0e-4, t_end=1.0e-3, snapshots=2)
        assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * refine(read_mesh(path), 1).n_nodes
        assert yaml.safe_load((out / "manifest.yaml").read_text())["steps"] == 10

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
    # nor OpenSSL, which hashlib loads, nor difflib, which only a refused key needs
    src = Path(tubediff.__file__).resolve().parents[1]
    config = Path(CONFIGS, "ball_on_stick_regulated.yaml").resolve()
    code = ("import sys; import tubediff.cli; "
            f"tubediff.cli.load_config({str(config)!r}); print(sorted(m for m in sys.modules "
            "if m.startswith('scipy') or m in ('_hashlib', 'difflib')))")
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


def in_a_process(code: str) -> str:
    """The last line a fresh Python process prints running ``code``."""
    src = Path(tubediff.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout.splitlines()[-1]


def command_in_a_process(tmp_path, doc, report: str, command: str = "simulate") -> str:
    """The last line a fresh process prints after ``command`` on ``doc``:
    the exit code and the Python expression ``report``."""
    cfg = write_config(tmp_path, doc)
    return in_a_process(
        "import sys; from tubediff.cli import main; "
        f"code = main([{command!r}, '--config', {cfg!r}, '--out', {str(tmp_path)!r}]); "
        f"print(code, {report})")


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # the screen marches nothing, and a tree has no exact field to measure against
    loaded = "sorted(m for m in sys.modules if m in ('tubediff.integrate', 'tubediff.verify'))"
    assert command_in_a_process(tmp_path, regulated_tree(), loaded,
                                 "stability-check") == "0 []"
    assert command_in_a_process(tmp_path, regulated_tree(), loaded) == (
        "0 ['tubediff.integrate']")
    assert command_in_a_process(tmp_path, small_channel(compare={"models": ["fick-jacobs"]}),
                                 loaded, "compare") == (
        "0 ['tubediff.integrate', 'tubediff.verify']")


def test_main_freezes_what_is_left_at_exit_once(tmp_path):
    # else the interpreter's last collection sweeps every object numpy and the
    # package made; a handler registered before main's runs after it
    cfg = write_config(tmp_path, regulated_tree())
    assert in_a_process(
        "import atexit, gc; calls = []; freeze = gc.freeze; "
        "gc.freeze = lambda: calls.append(freeze()); "
        "atexit.register(lambda: print(len(calls), gc.get_freeze_count() > 0)); "
        "from tubediff.cli import main; "
        f"codes = [main(['stability-check', '--config', {cfg!r}]) for _ in range(2)]"
    ) == "1 True"


def test_a_policy_run_loads_no_numpy_ma(tmp_path):
    # a flagless np.unique imports numpy.ma, which every CLI process would pay for
    doc = {
        "run": {"model": "fick-jacobs", "dt": 1.0e-3, "t_end": 0.01, "snapshots": 3},
        "geometry": {"kind": "ball-on-stick"},
        "lateral": [{"nodes": [5, 6], "strength": 1.0}],
        "policy": {"nodes": [6, 5, 6]},
    }
    assert command_in_a_process(tmp_path, doc, "'numpy.ma' in sys.modules") == "0 False"


def test_simulate_hashes_the_geometry_without_openssl(tmp_path):
    # hashlib loads OpenSSL through _hashlib, 3.4 MB of peak memory; the
    # manifest's digest is checked against hashlib in TestSimulate
    doc = {"run": {"model": "fick-jacobs", "dt": 1.0e-3, "t_end": 0.01},
           "geometry": {"kind": "ball-on-stick"}}
    assert command_in_a_process(
        tmp_path, doc, "sorted(m for m in sys.modules if m in ('hashlib', '_hashlib'))"
    ) == "0 []"


def test_the_package_imports_its_own_modules_relatively():
    # a copy of the package under another name must not mix in this one:
    # its enums would not be this package's, and a kind test would fail.
    # Nor does a module import another's private name: what it needs is the
    # owner's public function
    for path in sorted(Path(tubediff.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.ImportFrom):
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, f"{path.name} imports {private} from .{node.module}"
                continue
            else:
                continue
            assert not [n for n in names if n.split(".")[0] == "tubediff"], path.name


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

    def test_a_ladder_with_no_error_is_refused_before_any_output(self, tmp_path, capsys):
        # no 'initial' section: the start is uniform, a steady state, so
        # every level's error is 0 and no order can be fitted
        doc = {
            "run": {"model": "fick-jacobs", "dt": 1.0e-4, "t_end": 1.0e-3},
            "geometry": {"kind": "ball-on-stick", "levels": 0},
            "convergence": {"levels": 3},
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["convergence", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: convergence level 0 (N=31) has error 0.0, "
            "so no order can be fitted to the ladder\n")
        assert not out.exists()

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

    def test_a_builder_ladder_starts_at_the_configured_levels(self, tmp_path, monkeypatch):
        # rung k is the configured tree bisected k more times, as for a file
        # geometry; the builder ladder once started at level 0 and threw the
        # configured tree away
        built = []
        monkeypatch.setitem(cli.TREE_BUILDERS, "ball-on-stick",
                            lambda levels: built.append(levels) or ball_on_stick(levels))
        ladders = []
        for geometry in ({"kind": "ball-on-stick", "levels": 1},
                         {"kind": "file", "path": "geometries/ball_on_stick.geom", "levels": 1}):
            doc = {
                "run": {"model": "fick-jacobs", "dt": 2.0e-5, "t_end": 2.0e-4},
                "geometry": geometry,
                "convergence": {"levels": 3},
                "initial": {"kind": "arc-bump", "center": 1.6, "width": 0.4, "baseline": 0.2},
            }
            cfg = write_config(tmp_path, doc)
            assert main(["convergence", "--config", cfg, "--out", str(tmp_path)]) == 0
            rows = (tmp_path / "convergence.csv").read_text().splitlines()
            ladders.append([int(r.split(",")[1]) for r in rows[1:]])
        assert ladders == [[62, 124, 248]] * 2
        assert built == [1, 2, 3, 4]


def own_command(path: Path) -> str:
    """The command a shipped config is written for."""
    doc = yaml.safe_load(path.read_text())
    for command in ("compare", "convergence"):
        if command in doc:
            return command
    return "stability-check" if "stability" in path.stem else "simulate"


SHIPPED = sorted(Path(CONFIGS).glob("*.yaml"))


def key_mappings(doc):
    """Each mapping of config keys in ``doc``, with the name a refusal gives it."""
    yield "config", doc
    for name, section in doc.items():
        for mapping in section if name == "lateral" else [section]:
            yield f"'{name}' section", mapping
    if isinstance(doc["run"].get("model"), dict):
        yield "'run' section's model", doc["run"]["model"]


class TestConfigKeys:
    @pytest.mark.parametrize("path", SHIPPED, ids=lambda path: path.stem)
    def test_each_misspelt_key_is_refused_before_any_march(self, tmp_path, capsys, monkeypatch,
                                                           path):
        for module, name in ((integrate, "run_models"), (verify, "model_errors"),
                             (verify, "channel_convergence"), (verify, "tree_convergence"),
                             (cli, "check_model")):
            monkeypatch.setattr(module, name, lambda *args, **kwargs: pytest.fail("marched"))
        doc = yaml.safe_load(path.read_text())
        refused = 0
        for index, (where, mapping) in enumerate(key_mappings(doc)):
            for key in mapping:
                typo = key + key[-1]
                copy = yaml.safe_load(path.read_text())
                target = list(key_mappings(copy))[index][1]
                items = list(target.items())
                target.clear()
                target.update((typo if k == key else k, v) for k, v in items)
                cfg = write_config(tmp_path, copy)
                assert main([own_command(path), "--config", cfg, "--out", str(tmp_path)]) == 2
                (line,) = capsys.readouterr().err.splitlines()
                assert line.startswith(f"error: {where}"), line
                assert line.endswith(f": unknown key '{typo}'; did you mean '{key}'?"), line
                refused += 1
        assert refused >= 6

    def test_a_misspelt_model_key_is_refused(self, tmp_path, capsys):
        doc = small_channel()
        doc["run"]["model"] = {"name": "fick-jacobs", "epsilom": 2.0}
        cfg = write_config(tmp_path, doc)
        assert main(["stability-check", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "error: 'run' section's model: unknown key 'epsilom'; did you mean 'epsilon'?\n")

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_a_section_the_command_never_reads_is_checked_too(self, tmp_path, capsys, command):
        doc = small_channel(output={"directroy": str(tmp_path)})
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "error: 'output' section: unknown key 'directroy'; did you mean 'directory'?\n")

    @pytest.mark.parametrize("command", ["stability-check", "compare"])
    @pytest.mark.parametrize("section,message", [
        ({"initial": {"kind": "bogus"}},
         "unknown initial kind 'bogus'; choose one of: uniform, exact, arc-bump"),
        ({"boundary": {"kind": "nope"}},
         "unknown boundary kind 'nope'; choose one of: closed, exact, slopes"),
        # the keys come first: a misspelt 'kind' is named, as is a misspelt key of any kind
        ({"initial": {"kidn": "uniform"}},
         "'initial' section of kind 'exact': unknown key 'kidn'; did you mean 'kind'?"),
        ({"boundary": {"kind": "nope", "slpoes": {0: 1.0}}},
         "'boundary' section: unknown key 'slpoes'; did you mean 'slopes'?"),
    ])
    def test_a_section_the_command_never_reads_has_a_known_kind(self, tmp_path, capsys,
                                                                command, section, message):
        doc = small_channel(compare={"models": ["fick-jacobs"]}, **section)
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_kindless_section_is_checked_against_its_default_kind(self, tmp_path, capsys):
        # a uniform value on a tree; on a channel the default start is exact,
        # which has no value to take
        tree = regulated_tree()
        tree["initial"] = {"value": 5.0}
        assert main(["simulate", "--config", write_config(tmp_path, tree),
                     "--out", str(tmp_path)]) == 0
        channel = small_channel(initial={"value": 5.0})
        assert main(["simulate", "--config", write_config(tmp_path, channel),
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: 'initial' section of kind 'exact': unknown key 'value'; did you mean 'kind'?")

    def test_a_wrong_or_deleted_value_runs_or_is_refused_in_one_line(self, tmp_path, capsys):
        # one value (a section included) of a shipped config replaced by one of
        # twelve wrong values or deleted, marching a few steps at most
        wrong = (None, True, "text", [], {}, -1, 0, math.nan, math.inf, 2.5, [1, "a"], {"a": 1})

        def paths(node, path=()):
            items = (node.items() if isinstance(node, dict)
                     else enumerate(node) if isinstance(node, list) else ())
            for key, value in items:
                yield path + (key,)
                yield from paths(value, path + (key,))

        rng = random.Random(15)
        codes = []
        for _ in range(120):
            path = rng.choice(SHIPPED)
            doc = yaml.safe_load(path.read_text())
            doc["run"]["t_end"] = 4 * doc["run"]["dt"]
            *route, last = rng.choice(list(paths(doc)))
            parent = doc
            for key in route:
                parent = parent[key]
            choice = rng.randrange(len(wrong) + 1)
            if choice == len(wrong):
                del parent[last]
            else:
                parent[last] = wrong[choice]
            cfg = write_config(tmp_path, doc)
            code = main([own_command(path), "--config", cfg, "--out", str(tmp_path / "out")])
            errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
            assert code in (0, 1, 2)
            assert code != 2 or len(errors) == 1, (path.name, route, last, errors)
            codes.append(code)
        assert 0 in codes and 2 in codes


def test_every_benchmark_workload_config_loads(tmp_path, monkeypatch):
    # the benchmark's generated configs must pass the key check: read
    # perfbench/workloads.py as it stands, for seeds 1-60, set-up and full
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path("perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    loaded = 0
    for make in workloads.WORKLOADS.values():
        for seed in range(1, 61):
            for setup in (False, True):
                for cfg in make(seed, setup).configs.values():
                    path = tmp_path / "workload.yaml"
                    path.write_text(workloads.dump(cfg))
                    assert cli.load_config(path) == cfg
                    loaded += 1
    assert loaded == 480


def test_the_readme_lists_every_known_key():
    text = Path("README.md").read_text()
    section = text.split("### Configuration format", 1)[1].split("\n### ", 1)[0]
    assert "unknown key" in section
    words = set(cli.KEYS) | set(cli.MODEL_KEYS) | {"kind"}
    for keys in cli.KEYS.values():
        kinds = keys if isinstance(keys, dict) else {None: keys}
        words |= {kind for kind in kinds if kind} | {key for known in kinds.values()
                                                     for key in known}
    assert [w for w in sorted(words) if not re.search(rf"\b{re.escape(w)}\b", section)] == []
