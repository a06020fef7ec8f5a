"""Smoke checks of the measurement scripts under ``scripts/``."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_phase_memory_reports_every_phase():
    # the script drives tubediff.cli's own builders (build_model,
    # build_geometry, build_initial, _fingerprint) in fresh processes
    done = subprocess.run([sys.executable, str(REPO / "scripts" / "phase_memory.py"), str(REPO),
                           "--levels", "1", "--steps", "2"],
                          capture_output=True, text=True, check=True, timeout=120)
    level = json.loads(done.stdout)["1"]
    assert level["nodes"] == 63 and level["nnz"] > 0
    phases = ("import", "build", "assemble", "screen", "march", "to_csv", "hash")
    assert list(level["phases"]) == list(phases)
    for name in phases:
        assert {"rss_mb", "s", "peak_b_per_nnz", "kept_b_per_nnz"} <= set(level["phases"][name])
    assert "peak_b_per_node" in level["phases"]["build"]
    assert 0.0 < level["exit_s"] < 60.0  # from the last phase to the reaping


def test_compare_outputs_sums_up_the_peaks_per_command():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", REPO / "scripts" / "compare_outputs.py")
    compare_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_outputs)
    rows = [("simulate", 32.5, 32.25), ("compare", 32.0, 32.0), ("simulate", 33.0, 33.5),
            ("compare", 31.0, 30.5), ("simulate", 32.0, 31.5)]
    # a tie (32.0 and 32.0) counts for neither checkout
    assert compare_outputs.peak_summary(rows) == [
        "simulate: median peak RSS 32.50/32.25 MB, b lower in 2/3",
        "compare: median peak RSS 31.50/31.25 MB, b lower in 1/2",
    ]
    assert compare_outputs.peak_summary([]) == []


def test_process_peaks_reports_each_command_and_checkout(tmp_path):
    # a copy of the package is the second checkout
    copy = tmp_path / "copy"
    shutil.copytree(REPO / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, str(REPO / "scripts" / "process_peaks.py"),
                           str(REPO), str(copy), "--layouts", "1"],
                          capture_output=True, text=True, check=True, timeout=120)
    rows = [line.split() for line in done.stdout.splitlines()[2:]]
    assert [(row[0], row[4]) for row in rows] == [
        (command, str(checkout)) for command in ("stability-check", "simulate")
        for checkout in (REPO, copy)]
    assert [row[3] for row in rows[::2]] == ["-", "-"]
    assert {row[3] for row in rows[1::2]} <= {"0/1", "1/1"}
    for row in rows:
        assert 10.0 < float(row[1]) == float(row[2]) < 1000.0  # one layout: median = max
