"""Correctness checks on the artifacts of each CLI invocation.

Every check returns a list of failure messages; an empty list passes.

Channels (``compare``): every model's ``errors.csv`` value is finite.
On a full-length march each error must lie within ``ERROR_RTOL`` of the
value recorded for that channel in ``reference_errors.json``, or inside
the band (0, recorded]: a change may make a model more accurate, never
less.

Trees (``simulate``): every snapshot is finite and lies inside a stated
band, and the step sits at or below ``DT_SHARE_MAX`` of the screened
``dt_max`` (``stability-check`` must print PASS).  ``tree-setup``
starts from a positive bump with no sources, so its snapshots must keep
to the range of the initial state (a maximum principle, with slack of
``RANGE_SLACK`` of that range).  ``tree-lateral`` runs under a
concentration-band policy, so its snapshots must keep within
``LATERAL_SLACK`` of the policy band.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np
import yaml

import workloads

ERROR_RTOL = 1e-9
DT_SHARE_MAX = 0.5
RANGE_SLACK = 1e-3
LATERAL_SLACK = 0.05

REFERENCE_FILE = Path(__file__).resolve().parent / "reference_errors.json"


def reference_key(kind: str, value: float) -> str:
    return f"{kind}:{value!r}"


@functools.cache
def reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def read_errors(out: Path) -> dict[str, float]:
    rows = (out / "errors.csv").read_text().split()
    if not rows or rows[0] != "model,l1":
        raise ValueError("errors.csv lacks its header")
    return {model: float(err) for model, err in (r.split(",") for r in rows[1:])}


def check_compare(wl, inv, out: Path, full: bool) -> tuple[list[str], float]:
    """Failures and the largest error of one compare invocation."""
    errors = read_errors(out)
    fails = []
    if list(errors) != list(workloads.MODELS):
        fails.append(f"{inv.name}: models {list(errors)}")
    fails += [f"{inv.name}: {m} error {e!r} not finite"
              for m, e in errors.items() if not math.isfinite(e)]
    if full and not fails:
        ref_table = reference()
        if (ref_table["steps"], ref_table["nodes"]) != (
                workloads.CHANNEL_STEPS, workloads.CHANNEL_NODES):
            fails.append("reference_errors.json was recorded for another size")
            return fails, max(errors.values())
        value = wl.params["taper" if inv.name == "cone" else "wavenumber"]
        recorded = ref_table["errors"][reference_key(inv.name, value)]
        for model, err in errors.items():
            ref = recorded[model]
            if abs(err - ref) > ERROR_RTOL * ref and not 0.0 < err <= ref:
                fails.append(f"{inv.name} {value}: {model} error {err!r} "
                             f"outside {ref!r} (rtol {ERROR_RTOL}) and (0, {ref!r}]")
    return fails, max(errors.values())


def read_trajectory(out: Path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 3]


def check_simulate(wl, inv, out: Path) -> list[str]:
    manifest = yaml.safe_load((out / "manifest.yaml").read_text())
    fails = []
    dt = float(manifest["config"]["run"]["dt"])
    if not dt <= DT_SHARE_MAX * float(manifest["dt_max"]):
        fails.append(f"{inv.name}: dt={dt} above {DT_SHARE_MAX} x dt_max="
                     f"{manifest['dt_max']}")
    t, c = read_trajectory(out)
    snapshots = manifest["config"]["run"]["snapshots"]
    if len(np.unique(t)) != snapshots or len(c) != snapshots * inv.nodes:
        fails.append(f"{inv.name}: expected {snapshots} snapshots of {inv.nodes} nodes")
    if not np.isfinite(c).all():
        return fails + [f"{inv.name}: non-finite concentration"]
    if wl.name == "tree-lateral":
        lo, hi = workloads.LATERAL_BAND
        lo, hi = lo - LATERAL_SLACK, hi + LATERAL_SLACK
    else:
        c0 = c[t == t.min()]
        slack = RANGE_SLACK * (c0.max() - c0.min())
        lo, hi = c0.min() - slack, c0.max() + slack
    if c.min() < lo or c.max() > hi:
        fails.append(f"{inv.name}: concentration [{c.min():.6g}, {c.max():.6g}] "
                     f"outside [{lo:.6g}, {hi:.6g}]")
    return fails


def check_screen(inv, stdout: str) -> list[str]:
    head = stdout.splitlines()[0] if stdout else ""
    return [] if head.endswith("PASS") else [f"{inv.name}: screen did not pass: {head!r}"]


def check(wl, inv, out: Path, stdout: str, full: bool) -> tuple[list[str], float | None]:
    """Failures of one finished invocation and, for compare, its largest error."""
    try:
        if inv.command == "compare":
            return check_compare(wl, inv, out, full)
        if inv.command == "stability-check":
            return check_screen(inv, stdout), None
        return check_simulate(wl, inv, out), None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{inv.name}: unreadable output: {exc!r}"], None
