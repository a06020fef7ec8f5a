"""Command-line driver: configured experiments in, CSV artifacts out.

Four subcommands share one YAML configuration format:

``simulate``
    march a single model and write ``trajectory.csv`` plus a
    ``manifest.yaml`` echoing the configuration, the stability limit,
    a hash of the geometry, and the march's wall time per step.
``compare``
    run several models on an analytic channel and write one error row
    per model to ``errors.csv``.
``convergence``
    run a refinement ladder (node-count list for channels, bisection
    levels for trees) and write ``convergence.csv``.
``stability-check``
    evaluate the step-size screens for the configured run and print
    the per-node verdict table; exits nonzero when the step is refused.

Exit codes: 0 success, 1 numerical failure (unstable step or
non-finite state), 2 configuration or I/O failure.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml

from .discretize import FluxWindow, LateralFluxField
from .geometry import ball_on_stick, constricted_tree
from .integrate import (
    BoundaryData,
    ConstraintPolicy,
    SimulationError,
    StabilityError,
    run,
)
from .models import MODEL_NAMES, ModelSpec
from .network import MeshError, TabulatedRadius, format_mesh, read_mesh, refine
from .stability import check_model
from .verify import (
    ConeChannel,
    SinusoidChannel,
    channel_convergence,
    final_error,
    refinement_ladder,
    run_channel,
    tree_convergence,
)

TREE_BUILDERS = {
    "ball-on-stick": ball_on_stick,
    "constricted-tree": constricted_tree,
}


class ConfigError(Exception):
    """The configuration document is missing, malformed, or inconsistent."""


@dataclass
class Geometry:
    """Resolved geometry: mesh plus profile, and the channel if analytic."""

    mesh: object
    profile: object
    channel: object | None
    fingerprint: str


def _section(cfg: dict, name: str, required: bool = True) -> dict:
    value = cfg.get(name)
    if value is None:
        if required:
            raise ConfigError(f"config needs a '{name}' section")
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"'{name}' section must be a mapping")
    return value


def _positive(section: dict, key: str, kind=float):
    if key not in section:
        raise ConfigError(f"'run' section needs '{key}'")
    try:
        value = kind(section[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"'{key}' must be a number, got {section[key]!r}") from exc
    if value <= 0:
        raise ConfigError(f"'{key}' must be positive, got {value}")
    return value


def load_config(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a mapping at top level")
    return cfg


def build_model(cfg: dict) -> ModelSpec:
    section = _section(cfg, "run")
    entry = section.get("model")
    if entry is None:
        raise ConfigError("'run' section needs 'model'")
    if isinstance(entry, str):
        entry = {"name": entry}
    name = entry.get("name")
    if name not in MODEL_NAMES:
        known = ", ".join(sorted(MODEL_NAMES))
        raise ConfigError(f"unknown model {name!r}; choose one of: {known}")
    return ModelSpec(
        MODEL_NAMES[name],
        d0=float(entry.get("d0", 1.0)),
        epsilon=float(entry.get("epsilon", 1.0)),
    )


def build_geometry(cfg: dict, model: ModelSpec) -> Geometry:
    section = _section(cfg, "geometry")
    kind = section.get("kind")
    if kind == "cone":
        channel = ConeChannel(
            taper=float(section.get("taper", 0.0)),
            sigma=float(section.get("sigma", 4.0)),
            center=float(section.get("center", 0.0)),
            x0=float(section.get("x0", 0.0)),
            x1=float(section.get("x1", 10.0)),
            d0=model.d0,
        )
    elif kind == "sinusoid":
        if "wavenumber" not in section:
            raise ConfigError("sinusoid geometry needs 'wavenumber'")
        channel = SinusoidChannel(
            wavenumber=float(section["wavenumber"]),
            sigma=float(section.get("sigma", 2.0)),
            center=float(section.get("center", 1.0)),
            margin=float(section.get("margin", 1.0)),
            d0=model.d0,
        )
    elif kind == "file":
        path = section.get("path")
        if path is None:
            raise ConfigError("file geometry needs 'path'")
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"geometry file not found: {path}")
        try:
            mesh = read_mesh(path)
        except MeshError as exc:
            raise ConfigError(f"geometry file {path}: {exc}") from exc
        levels = int(section.get("levels", 0))
        if levels:
            mesh = refine(mesh, levels)
        return Geometry(mesh, TabulatedRadius(), None, _fingerprint(mesh))
    elif kind in TREE_BUILDERS:
        mesh = TREE_BUILDERS[kind](int(section.get("levels", 0)))
        return Geometry(mesh, TabulatedRadius(), None, _fingerprint(mesh))
    else:
        known = "cone, sinusoid, file, " + ", ".join(sorted(TREE_BUILDERS))
        raise ConfigError(f"unknown geometry kind {kind!r}; choose one of: {known}")

    n = section.get("n")
    if n is None:
        raise ConfigError(f"{kind} geometry needs 'n'")
    n = int(n)
    if n < 3:
        raise ConfigError(f"'n' must be at least 3, got {n}")
    mesh = channel.mesh(n)
    return Geometry(mesh, channel.profile(), channel, _fingerprint(mesh))


def _fingerprint(mesh) -> str:
    return hashlib.sha256(format_mesh(mesh).encode()).hexdigest()


def build_initial(cfg: dict, geometry: Geometry):
    section = _section(cfg, "initial", required=False)
    kind = section.get("kind", "exact" if geometry.channel else "uniform")
    if kind == "uniform":
        return float(section.get("value", 1.0))
    if kind == "exact":
        if geometry.channel is None:
            raise ConfigError("initial kind 'exact' needs a cone or sinusoid geometry")
        x = geometry.mesh.positions[:, 0]
        return geometry.channel.concentration(x, 0.0)
    if kind == "arc-bump":
        arc = geometry.mesh.arc_lengths()
        center = float(section.get("center", 0.0))
        width = _positive(section, "width") if "width" in section else 1.0
        baseline = float(section.get("baseline", 0.0))
        bump = np.exp(-(((arc - center) / width) ** 2))
        return baseline + bump / geometry.mesh.radii**2
    raise ConfigError(f"unknown initial kind {kind!r}; "
                      "choose one of: uniform, exact, arc-bump")


def build_boundary(cfg: dict, geometry: Geometry) -> BoundaryData | None:
    section = _section(cfg, "boundary", required=False)
    kind = section.get("kind", "exact" if geometry.channel else "closed")
    if kind == "closed":
        return None
    if kind == "exact":
        channel = geometry.channel
        if channel is None:
            raise ConfigError("boundary kind 'exact' needs a cone or sinusoid geometry")
        mesh = geometry.mesh
        slopes = {}
        for i in mesh.leaf_indices():
            xe = mesh.positions[i, 0]
            slopes[mesh.node_ids[i]] = lambda t, xe=xe: float(channel.slope(xe, t))
        return BoundaryData(slopes)
    if kind == "slopes":
        entries = section.get("slopes")
        if not isinstance(entries, dict) or not entries:
            raise ConfigError("boundary kind 'slopes' needs a 'slopes' mapping")
        return BoundaryData({int(k): float(v) for k, v in entries.items()})
    raise ConfigError(f"unknown boundary kind {kind!r}; "
                      "choose one of: closed, exact, slopes")


def build_lateral(cfg: dict) -> LateralFluxField | None:
    entries = cfg.get("lateral")
    if entries is None:
        return None
    if not isinstance(entries, list) or not entries:
        raise ConfigError("'lateral' must be a list of window mappings")
    windows = []
    for entry in entries:
        if not isinstance(entry, dict) or "nodes" not in entry or "strength" not in entry:
            raise ConfigError("each lateral window needs 'nodes' and 'strength'")
        windows.append(FluxWindow(
            tuple(int(n) for n in entry["nodes"]),
            float(entry["strength"]),
            t_start=float(entry.get("from", 0.0)),
            t_end=float(entry.get("until", np.inf)),
        ))
    return LateralFluxField(tuple(windows))


def build_policy(cfg: dict) -> ConstraintPolicy | None:
    section = cfg.get("policy")
    if section is None:
        return None
    if not isinstance(section, dict):
        raise ConfigError("'policy' section must be a mapping")
    nodes = section.get("nodes", "all")
    node_ids = None if nodes == "all" else tuple(int(n) for n in nodes)
    try:
        return ConstraintPolicy(
            node_ids=node_ids,
            c_hi=float(section.get("c_hi", 6.0)),
            c_lo=float(section.get("c_lo", 4.0)),
            outflow_strength=float(section.get("outflow_strength", 2.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"policy: {exc}") from exc


def _out_dir(cfg: dict, override: str | None) -> Path:
    if override is not None:
        out = Path(override)
    else:
        out = Path(_section(cfg, "output", required=False).get("directory", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(cfg: dict, out_override: str | None, force: bool) -> int:
    out = _out_dir(cfg, out_override)
    section = _section(cfg, "run")
    model = build_model(cfg)
    geometry = build_geometry(cfg, model)
    dt = _positive(section, "dt")
    t_end = _positive(section, "t_end")
    snapshots = int(section.get("snapshots", 11))
    initial = build_initial(cfg, geometry)
    boundary = build_boundary(cfg, geometry)
    lateral = build_lateral(cfg)
    policy = build_policy(cfg)

    traj = run(
        geometry.mesh, geometry.profile, model,
        dt=dt, t_end=t_end, initial=initial, boundary=boundary,
        lateral=lateral, policy=policy, n_snapshots=snapshots, force=force,
    )
    report = traj.stability
    if force and report is not None and not report.passed:
        print(f"warning: dt={dt:g} exceeds the stable limit "
              f"dt_max={report.dt_max:g}; marching anyway (--force)",
              file=sys.stderr)

    csv_path = out / "trajectory.csv"
    traj.to_csv(csv_path)

    manifest = {
        "command": "simulate",
        "written": datetime.now(timezone.utc).isoformat(),
        "config": cfg,
        "model": model.kind.value,
        "dt_max": float(report.dt_max) if report is not None else None,
        "geometry_sha256": geometry.fingerprint,
        "nodes": geometry.mesh.n_nodes,
        "steps": int(round(t_end / dt)),
        "step_time_s": traj.step_time_s,
        "notes": list(traj.notes),
        "warnings": list(report.warnings) if report is not None else [],
    }
    with open(out / "manifest.yaml", "w") as fh:
        yaml.safe_dump(manifest, fh, sort_keys=False)
    print(f"wrote {csv_path}")
    return 0


def cmd_compare(cfg: dict, out_override: str | None, force: bool) -> int:
    out = _out_dir(cfg, out_override)
    section = _section(cfg, "run")
    base = build_model(cfg)
    geometry = build_geometry(cfg, base)
    if geometry.channel is None:
        raise ConfigError("compare needs a cone or sinusoid geometry")
    names = _section(cfg, "compare").get("models")
    if not isinstance(names, list) or not names:
        raise ConfigError("'compare' section needs a nonempty 'models' list")
    unknown = [n for n in names if n not in MODEL_NAMES]
    if unknown:
        raise ConfigError(f"unknown models in 'compare': {', '.join(map(str, unknown))}")

    dt = _positive(section, "dt")
    t_end = _positive(section, "t_end")
    n = geometry.mesh.n_nodes
    rows = []
    for name in names:
        spec = ModelSpec(MODEL_NAMES[name], d0=base.d0, epsilon=base.epsilon)
        traj = run_channel(geometry.channel, spec, n=n, dt=dt, t_end=t_end,
                           force=force)
        rows.append((name, final_error(traj, geometry.channel)))

    csv_path = out / "errors.csv"
    with open(csv_path, "w") as fh:
        fh.write("model,l1\n")
        for name, err in rows:
            fh.write(f"{name},{err!r}\n")
    print(f"wrote {csv_path}")
    return 0


def cmd_convergence(cfg: dict, out_override: str | None, force: bool) -> int:
    out = _out_dir(cfg, out_override)
    section = _section(cfg, "run")
    model = build_model(cfg)
    geometry = build_geometry(cfg, model)
    conv = _section(cfg, "convergence")
    dt = _positive(section, "dt")
    t_end = _positive(section, "t_end")

    if geometry.channel is not None:
        ns = conv.get("ns")
        if not isinstance(ns, list) or len(ns) < 3:
            raise ConfigError("channel convergence needs an 'ns' list "
                              "of at least 3 node counts")
        result = channel_convergence(
            geometry.channel, model, ns=[int(n) for n in ns],
            dt=dt, t_end=t_end, force=force,
        )
    else:
        levels = conv.get("levels")
        if levels is None or int(levels) < 3:
            raise ConfigError("tree convergence needs 'levels' of at least 3")
        levels = int(levels)
        kind = _section(cfg, "geometry")["kind"]
        if kind in TREE_BUILDERS:
            meshes = [TREE_BUILDERS[kind](k) for k in range(levels + 1)]
        else:
            meshes = refinement_ladder(geometry.mesh, levels + 1)

        def initial(mesh):
            bundle = Geometry(mesh, geometry.profile, None, "")
            return build_initial(cfg, bundle)

        result = tree_convergence(
            meshes, model, dt=dt, t_end=t_end, initial=initial, force=force,
        )

    csv_path = out / "convergence.csv"
    with open(csv_path, "w") as fh:
        fh.write("level,N,dx,l1,slope\n")
        for k, (n, dx, err) in enumerate(zip(result.ns, result.spacings,
                                             result.errors)):
            if k == 0:
                slope = ""
            else:
                pair = np.polyfit(
                    np.log([result.spacings[k - 1], dx]),
                    np.log([result.errors[k - 1], err]), 1)[0]
                slope = repr(float(pair))
            fh.write(f"{k},{n},{dx!r},{err!r},{slope}\n")
    print(f"wrote {csv_path}  (fitted slope {result.slope:.3f})")
    return 0


def cmd_stability_check(cfg: dict, out_override: str | None, force: bool) -> int:
    section = _section(cfg, "run")
    model = build_model(cfg)
    geometry = build_geometry(cfg, model)
    dt = _positive(section, "dt")
    report = check_model(geometry.mesh, geometry.profile, model, dt)
    print(report.as_table())
    return 0 if report.passed else 1


COMMANDS = {
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "convergence": cmd_convergence,
    "stability-check": cmd_stability_check,
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tubediff",
        description="Reduced-order diffusion through tubes and tubular trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="YAML configuration file")
        cmd.add_argument("--force", action="store_true",
                         help="march even when the stability screen refuses the step")
        cmd.add_argument("--out", default=None,
                         help="output directory (overrides the config)")
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config)
        return COMMANDS[args.command](cfg, args.out, args.force)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(exc.report.as_table(), file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
