"""Command-line driver: configured experiments in, CSV artifacts out.

Four subcommands share one YAML configuration format:

``simulate``
    march a single model and write ``trajectory.csv`` plus a
    ``manifest.yaml`` echoing the configuration, the stability limit,
    a hash of the geometry, the march's wall time per step and the
    total tube contents at the first and the last snapshot.
``compare``
    march several models together on an analytic channel and write one
    error row per model to ``errors.csv``.
``convergence``
    run a refinement ladder (node-count list for channels, bisection
    levels for trees) and write ``convergence.csv``.
``stability-check``
    evaluate the stability screen for the configured run and print
    its verdict table; exits nonzero when the step is refused.

Exit codes: 0 success, 1 numerical failure (unstable step or
non-finite state), 2 configuration or I/O failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import MISSING, dataclass, fields
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
    StabilityWarning,
    run_models,
    trapezoid_weights,
)
from .models import ModelSpec
from .network import MeshError, format_mesh, read_mesh, refine
from .stability import check_model
from .verify import (
    CHANNELS,
    channel_convergence,
    exact_boundary,
    fitted_slope,
    model_errors,
    refinement_ladder,
    tree_convergence,
)

TREE_BUILDERS = {
    "ball-on-stick": ball_on_stick,
    "constricted-tree": constricted_tree,
}

# what the commands that need an exact solution ask for
_CHANNEL_GEOMETRY = f"a {' or '.join(CHANNELS)} geometry"


class ConfigError(Exception):
    """The configuration document is missing, malformed, or inconsistent."""


@dataclass
class Geometry:
    """Resolved geometry: the mesh, and the channel if analytic."""

    mesh: object
    channel: object | None


def _section(cfg: dict, name: str, required: bool = True) -> dict:
    value = cfg.get(name)
    if value is None:
        if required:
            raise ConfigError(f"config needs a '{name}' section")
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"'{name}' section must be a mapping")
    return value


def _finite(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{number} is not finite")
    return number


def _read(section: dict, key: str, convert=_finite, default=None, what="a finite number"):
    """``convert`` applied to ``section[key]`` (``default`` when absent);
    a value it cannot take becomes a ConfigError naming the key."""
    value = section.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"'{key}' must be {what}, got {value!r}") from None


def _whole(value) -> int:
    """An integral number as an int; ``int`` alone would truncate 40.7 to 40."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def _ints(value) -> tuple[int, ...]:
    """Node ids or counts from a YAML list."""
    if isinstance(value, str):
        raise TypeError("a string is not a list")
    return tuple(_whole(n) for n in value)


def _positive(section: dict, key: str, kind=float):
    if key not in section:
        raise ConfigError(f"'run' section needs '{key}'")
    value = _read(section, key, kind)
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"'{key}' must be positive and finite, got {value}")
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
    if not isinstance(entry, dict):
        raise ConfigError(f"'model' must be a name or a mapping, got {entry!r}")
    return ModelSpec.from_name(
        entry.get("name"),
        d0=_read(entry, "d0", default=1.0),
        epsilon=_read(entry, "epsilon", default=1.0),
    )


def build_geometry(cfg: dict, model: ModelSpec) -> Geometry:
    section = _section(cfg, "geometry")
    kind = section.get("kind")
    known = (*CHANNELS, "file", *sorted(TREE_BUILDERS))
    if not (isinstance(kind, str) and kind in known):
        raise ConfigError(f"unknown geometry kind {kind!r}; choose one of: {', '.join(known)}")
    if kind == "file":
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
        levels = _read(section, "levels", _whole, 0, "a whole number")
        if levels:
            mesh = refine(mesh, levels)
        return Geometry(mesh, None)
    if kind in TREE_BUILDERS:
        mesh = TREE_BUILDERS[kind](_read(section, "levels", _whole, 0, "a whole number"))
        return Geometry(mesh, None)

    # a channel's keys are its class fields; one without a default is required
    values = {}
    for field in fields(CHANNELS[kind]):
        if field.name == "d0":
            continue
        if field.default is MISSING and field.name not in section:
            raise ConfigError(f"{kind} geometry needs '{field.name}'")
        values[field.name] = _read(section, field.name, default=field.default)
    channel = CHANNELS[kind](**values, d0=model.d0)
    if section.get("n") is None:
        raise ConfigError(f"{kind} geometry needs 'n'")
    n = _read(section, "n", _whole, what="a whole number")
    if n < 3:
        raise ConfigError(f"'n' must be at least 3, got {n}")
    return Geometry(channel.mesh(n), channel)


def _fingerprint(mesh) -> str:
    """SHA-256 of the mesh text; only ``simulate`` records it and loads hashlib."""
    import hashlib

    return hashlib.sha256(format_mesh(mesh).encode()).hexdigest()


def build_initial(cfg: dict, geometry: Geometry):
    section = _section(cfg, "initial", required=False)
    kind = section.get("kind", "exact" if geometry.channel else "uniform")
    if kind == "uniform":
        return _read(section, "value", default=1.0)
    if kind == "exact":
        if geometry.channel is None:
            raise ConfigError(f"initial kind 'exact' needs {_CHANNEL_GEOMETRY}")
        x = geometry.mesh.positions[:, 0]
        return geometry.channel.concentration(x, 0.0)
    if kind == "arc-bump":
        arc = geometry.mesh.arc_lengths()
        center = _read(section, "center", default=0.0)
        width = _positive(section, "width") if "width" in section else 1.0
        baseline = _read(section, "baseline", default=0.0)
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
            raise ConfigError(f"boundary kind 'exact' needs {_CHANNEL_GEOMETRY}")
        return exact_boundary(channel, geometry.mesh)
    if kind == "slopes":
        entries = section.get("slopes")
        if not isinstance(entries, dict) or not entries:
            raise ConfigError("boundary kind 'slopes' needs a 'slopes' mapping")
        return BoundaryData(_read(section, "slopes",
                                  lambda m: {_whole(k): _finite(v) for k, v in m.items()},
                                  what="a mapping of leaf ids to finite numbers"))
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
            _read(entry, "nodes", _ints, what="a list of node ids"),
            _read(entry, "strength"),
            t_start=_read(entry, "from", default=0.0),
            t_end=_read(entry, "until", float, np.inf, "a number"),
        ))
    return LateralFluxField(tuple(windows))


def build_policy(cfg: dict) -> ConstraintPolicy | None:
    section = cfg.get("policy")
    if section is None:
        return None
    if not isinstance(section, dict):
        raise ConfigError("'policy' section must be a mapping")
    node_ids = None
    if section.get("nodes", "all") != "all":
        node_ids = _read(section, "nodes", _ints, what="'all' or a list of node ids")
    levels = {key: _read(section, key)
              for key in ("c_hi", "c_lo", "outflow_strength") if key in section}
    try:
        return ConstraintPolicy(node_ids=node_ids, **levels)
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
    snapshots = _read(section, "snapshots", _whole, 11, "a whole number")
    initial = build_initial(cfg, geometry)
    boundary = build_boundary(cfg, geometry)
    lateral = build_lateral(cfg)
    policy = build_policy(cfg)

    traj = run_models(
        geometry.mesh, (model,),
        dt=dt, t_end=t_end, initial=initial, boundary=boundary,
        lateral=lateral, policy=policy, n_snapshots=snapshots, force=force,
    )[0]
    report = traj.stability

    csv_path = out / "trajectory.csv"
    traj.to_csv(csv_path)

    manifest = {
        "command": "simulate",
        "written": datetime.now(timezone.utc).isoformat(),
        "config": cfg,
        "model": model.kind.value,
        "dt_max": float(report.dt_max),
        "geometry_sha256": _fingerprint(geometry.mesh),
        "nodes": geometry.mesh.n_nodes,
        "steps": int(round(t_end / dt)),
        "step_time_s": traj.step_time_s,
        "tube_contents": _contents_ledger(traj),
        "warnings": list(report.warnings),
    }
    with open(out / "manifest.yaml", "w") as fh:
        yaml.safe_dump(manifest, fh, sort_keys=False)
    print(f"wrote {csv_path}")
    return 0


def _contents_ledger(traj) -> dict:
    """Total tube contents sum w pi R^2 c (trapezoid weights w) at the
    first and the last snapshot."""
    w = trapezoid_weights(traj.mesh)
    initial, final = (float(w @ traj.tube_contents(k)) for k in (0, -1))
    change = (final - initial) / initial if initial != 0.0 else None
    return {"initial": initial, "final": final, "relative_change": change}


def cmd_compare(cfg: dict, out_override: str | None, force: bool) -> int:
    out = _out_dir(cfg, out_override)
    section = _section(cfg, "run")
    base = build_model(cfg)
    geometry = build_geometry(cfg, base)
    if geometry.channel is None:
        raise ConfigError(f"compare needs {_CHANNEL_GEOMETRY}")
    names = _section(cfg, "compare").get("models")
    if not isinstance(names, list) or not names:
        raise ConfigError("'compare' section needs a nonempty 'models' list")
    try:
        specs = [ModelSpec.from_name(name, d0=base.d0, epsilon=base.epsilon)
                 for name in names]
    except ValueError as exc:
        raise ConfigError(f"'compare' section: {exc}") from None

    dt = _positive(section, "dt")
    t_end = _positive(section, "t_end")
    errors = model_errors(geometry.channel, specs, mesh=geometry.mesh,
                          dt=dt, t_end=t_end, force=force)

    csv_path = out / "errors.csv"
    with open(csv_path, "w") as fh:
        fh.write("model,l1\n")
        for name in names:
            fh.write(f"{name},{errors[name]!r}\n")
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
        ns = _read(conv, "ns", _ints, what="a list of node counts")
        result = channel_convergence(
            geometry.channel, model, ns=list(ns),
            dt=dt, t_end=t_end, force=force,
        )
    else:
        levels = _read(conv, "levels", _whole, 0, "a whole number")
        if levels < 3:
            raise ConfigError("tree convergence needs 'levels' of at least 3")
        kind = _section(cfg, "geometry")["kind"]
        if kind in TREE_BUILDERS:
            meshes = [TREE_BUILDERS[kind](k) for k in range(levels + 1)]
        else:
            meshes = refinement_ladder(geometry.mesh, levels + 1)

        def initial(mesh):
            return build_initial(cfg, Geometry(mesh, None))

        result = tree_convergence(
            meshes, model, dt=dt, t_end=t_end, initial=initial, force=force,
        )

    csv_path = out / "convergence.csv"
    with open(csv_path, "w") as fh:
        fh.write("level,N,dx,l1,slope\n")
        for k, (n, dx, err) in enumerate(zip(result.ns, result.spacings,
                                             result.errors)):
            slope = ""
            if k > 0:
                pair = slice(k - 1, k + 1)
                slope = repr(fitted_slope(result.spacings[pair], result.errors[pair]))
            fh.write(f"{k},{n},{dx!r},{err!r},{slope}\n")
    print(f"wrote {csv_path}  (fitted slope {result.slope:.3f})")
    return 0


def cmd_stability_check(cfg: dict, out_override: str | None, force: bool) -> int:
    section = _section(cfg, "run")
    model = build_model(cfg)
    geometry = build_geometry(cfg, model)
    dt = _positive(section, "dt")
    report = check_model(geometry.mesh, model, dt)
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
        with warnings.catch_warnings():  # one line per model forced past its screen
            warnings.simplefilter("always", StabilityWarning)
            warnings.showwarning = lambda message, category, *_: print(
                f"warning: {message}"
                + (" (--force)" if issubclass(category, StabilityWarning) else ""),
                file=sys.stderr)
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
