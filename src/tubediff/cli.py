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

A process pays only for its own command: ``integrate`` (the march) and
``verify`` (the exact-solution metrics) are imported where a command
calls them, so ``stability-check`` loads neither and a tree
``simulate`` no ``verify``.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import math
import re
import sys
import warnings
from dataclasses import MISSING, dataclass, fields
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
import yaml

from .discretize import FluxWindow, LateralFluxField, assemble_model
from .geometry import CHANNELS, ball_on_stick, constricted_tree
from .models import ModelSpec
from .network import MeshError, _text_pieces, read_mesh, refine
from .stability import SimulationError, StabilityError, StabilityWarning, check_model

if TYPE_CHECKING:
    from .integrate import BoundaryData, ConstraintPolicy

TREE_BUILDERS = {
    "ball-on-stick": ball_on_stick,
    "constricted-tree": constricted_tree,
}

# what the commands that need an exact solution ask for
_CHANNEL_GEOMETRY = f"a {' or '.join(CHANNELS)} geometry"


class ConfigError(Exception):
    """The configuration document is missing, malformed, or inconsistent."""


# the keys each section knows; a section with kinds knows 'kind' and the keys of its
# kind, a channel's being its class fields but d0 (from the model), and 'n'.  Without
# a kind an initial or boundary section is exact on a channel, of its first on a tree.
KEYS = {
    "run": ("model", "dt", "t_end", "snapshots"),
    "geometry": {
        **{kind: ("n", *(f.name for f in fields(channel) if f.name != "d0"))
           for kind, channel in CHANNELS.items()},
        "file": ("path", "levels"),
        **dict.fromkeys(TREE_BUILDERS, ("levels",)),
    },
    "initial": {"uniform": ("value",), "exact": (), "arc-bump": ("center", "width", "baseline")},
    "boundary": {"closed": (), "exact": (), "slopes": ("slopes",)},
    "lateral": ("nodes", "strength", "from", "until"),  # of each window
    "policy": ("nodes", "c_hi", "c_lo", "outflow_strength"),
    "compare": ("models",),
    "convergence": ("ns", "levels"),
    "output": ("directory",),
}
MODEL_KEYS = ("name", "d0", "epsilon")  # of a 'model' given as a mapping


@dataclass
class Geometry:
    """Resolved geometry: the mesh, and the channel if analytic."""

    mesh: object
    channel: object | None
    refined: object = None  # a tree's k -> its mesh bisected k more times


def _number(value) -> float:
    """``float(value)``, refusing a boolean, which YAML reads from ``true``,
    and text, which ``float`` would parse."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _finite(value) -> float:
    number = _number(value)
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
    if isinstance(value, (bool, str)) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def _ints(value) -> tuple[int, ...]:
    """Node ids or counts from a YAML list."""
    if isinstance(value, str):
        raise TypeError("a string is not a list")
    return tuple(_whole(n) for n in value)


def _positive(section: dict, key: str):
    if key not in section:
        raise ConfigError(f"'run' section needs '{key}'")
    value = _read(section, key, _number)
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"'{key}' must be positive and finite, got {value}")
    return value


class _ConfigLoader(yaml.SafeLoader):
    """YAML 1.1, but an exponent without a dot (``2e-4``) is a float, not text."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float", re.compile(r"^[-+]?[0-9]+[eE][-+]?[0-9]+$"), list("-+0123456789"))


def load_config(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = yaml.load(path.read_text(), Loader=_ConfigLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a mapping at top level")
    _check_keys(cfg)
    return cfg


def _check_keys(cfg: dict) -> None:
    """Refuse a missing 'run' or 'geometry' section, a section of the wrong
    shape, a key that its section (of its kind) does not know and an
    unknown kind; every section is checked, whether the command reads it
    or not."""
    _known(cfg, KEYS, "config")
    for name, keys in KEYS.items():
        section = cfg.get(name)
        if section is None:
            if name in ("run", "geometry"):
                raise ConfigError(f"config needs a '{name}' section")
            continue
        mappings = section if name == "lateral" else [section]
        if not (isinstance(mappings, list) and mappings
                and all(isinstance(mapping, dict) for mapping in mappings)):
            raise ConfigError("'lateral' must be a list of window mappings" if name == "lateral"
                              else f"'{name}' section must be a mapping")
        where, kinds = f"'{name}' section", keys
        if isinstance(keys, dict):  # an unknown kind takes any kind's keys: a misspelt
            kind = _kind(cfg, name)  # 'kind' is named before the kind is refused
            known = isinstance(kind, str) and kind in keys
            where += f" of kind '{kind}'" if known else ""
            keys = ("kind", *(keys[kind] if known else sum(keys.values(), ())))
        for mapping in mappings:
            _known(mapping, keys, where)
        if isinstance(kinds, dict) and not known:
            raise ConfigError(f"unknown {name} kind {kind!r}; choose one of: {', '.join(kinds)}")
    if isinstance(cfg["run"].get("model"), dict):
        _known(cfg["run"]["model"], MODEL_KEYS, "'run' section's model")


def _known(mapping: dict, keys, where: str) -> None:
    for key in mapping:
        if key not in keys:
            from difflib import get_close_matches  # only on a refusal
            (close,) = get_close_matches(str(key), keys, 1, 0.0)
            raise ConfigError(f"{where}: unknown key {key!r}; did you mean {close!r}?")


def _kind(cfg: dict, name: str):
    """A section's kind, or its default (see KEYS)."""
    channel = cfg["geometry"].get("kind") in tuple(CHANNELS)
    default = None if name == "geometry" else "exact" if channel else next(iter(KEYS[name]))
    return (cfg.get(name) or {}).get("kind", default)


def build_model(cfg: dict) -> ModelSpec:
    entry = cfg["run"].get("model")
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
    section = cfg["geometry"]
    kind = section["kind"]  # a known one (load_config)
    if kind in CHANNELS:  # a channel field without a default is required
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

    build = TREE_BUILDERS.get(kind)
    if kind == "file":
        if section.get("path") is None:
            raise ConfigError("file geometry needs 'path'")
        path = _read(section, "path", Path, what="a path")
        if not path.exists():
            raise ConfigError(f"geometry file not found: {path}")
        try:
            build = partial(refine, read_mesh(path))
        except MeshError as exc:
            raise ConfigError(f"geometry file {path}: {exc}") from exc
    levels = _read(section, "levels", _whole, 0, "a whole number")
    return Geometry(build(levels), None, lambda k: build(levels + k))


def _fingerprint(mesh) -> str:
    """SHA-256 of the mesh text, fed a piece at a time, by the interpreter's
    own module, hashlib's fallback: importing hashlib loads OpenSSL (3.4 MB
    of peak memory)."""
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    digest = sha256()
    for piece in _text_pieces(mesh):
        digest.update(piece.encode())
    return digest.hexdigest()


def build_initial(cfg: dict, geometry: Geometry):
    section, kind = cfg.get("initial") or {}, _kind(cfg, "initial")
    if kind == "uniform":
        return _read(section, "value", default=1.0)
    if kind == "exact":
        if geometry.channel is None:
            raise ConfigError(f"initial kind 'exact' needs {_CHANNEL_GEOMETRY}")
        x = geometry.mesh.positions[:, 0]
        return geometry.channel.concentration(x, 0.0)
    arc = geometry.mesh.arc_lengths()  # arc-bump, the one kind left (load_config)
    center = _read(section, "center", default=0.0)
    width = _positive(section, "width") if "width" in section else 1.0
    baseline = _read(section, "baseline", default=0.0)
    bump = np.exp(-(((arc - center) / width) ** 2))
    return baseline + bump / geometry.mesh.radii**2


def build_boundary(cfg: dict, geometry: Geometry) -> BoundaryData | None:
    section, kind = cfg.get("boundary") or {}, _kind(cfg, "boundary")
    if kind == "closed":
        return None
    if kind == "exact":
        if geometry.channel is None:
            raise ConfigError(f"boundary kind 'exact' needs {_CHANNEL_GEOMETRY}")
        from .verify import exact_boundary
        return exact_boundary(geometry.channel, geometry.mesh)
    from .integrate import BoundaryData  # slopes, the one kind left (load_config)
    entries = section.get("slopes")
    if not isinstance(entries, dict) or not entries:
        raise ConfigError("boundary kind 'slopes' needs a 'slopes' mapping")
    return BoundaryData(_read(section, "slopes",
                              lambda m: {_whole(k): _finite(v) for k, v in m.items()},
                              what="a mapping of leaf ids to finite numbers"))


def build_lateral(cfg: dict) -> LateralFluxField | None:
    entries = cfg.get("lateral")
    if entries is None:
        return None
    if not all("nodes" in entry and "strength" in entry for entry in entries):
        raise ConfigError("each lateral window needs 'nodes' and 'strength'")
    return LateralFluxField(tuple(FluxWindow(
        _read(entry, "nodes", _ints, what="a list of node ids"),
        _read(entry, "strength"),
        t_start=_read(entry, "from", default=0.0),
        t_end=_read(entry, "until", _number, np.inf, "a number"),
    ) for entry in entries))


def build_policy(cfg: dict) -> ConstraintPolicy | None:
    section = cfg.get("policy")
    if section is None:
        return None
    from .integrate import ConstraintPolicy
    node_ids = None
    if section.get("nodes", "all") != "all":
        node_ids = _read(section, "nodes", _ints, what="'all' or a list of node ids")
    levels = {key: _read(section, key)
              for key in KEYS["policy"] if key in section and key != "nodes"}
    try:
        return ConstraintPolicy(node_ids=node_ids, **levels)
    except ValueError as exc:
        raise ConfigError(f"policy: {exc}") from exc


def _out_dir(cfg: dict, override: str | None) -> Path:
    """Where the artifacts go; each command makes it only once it has them."""
    if override is not None:
        return Path(override)
    return _read(cfg.get("output") or {}, "directory", Path, ".", "a path")


def _read_run(cfg: dict, *times: str) -> tuple:
    """The model, the geometry and the positive ``times`` of the 'run' section."""
    model = build_model(cfg)
    geometry = build_geometry(cfg, model)
    return (model, geometry, *(_positive(cfg["run"], key) for key in times))


def cmd_simulate(cfg: dict, out_override: str | None, force: bool) -> int:
    from .integrate import run_models
    out = _out_dir(cfg, out_override)
    model, geometry, dt, t_end = _read_run(cfg, "dt", "t_end")
    snapshots = _read(cfg["run"], "snapshots", _whole, 11, "a whole number")
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

    out.mkdir(parents=True, exist_ok=True)
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
    from .integrate import trapezoid_weights
    w = trapezoid_weights(traj.mesh)
    initial, final = (float(w @ traj.tube_contents(k)) for k in (0, -1))
    change = (final - initial) / initial if initial != 0.0 else None
    return {"initial": initial, "final": final, "relative_change": change}


def cmd_compare(cfg: dict, out_override: str | None, force: bool) -> int:
    from .verify import model_errors
    out = _out_dir(cfg, out_override)
    base, geometry, dt, t_end = _read_run(cfg, "dt", "t_end")
    if geometry.channel is None:
        raise ConfigError(f"compare needs {_CHANNEL_GEOMETRY}")
    names = (cfg.get("compare") or {}).get("models")
    if not isinstance(names, list) or not names:
        raise ConfigError("'compare' section needs a nonempty 'models' list")
    try:
        specs = [ModelSpec.from_name(name, d0=base.d0, epsilon=base.epsilon)
                 for name in names]
    except ValueError as exc:
        raise ConfigError(f"'compare' section: {exc}") from None
    errors = model_errors(geometry.channel, specs, mesh=geometry.mesh,
                          dt=dt, t_end=t_end, force=force)

    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "errors.csv"
    with open(csv_path, "w") as fh:
        fh.write("model,l1\n")
        for name in names:
            fh.write(f"{name},{errors[name]!r}\n")
    print(f"wrote {csv_path}")
    return 0


def cmd_convergence(cfg: dict, out_override: str | None, force: bool) -> int:
    from .verify import channel_convergence, fitted_slope, tree_convergence
    out = _out_dir(cfg, out_override)
    model, geometry, dt, t_end = _read_run(cfg, "dt", "t_end")
    conv = cfg.get("convergence") or {}
    if geometry.channel is not None:
        ns = conv.get("ns")
        if not isinstance(ns, list) or len(ns) < 3:
            raise ConfigError("channel convergence needs an 'ns' list "
                              "of at least 3 node counts")
        ns = _read(conv, "ns", _ints, what="a list of node counts")
        for n in ns:
            if n < 3:
                raise ConfigError(f"'ns' entries must be at least 3, got {n}")
        for coarse, fine in zip(ns, ns[1:]):
            if fine <= coarse:
                raise ConfigError(f"'ns' entries must increase, got {fine} after {coarse}")
        result = channel_convergence(
            geometry.channel, model, ns=list(ns),
            dt=dt, t_end=t_end, force=force,
        )
    else:
        levels = _read(conv, "levels", _whole, 0, "a whole number")
        if levels < 3:
            raise ConfigError("tree convergence needs 'levels' of at least 3")
        meshes = [geometry.mesh, *map(geometry.refined, range(1, levels + 1))]
        result = tree_convergence(
            meshes, model, dt=dt, t_end=t_end, force=force,
            initial=lambda mesh: build_initial(cfg, Geometry(mesh, None)),
        )

    out.mkdir(parents=True, exist_ok=True)
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
    model, geometry, dt = _read_run(cfg, "dt")
    report = check_model(geometry.mesh, assemble_model(geometry.mesh, model), dt)
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
    # what is left at exit is frozen, so the interpreter's last collection does
    # not sweep it all (about 15 ms a process); registered once however often
    # main runs
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
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
    except StabilityError as exc:  # the CLI's switch is --force, not force=True
        print(f"error: {str(exc).replace('force=True', '--force')}", file=sys.stderr)
        print(exc.report.as_table(), file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
