"""Self-test of the benchmark's workload generator.

    PYTHONPATH=src python3 perfbench/selftest.py

checks that

* the same seed gives byte-identical configs;
* different seeds give the same invocations, node counts and step
  counts, so every seed does the same amount of work;
* every generated config passes the CLI's own validation (the config
  builders of ``tubediff.cli``) and its stability screen with ``dt`` at
  or below ``checks.DT_SHARE_MAX`` of ``dt_max``, for every model a
  compare config names;
* every channel a seed can draw has a recorded reference error.

Exit code 0 when every check passes.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tubediff import cli  # noqa: E402
from tubediff.models import MODEL_NAMES, ModelSpec  # noqa: E402
from tubediff.stability import check_model  # noqa: E402

SEEDS = (0, 1, 2, 12345)


def texts(wl) -> dict[str, str]:
    return {name: workloads.dump(cfg) for name, cfg in wl.configs.items()}


def shape(wl) -> tuple:
    return tuple((i.command, i.config, i.nodes, i.steps) for i in wl.invocations)


def validate(cfg: dict) -> list[str]:
    """Build every part of the config as the CLI does; screen each model."""
    fails = []
    model = cli.build_model(cfg)
    geometry = cli.build_geometry(cfg, model)
    cli.build_initial(cfg, geometry)
    cli.build_boundary(cfg, geometry)
    cli.build_lateral(cfg)
    cli.build_policy(cfg)
    run = cfg["run"]
    dt = cli._positive(run, "dt")
    cli._positive(run, "t_end")
    names = cfg.get("compare", {}).get("models", [run["model"]])
    for name in names:
        report = check_model(geometry.mesh, geometry.profile,
                             ModelSpec(MODEL_NAMES[name]), dt)
        if not (report.passed and dt <= checks.DT_SHARE_MAX * report.dt_max):
            fails.append(f"{name}: dt={dt} vs dt_max={report.dt_max}")
    return fails


def main() -> int:
    fails = []
    for name, make in workloads.WORKLOADS.items():
        for setup in (False, True):
            label = f"{name}{' (set-up)' if setup else ''}"
            base = make(SEEDS[0], setup)
            if texts(base) != texts(make(SEEDS[0], setup)):
                fails.append(f"{label}: same seed, different configs")
            others = [make(s, setup) for s in SEEDS[1:]]
            if any(shape(o) != shape(base) for o in others):
                fails.append(f"{label}: work depends on the seed")
            if all(texts(o) == texts(base) for o in others):
                fails.append(f"{label}: the seed changes nothing")
            for seed in SEEDS[:2]:
                wl = make(seed, setup)
                for fname, cfg in wl.configs.items():
                    fails += [f"{label} seed {seed} {fname}: {f}" for f in validate(cfg)]
                    geometry = cli.build_geometry(cfg, cli.build_model(cfg))
                    nodes = {i.nodes for i in wl.invocations if i.config == fname}
                    if nodes != {geometry.mesh.n_nodes}:
                        fails.append(f"{label} {fname}: {nodes} vs "
                                     f"{geometry.mesh.n_nodes} nodes")
            print(f"checked {label}", flush=True)
    recorded = checks.reference()["errors"]
    missing = [checks.reference_key(k, v) for k, v in workloads.channel_grid()
               if checks.reference_key(k, v) not in recorded]
    if missing:
        fails.append(f"no reference error for {missing}")
    for f in fails:
        print("FAIL", f)
    print("selftest", "failed" if fails else "passed")
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
