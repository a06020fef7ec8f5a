#!/usr/bin/env python3
"""Peak memory and time of a large-tree ``simulate``, phase by phase.

    python3 scripts/phase_memory.py CHECKOUT [--levels 7 10 12] [--steps 40]

For each level, a fresh process puts ``CHECKOUT/src`` first on its path
and runs the phases of ``tubediff simulate`` in-process on
``constricted_tree(level)`` with the ``expanded-flux`` model, the way
the CLI does (through ``tubediff.cli``'s own builders):

- ``import``: ``tubediff.cli`` and what it imports;
- ``build``: the model and the tree;
- ``run_models``: assembly, stability screen and ``--steps`` forward-Euler
  steps, at 4e-7 / 4**(level - 7), a third of the screened limit or
  less (the level-7 step of the ``tree-setup`` benchmark);
- ``to_csv``: five snapshots into a temporary directory;
- ``hash``: the geometry fingerprint the manifest records.

After each phase it reads ``ru_maxrss`` (the peak resident memory of the
process so far) and the wall time the phase took.  The result is one
JSON object on stdout: per level, the node count, the step, and per
phase ``rss_mb`` and ``s``.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child(level: int, steps: int) -> dict:
    phases = {}
    t0 = time.perf_counter()

    def done(name: str) -> None:
        nonlocal t0
        now = time.perf_counter()
        phases[name] = {"rss_mb": round(rss_mb(), 2), "s": round(now - t0, 4)}
        t0 = time.perf_counter()

    import tubediff.cli as cli
    from tubediff.integrate import run_models
    done("import")

    dt = 4.0e-7 / 4 ** (level - 7)
    cfg = {"run": {"model": "expanded-flux", "dt": dt, "t_end": steps * dt, "snapshots": 5},
           "geometry": {"kind": "constricted-tree", "levels": level},
           "initial": {"kind": "arc-bump", "center": 1.6, "width": 0.4, "baseline": 0.2}}
    t0 = time.perf_counter()
    model = cli.build_model(cfg)
    geometry = cli.build_geometry(cfg, model)
    done("build")
    traj = run_models(geometry.mesh, (model,), dt=dt, t_end=steps * dt,
                      initial=cli.build_initial(cfg, geometry), n_snapshots=5)[0]
    done("run_models")
    with tempfile.TemporaryDirectory() as out:
        traj.to_csv(Path(out) / "trajectory.csv")
        done("to_csv")
    cli._fingerprint(geometry.mesh)
    done("hash")
    return {"nodes": geometry.mesh.n_nodes, "dt": dt, "phases": phases}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--levels", type=int, nargs="+", default=[7, 10, 12])
    parser.add_argument("--steps", type=int, default=40)
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    src = str(args.checkout.resolve() / "src")
    if args.child is not None:
        sys.path.insert(0, src)
        print(json.dumps(child(args.child, args.steps)))
        return 0
    result = {}
    for level in args.levels:
        done = subprocess.run([sys.executable, __file__, str(args.checkout), "--child",
                               str(level), "--steps", str(args.steps)],
                              capture_output=True, text=True, check=True)
        result[str(level)] = json.loads(done.stdout.splitlines()[-1])
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
