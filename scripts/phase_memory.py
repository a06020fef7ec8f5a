#!/usr/bin/env python3
"""Peak memory and time of a large-tree ``simulate``, phase by phase.

    python3 scripts/phase_memory.py CHECKOUT [--levels 7 10 12] [--steps 40]

For each level, fresh processes put ``CHECKOUT/src`` first on their path
and run the phases of ``tubediff simulate`` in-process on
``constricted_tree(level)`` with the ``expanded-flux`` model, the way
the CLI does (through ``tubediff.cli``'s own builders):

- ``import``: ``tubediff.cli`` and what it imports;
- ``build``: the model and the tree;
- ``assemble``: the model's operator (``assemble_model``);
- ``screen``: the stability screen of that operator (``check_model``),
  which is then dropped;
- ``march``: ``run_models``, which assembles and screens its own
  operator from the parts the ``assemble`` phase built, frees those
  parts before it builds its march plan, and takes ``--steps``
  forward-Euler steps at 4e-7 / 4**(level - 7), a third of the
  screened limit or less (the level-7 step of the ``tree-setup``
  benchmark);
- ``to_csv``: five snapshots into a temporary directory;
- ``hash``: the geometry digest the manifest records (``network.digest``).

Between ``import`` and ``build`` the child calls ``tubediff.cli.main``
with no arguments (it prints its usage, discarded), so that the process
ends the way a CLI process ends, with whatever ``main`` sets up for its
exit.

One process reads ``ru_maxrss`` (the peak resident memory of the process
so far) and the wall time after each phase.  A second runs the same
phases under one ``tracemalloc`` trace and reads, per phase, its traced
peak over its entry and what it leaves allocated (traced memory at its
end minus at its entry; negative when it frees more than it keeps), in
bytes per non-zero of the operator (and the peak of ``build`` also per
node, the unit of the mesh bounds in ``tests/test_network.py``); its
trace would inflate the first process's ``ru_maxrss``.  The result is
one JSON object on stdout: per level, the node count, the step, the
operator's non-zeros, and per phase ``rss_mb``, ``s``,
``peak_b_per_nnz`` and ``kept_b_per_nnz``, and ``peak_b_per_node`` for
``build``; and ``exit_s``, the time from the end of the first process's
last phase to its reaping by the parent (``time.monotonic``, one clock
for every process on Linux): its output, then its interpreter's exit.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child(level: int, steps: int, traced: bool) -> dict:
    phases = {}
    if traced:
        tracemalloc.start()  # one trace, so a phase's frees of earlier blocks show

    def phase(name: str, run):
        """``run()``, recording its time and ``ru_maxrss``, or its traced
        peak and what it leaves allocated, both over its entry."""
        if traced:
            tracemalloc.reset_peak()
            entry = tracemalloc.get_traced_memory()[0]
        t0 = time.perf_counter()
        result = run()
        s = time.perf_counter() - t0
        if traced:
            current, peak = tracemalloc.get_traced_memory()
            phases[name] = (peak - entry, current - entry)
        else:
            phases[name] = {"rss_mb": round(rss_mb(), 2), "s": round(s, 4)}
        return result

    cli = phase("import", lambda: importlib.import_module("tubediff.cli"))
    with contextlib.redirect_stderr(io.StringIO()):
        cli.main([])
    from tubediff.discretize import assemble_model
    from tubediff.integrate import run_models
    from tubediff.network import digest
    from tubediff.stability import check_model

    dt = 4.0e-7 / 4 ** (level - 7)
    cfg = {"run": {"model": "expanded-flux", "dt": dt, "t_end": steps * dt, "snapshots": 5},
           "geometry": {"kind": "constricted-tree", "levels": level},
           "initial": {"kind": "arc-bump", "center": 1.6, "width": 0.4, "baseline": 0.2}}

    def build():
        model = cli.build_model(cfg)
        return model, cli.build_geometry(cfg, model)

    model, geometry = phase("build", build)
    mesh = geometry.mesh
    op = phase("assemble", lambda: assemble_model(mesh, model))
    nnz = op.matrix.nnz
    phase("screen", lambda: check_model(mesh, op, dt))
    del op
    traj = phase("march", lambda: run_models(
        mesh, (model,), dt=dt, t_end=steps * dt, initial=cli.build_initial(cfg, geometry),
        n_snapshots=5)[0])
    with tempfile.TemporaryDirectory() as out:
        phase("to_csv", lambda: traj.to_csv(Path(out) / "trajectory.csv"))
    phase("hash", lambda: digest(mesh))
    ended = time.monotonic()
    if traced:
        per_node = round(phases["build"][0] / mesh.n_nodes, 1)
        phases = {name: {"peak_b_per_nnz": round(peak / nnz, 1),
                         "kept_b_per_nnz": round(kept / nnz, 1)}
                  for name, (peak, kept) in phases.items()}
        phases["build"]["peak_b_per_node"] = per_node
    return {"nodes": mesh.n_nodes, "dt": dt, "nnz": nnz, "phases": phases, "ended": ended}


def run_child(checkout: Path, level: int, steps: int, traced: bool) -> dict:
    done = subprocess.run([sys.executable, __file__, str(checkout), "--child", str(level),
                           "--steps", str(steps)] + ["--traced"] * traced,
                          capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    result["exit_s"] = round(time.monotonic() - result.pop("ended"), 4)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--levels", type=int, nargs="+", default=[7, 10, 12])
    parser.add_argument("--steps", type=int, default=40)
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        sys.path.insert(0, str(args.checkout.resolve() / "src"))
        print(json.dumps(child(args.child, args.steps, args.traced)))
        return 0
    result = {}
    for level in args.levels:
        level_result = run_child(args.checkout, level, args.steps, traced=False)
        peaks = run_child(args.checkout, level, args.steps, traced=True)["phases"]
        for name, peak in peaks.items():
            level_result["phases"][name].update(peak)
        result[str(level)] = level_result
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
