#!/usr/bin/env python3
"""Peak resident memory of the ``tree-setup`` CLI processes, per checkout.

    python3 scripts/process_peaks.py DIR_A DIR_B [DIR_C] [--layouts 30] [--seed 3]

DIR_A, DIR_B (and DIR_C) are checkouts of this repository.  The
``tree-setup`` benchmark config of ``--seed`` (``tree_setup`` of DIR_A's
``perfbench/workloads.py``) is written into ``--layouts`` temporary
directories whose names differ in length, so that each layout gives the
processes a different argument and path length.  In every layout
``stability-check`` and then ``simulate`` run once per checkout, the
checkouts in turn, first to last in even layouts and last to first in
odd ones, each command a fresh process the way the benchmark starts it:
``python -c`` with the checkout's ``src`` on ``PYTHONPATH``, working in
the checkout.  Each checkout imports its package once before the
layouts, as the benchmark does, so that the measured processes find
compiled bytecode (unless ``PYTHONDONTWRITEBYTECODE`` is set).

Each process is reaped with ``os.wait4`` and its ``ru_maxrss`` read:
the peak of that process alone.  This script imports the standard
library only and stays far below a CLI process's peak, which a forked
child can inherit from its parent.  Per command and checkout it prints
the median and the maximum peak over the layouts and, for DIR_B and
DIR_C, in how many layouts the peak was higher than DIR_A's in the same
layout.  Exit code 0 when every process succeeded.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("stability-check", "simulate")
CLI_ENTRY = "import sys; from tubediff.cli import main; sys.exit(main())"
CONFIG = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
          "sys.stdout.write(workloads.dump(workloads.tree_setup(int(sys.argv[2]))"
          ".configs['tree.yaml']))")


def peak_mb(checkout: Path, argv: list[str]) -> float:
    """Run ``argv`` in ``checkout`` with its ``src`` first on the path and
    return the process's peak resident memory in MB."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.Popen(argv, cwd=checkout, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    stderr = proc.stderr.read()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {argv[3:]} exited {proc.returncode}: "
                           f"{stderr.decode()[-300:]}")
    return usage.ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", type=Path, nargs="+")
    parser.add_argument("--layouts", type=int, default=30)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    checkouts = [c.resolve() for c in args.checkouts]
    if not 2 <= len(set(checkouts)) == len(checkouts) <= 3:
        parser.error("give two or three distinct checkouts")
    if args.layouts < 1:
        parser.error("--layouts must be at least 1")

    config = subprocess.run([sys.executable, "-c", CONFIG, str(checkouts[0] / "perfbench"),
                             str(args.seed)], capture_output=True, text=True,
                            check=True).stdout
    for checkout in checkouts:  # compile each package once
        peak_mb(checkout, [sys.executable, "-c", "import tubediff.cli"])

    peaks = {(c, cmd): [] for c in checkouts for cmd in COMMANDS}
    with tempfile.TemporaryDirectory() as work:
        for i in range(args.layouts):
            layout = Path(work, "x" * (i + 1))
            layout.mkdir()
            (layout / "tree.yaml").write_text(config)
            for checkout in checkouts if i % 2 == 0 else checkouts[::-1]:
                for command in COMMANDS:
                    out = layout / f"out-{command}"
                    peaks[checkout, command].append(peak_mb(checkout, [
                        sys.executable, "-c", CLI_ENTRY, command,
                        "--config", str(layout / "tree.yaml"), "--out", str(out)]))
                    shutil.rmtree(out, ignore_errors=True)
            shutil.rmtree(layout)

    n = args.layouts
    print(f"tree-setup seed {args.seed}, {n} layouts; peak resident memory per process, MB")
    print(f"{'command':<16} {'median':>8} {'max':>8} {'higher':>8}  checkout")
    for command in COMMANDS:
        base = peaks[checkouts[0], command]
        for checkout in checkouts:
            own = peaks[checkout, command]
            higher = (f"{sum(a > b for a, b in zip(own, base))}/{n}"
                      if checkout != checkouts[0] else "-")
            print(f"{command:<16} {statistics.median(own):8.3f} {max(own):8.3f} "
                  f"{higher:>8}  {checkout}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
