#!/usr/bin/env python3
"""Run every shipped config under two checkouts and compare the artifacts.

    python3 scripts/compare_outputs.py DIR_A DIR_B [--work WORK] [--rtol R] [--grid]

DIR_A and DIR_B are checkouts of this repository, for example the
working tree and a ``git worktree`` (or ``git archive``) of its parent.
Every ``configs/*.yaml`` of DIR_A is run through ``tubediff.cli.main``
once with each checkout's ``src``, in a fresh process, writing into
``WORK/a/<config>`` and ``WORK/b/<config>``.  A config with a
``compare`` or ``convergence`` section runs that command; any other
runs ``simulate`` and ``stability-check``.

For every CSV artifact the report says whether the bytes are identical
and gives the largest relative difference per numeric column.  Of
``manifest.yaml`` everything but the timestamp (``written``) and the
timing (``step_time_s``) is compared.  Exit codes and console output
(with the output directory masked) are compared too; a manifest key
that only one checkout writes is named as ``only in a`` or ``only in
b``.  Each run's header line also gives the peak resident memory of
its process under both checkouts (``ru_maxrss`` from ``os.wait4``),
and the report ends with, per command, the median peak of each
checkout and in how many runs DIR_B's was lower (ties count for
neither); both are for information only.  The exit status is 0 when
everything matches byte for byte, 1 otherwise.

With ``--rtol R`` a numeric CSV cell or manifest value may also differ
by at most R relative (lines marked ``~``); exit codes and console
output must still match exactly, and so must every non-numeric value.

With ``--grid`` the report also covers every channel a ``channel-march``
benchmark seed can draw (``channel_grid()`` of DIR_A's
``perfbench/workloads.py``): each seven-model ``compare`` config is
written once into ``WORK/grid`` and run under both checkouts, and its
``errors.csv`` must match byte for byte, ``--rtol`` or not.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

CLI_ENTRY = "import sys; from tubediff.cli import main; sys.exit(main())"
VARYING_MANIFEST_KEYS = ("written", "step_time_s")


def commands(config: Path) -> list[str]:
    doc = yaml.safe_load(config.read_text())
    for command in ("compare", "convergence"):
        if command in doc:
            return [command]
    return ["simulate", "stability-check"]


def run_cli(checkout: Path, command: str, config: Path,
            out: Path) -> tuple[int, str, float]:
    """Exit code, console output (stdout, then stderr) and peak RSS in MB
    of one CLI process."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    with tempfile.TemporaryFile("w+") as stdout, tempfile.TemporaryFile("w+") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-c", CLI_ENTRY, command, "--config", str(config),
             "--out", str(out)],
            cwd=checkout, env=env, stdout=stdout, stderr=stderr, text=True,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
        stdout.seek(0)
        stderr.seek(0)
        text = stdout.read() + stderr.read()
    return proc.returncode, text.replace(str(out), "<out>"), usage.ru_maxrss / 1024.0


def column_differences(path_a: Path, path_b: Path) -> dict[str, float] | str:
    """Largest relative difference per numeric column, or why none exists."""
    with open(path_a, newline="") as fa, open(path_b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if rows_a[:1] != rows_b[:1] or len(rows_a) != len(rows_b):
        return "headers or row counts differ"
    worst: dict[str, float] = {}
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        for name, va, vb in zip(rows_a[0], row_a, row_b):
            try:
                a, b = float(va), float(vb)
            except ValueError:
                rel = 0.0 if va == vb else float("inf")
            else:
                scale = max(abs(a), abs(b))
                rel = abs(a - b) / scale if scale > 0.0 else 0.0
            worst[name] = max(worst.get(name, 0.0), rel)
    return worst


def value_difference(a, b) -> float:
    """Largest relative difference between two manifest values, inf where
    they differ in anything but numbers."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return float("inf")
        return max((value_difference(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return float("inf")
        return max((value_difference(x, y) for x, y in zip(a, b)), default=0.0)
    numbers = (int, float)
    if isinstance(a, numbers) and isinstance(b, numbers) and not isinstance(a, bool) \
            and not isinstance(b, bool):
        scale = max(abs(a), abs(b))
        return abs(a - b) / scale if scale > 0.0 else 0.0
    return 0.0 if a == b else float("inf")


def manifest_results(path: Path) -> dict:
    doc = yaml.safe_load(path.read_text())
    return {k: v for k, v in doc.items() if k not in VARYING_MANIFEST_KEYS}


def compare_run(out_a: Path, out_b: Path, rtol: float | None = None) -> list[str]:
    """Report lines for one pair of output directories; '!' marks a
    difference, '~' a numeric one within ``rtol``."""
    def mark(worst: float) -> str:
        return "~" if rtol is not None and worst <= rtol else "!"

    lines = []
    names = sorted({p.name for p in out_a.glob("*")} | {p.name for p in out_b.glob("*")})
    for name in names:
        a, b = out_a / name, out_b / name
        if not (a.exists() and b.exists()):
            lines.append(f"! {name}: written by one checkout only")
        elif name == "manifest.yaml":
            ra, rb = manifest_results(a), manifest_results(b)
            keys = sorted(k for k in set(ra) | set(rb) if ra.get(k) != rb.get(k))
            only = [f"only in {'a' if k in ra else 'b'}: {k}"
                    for k in keys if (k in ra) != (k in rb)]
            worst = {k: value_difference(ra[k], rb[k]) for k in keys if k in ra and k in rb}
            parts = only + (["differs in " + ", ".join(f"{k} {rel:.2e}"
                                                       for k, rel in worst.items())]
                            if worst else [])
            lines.append(f"{'!' if only else mark(max(worst.values()))} {name}: "
                         + "; ".join(parts) if keys else f"  {name}: results equal")
        elif a.read_bytes() == b.read_bytes():
            lines.append(f"  {name}: bytes identical")
        elif name.endswith(".csv"):
            worst = column_differences(a, b)
            if isinstance(worst, str):
                lines.append(f"! {name}: bytes differ; {worst}")
            else:
                detail = ", ".join(f"{col} {rel:.2e}" for col, rel in worst.items() if rel > 0.0)
                lines.append(f"{mark(max(worst.values()))} {name}: bytes differ; "
                             f"largest relative difference: {detail}")
        else:
            lines.append(f"! {name}: bytes differ")
    return lines


def grid_configs(checkout: Path, directory: Path) -> list[Path]:
    """Write the compare config of every benchmark grid channel, as
    ``perfbench/workloads.py`` of ``checkout`` builds it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", checkout / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for kind, value in workloads.channel_grid():
        path = directory / f"{kind}_{value!r}.yaml"
        path.write_text(workloads.dump(workloads.channel_config(kind, value)[0]))
        paths.append(path)
    return paths


def peak_summary(peaks: list[tuple[str, float, float]]) -> list[str]:
    """Per command, in order of first run: the median of the peaks (MB) of
    ``(command, a, b)`` rows and in how many rows b is lower than a."""
    lines = []
    for command in dict.fromkeys(row[0] for row in peaks):
        a, b = zip(*(row[1:] for row in peaks if row[0] == command))
        lower = sum(pb < pa for pa, pb in zip(a, b))
        lines.append(f"{command}: median peak RSS {statistics.median(a):.2f}/"
                     f"{statistics.median(b):.2f} MB, b lower in {lower}/{len(a)}")
    return lines


def compare_command(checkouts: dict, work: Path, label: str, command: str,
                    configs: dict, rtol: float | None, peaks: list) -> bool:
    """Run ``command`` on each checkout's config, print the report, add
    ``(command, peak a, peak b)`` to ``peaks`` and say whether everything
    matched."""
    results = {}
    for side, checkout in checkouts.items():
        out = work / side / f"{label}-{command}"
        out.mkdir(parents=True, exist_ok=True)
        results[side] = (run_cli(checkout, command, configs[side], out), out)
    (rc_a, text_a, rss_a), out_a = results["a"]
    (rc_b, text_b, rss_b), out_b = results["b"]
    print(f"{label} [{command}] exit {rc_a}/{rc_b}, peak RSS {rss_a:.2f}/{rss_b:.2f} MB")
    peaks.append((command, rss_a, rss_b))
    lines = compare_run(out_a, out_b, rtol)
    if rc_a != rc_b or text_a != text_b:
        lines.append("! exit code or console output differs")
    for line in lines:
        print(line)
    return not any(line.startswith("!") for line in lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    parser.add_argument("--work", type=Path, default=None,
                        help="where the outputs go (default: a temporary directory)")
    parser.add_argument("--rtol", type=float, default=None,
                        help="accept numeric CSV and manifest values within this "
                             "relative difference")
    parser.add_argument("--grid", action="store_true",
                        help="also compare the errors.csv of every benchmark grid channel")
    args = parser.parse_args(argv)
    checkouts = {"a": args.dir_a.resolve(), "b": args.dir_b.resolve()}
    work = args.work or Path(tempfile.mkdtemp(prefix="compare_outputs-"))
    print(f"outputs under {work}")

    same, peaks = True, []
    for config in sorted((checkouts["a"] / "configs").glob("*.yaml")):
        for command in commands(config):
            paths = {side: checkout / "configs" / config.name
                     for side, checkout in checkouts.items()}
            same &= compare_command(checkouts, work, config.stem, command, paths,
                                    args.rtol, peaks)
    if args.grid:
        for config in grid_configs(checkouts["a"], work / "grid"):
            same &= compare_command(checkouts, work, config.stem, "compare",
                                    {"a": config, "b": config}, None, peaks)
    print(("all artifacts identical" if args.rtol is None
           else f"all artifacts identical or within rtol {args.rtol:g}")
          if same else "differences found")
    for line in peak_summary(peaks):
        print(line)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
