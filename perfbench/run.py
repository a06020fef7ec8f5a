"""Layered benchmark of the tubediff command line.

    python3 perfbench/run.py --workload channel-march --seed 1 --seconds 30 --trace 0

runs the shipped CLI (``tubediff.cli.main`` from ``src/``), one fresh
process per invocation and one at a time (a closed loop with a single
client), over configs generated from the seed (see ``workloads.py``).
Every invocation's artifacts are checked (see ``checks.py``).

``--trace 0`` alternates set-up repetitions (every march cut to one
step per snapshot interval) with full repetitions until ``--seconds``
have passed, at least ``MIN_REPS`` of each, and reports medians:

* ``wall_s``       wall time of one full repetition
* ``setup_s``      wall time of one set-up repetition
* ``peak_rss_mb``  largest ``ru_maxrss`` of any CLI process (``os.wait4``)

and, on stdout lines before the result, ``node_steps_per_s`` (node-steps
over ``wall_s - setup_s``, on the march workloads), ``failed_frac`` and
``err_l1`` (largest relative L1 error against the exact field, on
``channel-march``).  Both times are scaled to a reference machine speed
by the probes that bracket each repetition (see ``probe``); the raw
samples are printed too.

``--trace 1`` runs one repetition with tracemalloc around
``check_model`` (its timings are discarded), then alternates untraced
and traced repetitions (``tracer.py`` wraps each module's public
functions) and reports the per-layer metrics of ``analysis.py`` plus
``trace.overhead_frac``, traced over untraced median wall time minus one.

``--workload all`` runs every workload with ``--trace 0`` and prints one
table of every end-to-end metric.

The last stdout line is the JSON result.  Exit code 0 when the result
was printed, 2 when the program could not be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import analysis  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3
PROBE_LOOP = 400_000
PROBE_NODES = 250
PROBE_STEPS = 15_000
PROBE_REF_S = 0.2         # probe time at the reference speed
TRACE_MIN_PAIRS = 2
INVOCATION_TIMEOUT_S = 120.0
CLI_ENTRY = "import sys; from tubediff.cli import main; sys.exit(main())"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
REPORTED = {**END_TO_END, "node_steps_per_s": "1/s", "failed_frac": "ratio",
            "err_l1": "ratio", "bench_peak_rss_mb": "MB"}


class BenchError(Exception):
    """The program cannot be run here (missing source, broken import)."""


@dataclass
class Launch:
    rc: int
    wall_s: float
    maxrss_mb: float
    stdout: str


def launch(argv: list[str], log: Path) -> Launch:
    """Run one process to completion, closed loop, and reap it with wait4."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(proc.returncode, wall, usage.ru_maxrss / 1024.0, log.read_text())


@dataclass
class Tally:
    """Invocations attempted and failed, with the first few messages."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    err_l1: float = 0.0

    def record(self, fails: list[str]) -> None:
        self.attempted += 1
        if fails:
            self.failed += 1
            self.messages.extend(f for f in fails if f not in self.messages)


def run_rep(wl, wdir: Path, tag: str, tally: Tally, *, full: bool,
            spans: bool = False, alloc: bool = False) -> tuple[float, list]:
    """One repetition: each invocation of the workload once, in order.

    Returns the summed wall time and, when traced, the span files.
    """
    wall, traced = 0.0, []
    for inv in wl.invocations:
        out = wdir / f"{tag}-{inv.name}"
        cli_args = [inv.command, "--config", str(wdir / inv.config), "--out", str(out)]
        if spans:
            span_file = wdir / f"{tag}-{inv.name}.npz"
            argv = [sys.executable, str(HERE / "tracer.py"), "--spans", str(span_file),
                    "--invocation", inv.name] + (["--alloc"] if alloc else []) + ["--"]
        else:
            argv = [sys.executable, "-c", CLI_ENTRY]
        res = launch(argv + cli_args, wdir / f"{tag}-{inv.name}.log")
        wall += res.wall_s
        tally.peak_rss_mb = max(tally.peak_rss_mb, res.maxrss_mb)
        if res.rc != 0:
            tally.record([f"{tag} {inv.name}: exit {res.rc}: {res.stdout[-300:]!r}"])
            continue
        fails, err = checks.check(wl, inv, out, res.stdout, full)
        tally.record(fails)
        if err is not None and full:
            tally.err_l1 = max(tally.err_l1, err)
        if spans and not fails:
            traced.append(analysis.Spans(span_file))
        shutil.rmtree(out, ignore_errors=True)
    return wall, traced


def warm_up(wdir: Path) -> None:
    """Import the package once, so timed runs find compiled bytecode."""
    res = launch([sys.executable, "-c", "import tubediff.cli"], wdir / "warmup.log")
    if res.rc != 0:
        raise BenchError(f"cannot import tubediff from {SRC}:\n{res.stdout}")


def probe() -> float:
    """Seconds for a fixed slice of work shaped like the CLI's: a
    pure-Python loop, then a forward-Euler march of small numpy updates
    on a 250-node chain.  It imports nothing beyond numpy: CLI processes
    inherit this process's peak RSS through fork.

    The machine's speed drifts by tens of percent over seconds (other
    tenants share its cores), so each repetition's wall time is scaled
    by ``PROBE_REF_S`` over the mean probe time measured just before and
    just after it.  The probe runs in this process, never beside a CLI
    process, and depends on no tubediff code.
    """
    c = np.linspace(0.0, 1.0, PROBE_NODES)
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i % 7
    for _ in range(PROBE_STEPS):
        rate = -2.0 * c
        rate[1:] += c[:-1]
        rate[:-1] += c[1:]
        c = c + 1e-4 * rate
        if not np.isfinite(c).all():
            raise RuntimeError("probe state became non-finite")
    return time.perf_counter() - t0


class Bracketed:
    """Repetitions, each timed between two speed probes."""

    def __init__(self):
        self.last_probe = probe()
        self.raw: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        self.probes = [self.last_probe]

    def add(self, key: str, wall: float) -> None:
        after = probe()
        speed = PROBE_REF_S / (0.5 * (self.last_probe + after))
        self.raw.setdefault(key, []).append(wall)
        self.scaled.setdefault(key, []).append(wall * speed)
        self.probes.append(after)
        self.last_probe = after

    def median(self, key: str) -> float:
        return statistics.median(self.scaled[key])

    def samples(self) -> dict:
        return {"raw": self.raw, "scaled": self.scaled, "probe_s": self.probes}


def measure(name: str, seed: int, seconds: float, wdir: Path) -> tuple[dict, Tally, dict]:
    """Untraced run: alternate set-up and full repetitions."""
    full_wl = workloads.WORKLOADS[name](seed)
    setup_wl = workloads.WORKLOADS[name](seed, setup=True)
    full_wl.write(wdir / "full")
    setup_wl.write(wdir / "setup")
    tally = Tally()
    reps = Bracketed()
    t0 = time.perf_counter()
    k = 0
    while k < MIN_REPS or time.perf_counter() - t0 < seconds:
        reps.add("setup_s", run_rep(setup_wl, wdir / "setup", f"s{k}", tally, full=False)[0])
        reps.add("wall_s", run_rep(full_wl, wdir / "full", f"f{k}", tally, full=True)[0])
        k += 1
    wall, setup = reps.median("wall_s"), reps.median("setup_s")
    extra = {
        "node_steps_per_s": (full_wl.node_steps - setup_wl.node_steps) / (wall - setup)
        if name != "tree-setup" else None,
        "failed_frac": tally.failed / tally.attempted,
        "err_l1": tally.err_l1 if name == "channel-march" else None,
        "repetitions": k,
        "samples": reps.samples(),
        # children inherit this process's peak RSS through fork, so it
        # must stay below theirs for peak_rss_mb to mean anything
        "bench_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {"wall_s": wall, "setup_s": setup, "peak_rss_mb": tally.peak_rss_mb}, tally, extra


def measure_traced(name: str, seed: int, seconds: float, wdir: Path) -> tuple[dict, Tally, dict]:
    """Traced run: one allocation-tracking repetition, then untraced and
    traced repetitions in alternation."""
    wl = workloads.WORKLOADS[name](seed)
    wl.write(wdir)
    tally = Tally()
    t0 = time.perf_counter()
    _, alloc_rep = run_rep(wl, wdir, "a", tally, full=True, spans=True, alloc=True)
    walls, reps = Bracketed(), []
    k = 0
    while k < TRACE_MIN_PAIRS or time.perf_counter() - t0 < seconds:
        walls.add("untraced", run_rep(wl, wdir, f"u{k}", tally, full=True)[0])
        wall, rep = run_rep(wl, wdir, f"t{k}", tally, full=True, spans=True)
        walls.add("traced", wall)
        if len(rep) == len(wl.invocations):
            reps.append(rep)
        k += 1
    metrics = analysis.layer_metrics(reps, alloc_rep) if reps else {}
    metrics["trace.overhead_frac"] = walls.median("traced") / walls.median("untraced") - 1
    extra = {"baselines": analysis.baselines(reps[0]) if reps else {},
             "repetitions": k, "samples": walls.samples()}
    return metrics, tally, extra


PER_LAYER_UNITS = {"_us": "us", "_s": "s", "_mb": "MB", "_bytes": "B",
                   "_frac": "ratio"}


def unit_of(metric: str) -> str:
    if metric == "discretize.matvec_bytes":
        return "B_computed"
    for suffix, unit in PER_LAYER_UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "python": platform.python_version()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    facts["caches"] = caches
    for package in ("numpy", "scipy", "PyYAML"):
        try:
            facts[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            facts[package] = None
    facts["git_commit"] = None
    if (ROOT / ".git").exists():
        try:
            facts["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return facts


def result_line(tally: Tally, metrics: dict, units) -> str:
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units(k)} for k, v in metrics.items()},
    })


def summary(seed: int, seconds: float, wdir: Path) -> None:
    """Every end-to-end metric of every workload, as one table."""
    total, rows = Tally(), {}
    for name in workloads.WORKLOADS:
        wdir_wl = wdir / name
        metrics, tally, extra = measure(name, seed, seconds, wdir_wl)
        rows[name] = {**metrics, **{k: extra[k] for k in REPORTED if k in extra}}
        total.attempted += tally.attempted
        total.failed += tally.failed
        total.messages += tally.messages
    print(f"{'metric':<18}{'unit':<7}" + "".join(f"{n:>16}" for n in rows))
    for metric, unit in REPORTED.items():
        cells = "".join(
            f"{'n/a':>16}" if rows[n][metric] is None else f"{rows[n][metric]:>16.6g}"
            for n in rows)
        print(f"{metric:<18}{unit:<7}{cells}")
    for msg in total.messages[:10]:
        print("failure:", msg)
    flat = {f"{n}.{k}": v for n, row in rows.items() for k, v in row.items()
            if k in END_TO_END}
    print(result_line(total, flat, lambda k: END_TO_END[k.split(".", 1)[1]]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Layered tubediff CLI benchmark.")
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tubediff" / "cli.py").is_file():
        print(f"error: no tubediff sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    wdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        warm_up(wdir)
        print("machine:", json.dumps(machine_facts()))
        if args.workload == "all":
            summary(args.seed, args.seconds, wdir)
            return 0
        if args.trace:
            metrics, tally, extra = measure_traced(
                args.workload, args.seed, args.seconds, wdir)
            print("baselines:", json.dumps(extra["baselines"]))
            units = unit_of
        else:
            metrics, tally, extra = measure(args.workload, args.seed, args.seconds, wdir)
            print("reported:", json.dumps(
                {k: extra[k] for k in REPORTED if k in extra}))
            units = END_TO_END.get
        print("repetitions:", extra["repetitions"])
        if "samples" in extra:
            print("samples:", json.dumps(extra["samples"]))
        for msg in tally.messages[:10]:
            print("failure:", msg)
        print(result_line(tally, metrics, units))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(wdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
