"""Record the exact-solution error of every model on every channel a
seed can draw, at the channel-march step count.

    PYTHONPATH=src python3 perfbench/record_errors.py

rewrites ``perfbench/reference_errors.json``.  The benchmark's
correctness check compares each run's ``errors.csv`` against it, so
rerun this only when the workload itself changes, never to make a
changed program pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from checks import REFERENCE_FILE, read_errors, reference_key  # noqa: E402
from tubediff.cli import main as cli_main  # noqa: E402


def record() -> dict:
    errors = {}
    work = HERE.parent / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for kind, value in workloads.channel_grid():
            cfg, _ = workloads.channel_config(kind, value)
            path = Path(tmp) / "compare.yaml"
            path.write_text(workloads.dump(cfg))
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli_main(["compare", "--config", str(path), "--out", tmp])
            if rc != 0:
                raise SystemExit(f"compare failed on {kind} {value}")
            key = reference_key(kind, value)
            errors[key] = read_errors(Path(tmp))
            print(key, max(errors[key].values()))
    return {"steps": workloads.CHANNEL_STEPS, "nodes": workloads.CHANNEL_NODES,
            "errors": errors}


if __name__ == "__main__":
    REFERENCE_FILE.write_text(json.dumps(record(), indent=1) + "\n")
