"""Turn the span files of traced repetitions into per-layer metrics.

A span's self time is its duration minus the durations of its direct
children; spans nest strictly because each CLI process is single
threaded.  A module's self time sums the self times of every span whose
name starts with that module.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

import numpy as np

MODULES = ("cli", "integrate", "verify", "discretize", "stability", "network",
           "geometry", "models")


class Spans:
    """One traced invocation: spans, counters and tags."""

    def __init__(self, path):
        with np.load(path) as z:
            self.name_of = z["name_of"]
            self.parent = z["parent"]
            self.dur = z["end"] - z["start"]
            meta = json.loads(str(z["meta"]))
        self.invocation = meta["invocation"]
        self.names = meta["names"]
        self.tags = {int(k): v for k, v in meta["tags"].items()}
        self.counters = meta["counters"]
        has_parent = self.parent >= 0
        children = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                               minlength=len(self.dur))
        self.self_time = self.dur - children

    def _by_name(self, values) -> dict[str, float]:
        sums = np.bincount(self.name_of, weights=values, minlength=len(self.names))
        return dict(zip(self.names, sums.tolist()))

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: summed duration, summed self time, call count."""
        counts = np.bincount(self.name_of, minlength=len(self.names))
        return (self._by_name(self.dur), self._by_name(self.self_time),
                dict(zip(self.names, counts.tolist())))

    def children_of(self, idx: int, name: str) -> np.ndarray:
        nid = self.names.index(name) if name in self.names else -1
        return np.flatnonzero((self.parent == idx) & (self.name_of == nid))


def rep_totals(spans: list[Spans]) -> dict[str, float]:
    """Sum one repetition's invocations into flat per-name totals."""
    out: dict[str, float] = defaultdict(float)
    for sp in spans:
        dur, self_time, count = sp.totals()
        for name in dur:
            out[f"{name}.dur"] += dur[name]
            out[f"{name}.self"] += self_time[name]
            out[f"{name}.calls"] += count[name]
            out[f"{name.split('.')[0]}.self_s"] += self_time[name]
        for key, value in sp.counters.items():
            if key.endswith("peak_alloc_bytes"):
                out[key] = max(out[key], value)
            else:
                out[key] += value
    return out


def layer_metrics(reps: list[list[Spans]], alloc_rep: list[Spans] | None) -> dict[str, float]:
    """Per-layer metrics: per-repetition values are medians over the
    traced repetitions; per-call times pool every call of every one."""
    totals = [rep_totals(rep) for rep in reps]

    def per_rep(key: str) -> float:
        return statistics.median(t.get(key, 0.0) for t in totals)

    def per_call_us(name: str, part: str = "dur") -> float:
        calls = sum(t.get(f"{name}.calls", 0.0) for t in totals)
        time_s = sum(t.get(f"{name}.{part}", 0.0) for t in totals)
        return 1e6 * time_s / calls if calls else 0.0

    m = {
        "integrate.step_us": per_call_us("integrate.step"),
        "integrate.step_self_us": per_call_us("integrate.step", "self"),
        "integrate.steps": per_rep("integrate.step.calls"),
        "integrate.boundary_us": per_call_us("integrate.boundary"),
        "integrate.boundary_calls": per_rep("integrate.boundary.calls"),
        "integrate.policy_us": per_call_us("integrate.policy"),
        "integrate.run_s": per_rep("integrate.run.dur"),
        "integrate.to_csv_s": per_rep("integrate.to_csv.dur"),
        "integrate.csv_bytes": per_rep("integrate.csv_bytes"),
        "verify.slope_us": per_call_us("verify.slope"),
        "verify.slope_calls": per_rep("verify.slope.calls"),
        "verify.final_error_s": per_rep("verify.final_error.dur"),
        "discretize.assemble_s": per_rep("discretize.assemble.dur"),
        "discretize.assemble_calls": per_rep("discretize.assemble_calls"),
        "discretize.lateral_operator_s": per_rep("discretize.lateral_operator.dur"),
        "discretize.apply_us": per_call_us("discretize.apply"),
        "discretize.lateral_values_us": per_call_us("discretize.lateral_values"),
        "discretize.nnz": per_rep("discretize.nnz"),
        "discretize.matvec_bytes": per_rep("discretize.matvec_bytes"),
        "stability.check_model_s": per_rep("stability.check_model.dur"),
        "stability.peak_alloc_mb": (
            rep_totals(alloc_rep).get("stability.peak_alloc_bytes", 0.0) / 2**20
            if alloc_rep else 0.0),
        "network.mesh_init_s": per_rep("network.mesh_init.dur"),
        "network.mesh_inits": per_rep("network.mesh_inits"),
        "network.refine_s": per_rep("network.refine.dur"),
        "network.format_mesh_s": per_rep("network.format_mesh.dur"),
        "geometry.tree_s": per_rep("geometry.tree.dur"),
        "models.coef_calls": per_rep("models.coef_calls"),
        "cli.main_s": per_rep("cli.main.dur"),
        "cli.import_s": per_rep("cli.import_s"),
    }
    for module in MODULES:
        m[f"{module}.self_s"] = per_rep(f"{module}.self_s")
    return m


def baselines(rep: list[Spans]) -> dict[str, float]:
    """The ROADMAP aim-1 figures, measured in one traced repetition.

    Channel march: per-step cost and assembly of the ``expanded-flux``
    run on the cone.  Tree setup: assembly inside ``simulate`` and each
    ``check_model`` call on the level-7 tree.
    """
    out = {}
    for sp in rep:
        runs = [i for i, tag in sp.tags.items() if tag == "expanded-flux"]
        for r in runs:
            assemble = sp.children_of(r, "discretize.assemble")
            screen = sp.children_of(r, "stability.check_model")
            steps = len(sp.children_of(r, "integrate.step"))
            march = sp.dur[r] - sp.dur[assemble].sum() - sp.dur[screen].sum()
            prefix = f"{sp.invocation}.expanded-flux"
            out[f"{prefix}.assemble_s"] = float(sp.dur[assemble].sum())
            out[f"{prefix}.check_model_s"] = float(sp.dur[screen].sum())
            if steps:
                out[f"{prefix}.march_step_us"] = 1e6 * float(march) / steps
        if sp.invocation == "screen" and "stability.check_model" in sp.names:
            nid = sp.names.index("stability.check_model")
            out["screen.check_model_s"] = float(sp.dur[sp.name_of == nid].sum())
    return out
