"""Seeded workload generation: the seed goes in, YAML configs come out.

Every workload is a list of CLI invocations over generated configs.  The
seed changes only the physical inputs (tapers, bump position, inflow
schedule); node counts, step counts and model lists are fixed, so every
seed does the same amount of work.  ``setup=True`` gives the same
invocations with each march cut to one step per snapshot interval, which
keeps the written artifacts the same size.

Step sizes stay at or below half the screened ``dt_max`` (the per-node
screen overstates the stable step on trees; see NOTES.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import yaml

MODELS = (
    "simple-diffusion",
    "fick-jacobs",
    "zwanzig",
    "reguera-rubi",
    "kalinay-percus",
    "kalinay-temporal",
    "expanded-flux",
)

# channel-march: seven models per compare, one cone and one sinusoid
CHANNEL_NODES = 160
CHANNEL_STEPS = 6000
CONE_DT = 2.0e-4          # dt_max >= 1.9e-3 for every taper in the grid
SINUSOID_DT = 1.0e-4      # dt_max >= 3.6e-4 for every wavenumber in the grid
# tapers k/5 (0.2 .. 5) and wavenumbers k/40 (0.05 .. 0.5): a grid, so
# that each drawn channel has a recorded reference error
TAPER_STEPS = range(1, 26)
WAVENUMBER_STEPS = range(2, 21)

# tree-setup: screen and a short march on the refined constricted tree
SETUP_LEVELS = 7          # 3969 nodes
SETUP_DT = 4.0e-7         # dt_max = 1.22e-6
SETUP_STEPS = 40
SETUP_SNAPSHOTS = 5

# tree-lateral: scheduled wall flux and a concentration band
LATERAL_LEVELS = 3        # 249 nodes
LATERAL_DT = 1.0e-4       # dt_max = 3.12e-4
LATERAL_STEPS = 50000
LATERAL_SNAPSHOTS = 101
LATERAL_BAND = (4.0, 6.0)
LATERAL_INITIAL = 5.0
STICK_IDS = range(1, 15)  # interior stick nodes of the coarse tree
EXIT_IDS = (23, 31)


@dataclass(frozen=True)
class Invocation:
    """One CLI process: ``tubediff <command> --config <config>``."""

    name: str
    command: str
    config: str            # file name inside the workload directory
    nodes: int
    steps: int             # marched steps summed over the invocation's runs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: dict          # file name -> config mapping
    invocations: tuple[Invocation, ...]
    params: dict           # seed-drawn inputs, for the correctness check

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for fname, cfg in self.configs.items():
            (directory / fname).write_text(dump(cfg))

    @property
    def node_steps(self) -> int:
        return sum(inv.nodes * inv.steps for inv in self.invocations)


def dump(cfg: dict) -> str:
    return yaml.safe_dump(cfg, sort_keys=False)


def _march(dt: float, steps: int, snapshots: int, setup: bool) -> tuple[dict, int]:
    steps = snapshots - 1 if setup else steps
    return {"dt": dt, "t_end": steps * dt}, steps


def channel_config(kind: str, value: float, setup: bool = False) -> tuple[dict, int]:
    """A seven-model compare config on a cone (taper) or sinusoid
    (wavenumber), and the steps each model marches."""
    key, dt = {"cone": ("taper", CONE_DT), "sinusoid": ("wavenumber", SINUSOID_DT)}[kind]
    run, steps = _march(dt, CHANNEL_STEPS, 2, setup)
    run["model"] = "expanded-flux"
    return {
        "run": run,
        "geometry": {"kind": kind, key: value, "n": CHANNEL_NODES},
        "compare": {"models": list(MODELS)},
    }, steps


def channel_grid() -> list[tuple[str, float]]:
    """Every channel a seed can draw."""
    return ([("cone", k / 5) for k in TAPER_STEPS]
            + [("sinusoid", k / 40) for k in WAVENUMBER_STEPS])


def channel_march(seed: int, setup: bool = False) -> Workload:
    rng = random.Random(seed)
    taper = rng.choice(TAPER_STEPS) / 5
    wavenumber = rng.choice(WAVENUMBER_STEPS) / 40
    configs, invs = {}, []
    for kind, value in (("cone", taper), ("sinusoid", wavenumber)):
        fname = f"{kind}_compare.yaml"
        configs[fname], steps = channel_config(kind, value, setup)
        invs.append(Invocation(kind, "compare", fname, CHANNEL_NODES,
                               steps * len(MODELS)))
    return Workload(
        "channel-march",
        "seven-model compare on 160-node channels: the march and its "
        "per-step boundary-slope closures",
        configs, tuple(invs), {"taper": taper, "wavenumber": wavenumber})


def tree_setup(seed: int, setup: bool = False) -> Workload:
    rng = random.Random(seed)
    center = round(rng.uniform(1.0, 2.2), 3)
    run, steps = _march(SETUP_DT, SETUP_STEPS, SETUP_SNAPSHOTS, setup)
    run.update(model="expanded-flux", snapshots=SETUP_SNAPSHOTS)
    cfg = {
        "run": run,
        "geometry": {"kind": "constricted-tree", "levels": SETUP_LEVELS},
        "initial": {"kind": "arc-bump", "center": center, "width": 0.4,
                    "baseline": 0.2},
    }
    nodes = 3969
    invs = (
        Invocation("screen", "stability-check", "tree.yaml", nodes, 0),
        Invocation("simulate", "simulate", "tree.yaml", nodes, steps),
    )
    return Workload(
        "tree-setup",
        "level-7 constricted tree: mesh, assembly and stability screen "
        "dominate, the march is a few dozen steps",
        {"tree.yaml": cfg}, invs, {"center": center})


def tree_lateral(seed: int, setup: bool = False) -> Workload:
    rng = random.Random(seed)
    first = rng.choice(STICK_IDS[:-2])
    inflow = [first, first + 1, first + 2]
    strength = round(rng.uniform(2.0, 4.0), 3)
    t_total = LATERAL_STEPS * LATERAL_DT
    start = round(rng.uniform(0.0, 0.3) * t_total, 4)
    until = round(start + rng.uniform(0.3, 0.6) * t_total, 4)
    withdraw = round(rng.uniform(1.0, 3.0), 3)
    run, steps = _march(LATERAL_DT, LATERAL_STEPS, LATERAL_SNAPSHOTS, setup)
    run.update(model="expanded-flux", snapshots=LATERAL_SNAPSHOTS)
    lo, hi = LATERAL_BAND
    cfg = {
        "run": run,
        "geometry": {"kind": "ball-on-stick", "levels": LATERAL_LEVELS},
        "initial": {"kind": "uniform", "value": LATERAL_INITIAL},
        "boundary": {"kind": "closed"},
        "lateral": [
            {"nodes": inflow, "strength": strength, "from": start, "until": until},
            {"nodes": list(EXIT_IDS), "strength": -withdraw},
        ],
        "policy": {"nodes": "all", "c_hi": hi, "c_lo": lo, "outflow_strength": 2.0},
    }
    invs = (Invocation("simulate", "simulate", "tree.yaml", 249, steps),)
    return Workload(
        "tree-lateral",
        "249-node tree with lateral windows and a band policy: a second "
        "matvec, schedule and policy per step, no boundary closures",
        {"tree.yaml": cfg}, invs, {"inflow": inflow, "strength": strength})


WORKLOADS = {
    "channel-march": channel_march,
    "tree-setup": tree_setup,
    "tree-lateral": tree_lateral,
}
