"""The one-step forward-Euler oracle: the states of ``run_models`` equal,
bit for bit, those of a march by ``step``."""

import numpy as np

from tubediff.sparse import scale_rows
from tubediff.stability import SimulationError


def step(c: np.ndarray, op, dt: float, neumann_values=None,
         source: np.ndarray | None = None) -> np.ndarray:
    """One forward-Euler update, ``(dt M^-1 A c + c) + (dt/m) N g + (dt/m)
    source`` summed in that order as ``run_models`` does, with the end slopes
    g in the order of the Neumann columns, the leaves in storage order (None: all
    zero); raises on non-finite results."""
    n_b = op.neumann.shape[1]
    g = np.zeros(n_b) if neumann_values is None else np.asarray(neumann_values, dtype=float)
    if g.shape != (n_b,):
        raise ValueError(f"expected {n_b} boundary slopes, got shape {g.shape}")
    scale = dt / op.mass_diag
    with np.errstate(over="ignore", invalid="ignore"):
        out = scale_rows(scale, op.matrix) @ c
        out += c
        out += scale * (op.neumann @ g)
        if source is not None:
            out += scale * source
    if not np.isfinite(out).all():
        raise SimulationError("state became non-finite; reduce dt or check data")
    return out
