"""Reduced-order diffusion in tubes and branched tubular networks."""

from .network import (
    MeshError,
    NetworkMesh,
    interval_mesh,
    load_mesh,
    read_mesh,
    refine,
    write_mesh,
)

__version__ = "0.1.0"
