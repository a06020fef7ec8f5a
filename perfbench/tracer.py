"""In-memory span recorder that wraps tubediff's public functions.

The wrappers replace the module attributes that callers bind (for
example ``tubediff.integrate.assemble_model``, which ``run`` looks up
as a module global), so the package source stays untouched.  Each span
records its name, start, end and parent; all spans of one CLI process
share the invocation id written with them.  Spans live in flat arrays
and are written once, when the process ends.

Run a traced CLI invocation as

    python3 perfbench/tracer.py --spans OUT.npz --invocation ID [--alloc] \
        -- simulate --config CONFIG --out DIR

with ``src`` on ``PYTHONPATH``.  ``--alloc`` wraps ``check_model`` in
tracemalloc to record its peak allocation; that slows the call, so the
benchmark discards the timings of such runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc
from array import array

NO_PARENT = -1


class Tracer:
    """Flat span store plus named counters for one process."""

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tags: dict[int, str] = {}
        self.counters: dict[str, float] = {}
        self._stack = [NO_PARENT]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def span(self, name: str, fn, *, tag=None, after=None):
        """Wrap ``fn`` so every call records a span called ``name``.

        ``tag(args, kwargs)`` labels the span (a model name, say);
        ``after(result, args)`` runs outside the timed interval and may
        update counters from the result.
        """
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            if tag is not None:
                self.tags[idx] = tag(args, kwargs)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, key: str, fn):
        """Wrap ``fn`` so calls are counted but not timed (hot helpers)."""
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] = counters.get(key, 0.0) + 1.0
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def with_alloc(self, fn):
        """Record the peak tracemalloc allocation of each call, in bytes."""

        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.counters["stability.peak_alloc_bytes"] = max(
                    peak, self.counters.get("stability.peak_alloc_bytes", 0.0))

        return wrapper

    def save(self, path, invocation: str) -> None:
        import numpy as np

        np.savez(
            path,
            name_of=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            meta=np.array(json.dumps({
                "invocation": invocation,
                "names": self.names,
                "tags": {str(k): v for k, v in self.tags.items()},
                "counters": self.counters,
            })),
        )


def _csr_matvec_bytes(matrix) -> int:
    """Bytes one CSR ``matrix @ c`` reads and writes, computed from sizes."""
    n_rows, n_cols = matrix.shape
    return (matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
            + 8 * n_cols + 8 * n_rows)


def install(tr: Tracer) -> None:
    """Patch every layer boundary of the imported tubediff package."""
    import tubediff.cli as cli
    import tubediff.discretize as discretize
    import tubediff.geometry as geometry
    import tubediff.integrate as integrate
    import tubediff.models as models
    import tubediff.network as network
    import tubediff.stability as stability
    import tubediff.verify as verify

    # A name the package no longer has is skipped, so a refactor of
    # src/ leaves its metrics at zero instead of failing the run.
    def rebind(owners, attr, wrap):
        wrapped = {}
        for owner in owners:
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            if id(fn) not in wrapped:
                wrapped[id(fn)] = wrap(fn)
            setattr(owner, attr, wrapped[id(fn)])

    def patch(name, owners, attr, **kw):
        rebind(owners, attr, lambda fn: tr.span(name, fn, **kw))

    def count(key, owners, attr):
        rebind(owners, attr, lambda fn: tr.count(key, fn))

    # network / geometry
    patch("network.mesh_init", [network.NetworkMesh], "__init__",
          after=lambda _, args: tr.add("network.mesh_inits"))
    patch("network.refine", [network, geometry, cli, verify], "refine")
    patch("network.format_mesh", [network, cli], "format_mesh")
    cli.TREE_BUILDERS = {kind: tr.span("geometry.tree", fn)
                         for kind, fn in getattr(cli, "TREE_BUILDERS", {}).items()}

    # models: coefficient formulas are per-node scalars, so only counted
    for attr, owners in (
        ("diffusion_coefficient", [models, discretize, stability]),
        ("effj_mass_factor", [models, discretize, stability]),
        ("kalinay_g", [models]),
    ):
        count("models.coef_calls", owners, attr)
    patch("models.kalinay_mass_factors",
          [models, discretize, stability], "kalinay_mass_factors")

    # discretize
    def assembled(op, _args):
        tr.add("discretize.assemble_calls")
        tr.add("discretize.nnz", op.matrix.nnz)

    patch("discretize.assemble", [discretize, integrate, cli], "assemble_model",
          after=assembled)
    patch("discretize.lateral_operator", [discretize, integrate], "lateral_operator")
    for attr in ("laplacian_parts", "third_derivative_parts", "wind_stencils",
                 "local_spacings"):
        patch("discretize.parts", [stability], attr)

    # keyed by id(); the matrix is kept alive so the id is never reused
    bytes_of: dict[int, tuple[object, int]] = {}

    def counting_matvec_bytes(apply):
        def counted(op, *args, **kwargs):
            key = id(op.matrix)
            if key not in bytes_of:
                bytes_of[key] = (op.matrix, _csr_matvec_bytes(op.matrix))
            tr.counters["discretize.matvec_bytes"] = (
                tr.counters.get("discretize.matvec_bytes", 0.0) + bytes_of[key][1])
            return apply(op, *args, **kwargs)
        return tr.span("discretize.apply", counted)

    rebind([discretize.SpatialOperator], "apply", counting_matvec_bytes)
    patch("discretize.lateral_values", [discretize.LateralFluxField], "values")

    # stability
    rebind([stability, integrate, cli], "check_model", lambda fn: tr.span(
        "stability.check_model", tr.with_alloc(fn) if tr.alloc else fn))

    # integrate
    def model_tag(args, kwargs):
        spec = args[2] if len(args) > 2 else kwargs.get("spec")
        return getattr(getattr(spec, "kind", None), "value", "unknown")

    patch("integrate.run", [integrate, verify, cli], "run", tag=model_tag)
    patch("integrate.step", [integrate], "step")
    patch("integrate.boundary", [integrate.BoundaryData], "vector")
    patch("integrate.policy", [integrate.ConstraintPolicy], "adjust")
    patch("integrate.to_csv", [integrate.Trajectory], "to_csv",
          after=lambda _, args: tr.add("integrate.csv_bytes",
                                       os.path.getsize(args[1])))

    # verify
    patch("verify.slope", [verify.ConeChannel], "slope")
    patch("verify.slope", [verify.SinusoidChannel], "slope")
    patch("verify.run_channel", [verify, cli], "run_channel")
    patch("verify.final_error", [verify, cli], "final_error")

    # cli
    for attr in ("build_geometry", "build_initial", "build_boundary", "load_config"):
        patch("cli.config", [cli], attr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("--invocation", required=True)
    parser.add_argument("--alloc", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tr = Tracer(alloc=args.alloc)
    t0 = time.perf_counter()
    import tubediff.cli as cli
    tr.add("cli.import_s", time.perf_counter() - t0)

    install(tr)
    rc = tr.span("cli.main", cli.main)(cli_args)
    tr.save(args.spans, args.invocation)
    return rc


if __name__ == "__main__":
    sys.exit(main())
