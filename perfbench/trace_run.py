"""Traced echochain run: span recorders around each module's public functions.

Usage: python3 perfbench/trace_run.py TRACE.json SUBCOMMAND CONFIG [CLI options]

The echochain package must be importable (PYTHONPATH=src). The script imports
``echochain.cli``, replaces every name in the package's module namespaces
that refers to a traced function with a recorder, calls ``echochain.cli.main``
and writes the spans to TRACE.json at exit. A span is (name, start, end,
parent, aggregated child seconds). ``apply_floquet`` runs once per period and
column batch, so it is aggregated into counts and total time instead of
spans; its time is charged to the enclosing span. Run it with
ECHOCHAIN_WORKERS=1, so every span lands in this process.
"""

from __future__ import annotations

import functools
import importlib
import json
import pickle
import sys
import time

TRACED = {
    "config": ("parse_config",),
    "chain": ("build_floquet_pair", "assemble_dense"),
    "coherent": ("build_coherent_state",),
    "dynamics": ("fidelity_series", "asymptotic_fidelity", "write_series"),
    "measures": ("compute_report",),
    "linalg": ("unitary_eig", "sample_gue", "hermitian_expm"),
    "symmetry": (
        "build_sector", "sector_basis_matrix", "sector_matrix",
        "spacing_statistics", "brody_fit", "ipr",
    ),
    "sweep": ("run_sweep", "write_sweep_csv"),
    "cli": ("main",),
}
AGGREGATED = ("chain", "apply_floquet")
# The sweep context is what every pool worker receives; it is kept and
# pickled after the run to size it.
CONTEXT = ("sweep", "_prepare_context")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.floquet = dict(calls=0, s=0.0, col_steps=0, amp_ops=0, bytes_moved=0)
        self.eig_max_dim = 0
        self.contexts: list = []
        self.missing: list[str] = []

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()

        return recorded

    def aggregate(self, fn):
        @functools.wraps(fn)
        def counted(op, state, *args, **kwargs):
            start = time.perf_counter()
            result = fn(op, state, *args, **kwargs)
            elapsed = time.perf_counter() - start
            shape = getattr(state, "shape", ())
            dim = shape[0] if shape else 0
            cols = shape[1] if len(shape) == 2 else 1
            n = max(dim.bit_length() - 1, 0)
            dense = getattr(op, "dense_factor", None) is not None
            agg = self.floquet
            agg["calls"] += 1
            agg["s"] += elapsed
            agg["col_steps"] += cols
            # Gate path: N kick contractions of 2 multiply-adds per amplitude.
            # A dense factor adds one dim x dim product per column.
            agg["amp_ops"] += cols * (2 * n * dim + (dim * dim if dense else 0))
            # 16-byte amplitudes: the phase vector or dense factor once, then
            # the state read and written by the diagonal (or dense) step and
            # by each of the N kicks.
            agg["bytes_moved"] += 16 * (dim * dim if dense else dim) + 32 * dim * cols * (n + 1)
            if self.stack:
                self.spans[self.stack[-1]][4] += elapsed
            return result

        return counted

    def eig_dims(self, fn):
        @functools.wraps(fn)
        def sized(u, *args, **kwargs):
            self.eig_max_dim = max(self.eig_max_dim, len(u))
            return fn(u, *args, **kwargs)

        return sized

    def keep_context(self, fn):
        @functools.wraps(fn)
        def kept(*args, **kwargs):
            ctx = fn(*args, **kwargs)
            self.contexts.append(ctx)
            return ctx

        return kept

    def install(self) -> None:
        """Swap each traced function for its recorder in every echochain module."""
        replacements = {}
        for layer, names in TRACED.items():
            module = importlib.import_module(f"echochain.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapped = self.span(f"{layer}.{name}", fn)
                if (layer, name) == ("linalg", "unitary_eig"):
                    wrapped = self.eig_dims(wrapped)
                replacements[id(fn)] = (fn, wrapped)
        for (layer, name), wrap in ((AGGREGATED, self.aggregate), (CONTEXT, self.keep_context)):
            fn = getattr(importlib.import_module(f"echochain.{layer}"), name, None)
            if fn is None:
                self.missing.append(f"{layer}.{name}")
            else:
                replacements[id(fn)] = (fn, wrap(fn))
        for module_name, module in list(sys.modules.items()):
            if module_name != "echochain" and not module_name.startswith("echochain."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def dump(self, path: str, import_s: float) -> None:
        ctx_bytes = max((len(pickle.dumps(ctx)) for ctx in self.contexts), default=0)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                dict(
                    import_s=import_s, spans=self.spans, floquet=self.floquet,
                    eig_max_dim=self.eig_max_dim, ctx_bytes=ctx_bytes, missing=self.missing,
                ),
                fh,
            )


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    cli = importlib.import_module("echochain.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(out, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
