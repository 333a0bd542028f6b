"""Span recorder for the traced benchmark run, and the per-layer metrics.

Spans are recorded from the benchmark's side: `install` wraps the public
functions of each pdescent module on every module attribute that names
them.  Modules import names directly (`from .complexes import
h1_dimension` in tower and cli, `from .fplinalg import in_rowspan` in
plotkin), so the wrapper replaces each importing module's binding too.
Calls that go through module globals (`fplinalg.rref` inside
`kernel_basis`) are caught by the one patch on the defining module.  Two
methods are wrapped on their classes: TwoComplex construction and
Cochain.evaluate.

A span is (id, name, start, end, parent id, op id).  Self time is a
span's duration minus the durations of its child spans; spans nest
strictly because the library is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

import pdescent
from pdescent.complexes import Cochain, TwoComplex

LAYERS = ("fplinalg", "complexes", "covers", "wedge", "plotkin", "expansion", "tower", "cli")

ROOT = "op"

# (name, unit) of every per-layer metric, in report order.  A module's
# busy_s (tower.self_s, cli.self_s) is the self time of all its spans, so
# the module figures and trace.unattributed_s add up to the op's wall time.
PER_LAYER = (
    ("fplinalg.rref.calls", "count"),
    ("fplinalg.rref.busy_s", "s"),
    ("fplinalg.rref.cells", "count"),
    ("fplinalg.rref.dense_ops", "count"),
    ("fplinalg.rref.dense_ops_per_s", "1/s"),
    ("fplinalg.rref.max_bytes", "B"),
    ("fplinalg.busy_s", "s"),
    ("complexes.h1_dimension.calls", "count"),
    ("complexes.h1_dimension.busy_s", "s"),
    ("complexes.h1_dimension.calls_per_complex", "ratio"),
    ("complexes.TwoComplex.busy_s", "s"),
    ("complexes.Cochain.evaluate.calls", "count"),
    ("complexes.class_coordinates.busy_s", "s"),
    ("complexes.busy_s", "s"),
    ("covers.build_abelian_p_cover.self_s", "s"),
    ("covers.build_cyclic_cover.self_s", "s"),
    ("covers.vertex_values.calls", "count"),
    ("covers.vertex_values.busy_s", "s"),
    ("covers.cells_built", "count"),
    ("covers.busy_s", "s"),
    ("wedge.build_wedge_family.self_s", "s"),
    ("wedge.span_size", "count"),
    ("wedge.family_size", "count"),
    ("wedge.cocycle_yield", "ratio"),
    ("wedge.busy_s", "s"),
    ("plotkin.reduce_to_dimension.busy_s", "s"),
    ("plotkin.best_hyperplane.calls", "count"),
    ("plotkin.certified_ratio", "ratio"),
    ("plotkin.busy_s", "s"),
    ("expansion.cheeger_constant.calls", "count"),
    ("expansion.cheeger_constant.busy_s", "s"),
    ("expansion.relative_size.calls", "count"),
    ("expansion.relative_size.busy_s", "s"),
    ("expansion.busy_s", "s"),
    ("tower.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Keeps every span in memory, plus per-op totals reset by `begin_op`."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        self.op_id = None
        self.largest_rref = None  # (rows, cols, rank) over the whole run
        self.covers_built: list[dict] = []  # shapes from the first traced op
        self.ops = 0

    def begin_op(self, op_id: int):
        self.op_id = op_id
        self.ops += 1
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.h1_complexes = {}  # id -> complex; holding it keeps ids unique
        self._root = self.enter(ROOT)

    def end_op(self) -> float:
        """Close the op's root span; returns its wall time."""
        self.exit(self._root)
        return self.busy[ROOT]

    def enter(self, name: str) -> list:
        frame = [name, self._next_id, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: list):
        end = time.perf_counter()
        if self._stack.pop() is not frame:
            raise RuntimeError("spans must nest")
        name, span_id, start, child = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, name, start, end, parent[1] if parent else None, self.op_id))
        self.calls[name] += 1
        self.busy[name] += duration
        self.self_s[name] += duration - child

    def write_jsonl(self, path: str):
        keys = ("id", "name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def op_metrics(self) -> dict:
        """Per-layer figures of the op just ended."""
        c, b, s, n = self.calls, self.busy, self.self_s, self.counts
        rref_busy = b["fplinalg.rref"]
        h1_calls = c["complexes.h1_dimension"]
        m = {
            "fplinalg.rref.calls": c["fplinalg.rref"],
            "fplinalg.rref.busy_s": rref_busy,
            "fplinalg.rref.cells": n["rref.cells"],
            "fplinalg.rref.dense_ops": n["rref.dense_ops"],
            "fplinalg.rref.dense_ops_per_s": n["rref.dense_ops"] / rref_busy if rref_busy else 0.0,
            "fplinalg.rref.max_bytes": n["rref.max_bytes"],
            "complexes.h1_dimension.calls": h1_calls,
            "complexes.h1_dimension.busy_s": b["complexes.h1_dimension"],
            "complexes.h1_dimension.calls_per_complex": (
                h1_calls / len(self.h1_complexes) if h1_calls else 0.0
            ),
            "complexes.TwoComplex.busy_s": b["complexes.TwoComplex"],
            "complexes.Cochain.evaluate.calls": c["complexes.Cochain.evaluate"],
            "complexes.class_coordinates.busy_s": b["complexes.class_coordinates"],
            "covers.build_abelian_p_cover.self_s": s["covers.build_abelian_p_cover"],
            "covers.build_cyclic_cover.self_s": s["covers.build_cyclic_cover"],
            "covers.vertex_values.calls": c["covers.vertex_values"],
            "covers.vertex_values.busy_s": b["covers.vertex_values"],
            "covers.cells_built": n["covers.cells_built"],
            "wedge.build_wedge_family.self_s": s["wedge.build_wedge_family"],
            "wedge.span_size": n["wedge.span_size"],
            "wedge.family_size": n["wedge.family_size"],
            "wedge.cocycle_yield": (
                n["wedge.family_size"] / n["wedge.span_size"] if n["wedge.span_size"] else 0.0
            ),
            "plotkin.reduce_to_dimension.busy_s": b["plotkin.reduce_to_dimension"],
            "plotkin.best_hyperplane.calls": c["plotkin.best_hyperplane"],
            "plotkin.certified_ratio": (
                n["plotkin.certified"] / c["plotkin.best_hyperplane"]
                if c["plotkin.best_hyperplane"]
                else 0.0
            ),
            "expansion.cheeger_constant.calls": c["expansion.cheeger_constant"],
            "expansion.cheeger_constant.busy_s": b["expansion.cheeger_constant"],
            "expansion.relative_size.calls": c["expansion.relative_size"],
            "expansion.relative_size.busy_s": b["expansion.relative_size"],
            "trace.unattributed_s": s[ROOT],
        }
        for layer in LAYERS:
            key = f"{layer}.self_s" if layer in ("tower", "cli") else f"{layer}.busy_s"
            m[key] = sum(t for name, t in s.items() if name.startswith(layer + "."))
        return m


def _rref_counts(tr: Tracer, args, result):
    a = np.asarray(args[0])
    rows, cols = (1, a.size) if a.ndim == 1 else a.shape
    rank = result[1]
    tr.counts["rref.cells"] += rows * cols
    tr.counts["rref.dense_ops"] += rank * rows * cols
    tr.counts["rref.max_bytes"] = max(tr.counts["rref.max_bytes"], rows * cols * 8)
    best = tr.largest_rref
    if best is None or rows * cols > best[0] * best[1]:
        tr.largest_rref = (rows, cols, rank)


def _h1_counts(tr: Tracer, args, result):
    tr.h1_complexes[id(args[0])] = args[0]


def _cover_counts(tr: Tracer, args, result):
    K = result.total
    tr.counts["covers.cells_built"] += K.num_cells
    if tr.ops == 1:
        # presentation complexes have one vertex, so the index over it is |V|
        tr.covers_built.append(
            {"index": K.num_vertices, "V": K.num_vertices, "E": K.num_edges, "F": K.num_faces}
        )


def _wedge_counts(tr: Tracer, args, result):
    tr.counts["wedge.span_size"] += len(result.span_basis)
    tr.counts["wedge.family_size"] += result.size


def _hyperplane_counts(tr: Tracer, args, result):
    tr.counts["plotkin.certified"] += int(result.certified)


COUNTERS = {
    "fplinalg.rref": _rref_counts,
    "complexes.h1_dimension": _h1_counts,
    "covers.build_abelian_p_cover": _cover_counts,
    "covers.build_cyclic_cover": _cover_counts,
    "wedge.build_wedge_family": _wedge_counts,
    "plotkin.best_hyperplane": _hyperplane_counts,
}


def _wrap(tr: Tracer, name: str, fn):
    count = COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tr.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.exit(frame)
        if count is not None:
            count(tr, args, result)
        return result

    return wrapper


def install(tr: Tracer) -> list[tuple]:
    """Wrap every public pdescent function; returns the patches for `uninstall`."""
    modules = [importlib.import_module(f"pdescent.{layer}") for layer in LAYERS]
    namespaces = [pdescent, *modules]
    patches = []
    for layer, mod in zip(LAYERS, modules):
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                continue
            wrapper = _wrap(tr, f"{layer}.{attr}", fn)
            for ns in namespaces:
                for name, value in vars(ns).items():
                    if value is fn:
                        patches.append((ns, name, fn, wrapper))
    patches.append(
        (TwoComplex, "__init__", TwoComplex.__init__,
         _wrap(tr, "complexes.TwoComplex", TwoComplex.__init__))
    )
    patches.append(
        (Cochain, "evaluate", Cochain.evaluate,
         _wrap(tr, "complexes.Cochain.evaluate", Cochain.evaluate))
    )
    for obj, name, _, wrapper in patches:
        setattr(obj, name, wrapper)
    return patches


def uninstall(patches: list[tuple]):
    for obj, name, original, _ in reversed(patches):
        setattr(obj, name, original)
