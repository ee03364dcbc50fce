"""Span tracer that wraps superspin's public entry points from outside.

Nothing under ``src/`` knows about it: ``install`` replaces methods on their
classes and module-level functions in every ``superspin`` module that bound
them (including ``from .x import y`` copies), and ``uninstall`` puts the
originals back.  While installed, each wrapped call appends one span record

    [name_id, parent_index, start_ns, end_ns, tail_ns, request_id]

to an in-memory list.  ``tail_ns`` is taken after the tracer's own
bookkeeping for the span (pair counting), so a parent's self time is its
duration minus the ``[start, tail]`` extent of its children, and a span's
inclusive time is the sum of the self times in its subtree: the tracer's
work is charged to neither.  ``fold`` turns one batch of spans into per-name
totals; the first batch is kept verbatim so it can be written out.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter_ns

import numpy as np

# Wrapping modes.
SPAN = "span"    # one span per call
OUTER = "outer"  # a span only for the outermost call of that name
COUNT = "count"  # no span, only a call count (hot constructors)


def _grassmann_pairs(args):
    a, b = args[0], args[1]
    if type(b) is not type(a):
        return 0, 0  # scalar scaling: no blade pairs
    ta, tb = a.terms, b.terms
    disjoint = sum(1 for ma in ta for mb in tb if not ma & mb)
    return len(ta) * len(tb), disjoint


def _matrix_pairs(args):
    ba, bb = args[0].blades, args[1].blades
    disjoint = sum(1 for ma in ba for mb in bb if not ma & mb)
    return len(ba) * len(bb), disjoint


def _clifford_pairs(args):
    return len(args[0].terms) * len(args[1].terms), 0


# (span name, superspin module, attribute, mode, pair counter).  An attribute
# with a dot is a method on a class of that module; one without is a
# module-level function, patched wherever a superspin module bound it.
TARGETS = [
    ("grassmann.mul", "grassmann", "GrassmannNumber.__mul__", SPAN, _grassmann_pairs),
    ("grassmann.series", "grassmann", "GrassmannNumber.inv", SPAN, None),
    ("grassmann.series", "grassmann", "GrassmannNumber.exp", SPAN, None),
    ("grassmann.series", "grassmann", "GrassmannNumber.log", SPAN, None),
    ("grassmann.series", "grassmann", "GrassmannNumber.fpow", SPAN, None),
    ("grassmann.construct", "grassmann", "GrassmannNumber.__init__", COUNT, None),
    ("supermatrix.matmul", "supermatrix", "GrassmannMatrix.__matmul__", SPAN, _matrix_pairs),
    ("supermatrix.construct", "supermatrix", "GrassmannMatrix.__init__", SPAN, None),
    ("supermatrix.det", "supermatrix", "GrassmannMatrix.det", SPAN, None),
    ("supermatrix.sdet", "supermatrix", "Supermatrix.sdet", OUTER, None),
    ("supermatrix.inverse", "supermatrix", "GrassmannMatrix.inverse", OUTER, None),
    ("supermatrix.inverse", "supermatrix", "Supermatrix.inverse", OUTER, None),
    ("supermatrix.expm", "supermatrix", "expm", OUTER, None),
    ("supermatrix.logm", "supermatrix", "logm", OUTER, None),
    ("clifford.multiply", "clifford", "CliffordElement.multiply", SPAN, _clifford_pairs),
    ("clifford.reflect", "clifford", "reflect", SPAN, None),
    ("clifford.reflection_matrix", "clifford", "reflection_matrix", SPAN, None),
    ("clifford.phi", "clifford", "bivector_to_matrix", OUTER, None),
    ("clifford.phi", "clifford", "matrix_to_bivector", OUTER, None),
    ("orthosymplectic.check_so0", "orthosymplectic", "check_so0", SPAN, None),
    ("orthosymplectic.decompose", "orthosymplectic", "decompose_rotation", SPAN, None),
    ("orthosymplectic.real_log", "orthosymplectic", "rotation_log", OUTER, None),
    ("orthosymplectic.real_log", "orthosymplectic", "symplectic_polar", OUTER, None),
    ("orthosymplectic.real_log", "orthosymplectic", "compact_symplectic_log", OUTER, None),
    ("spin.lift", "spin", "lift_rotation", SPAN, None),
    ("spin.action_matrix", "spin", "action_matrix", SPAN, None),
    ("spin.oscillator_exp", "spin", "oscillator_exp", SPAN, None),
    ("cli.main", "cli", "main", SPAN, None),
    ("cli.parser", "cli", "build_parser", SPAN, None),
    ("cli.decode", "cli", "_load_json", OUTER, None),
    ("cli.decode", "cli", "_parse", OUTER, None),
    ("cli.encode", "cli", "_emit", OUTER, None),
    ("cli.encode", "grassmann", "GrassmannNumber.to_dict", OUTER, None),
    ("cli.encode", "supermatrix", "Supermatrix.to_dict", OUTER, None),
    ("cli.encode", "clifford", "Supervector.to_dict", OUTER, None),
    ("cli.encode", "clifford", "ExtendedSuperbivector.to_dict", OUTER, None),
    ("cli.encode", "spin", "SpinElement.to_dict", OUTER, None),
]

# Fields of a span record.
NAME, PARENT, START, END, TAIL, REQUEST = range(6)


def subtree_sums(parents: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each span's value plus those of all its descendants.

    Parents come before their children in a batch, so the spans can be
    grouped by depth and summed into their parents from the deepest level up.
    """
    depth = np.zeros(len(parents), dtype=np.int64)
    ancestor = parents.copy()
    while (ancestor >= 0).any():
        nested = ancestor >= 0
        depth[nested] += 1
        ancestor[nested] = parents[ancestor[nested]]
    sums = values.astype(np.int64)
    for level in range(int(depth.max()), 0, -1):
        at = np.nonzero(depth == level)[0]
        np.add.at(sums, parents[at], sums[at])
    return sums


class Tracer:
    """Installs and removes the wrappers and accumulates per-name totals."""

    def __init__(self):
        self.names = sorted({t[0] for t in TARGETS})
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.spans: list[list[int]] = []
        self.first_batch: list[list[int]] | None = None
        self.request = -1
        self._stack: list[int] = []
        self._depth = [0] * len(self.names)
        self.counts: dict[str, int] = {}
        self.calls = np.zeros(len(self.names), dtype=np.int64)
        self.self_ns = np.zeros(len(self.names), dtype=np.int64)
        self.incl_ns = np.zeros(len(self.names), dtype=np.int64)
        self._patches = self._plan()

    # -- patching ------------------------------------------------------------

    def _plan(self):
        """List (owner, attribute, original, wrapper) for every binding."""
        for mod_name in sorted({t[1] for t in TARGETS}):
            importlib.import_module(f"superspin.{mod_name}")
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "superspin" or name.startswith("superspin.")]
        patches = []
        for span_name, mod_name, attr, mode, pairs in TARGETS:
            module = sys.modules[f"superspin.{mod_name}"]
            wrapper_for = functools.partial(self._wrap, self._ids[span_name], mode,
                                            pairs, span_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                patches.append((owner, meth, original, wrapper_for(original)))
                continue
            original = getattr(module, attr)
            wrapper = wrapper_for(original)
            for mod in modules:
                for name, value in vars(mod).items():
                    if value is original:
                        patches.append((mod, name, original, wrapper))
        return patches

    def install(self) -> None:
        for owner, name, _original, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _wrapper in self._patches:
            setattr(owner, name, original)

    def _wrap(self, name_id, mode, pairs, span_name, fn):
        counts = self.counts
        if mode == COUNT:
            counts[span_name] = 0

            @functools.wraps(fn)
            def count_only(*args, **kwargs):
                counts[span_name] += 1
                return fn(*args, **kwargs)
            return count_only

        if pairs is not None:
            total_key, yield_key = f"{span_name}.pairs", f"{span_name}.disjoint"
            counts[total_key] = counts[yield_key] = 0
        stack = self._stack
        depth = self._depth
        outer_only = mode == OUTER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outer_only and depth[name_id]:
                return fn(*args, **kwargs)
            spans = self.spans
            record = [name_id, stack[-1] if stack else -1, 0, 0, 0, self.request]
            stack.append(len(spans))
            spans.append(record)
            depth[name_id] += 1
            record[START] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = perf_counter_ns()
                depth[name_id] -= 1
                stack.pop()
                if pairs is not None:
                    total, disjoint = pairs(args)
                    counts[total_key] += total
                    counts[yield_key] += disjoint
                record[TAIL] = perf_counter_ns()
        return traced

    # -- aggregation -----------------------------------------------------------

    def fold(self) -> None:
        """Add the current batch of spans to the totals and start a new one."""
        spans = self.spans
        if self._stack:
            raise RuntimeError("fold called with open spans")
        if self.first_batch is None:
            self.first_batch = spans
        self.spans = []
        if not spans:
            return
        table = np.asarray(spans, dtype=np.int64)
        names = table[:, NAME]
        duration = table[:, END] - table[:, START]
        covered = table[:, TAIL] - table[:, START]
        parents = table[:, PARENT]
        nested = parents >= 0
        children = np.bincount(parents[nested], weights=covered[nested],
                               minlength=len(spans))
        self_time = duration - children.astype(np.int64)
        size = len(self.names)
        self.calls += np.bincount(names, minlength=size)
        self.self_ns += np.bincount(names, weights=self_time, minlength=size).astype(np.int64)
        inclusive = subtree_sums(parents, self_time)
        self.incl_ns += np.bincount(names, weights=inclusive, minlength=size).astype(np.int64)

    def totals(self, name: str) -> tuple[int, int, int]:
        """(calls, self ns, inclusive ns) summed over every folded batch."""
        i = self._ids[name]
        return int(self.calls[i]), int(self.self_ns[i]), int(self.incl_ns[i])

    def first_batch_dump(self) -> dict:
        return {
            "fields": ["name", "parent", "start_ns", "end_ns", "tail_ns", "request"],
            "names": self.names,
            "spans": self.first_batch or [],
        }


# -- per-layer metrics -------------------------------------------------------------

# Per-layer metric -> where its value comes from: ("calls", span), ("self",
# span) and ("incl", span) in ms, ("count", counter), ("ratio", counter,
# counter).  Every value is per traced request.  cli.import_ms and
# trace.overhead_frac are not traced; run.py fills them in from the set-up
# processes and the paired passes.
SOURCES = {
    "grassmann.mul_calls": ("calls", "grassmann.mul"),
    "grassmann.mul_self_ms": ("self", "grassmann.mul"),
    "grassmann.term_pairs": ("count", "grassmann.mul.pairs"),
    "grassmann.pair_yield": ("ratio", "grassmann.mul.disjoint", "grassmann.mul.pairs"),
    "grassmann.series_calls": ("calls", "grassmann.series"),
    "grassmann.series_self_ms": ("self", "grassmann.series"),
    "grassmann.construct_calls": ("count", "grassmann.construct"),
    "supermatrix.matmul_calls": ("calls", "supermatrix.matmul"),
    "supermatrix.matmul_self_ms": ("self", "supermatrix.matmul"),
    "supermatrix.blade_pairs": ("count", "supermatrix.matmul.pairs"),
    "supermatrix.pair_yield": ("ratio", "supermatrix.matmul.disjoint",
                               "supermatrix.matmul.pairs"),
    "supermatrix.construct_calls": ("calls", "supermatrix.construct"),
    "supermatrix.construct_self_ms": ("self", "supermatrix.construct"),
    "supermatrix.det_self_ms": ("self", "supermatrix.det"),
    "supermatrix.sdet_ms": ("incl", "supermatrix.sdet"),
    "supermatrix.inverse_ms": ("incl", "supermatrix.inverse"),
    "supermatrix.expm_calls": ("calls", "supermatrix.expm"),
    "supermatrix.expm_ms": ("incl", "supermatrix.expm"),
    "supermatrix.logm_ms": ("incl", "supermatrix.logm"),
    "clifford.multiply_calls": ("calls", "clifford.multiply"),
    "clifford.multiply_self_ms": ("self", "clifford.multiply"),
    "clifford.term_pairs": ("count", "clifford.multiply.pairs"),
    "clifford.reflect_ms": ("incl", "clifford.reflect"),
    "clifford.reflection_matrix_ms": ("incl", "clifford.reflection_matrix"),
    "clifford.phi_ms": ("incl", "clifford.phi"),
    "orthosymplectic.check_so0_calls": ("calls", "orthosymplectic.check_so0"),
    "orthosymplectic.check_so0_ms": ("incl", "orthosymplectic.check_so0"),
    "orthosymplectic.decompose_ms": ("incl", "orthosymplectic.decompose"),
    "orthosymplectic.real_log_ms": ("incl", "orthosymplectic.real_log"),
    "spin.lift_ms": ("incl", "spin.lift"),
    "spin.action_matrix_ms": ("incl", "spin.action_matrix"),
    "spin.oscillator_exp_ms": ("incl", "spin.oscillator_exp"),
    "cli.parser_ms": ("incl", "cli.parser"),
    "cli.decode_ms": ("incl", "cli.decode"),
    "cli.encode_ms": ("incl", "cli.encode"),
    "cli.main_self_ms": ("self", "cli.main"),
}

# Metrics that count work rather than time it; they repeat exactly per seed.
COUNT_KINDS = ("calls", "count", "ratio")


def layer_metrics(tracer: Tracer, requests: int) -> dict[str, float]:
    """Per-request value of every SOURCES entry."""
    out = {}
    for metric, source in SOURCES.items():
        kind, key = source[0], source[1]
        if kind == "ratio":
            total = tracer.counts[source[2]]
            out[metric] = tracer.counts[key] / total if total else 0.0
        elif kind == "count":
            out[metric] = tracer.counts[key] / requests
        else:
            calls, self_ns, incl_ns = tracer.totals(key)
            value = {"calls": calls, "self": self_ns / 1e6, "incl": incl_ns / 1e6}[kind]
            out[metric] = value / requests
    return out
