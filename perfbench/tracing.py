"""Spans and counters recorded from outside the ptanner package.

A `Tracer` wraps public functions and methods of the package and rebinds
each wrapped name in every loaded ``ptanner`` module that imported it, so
calls made inside the package go through the wrapper too.  The package
itself is not modified.  Spans are kept in memory as
``[name, start, end, parent, pass_id]`` and written out once at the end.

A layer's self time is its span minus the time its direct child spans
cover.  Sizes (``.cells``, ``.bytes``) are computed from argument shapes,
not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict


def _cells(matrix) -> int:
    rows, cols = matrix.shape
    return int(rows) * int(cols)


def _row_reduce_cells(counts, args, kwargs):
    counts["gf.row_reduce.cells"] += _cells(args[0])


def _toarray_bytes(counts, args, kwargs):
    # int64 dense copy of the FMatrix `self`
    counts["gf.toarray.bytes"] += 8 * _cells(args[0])


def _candidates_tried(counts, result):
    counts["inner.candidates_tried"] += int(
        result.provenance.get("candidates_tried") or 0
    )


def _best_fraction(counts, result):
    counts["csp.max_sat.best_fraction"] = float(result.best_fraction)


def _syndrome_members(counts, result):
    counts["nlts.syndrome_members"] += len(result.members)


def _clusters(counts, result):
    counts["nlts.clusters"] += len(result.clusters)


def _artifact_bytes(counts, result):
    artifacts, _summary = result
    counts["pipeline.artifact_bytes"] += sum(
        len(text.encode()) for _name, text in artifacts.values()
    )


# (module, attribute path, span name, hook on arguments, hook on result)
SPANS = (
    ("ptanner.gf", "row_reduce", "gf.row_reduce", _row_reduce_cells, None),
    ("ptanner.gf", "rank", "gf.rank", None, None),
    ("ptanner.gf", "kernel_basis", "gf.kernel_basis", None, None),
    ("ptanner.gf", "solve", "gf.solve", None, None),
    ("ptanner.gf", "in_rowspace", "gf.in_rowspace", None, None),
    ("ptanner.expander", "default_generators", "expander.default_generators", None, None),
    ("ptanner.expander", "spectral_expansion", "expander.spectral_expansion", None, None),
    ("ptanner.expander", "CayleyMultigraph.neighbor_lists", "expander.neighbor_lists", None, None),
    ("ptanner.inner", "search_inner_pair", "inner.search_inner_pair", None, _candidates_tried),
    ("ptanner.inner", "product_expansion_falsify", "inner.product_expansion_falsify", None, None),
    ("ptanner.inner", "product_expansion_exact", "inner.product_expansion_exact", None, None),
    ("ptanner.tanner", "SquareCayleyComplex.local_view", "tanner.local_view", None, None),
    ("ptanner.tanner", "build_code", "tanner.build_code", None, None),
    ("ptanner.tanner", "CssCode.validate", "tanner.validate", None, None),
    ("ptanner.tanner", "verify_planted", "tanner.verify_planted", None, None),
    ("ptanner.tanner", "code_dimension", "tanner.code_dimension", None, None),
    ("ptanner.tanner", "estimate_distance", "tanner.estimate_distance", None, None),
    ("ptanner.tanner", "estimate_ssexp", "tanner.estimate_ssexp", None, None),
    ("ptanner.csp", "emit_lin_instance", "csp.emit_lin_instance", None, None),
    ("ptanner.csp", "certify_unsat", "csp.certify_unsat", None, None),
    ("ptanner.csp", "reduce_to_3xor", "csp.reduce_to_3xor", None, None),
    ("ptanner.csp", "TannerConstraintStream.constraint", "csp.stream.constraint", None, None),
    ("ptanner.csp", "LinInstance.to_json", "csp.instance_json", None, None),
    ("ptanner.csp", "LinInstance.from_json", "csp.instance_json", None, None),
    ("ptanner.csp", "max_sat", "csp.max_sat", None, _best_fraction),
    ("ptanner.nlts", "enumerate_syndrome_set", "nlts.enumerate_syndrome_set", None, _syndrome_members),
    ("ptanner.nlts", "build_clusters", "nlts.build_clusters", None, _clusters),
    ("ptanner.nlts", "verify_cluster_lemma", "nlts.verify_cluster_lemma", None, None),
    ("ptanner.nlts", "logical_pair", "nlts.logical_pair", None, None),
    ("ptanner.nlts", "measure_spread", "nlts.measure_spread", None, None),
    ("ptanner.cli", "main", "cli.main", None, None),
)

# Hot, cheap calls: counted only, so their time stays in the caller's span.
COUNTS = (
    ("ptanner.gf", "FMatrix.toarray", "gf.toarray.calls", _toarray_bytes),
    ("ptanner.expander", "GroupElement.__mul__", "expander.group_mul.calls", None),
    ("ptanner.expander", "element_from_index", "expander.element_from_index.calls", None),
)


class Tracer:
    """Records spans and counters while `active`; installed per pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.pass_counts: dict[int, dict[str, float]] = {}
        self.active = False
        self.pass_id: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ---- wrappers -------------------------------------------------------

    def _span_wrapper(self, fn, name, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer.counts, args, kwargs)
            span = [name, time.perf_counter(), None,
                    tracer._stack[-1] if tracer._stack else None, tracer.pass_id]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(tracer.counts, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name, before):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] += 1
                if before is not None:
                    before(tracer.counts, args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    # ---- installation ---------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _install_one(self, module_name, path, make):
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = inspect.getattr_static(cls, attr)
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(make(raw.__func__)))
            else:
                self._set(cls, attr, make(raw))
            return
        original = getattr(module, path)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if (name == "ptanner" or name.startswith("ptanner.")) and mod is not None:
                if mod.__dict__.get(path) is original:
                    self._set(mod, path, wrapped)

    def install(self) -> None:
        for module_name, path, name, before, after in SPANS:
            self._install_one(
                module_name, path,
                lambda fn, n=name, b=before, a=after: self._span_wrapper(fn, n, b, a),
            )
        for module_name, path, name, before in COUNTS:
            self._install_one(
                module_name, path,
                lambda fn, n=name, b=before: self._count_wrapper(fn, n, b),
            )
        pipeline = importlib.import_module("ptanner.pipeline")
        stage_fns = pipeline._STAGE_FNS  # the only per-stage seam run_pipeline exposes
        for stage, fn in list(stage_fns.items()):
            self._undo.append((stage_fns, stage, fn))
            stage_fns[stage] = self._span_wrapper(
                fn, f"pipeline.stage.{stage}", None, _artifact_bytes
            )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # ---- passes and results ---------------------------------------------

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.counts = defaultdict(float)
        self.install()

    def end_pass(self) -> None:
        self.uninstall()
        self.pass_counts[self.pass_id] = dict(self.counts)
        self.pass_id = None

    def pass_metrics(self) -> dict[str, float]:
        """Median over traced passes of each per-pass self time, call count
        and counter."""
        per_pass: dict[int, dict[str, float]] = {
            pid: dict(counts) for pid, counts in self.pass_counts.items()
        }
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _pid in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for idx, (name, start, end, _parent, pid) in enumerate(self.spans):
            bucket = per_pass[pid]
            bucket[f"{name}.s"] = bucket.get(f"{name}.s", 0.0) + (end - start) - child_time[idx]
            bucket[f"{name}.calls"] = bucket.get(f"{name}.calls", 0) + 1
        names = {key for bucket in per_pass.values() for key in bucket}
        return {
            key: statistics.median(bucket.get(key, 0.0) for bucket in per_pass.values())
            for key in sorted(names)
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass"],
                       "spans": self.spans}, fh)
