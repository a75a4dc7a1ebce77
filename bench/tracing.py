"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each zoneval module (a module is a
layer) from outside the package: nothing under ``src/`` changes.  Each call
records a span (name, start, end, parent) in flat in-memory arrays; counts
such as IoU pairs are recorded at the same boundary.  ``metrics()`` turns the
spans into the per-layer metrics once the run has ended.

Forked pool workers inherit the wrappers but record nothing, so a run with
``workers > 1`` sees only the spans of the parent process.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np


def _pairs(a, b) -> int:
    return len(a) * len(b)


# (span name, module, attribute path, counter name, count function of the args)
TARGETS = (
    ("coco.load_ground_truth", "coco", "load_ground_truth", None, None),
    ("coco.load_detections", "coco", "load_detections", None, None),
    ("coco.from_coco_dict", "coco", "Dataset.from_coco_dict", None, None),
    ("coco.from_coco_list", "coco", "DetectionSet.from_coco_list", None, None),
    ("zones.zone_of_clamped", "zones", "Partition.zone_of_clamped", None, None),
    ("zones.zone_of", "zones", "Partition.zone_of", None, None),
    ("matching.match_image", "matching", "match_image", "matching.iou_pairs",
     lambda gts, dets, *_, **__: _pairs(gts, dets)),
    ("matching.ap_from_matches", "matching", "ap_from_matches", None, None),
    ("matching.ap_per_threshold", "matching", "ap_per_threshold", None, None),
    ("matching.ap_matrix", "matching", "ap_matrix", None, None),
    ("zone_eval.evaluate_zones", "zone_eval", "evaluate_zones", None, None),
    ("zone_eval.scale_study", "zone_eval", "scale_study", None, None),
    ("analysis.center_counts", "analysis", "center_counts", None, None),
    ("analysis.correlate_zp_distribution", "analysis", "correlate_zp_distribution", None, None),
    ("equilibrium.object_density", "equilibrium", "object_density", None, None),
    ("equilibrium.sela_assign", "equilibrium", "sela_assign", "equilibrium.iou_pairs",
     lambda anchors, gts, *_, **__: _pairs(anchors, gts)),
    ("equilibrium.supervision_density", "equilibrium", "supervision_density", None, None),
)

# per-layer metric -> (how, span names).  "total" sums the outermost spans of
# the group (a span nested in another of the same group is not counted twice),
# "self" sums self times, "calls" counts the outermost spans.
SPAN_METRICS = {
    "coco.load_gt_s": ("total", ("coco.load_ground_truth",)),
    "coco.load_dt_s": ("total", ("coco.load_detections",)),
    "coco.build_s": ("total", ("coco.from_coco_dict", "coco.from_coco_list")),
    "zones.assign_s": ("self", ("zones.zone_of_clamped", "zones.zone_of")),
    "zones.assign_calls": ("calls", ("zones.zone_of_clamped", "zones.zone_of")),
    "matching.match_s": ("total", ("matching.match_image",)),
    "matching.match_calls": ("calls", ("matching.match_image",)),
    "matching.ap_s": ("total", ("matching.ap_from_matches", "matching.ap_per_threshold")),
    "matching.ap_matrix_calls": ("calls", ("matching.ap_matrix",)),
    "zone_eval.evaluate_s": ("total", ("zone_eval.evaluate_zones",)),
    "zone_eval.evaluate_calls": ("calls", ("zone_eval.evaluate_zones",)),
    "zone_eval.self_s": ("self", ("zone_eval.evaluate_zones",)),
    "zone_eval.report_s": ("total", ("zone_eval.report",)),
    "analysis.correlate_s": ("total", ("analysis.center_counts",
                                       "analysis.correlate_zp_distribution")),
    "equilibrium.density_s": ("total", ("equilibrium.object_density",)),
    "equilibrium.sela_s": ("total", ("equilibrium.sela_assign",
                                     "equilibrium.supervision_density")),
}
COUNTERS = ("coco.records", "matching.iou_pairs", "equilibrium.iou_pairs")


class Tracer:
    """Records spans of wrapped calls; one instance per traced process."""

    def __init__(self) -> None:
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.enabled = True
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def _open(self, name: str) -> int:
        idx = len(self.span_name)
        self.span_name.append(self.name_ids.setdefault(name, len(self.name_ids)))
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_end.append(0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, name: str, n: int) -> None:
        self.counters[name] += n

    def _wrap(self, name: str, fn, counter: str | None, count_fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if counter is not None:
                self.counters[counter] += count_fn(*args, **kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def install(self) -> list[str]:
        """Wrap every target zoneval still has; returns the names of missing ones."""
        missing = []
        for module in {t[1] for t in TARGETS}:
            importlib.import_module(f"zoneval.{module}")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "zoneval" or n.startswith("zoneval."))]
        for name, module, path, counter, count_fn in TARGETS:
            owner = sys.modules[f"zoneval.{module}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                missing.append(name)
                continue
            if cls_path:
                raw = vars(owner).get(attr)
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(name, raw.__func__, counter, count_fn)))
                else:
                    setattr(owner, attr, self._wrap(name, raw, counter, count_fn))
                continue
            orig = getattr(owner, attr)
            traced = self._wrap(name, orig, counter, count_fn)
            # rebind every module-level reference, including from-imports
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, traced)
        return missing

    def _arrays(self):
        return (np.array(self.span_name, dtype=np.int32), np.array(self.span_start, dtype=np.int64),
                np.array(self.span_end, dtype=np.int64), np.array(self.span_parent, dtype=np.int64))

    def validate(self) -> list[str]:
        """Problems with the recorded spans: unclosed, escaping the parent, negative self time."""
        _, start, end, parent = self._arrays()
        problems = []
        if self.stack or (end < start).any():
            problems.append("trace: a span was left open")
        child = parent >= 0
        p = parent[child]
        if (start[child] < start[p]).any() or (end[child] > end[p]).any():
            problems.append("trace: a span does not nest inside its parent")
        if (self._self_ns(start, end, parent) < 0).any():
            problems.append("trace: a span has negative self time")
        return problems

    @staticmethod
    def _self_ns(start, end, parent) -> np.ndarray:
        dur = end - start
        covered = np.zeros_like(dur)
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        return dur - covered

    def metrics(self) -> dict[str, float | int]:
        """Per-layer metrics from the spans and counters (times in seconds)."""
        names, start, end, parent = self._arrays()
        dur = end - start
        self_ns = self._self_ns(start, end, parent)
        out: dict[str, float | int] = {}
        for metric, (how, group) in SPAN_METRICS.items():
            ids = [self.name_ids[n] for n in group if n in self.name_ids]
            member = np.isin(names, ids)
            if how == "self":
                out[metric] = int(self_ns[member].sum()) / 1e9
                continue
            # outermost members: no ancestor belongs to the group
            nested = np.zeros(names.shape, dtype=bool)
            anc = parent.copy()
            while (anc >= 0).any():
                has = anc >= 0
                nested[has] |= member[anc[has]]
                anc[has] = parent[anc[has]]
            outer = member & ~nested
            out[metric] = int(outer.sum()) if how == "calls" else int(dur[outer].sum()) / 1e9
        out.update(self.counters)
        return out
