"""Greedy IoU matching and interpolated Average Precision.

This is the metric kernel that zone evaluation restricts: detections are
matched per image and category in descending score order, each claiming the
unmatched non-ignored ground truth of highest IoU at or above the threshold.
A detection that only reaches an ignored ground truth is itself ignored, as
is an unmatched detection whose own box area falls outside the configured
scale range.  Every ground truth is matched at most once per threshold.

AP follows the conventional COCO recipe: cumulative TP/FP in global score
order, precision monotonized from the right, sampled at evenly spaced recall
points, averaged over categories (those with at least one countable ground
truth) and IoU thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coco import Detection, GroundTruth, iou_matrix, xywh

DEFAULT_IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))


@dataclass(frozen=True)
class EvalConfig:
    iou_thresholds: tuple[float, ...] = DEFAULT_IOU_THRESHOLDS
    recall_points: int = 101
    max_dets_per_image: int = 100
    scale_range: tuple[float, float] | None = None  # [lo, hi) in pixels^2
    cap_after_zone: bool = False

    def __post_init__(self) -> None:
        ts = self.iou_thresholds
        if not ts or any(not 0.0 < t <= 1.0 for t in ts):
            raise ValueError("iou thresholds must lie in (0, 1]")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("iou thresholds must be strictly increasing")
        if self.recall_points < 2:
            raise ValueError("recall_points must be >= 2")
        if self.max_dets_per_image < 1:
            raise ValueError("max_dets_per_image must be >= 1")
        if self.scale_range is not None and not self.scale_range[0] < self.scale_range[1]:
            raise ValueError("scale_range must satisfy lo < hi")

    def recall_grid(self) -> np.ndarray:
        # k/(R-1) by IEEE division, bit-identical to a scalar re-derivation
        return np.arange(self.recall_points) / (self.recall_points - 1)


@dataclass
class MatchFragment:
    """Matching outcome for one (image, category) pair.

    ``entries[t]`` lists (score, is_tp, is_ignored) per detection in
    descending score order, one list per IoU threshold; ``n_pos_gt`` counts
    the non-ignored ground truths.
    """

    n_pos_gt: int
    entries: list[list[tuple[float, bool, bool]]]


def _in_range(area: float, rng: tuple[float, float] | None) -> bool:
    return rng is None or rng[0] <= area < rng[1]


def match_image(
    gts: list[GroundTruth], dets: list[Detection], cfg: EvalConfig
) -> MatchFragment:
    """Match one image's detections of one category against its ground truths.

    ``dets`` must already be sorted by descending score and truncated to the
    per-image cap. Ties in IoU go to the later ground truth in the
    (non-ignored first, stable) order, and a non-ignored match is always
    preferred over an ignored one.
    """
    ignored = [g.ignore or not _in_range(g.area, cfg.scale_range) for g in gts]
    n_pos = sum(1 for flag in ignored if not flag)
    if not dets:
        return MatchFragment(n_pos, [[] for _ in cfg.iou_thresholds])

    order = sorted(range(len(gts)), key=lambda i: ignored[i])  # non-ignored first, stable
    gts_sorted = [gts[i] for i in order]
    ign_sorted = [ignored[i] for i in order]

    det_in_range = [_in_range(d.bbox.area, cfg.scale_range) for d in dets]

    min_t = cfg.iou_thresholds[0]
    if gts_sorted:
        ious = iou_matrix(xywh([d.bbox for d in dets]), xywh([g.bbox for g in gts_sorted]))
        # per detection: candidate gts with iou >= lowest threshold, best first
        candidates = [
            sorted(
                ((ious[di, gi], gi) for gi in range(len(gts_sorted)) if ious[di, gi] >= min_t),
                key=lambda c: (-c[0], -c[1]),
            )
            for di in range(len(dets))
        ]
    else:
        candidates = [[] for _ in dets]

    entries: list[list[tuple[float, bool, bool]]] = []
    for t in cfg.iou_thresholds:
        matched = [False] * len(gts_sorted)
        rows = []
        for di, det in enumerate(dets):
            best_real = -1
            best_ign = -1
            for cand_iou, gi in candidates[di]:
                if cand_iou < t:
                    break
                if matched[gi]:
                    continue
                if ign_sorted[gi]:
                    if best_ign < 0:
                        best_ign = gi
                else:
                    best_real = gi
                    break
            if best_real >= 0:
                matched[best_real] = True
                rows.append((det.score, True, False))
            elif best_ign >= 0:
                matched[best_ign] = True
                rows.append((det.score, False, True))
            else:
                rows.append((det.score, False, not det_in_range[di]))
        entries.append(rows)
    return MatchFragment(n_pos, entries)


class MatchTable:
    """Accumulates per-image fragments keyed by category.

    Fragments may arrive in any order; the merged view concatenates them by
    ascending image id before the global score sort, so the result is
    independent of insertion order.
    """

    def __init__(self, category_ids: list[int], n_thresholds: int) -> None:
        self.category_ids = list(category_ids)
        self.n_thresholds = n_thresholds
        self._rank = {c: i for i, c in enumerate(self.category_ids)}
        self._fragments: dict[int, dict[int, MatchFragment]] = {}

    def add(self, category_id: int, image_id: int, fragment: MatchFragment) -> None:
        if category_id not in self._rank:
            raise KeyError(f"category {category_id} is not in the table")
        per_cat = self._fragments.setdefault(category_id, {})
        if image_id in per_cat:
            raise ValueError(f"duplicate fragment for image {image_id}, category {category_id}")
        per_cat[image_id] = fragment

    def categories(self) -> list[int]:
        """Categories holding at least one fragment, in ``category_ids`` order."""
        return sorted(self._fragments, key=self._rank.__getitem__)

    def merged(self, category_id: int) -> tuple[int, list[list[tuple[float, bool, bool]]]]:
        """(total non-ignored GT count, per-threshold entry lists) for a category."""
        per_cat = self._fragments.get(category_id, {})
        npig = 0
        entries: list[list[tuple[float, bool, bool]]] = [[] for _ in range(self.n_thresholds)]
        for image_id in sorted(per_cat):
            frag = per_cat[image_id]
            npig += frag.n_pos_gt
            for ti in range(self.n_thresholds):
                entries[ti].extend(frag.entries[ti])
        return npig, entries


def _ap_single(
    entries: list[tuple[float, bool, bool]], npig: int, recall_grid: np.ndarray
) -> float:
    """AP of one (category, threshold) slice. npig must be positive."""
    kept = [(s, tp) for s, tp, ign in entries if not ign]
    if not kept:
        return 0.0
    scores = np.array([s for s, _ in kept])
    tps = np.array([tp for _, tp in kept], dtype=bool)
    order = np.argsort(-scores, kind="stable")
    tps = tps[order]
    tp_cum = np.cumsum(tps)
    fp_cum = np.cumsum(~tps)
    recall = tp_cum / npig
    precision = tp_cum / (tp_cum + fp_cum)
    # monotonize from the right: precision at recall r becomes the max at >= r
    precision = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, recall_grid, side="left")
    sampled = np.where(idx < len(precision), precision[np.minimum(idx, len(precision) - 1)], 0.0)
    return float(sampled.mean())


def ap_matrix(table: MatchTable, cfg: EvalConfig) -> dict[int, list[float]]:
    """Per-category, per-threshold AP; categories without ground truth omitted.

    Only categories that hold fragments are visited, in ``category_ids`` order.
    """
    grid = cfg.recall_grid()
    out: dict[int, list[float]] = {}
    for cat in table.categories():
        npig, entries = table.merged(cat)
        if npig == 0:
            continue
        out[cat] = [_ap_single(entries[ti], npig, grid) for ti in range(table.n_thresholds)]
    return out


def mean_ap(matrix: dict[int, list[float]]) -> float | None:
    """Mean of an ap_matrix over all its (category, threshold) entries; None if empty."""
    if not matrix:
        return None
    return float(np.mean([v for row in matrix.values() for v in row]))


def threshold_aps(matrix: dict[int, list[float]], n_thresholds: int) -> list[float | None]:
    """Mean of an ap_matrix over categories, one value per IoU threshold."""
    if not matrix:
        return [None] * n_thresholds
    return [float(np.mean([row[ti] for row in matrix.values()])) for ti in range(n_thresholds)]


def ap_from_matches(table: MatchTable, cfg: EvalConfig) -> float | None:
    """Overall AP in [0, 1]: mean over included categories and thresholds.

    Returns None (undefined) when no category has any countable ground truth,
    which is distinct from a measured 0.0.
    """
    return mean_ap(ap_matrix(table, cfg))


def ap_per_threshold(table: MatchTable, cfg: EvalConfig) -> list[float | None]:
    """AP restricted to each IoU threshold, aligned with cfg.iou_thresholds."""
    return threshold_aps(ap_matrix(table, cfg), table.n_thresholds)
