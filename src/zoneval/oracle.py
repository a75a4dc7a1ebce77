"""Brute-force AP reference, used only by the test suite.

Everything here is deliberately re-derived from the metric definition with no
code shared with the production path: its own overlap computation, a plain
scan for the greedy match, and interpolated precision evaluated directly as
"the best precision at any recall >= r".  It only accepts small instances.
``zone_instance`` cuts out one zone's members for it, again with its own
center, clamp and normalize arithmetic and no use of ``Partition.assign``.
"""

from __future__ import annotations

import math

from .coco import Dataset, DetectionSet
from .matching import EvalConfig
from .zones import Zone

MAX_IMAGES = 6
MAX_DETS_PER_IMAGE = 10


def _overlap(a, b) -> float:
    ax0, ay0, ax1, ay1 = a.x, a.y, a.x + a.w, a.y + a.h
    bx0, by0, bx1, by1 = b.x, b.y, b.x + b.w, b.y + b.h
    w = min(ax1, bx1) - max(ax0, bx0)
    h = min(ay1, by1) - max(ay0, by0)
    if w <= 0 or h <= 0:
        return 0.0
    inter = w * h
    return inter / ((ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter)


def _in_zone(box, img, zone: Zone) -> bool:
    """Whether the box center, clamped into the image and normalized, lies in the zone."""
    below_one = math.nextafter(1.0, 0.0)
    u = min(max(box.x + box.w / 2.0, 0.0), img.width) / img.width
    v = min(max(box.y + box.h / 2.0, 0.0), img.height) / img.height
    return zone.contains(min(u, below_one), min(v, below_one))


def zone_instance(
    ds: Dataset, dets: DetectionSet, zone: Zone, cfg: EvalConfig
) -> tuple[Dataset, DetectionSet]:
    """The ground truths and detections of one zone, as a standalone instance.

    Detections are capped per image before the zone filter, or, with
    ``cfg.cap_after_zone``, after it.
    """
    gts = [g for g in ds.ground_truths if _in_zone(g.bbox, ds.images_by_id[g.image_id], zone)]
    kept = []
    for img in ds.images:
        ranked = dets.for_image(img.id)
        if not cfg.cap_after_zone:
            ranked = ranked[: cfg.max_dets_per_image]
        members = [d for d in ranked if _in_zone(d.bbox, img, zone)]
        kept += members[: cfg.max_dets_per_image]
    sub = Dataset(ds.images, ds.categories, gts)
    return sub, DetectionSet(kept, sub)


def ap_oracle(ds: Dataset, dets: DetectionSet, cfg: EvalConfig) -> float | None:
    """Whole-image AP computed naively. Raises on instances too large.

    Returns None when no category has a countable ground truth.
    """
    if len(ds.images) > MAX_IMAGES:
        raise ValueError(f"oracle instance too large: {len(ds.images)} images")
    for img in ds.images:
        if len(dets.for_image(img.id)) > MAX_DETS_PER_IMAGE:
            raise ValueError(f"oracle instance too large: image {img.id} detections")

    lo, hi = cfg.scale_range if cfg.scale_range is not None else (0.0, float("inf"))

    ap_values = []
    for cat in ds.categories:
        # gather per-image records for this category
        n_countable = 0
        per_image = []
        for img in ds.images:
            gts = [g for g in ds.gts_by_image[img.id] if g.category_id == cat.id]
            capped = dets.for_image(img.id)[: cfg.max_dets_per_image]
            dts = [d for d in capped if d.category_id == cat.id]
            gt_ignored = [g.ignore or not (lo <= g.area < hi) for g in gts]
            n_countable += gt_ignored.count(False)
            per_image.append((gts, gt_ignored, dts))
        if n_countable == 0:
            continue

        thr_aps = []
        for t in cfg.iou_thresholds:
            outcomes = []  # (score, seq, kind) with kind in {"tp", "fp"}; ignored dropped
            seq = 0
            for gts, gt_ignored, dts in per_image:
                used = [False] * len(gts)
                for d in dts:
                    # best unmatched real gt, then best unmatched ignored gt
                    best, best_iou = -1, -1.0
                    for gi, g in enumerate(gts):
                        if used[gi] or gt_ignored[gi]:
                            continue
                        ov = _overlap(d.bbox, g.bbox)
                        if ov >= t and ov >= best_iou:
                            best, best_iou = gi, ov
                    if best >= 0:
                        used[best] = True
                        outcomes.append((d.score, seq, "tp"))
                        seq += 1
                        continue
                    best, best_iou = -1, -1.0
                    for gi, g in enumerate(gts):
                        if used[gi] or not gt_ignored[gi]:
                            continue
                        ov = _overlap(d.bbox, g.bbox)
                        if ov >= t and ov >= best_iou:
                            best, best_iou = gi, ov
                    if best >= 0:
                        used[best] = True  # absorbed by an ignored gt
                        seq += 1
                        continue
                    if lo <= d.bbox.w * d.bbox.h < hi:
                        outcomes.append((d.score, seq, "fp"))
                    seq += 1

            outcomes.sort(key=lambda o: (-o[0], o[1]))
            pr_points = []
            tp = fp = 0
            for _, _, kind in outcomes:
                tp += kind == "tp"
                fp += kind == "fp"
                pr_points.append((tp / n_countable, tp / (tp + fp)))

            total = 0.0
            for k in range(cfg.recall_points):
                r = k / (cfg.recall_points - 1)
                best_p = 0.0
                for rec, prec in pr_points:
                    if rec >= r and prec > best_p:
                        best_p = prec
                total += best_p
            thr_aps.append(total / cfg.recall_points)
        ap_values.append(sum(thr_aps) / len(thr_aps))

    if not ap_values:
        return None
    return sum(ap_values) / len(ap_values)
