"""Zone-restricted evaluation: ZP series, variance, scale studies, heatmaps.

Each zone is evaluated as a standalone sub-problem containing exactly the
ground truths and detections whose box centers fall in it, so the union of
all zones reproduces the full-image evaluation and the whole-image zone
reproduces AP bit-for-bit.

One geometry pass per evaluation does everything that does not depend on the
scale range: the per-image cap, one ``Partition.assign`` call for all box
centers, and per image one IoU matrix of detections x ground truths.  It
keeps the candidate pairs (same category, IoU at or above the lowest
threshold) as flat dataset-wide arrays.  A detection is a row twice, once in
its zone and once in the whole image; a zone pair is a whole-image pair whose
detection and ground truth share a zone.

Count, then match: a ground truth is countable when it is not crowd and its
area lies in the configured scale range.  Only the pairs of (zone, category)
segments holding a countable ground truth go through the greedy pass
(``matching.greedy_match``), which handles every group of every image and
every IoU threshold at once.  This is exact: AP accumulation leaves every
other segment out of the zone's mean (as COCO's accumulate does).  AP then
takes the rows of each segment in one precomputed stable score order.

The scale study builds the geometry once and, per scale bin, reruns only the
countable set, the greedy pass and AP.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .coco import Dataset, DetectionSet, box_centers, iou_matrix, xywh
from .matching import (
    EvalConfig,
    average_precision,
    greedy_match,
    in_scale_range,
    mean_ap,
    pair_order,
    rank_within,
    threshold_aps,
)
from .zones import Grid, Partition, build_partition, grid_rows, spec_label

@dataclass
class ZoneResult:
    zone_id: str
    zp: float | None  # percent
    zp_by_threshold: list[float | None]
    gt_count: int
    det_count: int
    area_fraction: float


@dataclass
class ZoneReport:
    partition: str
    iou_thresholds: tuple[float, ...]
    zones: list[ZoneResult]
    full_ap: float | None  # percent

    @property
    def undefined_zones(self) -> list[str]:
        """Zones with no ground truth in any category, whose ZP is undefined."""
        return [z.zone_id for z in self.zones if z.zp is None]

    @property
    def zp_variance(self) -> float | None:
        """Variance (percent^2) of the defined ZPs; None when no zone has one."""
        defined = [z.zp for z in self.zones if z.zp is not None]
        return zp_variance(defined) if defined else None

    def to_json_dict(self) -> dict:
        return {
            "meta": {
                "partition": self.partition,
                "iou_thresholds": list(self.iou_thresholds),
            },
            "zones": [
                {
                    "id": z.zone_id,
                    "zp": z.zp,
                    "zp_by_threshold": z.zp_by_threshold,
                    "gt_count": z.gt_count,
                    "det_count": z.det_count,
                    "area_fraction": z.area_fraction,
                }
                for z in self.zones
            ],
            "variance": self.zp_variance,
            "full_ap": self.full_ap,
            "undefined_zones": self.undefined_zones,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def write_csv(self, f) -> None:
        writer = csv.writer(f)
        header = ["zone", "zp", "gt_count", "det_count", "area_fraction"]
        header += [f"zp@{t:g}" for t in self.iou_thresholds]
        writer.writerow(header)
        for z in self.zones:
            row = [z.zone_id, _cell(z.zp), z.gt_count, z.det_count, repr(z.area_fraction)]
            row += [_cell(v) for v in z.zp_by_threshold]
            writer.writerow(row)


def _cell(v: float | None) -> str:
    return "" if v is None else repr(v)


def zp_variance(zps: list[float]) -> float:
    """Population variance of a zone-metric series (percent^2).

    A constant series returns exactly 0.0 (the rounded mean of n equal floats
    can otherwise leave residue on the order of 1e-32).
    """
    if not zps:
        raise ValueError("variance of an empty ZP series is undefined")
    if all(z == zps[0] for z in zps):
        return 0.0
    mean = sum(zps) / len(zps)
    return sum((z - mean) ** 2 for z in zps) / len(zps)


@dataclass
class _Geometry:
    """The scale-independent part of one evaluation, as flat arrays.

    Ground truths are indexed in image order.  Row ``d`` is detection ``d`` in
    its zone and row ``n_dets + d`` the same detection in the whole image.  A
    segment is a (zone, category) pair, ``zone * n_categories + category``,
    with zone index ``n_zones`` standing for the whole image.
    """

    n_zones: int
    category_ids: list[int]
    gt_cat: np.ndarray  # category index per ground truth
    gt_seg: np.ndarray  # zone segment per ground truth
    gt_area: np.ndarray
    gt_crowd: np.ndarray
    row_seg: np.ndarray
    row_area: np.ndarray  # box area of the row's detection
    pair_row: np.ndarray  # candidate pairs, in matching.pair_order
    pair_slot: np.ndarray  # ground truth g in its zone, n_gts + g in the whole image
    pair_iou: np.ndarray
    pair_step: np.ndarray
    ap_rows: np.ndarray  # rows that exist, by (segment, -score), ties in detection order
    ap_seg: np.ndarray
    gt_counts: list[int]
    det_counts: list[int]


def _candidate_pairs(
    dt_box: np.ndarray,
    gt_box: np.ndarray,
    dt_cat: np.ndarray,
    gt_cat: np.ndarray,
    dt_per_image: np.ndarray,
    gt_per_image: np.ndarray,
    min_iou: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(detection, ground truth, IoU) of same-image, same-category pairs with IoU >= min_iou.

    Boxes are laid out image by image; one IoU matrix per image.
    """
    found = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))]
    dt_start = np.cumsum(dt_per_image) - dt_per_image
    gt_start = np.cumsum(gt_per_image) - gt_per_image
    for a, n, c, m in zip(dt_start.tolist(), dt_per_image.tolist(),
                          gt_start.tolist(), gt_per_image.tolist()):
        if n and m:
            ious = iou_matrix(dt_box[a : a + n], gt_box[c : c + m])
            hit = (ious >= min_iou) & (dt_cat[a : a + n, None] == gt_cat[None, c : c + m])
            d, g = np.nonzero(hit)
            found.append((d + a, g + c, ious[d, g]))
    det, gt, iou = zip(*found)
    return np.concatenate(det), np.concatenate(gt), np.concatenate(iou)


def _geometry(ds: Dataset, dets: DetectionSet, partition: Partition, cfg: EvalConfig) -> _Geometry:
    """Cap, zone lookup and candidate pairs of every image; independent of ``cfg.scale_range``."""
    cap = cfg.max_dets_per_image
    n_zones, n_cat = len(partition.zones), len(ds.category_ids)
    cat_index = {c: i for i, c in enumerate(ds.category_ids)}
    gts = [g for img in ds.images for g in ds.gts_by_image[img.id]]
    ranked = [dets.for_image(img.id) for img in ds.images]
    if not cfg.cap_after_zone:
        ranked = [r[:cap] for r in ranked]
    dts = [d for r in ranked for d in r]
    n_gt, n_dt = len(gts), len(dts)

    gt_per_image = np.array([len(ds.gts_by_image[img.id]) for img in ds.images], dtype=np.int64)
    dt_per_image = np.array([len(r) for r in ranked], dtype=np.int64)
    image_index = np.arange(len(ds.images))
    gt_img, dt_img = np.repeat(image_index, gt_per_image), np.repeat(image_index, dt_per_image)
    gt_box, dt_box = xywh([g.bbox for g in gts]), xywh([d.bbox for d in dts])
    size = np.array([(img.width, img.height) for img in ds.images], dtype=float).reshape(-1, 2)
    owner = np.concatenate([gt_img, dt_img])
    zone = partition.assign(*box_centers(np.concatenate([gt_box, dt_box])),
                            size[owner, 0], size[owner, 1])
    gt_zone, dt_zone = zone[:n_gt], zone[n_gt:]
    gt_cat = np.array([cat_index[g.category_id] for g in gts], dtype=np.int64)
    dt_cat = np.array([cat_index[d.category_id] for d in dts], dtype=np.int64)

    # which detections survive the cap, as whole-image rows and as zone rows
    in_whole = rank_within(dt_img) < cap
    in_zone = rank_within(dt_img * n_zones + dt_zone) < cap if cfg.cap_after_zone else in_whole

    det, gt, iou = _candidate_pairs(dt_box, gt_box, dt_cat, gt_cat, dt_per_image, gt_per_image,
                                    cfg.iou_thresholds[0])
    same_zone = in_zone[det] & (dt_zone[det] == gt_zone[gt])
    whole = in_whole[det]
    pair_row = np.concatenate([det[same_zone], n_dt + det[whole]])
    pair_slot = np.concatenate([gt[same_zone], n_gt + gt[whole]])
    pair_iou = np.concatenate([iou[same_zone], iou[whole]])

    row_seg = np.concatenate([dt_zone * n_cat + dt_cat, n_zones * n_cat + dt_cat])
    row_group = row_seg * len(ds.images) + np.concatenate([dt_img, dt_img])
    order, pair_step = pair_order(pair_row, pair_slot, pair_iou, row_group)

    score = np.array([d.score for d in dts], dtype=float)
    rows = np.flatnonzero(np.concatenate([in_zone, in_whole]))
    ap_rows = rows[np.lexsort((-np.concatenate([score, score])[rows], row_seg[rows]))]
    area = dt_box[:, 2] * dt_box[:, 3]
    return _Geometry(
        n_zones=n_zones,
        category_ids=list(ds.category_ids),
        gt_cat=gt_cat,
        gt_seg=gt_zone * n_cat + gt_cat,
        gt_area=np.array([g.area for g in gts], dtype=float),
        gt_crowd=np.array([g.ignore for g in gts], dtype=bool),
        row_seg=row_seg.astype(np.int32),
        row_area=np.concatenate([area, area]),
        pair_row=pair_row[order].astype(np.int32),
        pair_slot=pair_slot[order].astype(np.int32),
        pair_iou=pair_iou[order],
        pair_step=pair_step.astype(np.int32),
        ap_rows=ap_rows.astype(np.int32),
        ap_seg=row_seg[ap_rows].astype(np.int32),
        gt_counts=np.bincount(gt_zone, minlength=n_zones).tolist(),
        det_counts=np.bincount(dt_zone[in_zone], minlength=n_zones).tolist(),
    )


def _gt_ignored(geo: _Geometry, cfg: EvalConfig) -> np.ndarray:
    return geo.gt_crowd | ~in_scale_range(geo.gt_area, cfg.scale_range)


def _positives(geo: _Geometry, cfg: EvalConfig) -> np.ndarray:
    """Countable ground truths per segment (crowd and out-of-range ones do not count)."""
    pos = ~_gt_ignored(geo, cfg)
    n_cat = len(geo.category_ids)
    in_segments = np.concatenate([geo.gt_seg[pos], geo.n_zones * n_cat + geo.gt_cat[pos]])
    return np.bincount(in_segments, minlength=(geo.n_zones + 1) * n_cat)


def _match(
    geo: _Geometry, cfg: EvalConfig, countable: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy pass over the pairs of the countable segments: (live pairs, tp, ignored).

    ``tp`` and ``ignored`` are (rows, T); rows of other segments are left unmatched.
    """
    gt_ignored = _gt_ignored(geo, cfg)
    live = countable[geo.row_seg[geo.pair_row]]
    tp, ignored = greedy_match(
        geo.pair_row[live], geo.pair_slot[live], geo.pair_iou[live], geo.pair_step[live],
        np.concatenate([gt_ignored, gt_ignored]), len(geo.row_seg), cfg.iou_thresholds,
    )
    ignored |= ~tp & ~in_scale_range(geo.row_area, cfg.scale_range)[:, None]
    return live, tp, ignored


def _evaluate(geo: _Geometry, partition: Partition, cfg: EvalConfig) -> ZoneReport:
    """Count, match and accumulate AP per zone into a report."""
    n_pos = _positives(geo, cfg)
    countable = n_pos > 0
    _, tp, ignored = _match(geo, cfg, countable)
    keep = countable[geo.ap_seg]
    rows, row_seg = geo.ap_rows[keep], geo.ap_seg[keep]
    segs = np.flatnonzero(countable)
    aps = average_precision(tp[rows].T, ignored[rows].T, np.searchsorted(row_seg, segs),
                            n_pos[segs], cfg.recall_grid())

    # a zone's segments are one run of rows of aps, in category order
    bounds = np.searchsorted(segs, np.arange(geo.n_zones + 2) * len(geo.category_ids)).tolist()
    zone_aps = [aps[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    zone_results = []
    for zid, zaps, n_gt, n_det in zip(partition.zone_ids, zone_aps, geo.gt_counts, geo.det_counts):
        ap = mean_ap(zaps)
        per_thr = threshold_aps(zaps)
        zone_results.append(
            ZoneResult(
                zone_id=zid,
                zp=None if ap is None else 100.0 * ap,
                zp_by_threshold=[None if v is None else 100.0 * v for v in per_thr],
                gt_count=n_gt,
                det_count=n_det,
                area_fraction=partition.area_fraction(zid),
            )
        )

    full = mean_ap(zone_aps[-1])
    return ZoneReport(
        partition=spec_label(partition.spec),
        iou_thresholds=cfg.iou_thresholds,
        zones=zone_results,
        full_ap=None if full is None else 100.0 * full,
    )


def evaluate_zones(
    ds: Dataset,
    dets: DetectionSet,
    partition: Partition,
    cfg: EvalConfig | None = None,
    workers: int = 1,
) -> ZoneReport:
    """Evaluate every zone of a partition plus the whole image.

    Zones with no ground truth in any category get an undefined ZP; they are
    reported in ``undefined_zones`` and excluded from the variance.
    ``workers`` is accepted for compatibility and ignored.
    """
    cfg = cfg or EvalConfig()
    return _evaluate(_geometry(ds, dets, partition, cfg), partition, cfg)


SCALE_STEPS = (4, 8, 16, 32, 64, 128)
SCALE_CAP = 256


def scale_bins(r: int | None, cap: int = SCALE_CAP) -> list[tuple[float, float]]:
    """Area bins [(kr)^2, ((k+1)r)^2) up to cap^2, then a catch-all to infinity.

    r=None stands for the all-scales setting: a single [0, inf) bin.  The
    catch-all starts where the last finite bin ends, so the bins always cover
    [0, inf) even when r does not divide the cap.
    """
    if r is None:
        return [(0.0, math.inf)]
    bins = []
    k = 0
    while (k + 1) * r <= cap:
        bins.append((float((k * r) ** 2), float(((k + 1) * r) ** 2)))
        k += 1
    bins.append((bins[-1][1] if bins else 0.0, math.inf))
    return bins


@dataclass
class ScaleStudyReport:
    steps: tuple[int | None, ...]
    zone_ids: list[str]
    # per step: per-zone mean ZP over the bins where the zone has ground truth
    mean_zp: dict[int | None, list[float | None]]
    grand_mean: list[float | None]

    def to_json_dict(self) -> dict:
        return {
            "zone_ids": self.zone_ids,
            "per_scale_step": {
                "inf" if r is None else str(r): self.mean_zp[r] for r in self.steps
            },
            "grand_mean": self.grand_mean,
        }


def scale_study(
    ds: Dataset,
    dets: DetectionSet,
    partition: Partition,
    cfg: EvalConfig | None = None,
    steps: tuple[int | None, ...] = SCALE_STEPS + (None,),
    workers: int = 1,
) -> ScaleStudyReport:
    """Mean ZP per zone over object-scale bins, for each bin-width step.

    Each step r slices ground truth by box area into scale_bins(r); every bin
    is evaluated separately and a zone's mean is taken over the bins where it
    has a defined ZP.  The grand mean averages the per-step means.

    Each bin's report equals ``evaluate_zones`` with that bin as
    ``scale_range``.  The geometry (cap, zones, candidate pairs and their IoU)
    does not depend on the bin, so it is computed once; each bin only
    rebuilds its countable set, reruns the greedy pass and accumulates AP.
    ``workers`` is accepted for compatibility and ignored.
    """
    cfg = cfg or EvalConfig()
    zone_ids = partition.zone_ids
    geo = _geometry(ds, dets, partition, cfg)
    mean_zp: dict[int | None, list[float | None]] = {}
    for r in steps:
        sums = [0.0] * len(zone_ids)
        counts = [0] * len(zone_ids)
        for lo, hi in scale_bins(r):
            bin_cfg = replace(cfg, scale_range=(lo, hi))
            report = _evaluate(geo, partition, bin_cfg)
            for zi, z in enumerate(report.zones):
                if z.zp is not None:
                    sums[zi] += z.zp
                    counts[zi] += 1
        mean_zp[r] = [s / c if c else None for s, c in zip(sums, counts)]

    grand: list[float | None] = []
    for zi in range(len(zone_ids)):
        vals = [mean_zp[r][zi] for r in steps if mean_zp[r][zi] is not None]
        grand.append(sum(vals) / len(vals) if vals else None)
    return ScaleStudyReport(tuple(steps), zone_ids, mean_zp, grand)


def grid_heatmap(
    ds: Dataset, dets: DetectionSet, rows: int, cols: int, cfg: EvalConfig | None = None
) -> list[list[float | None]]:
    """ZP matrix over a rows x cols grid; None marks cells without ground truth."""
    partition = build_partition(Grid(rows, cols))
    return grid_rows(partition, [z.zp for z in evaluate_zones(ds, dets, partition, cfg).zones])


def write_heatmap_csv(matrix: list[list[float | None]], f) -> None:
    """Row-major CSV; undefined cells are left empty."""
    writer = csv.writer(f)
    for row in matrix:
        writer.writerow([_cell(v) for v in row])


def read_heatmap_csv(f) -> list[list[float | None]]:
    out = []
    for row in csv.reader(f):
        out.append([None if cell == "" else float(cell) for cell in row])
    return out
