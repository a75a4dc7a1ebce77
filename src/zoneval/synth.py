"""Synthetic datasets: regular 3x3 layouts and per-zone-quality benchmarks.

The benchmark generator builds detection sets whose per-zone quality is
chosen up front, which makes every zone metric analytically predictable: with
zero localization jitter each planted detection has IoU 1 with its ground
truth, false positives overlap nothing at or above IoU 0.45, and true
positives always outscore false positives.  The expected report returned
alongside the data is exact under those conditions for IoU thresholds >= 0.5.

No pixels are ever rendered; layouts exist as annotations plus a placement
manifest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coco import (BBox, Category, Dataset, Detection, DetectionSet, GroundTruth, ImageInfo, box_centers, iou,
                   iou_matrix, xywh)
from .equilibrium import spatial_weight
from .matching import DEFAULT_IOU_THRESHOLDS
from .zone_eval import ZoneReport, ZoneResult, _sum
from .zones import Grid, Partition, Zone, build_partition, spec_label

GRID_SIDE = 3  # layout and evaluation grid are both 3x3

# the per-zone-quality benchmark: one category of boxes on equal-size images,
# scored as by an EvalConfig with its default recall points
_IMAGE_SIZE = (640.0, 640.0)
_BOX_SIDE_RANGE = (24.0, 96.0)
_CATEGORY_ID = 1
_RECALL_POINTS = 101


@dataclass(frozen=True)
class SudokuConfig:
    objects: tuple[tuple[int, int], ...]  # (source object id, category id)
    canvas: float = 600.0
    object_size: float = 128.0

    def __post_init__(self) -> None:
        if self.canvas <= 0:
            raise ValueError("canvas must be positive")
        if not self.object_size < self.canvas / GRID_SIDE:
            raise ValueError("object_size must be smaller than one grid cell")
        if not self.objects:
            raise ValueError("layout needs at least one object")


def sudoku_layout(cfg: SudokuConfig) -> tuple[Dataset, list[dict]]:
    """Place fixed-size objects round-robin on a 3x3 grid of square canvases.

    Object k goes to cell k mod 9 (row-major) of image k // 9, centered at
    ((2*col+1), (2*row+1)) * canvas/6.  Returns the dataset plus a manifest
    mapping each placement back to its source object.
    """
    n_cells = GRID_SIDE * GRID_SIDE
    n_images = math.ceil(len(cfg.objects) / n_cells)
    images = [
        ImageInfo(id=i + 1, width=cfg.canvas, height=cfg.canvas, file_name=f"sudoku_{i + 1:06d}")
        for i in range(n_images)
    ]
    cat_ids = sorted({cat for _, cat in cfg.objects})
    categories = [Category(id=c, name=f"category-{c}") for c in cat_ids]

    zone_ids = build_partition(Grid(GRID_SIDE, GRID_SIDE)).zone_ids
    gts = []
    manifest = []
    half = cfg.object_size / 2.0
    for k, (source_id, cat_id) in enumerate(cfg.objects):
        cell = k % n_cells
        row, col = divmod(cell, GRID_SIDE)
        cx = (2 * col + 1) * cfg.canvas / 6.0
        cy = (2 * row + 1) * cfg.canvas / 6.0
        gt_id = k + 1
        image_id = k // n_cells + 1
        gts.append(
            GroundTruth(
                id=gt_id,
                image_id=image_id,
                category_id=cat_id,
                bbox=BBox(cx - half, cy - half, cfg.object_size, cfg.object_size),
                area=cfg.object_size * cfg.object_size,
            )
        )
        manifest.append(
            {
                "gt_id": gt_id,
                "image_id": image_id,
                "cell": [row, col],
                "zone": zone_ids[cell],
                "source_id": source_id,
            }
        )
    return Dataset(images, categories, gts), manifest


@dataclass(frozen=True)
class ZoneQuality:
    recall: float
    fp_per_tp: float = 0.0
    loc_jitter: float = 0.0  # pixels

    def __post_init__(self) -> None:
        if not 0.0 <= self.recall <= 1.0:
            raise ValueError(f"infeasible profile: recall {self.recall} outside [0, 1]")
        # capping fp_per_tp at COCO's 100 detections per image bounds the planting loop;
        # the jitter is drawn from [-loc_jitter, loc_jitter], a range that must be finite
        if not (0 <= self.fp_per_tp <= 100 and 0 <= 2 * self.loc_jitter < math.inf):
            raise ValueError(
                "fp_per_tp must lie in [0, 100] and loc_jitter be >= 0 with 2 * loc_jitter finite"
            )


def _linear_score(quality: float) -> float:
    return 0.25 + 0.7 * quality


@dataclass(frozen=True)
class QualityProfile:
    zones: dict[str, ZoneQuality]
    rng_seed: int = 0


def zone_mean_weight(zone: Zone) -> float:
    """Area-weighted spatial weight of a zone's rectangle centers.

    Cheap monotone proxy for how close to the border a zone sits; used to
    build graded quality profiles.
    """
    x0, y0, x1, y1 = np.array([(r.x0, r.y0, r.x1, r.y1) for r in zone.rects]).reshape(-1, 4).T
    area = (x1 - x0) * (y1 - y0)
    weight = spatial_weight((x0 + x1) / 2.0, (y0 + y1) / 2.0, 1.0, 1.0)
    den = _sum(area.tolist())  # summed in rectangle order
    return _sum((area * weight).tolist()) / den if den else 0.0


def graded_profile(
    partition: Partition,
    best_recall: float = 0.95,
    worst_recall: float = 0.4,
    rng_seed: int = 0,
) -> QualityProfile:
    """Quality declining from image center to border across the partition."""
    zones = {}
    for z in partition.zones:
        w = zone_mean_weight(z)
        zones[z.id] = ZoneQuality(recall=best_recall + (worst_recall - best_recall) * w)
    return QualityProfile(zones, rng_seed=rng_seed)


def _closed_form_zp(n_tp: int, n_gt: int) -> float:
    """Percent ZP of a step PR curve: all TPs ranked above all FPs."""
    if n_tp == 0:
        return 0.0
    covered = ((_RECALL_POINTS - 1) * n_tp) // n_gt + 1
    return 100.0 * covered / _RECALL_POINTS


_FP_IOU_CEILING = 0.45  # planted false positives stay below the lowest threshold
# a center is kept with probability exp(-bias * weight), about 2 / bias**2 on average for a
# large bias: 50 keeps one draw in about 1,250, and a bias much larger never finishes
_MAX_CENTER_BIAS = 50.0


def synthetic_benchmark(
    n_images: int,
    n_objects: int,
    center_bias: float,
    profile: QualityProfile,
    partition: Partition,
) -> tuple[Dataset, DetectionSet, ZoneReport]:
    """Generate (ground truth, detections, expected report) for one profile.

    Object centers follow exp(-center_bias * weight): bias 0 is uniform,
    larger values concentrate objects at the image center the way common
    photographic datasets do.  Per zone, a `recall` fraction of objects gets a
    planted detection and `fp_per_tp` unmatched detections are added.

    Identical seeds give byte-identical outputs.  The expected report assumes
    no detection is dropped by the evaluator's per-image cap, so keep
    n_objects / n_images comfortably below max_dets_per_image.
    """
    if n_images < 1 or n_objects < 1:
        raise ValueError("need at least one image and one object")
    if not 0.0 <= center_bias <= _MAX_CENTER_BIAS:
        raise ValueError(f"center_bias must lie in [0, {_MAX_CENTER_BIAS:g}], got {center_bias!r}")
    for zid in partition.zone_ids:
        if zid not in profile.zones:
            raise ValueError(f"profile missing zone {zid!r}")

    rng = np.random.default_rng(profile.rng_seed)
    width, height = _IMAGE_SIZE
    images = [
        ImageInfo(id=i + 1, width=width, height=height, file_name=f"synth_{i + 1:06d}")
        for i in range(n_images)
    ]
    categories = [Category(id=_CATEGORY_ID, name="object")]

    gts = []
    for i in range(n_objects):
        img = images[i % n_images]
        while True:
            u, v = rng.random(), rng.random()
            if center_bias == 0.0 or rng.random() < math.exp(-center_bias * spatial_weight(u, v, 1.0, 1.0)):
                break
        bw = rng.uniform(*_BOX_SIDE_RANGE)
        bh = rng.uniform(*_BOX_SIDE_RANGE)
        cx, cy = u * width, v * height
        gts.append(GroundTruth(i + 1, img.id, _CATEGORY_ID, BBox(cx - bw / 2.0, cy - bh / 2.0, bw, bh), bw * bh))
    # zoned by box centers, the evaluator's arithmetic; every image shares one size
    gt_zone = partition.assign(*box_centers(xywh([g.bbox for g in gts])), width, height)

    ds = Dataset(images, categories, gts)

    detections = []
    expected_zones = []
    total_tp = 0
    for zi, zone in enumerate(partition.zones):
        q = profile.zones[zone.id]
        members = np.flatnonzero(gt_zone == zi).tolist()
        n_gt = len(members)
        n_tp = int(round(q.recall * n_gt))
        chosen = sorted(rng.choice(members, size=n_tp, replace=False)) if n_tp else []
        for gi in chosen:
            gt = gts[gi]
            box = gt.bbox
            if q.loc_jitter > 0:
                dx = rng.uniform(-q.loc_jitter, q.loc_jitter)
                dy = rng.uniform(-q.loc_jitter, q.loc_jitter)
                box = BBox(box.x + dx, box.y + dy, box.w, box.h)
            detections.append(
                Detection(gt.image_id, _CATEGORY_ID, box, _linear_score(iou(box, gt.bbox)))
            )
        n_fp = int(round(q.fp_per_tp * n_tp))
        for _ in range(n_fp):
            detections.append(_plant_false_positive(rng, zone, ds))
        total_tp += n_tp

        zp = _closed_form_zp(n_tp, n_gt) if n_gt else None
        expected_zones.append(
            ZoneResult(
                zone_id=zone.id,
                zp=zp,
                zp_by_threshold=[zp] * len(DEFAULT_IOU_THRESHOLDS),
                gt_count=n_gt,
                det_count=n_tp + n_fp,
                area_fraction=zone.area_fraction,
            )
        )

    expected = ZoneReport(
        partition=spec_label(partition.spec),
        iou_thresholds=DEFAULT_IOU_THRESHOLDS,
        zones=expected_zones,
        full_ap=_closed_form_zp(total_tp, n_objects),
    )
    return ds, DetectionSet(detections, ds), expected


def _plant_false_positive(rng: np.random.Generator, zone: Zone, ds: Dataset) -> Detection:
    """A detection centered in the zone that overlaps no ground truth enough to match."""
    k = int(rng.integers(0, len(ds.images)))
    img, gt_boxes = ds.images[k], ds.gt_box[ds.gt_starts[k]:ds.gt_starts[k + 1]]
    areas = np.array([(r.x1 - r.x0) * (r.y1 - r.y0) for r in zone.rects])
    shrink = 1.0
    while True:
        for _ in range(50):
            r = zone.rects[int(rng.choice(len(zone.rects), p=areas / areas.sum()))]
            u = r.x0 + rng.random() * (r.x1 - r.x0)
            v = r.y0 + rng.random() * (r.y1 - r.y0)
            bw = rng.uniform(*_BOX_SIDE_RANGE) * shrink
            bh = rng.uniform(*_BOX_SIDE_RANGE) * shrink
            box = BBox(u * img.width - bw / 2.0, v * img.height - bh / 2.0, bw, bh)
            if (iou_matrix(xywh([box]), gt_boxes) < _FP_IOU_CEILING).all():
                return Detection(img.id, _CATEGORY_ID, box, _linear_score(0.0))
        shrink /= 2.0
