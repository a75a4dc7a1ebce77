"""Synthetic datasets: regular 3x3 layouts and per-zone-quality benchmarks.

The benchmark generator builds detection sets whose per-zone quality is
chosen up front, which makes every zone metric analytically predictable: with
zero localization jitter each planted detection has IoU 1 with its ground
truth, false positives overlap nothing at or above IoU 0.45, and true
positives always outscore false positives.  The expected report returned
alongside the data is exact under those conditions for IoU thresholds >= 0.5.

No pixels are ever rendered; layouts exist as annotations plus a placement
manifest.  Both generators write the COCO records themselves and read them
through the one ingest path, ``Dataset.from_coco_dict`` and
``DetectionSet.from_coco_list``; no per-box object is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coco import Dataset, DetectionSet, box_centers, box_corners, corner_iou, iou_matrix
from .equilibrium import spatial_weight
from .errors import _integer, _real
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
        for name in ("canvas", "object_size"):
            value = _real(getattr(self, name), name)
            if not 0 < value < math.inf:  # NaN fails
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
            object.__setattr__(self, name, value)
        if not self.object_size < self.canvas / GRID_SIDE:
            raise ValueError("object_size must be smaller than one grid cell")
        if not self.objects:
            raise ValueError("layout needs at least one object")


def _images(n: int, width: float, height: float, stem: str) -> list[dict]:
    """Image records 1..n of one size, named ``<stem>_<id>``."""
    return [{"id": i, "width": width, "height": height, "file_name": f"{stem}_{i:06d}"} for i in range(1, n + 1)]


def sudoku_layout(cfg: SudokuConfig) -> tuple[Dataset, list[dict]]:
    """Place fixed-size objects round-robin on a 3x3 grid of square canvases.

    Object k goes to cell k mod 9 (row-major) of image k // 9, centered at
    ((2*col+1), (2*row+1)) * canvas/6.  Returns the dataset plus a manifest
    mapping each placement back to its source object.
    """
    n_cells = GRID_SIDE * GRID_SIDE
    zone_ids = build_partition(Grid(GRID_SIDE, GRID_SIDE)).zone_ids
    size = cfg.object_size
    half = size / 2.0
    annotations = []
    manifest = []
    for k, (source_id, cat_id) in enumerate(cfg.objects):
        cell = k % n_cells
        row, col = divmod(cell, GRID_SIDE)
        cx = (2 * col + 1) * cfg.canvas / 6.0
        cy = (2 * row + 1) * cfg.canvas / 6.0
        image_id = k // n_cells + 1
        annotations.append({"id": k + 1, "image_id": image_id, "category_id": cat_id,
                            "bbox": [cx - half, cy - half, size, size], "area": size * size})
        manifest.append({"gt_id": k + 1, "image_id": image_id, "cell": [row, col], "zone": zone_ids[cell],
                         "source_id": source_id})
    categories = [{"id": c, "name": f"category-{c}"} for c in sorted({cat for _, cat in cfg.objects})]
    images = _images(math.ceil(len(cfg.objects) / n_cells), cfg.canvas, cfg.canvas, "sudoku")
    return Dataset.from_coco_dict({"images": images, "categories": categories, "annotations": annotations}), manifest


@dataclass(frozen=True)
class ZoneQuality:
    recall: float
    fp_per_tp: float = 0.0
    loc_jitter: float = 0.0  # pixels

    def __post_init__(self) -> None:
        for name in ("recall", "fp_per_tp", "loc_jitter"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
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
    n_objects / n_images comfortably below max_dets_per_image; nothing here
    checks it, but ``zone-eval synth bench --out-expected`` refuses an image
    over the cap.
    """
    if _integer(n_images, "n_images") < 1 or _integer(n_objects, "n_objects") < 1:
        raise ValueError("need at least one image and one object")
    if not 0.0 <= _real(center_bias, "center_bias") <= _MAX_CENTER_BIAS:
        raise ValueError(f"center_bias must lie in [0, {_MAX_CENTER_BIAS:g}], got {center_bias!r}")
    for zid in partition.zone_ids:
        if zid not in profile.zones:
            raise ValueError(f"profile missing zone {zid!r}")
    for zid in profile.zones:
        if zid not in partition.zone_ids:
            raise ValueError(f"profile zone {zid!r} is not a zone of {spec_label(partition.spec)}")

    rng = np.random.default_rng(profile.rng_seed)
    width, height = _IMAGE_SIZE
    annotations = []
    for i in range(n_objects):
        while True:
            u, v = rng.random(), rng.random()
            if center_bias == 0.0 or rng.random() < math.exp(-center_bias * spatial_weight(u, v, 1.0, 1.0)):
                break
        bw = rng.uniform(*_BOX_SIDE_RANGE)
        bh = rng.uniform(*_BOX_SIDE_RANGE)
        cx, cy = u * width, v * height
        annotations.append({"id": i + 1, "image_id": i % n_images + 1, "category_id": _CATEGORY_ID,
                            "bbox": [cx - bw / 2.0, cy - bh / 2.0, bw, bh], "area": bw * bh})
    # ground truth i lies on image i mod n_images; zoned by box centers, the evaluator's
    # arithmetic, as every image shares one size
    gt_box = np.array([a["bbox"] for a in annotations])
    gt_zone = partition.assign(*box_centers(gt_box), width, height)

    detections = []
    expected_zones = []
    total_tp = 0
    for zi, zone in enumerate(partition.zones):
        q = profile.zones[zone.id]
        members = np.flatnonzero(gt_zone == zi)
        n_gt = len(members)
        n_tp = int(round(q.recall * n_gt))
        chosen = np.sort(rng.choice(members, size=n_tp, replace=False)) if n_tp else members[:0]
        box = gt_box[chosen]
        if q.loc_jitter > 0:
            box[:, :2] += rng.uniform(-q.loc_jitter, q.loc_jitter, size=(n_tp, 2))  # dx, dy per box
        score = _linear_score(corner_iou(box_corners(box), box_corners(gt_box[chosen])))
        detections += [{"image_id": g % n_images + 1, "category_id": _CATEGORY_ID, "bbox": b, "score": s}
                       for g, b, s in zip(chosen.tolist(), box.tolist(), score.tolist())]
        n_fp = int(round(q.fp_per_tp * n_tp))
        areas = np.array([(r.x1 - r.x0) * (r.y1 - r.y0) for r in zone.rects])
        detections += [_plant_false_positive(rng, zone, areas / areas.sum(), gt_box, n_images) for _ in range(n_fp)]
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
    ds = Dataset.from_coco_dict({"images": _images(n_images, width, height, "synth"),
                                 "categories": [{"id": _CATEGORY_ID, "name": "object"}], "annotations": annotations})
    return ds, DetectionSet.from_coco_list(detections, ds), expected


def _plant_false_positive(rng: np.random.Generator, zone: Zone, weights: np.ndarray, gt_box: np.ndarray,
                          n_images: int) -> dict:
    """A results record centered in the zone that overlaps no ground truth enough to match.

    ``weights`` are the zone's rectangle areas as probabilities; ground truth
    ``i`` of ``gt_box`` lies on image ``i mod n_images``.
    """
    k = int(rng.integers(0, n_images))
    width, height = _IMAGE_SIZE
    shrink = 1.0
    while True:
        for _ in range(50):
            r = zone.rects[int(rng.choice(len(zone.rects), p=weights))]
            u = r.x0 + rng.random() * (r.x1 - r.x0)
            v = r.y0 + rng.random() * (r.y1 - r.y0)
            bw = rng.uniform(*_BOX_SIDE_RANGE) * shrink
            bh = rng.uniform(*_BOX_SIDE_RANGE) * shrink
            box = [u * width - bw / 2.0, v * height - bh / 2.0, bw, bh]
            if (iou_matrix(np.array([box]), gt_box[k::n_images]) < _FP_IOU_CEILING).all():
                return {"image_id": k + 1, "category_id": _CATEGORY_ID, "bbox": box, "score": _linear_score(0.0)}
        shrink /= 2.0
