"""Vectorized random-data generators for the heavier tests, and a per-group AP reference.

The generators make no closed-form promises; they exist so the large
determinism and runtime checks can build realistic inputs in a couple of
seconds.  ``match_image``, ``whole_image_curves`` and ``full_image_ap`` run
the matching kernel one (image, category) group at a time, so tests can hold
the batched pass of ``evaluate_zones`` and its match outcome against them,
and ``candidate_pairs_by_image`` finds the candidate pairs with one
``iou_matrix`` call per image, the loop that ``zone_eval._candidate_pairs``
replaced.  ``reference_ground_truth`` and
``reference_detections`` read a COCO document one validated tuple per record,
the route ``coco`` replaced with bulk column checks, so tests can hold the
columns and the error messages of the loaders against them;
``random_coco_document`` makes valid documents in the forms a file may hold.
``reference_corner_iou`` is ``coco.corner_iou`` as it was before it worked in
place (clipped overlaps, a zero-filled output and a masked division), so
tests can hold the kernel's bits against it.  ``reference_entries`` lists
the AP entries of ``zone_eval._geometry`` from one lexsort, so tests can map
its entries back to detections.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from zoneval.coco import (
    BBox,
    Category,
    Dataset,
    Detection,
    DetectionSet,
    GroundTruth,
    ImageInfo,
    box_centers,
    iou_matrix,
    xywh,
)
from zoneval.errors import IngestError
from zoneval.matching import (
    EvalConfig,
    average_precision,
    greedy_match,
    mean_ap,
    pair_order,
    rank_within,
)


def reference_corner_iou(a: tuple, b: tuple) -> np.ndarray:
    """Elementwise IoU of (x0, y0, x1, y1) corner arrays that broadcast together, by the masked route."""
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    iw = np.minimum(ax1, bx1) - np.maximum(ax0, bx0)
    ih = np.minimum(ay1, by1) - np.maximum(ay0, by0)
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    area_a = (ax1 - ax0) * (ay1 - ay0)
    area_b = (bx1 - bx0) * (by1 - by0)
    union = np.maximum(area_a + area_b - inter, inter)
    return np.divide(inter, union, out=np.zeros_like(inter), where=inter > 0)


def in_scale_range(area: np.ndarray, rng: tuple[float, float] | None) -> np.ndarray:
    """Whether each area lies in the half-open scale range [lo, hi); all True for None.

    The rule ``zone_eval._in_ranges`` applies, restated for the reference.
    """
    if rng is None:
        return np.ones(np.shape(area), dtype=bool)
    return (rng[0] <= area) & (area < rng[1])


@dataclass
class MatchFragment:
    """Matching outcome for one (image, category) group.

    ``scores`` (N) holds the detections' scores in descending order; ``tp``
    and ``ignored`` (T x N) say per IoU threshold whether each detection is a
    true positive and whether it is left out of AP.  ``n_pos_gt`` counts the
    non-ignored ground truths.
    """

    n_pos_gt: int
    scores: np.ndarray
    tp: np.ndarray
    ignored: np.ndarray


def match_image(gts: list[GroundTruth], dets: list[Detection], cfg: EvalConfig) -> MatchFragment:
    """Match one image's detections of one category against its ground truths.

    ``dets`` must already be sorted by descending score and truncated to the
    per-image cap.  This runs ``greedy_match`` on a single group, with the
    ignore rules (crowd, ground truth or unmatched detection out of the scale
    range) restated here rather than taken from ``zone_eval``.
    """
    gt_ignored = np.array([g.ignore for g in gts], dtype=bool) | ~in_scale_range(
        np.array([g.area for g in gts], dtype=float), cfg.scale_range
    )
    det_box = xywh([d.bbox for d in dets])
    ious = iou_matrix(det_box, xywh([g.bbox for g in gts]))
    row, slot = np.nonzero(ious >= cfg.iou_thresholds[0])
    iou = ious[row, slot]
    order, step = pair_order(row, slot, iou)
    tp, ign = greedy_match(row[order], slot[order], iou[order], step, gt_ignored, len(dets), cfg.iou_thresholds)
    out_of_range = ~in_scale_range(det_box[:, 2] * det_box[:, 3], cfg.scale_range)
    ign |= ~tp & out_of_range[:, None]
    scores = np.array([d.score for d in dets], dtype=float)
    return MatchFragment(int((~gt_ignored).sum()), scores, tp.T, ign.T)


def whole_image_curves(ds: Dataset, dets: DetectionSet, cfg: EvalConfig) -> dict[int, tuple]:
    """Per category id with a countable ground truth, its whole-image (tp, ignored, n_pos) from match_image groups.

    Every (image, category) group is matched on its own, with nothing pruned.
    A category's groups are joined in image order and sorted stably by score,
    so ``tp`` and ``ignored`` (T x N) are that category's AP entries in order.
    """
    curves = {}
    for cat in ds.category_ids:
        frags = [
            match_image([g for g in ds.gts_by_image[img.id] if g.category_id == cat],
                        [d for d in dets.for_image(img.id)[: cfg.max_dets_per_image]
                         if d.category_id == cat], cfg)
            for img in ds.images
        ]
        pos = sum(f.n_pos_gt for f in frags)
        if pos:
            order = np.argsort(-np.concatenate([f.scores for f in frags]), kind="stable")
            curves[cat] = (np.concatenate([f.tp for f in frags], axis=1)[:, order],
                           np.concatenate([f.ignored for f in frags], axis=1)[:, order], pos)
    return curves


def full_image_ap(ds: Dataset, dets: DetectionSet, cfg: EvalConfig) -> float | None:
    """Whole-image AP of the ``whole_image_curves``: the array kernel, one group at a time.

    Tests hold the batched pass of evaluate_zones against it.
    """
    curves = list(whole_image_curves(ds, dets, cfg).values())
    if not curves:
        return None
    tp, ignored, n_pos = zip(*curves)
    starts = np.cumsum([0] + [t.shape[1] for t in tp])[:-1]
    return mean_ap(average_precision(np.concatenate(tp, axis=1), np.concatenate(ignored, axis=1),
                                     starts, np.array(n_pos), cfg.recall_grid()))


def candidate_pairs_by_image(
    dt_img: np.ndarray, dt_box: np.ndarray, dt_cat: np.ndarray,
    gt_starts: np.ndarray, gt_box: np.ndarray, gt_cat: np.ndarray, min_iou: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(detection, ground truth, IoU) of same-image, same-category pairs with IoU >= min_iou.

    Detections are sorted by image index, and image i's ground truths are rows
    ``gt_starts[i]:gt_starts[i + 1]``; one IoU matrix per image, over all
    categories, from which the same-category pairs are picked.
    """
    found = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))]
    dt_starts, gt_starts = np.searchsorted(dt_img, np.arange(len(gt_starts))).tolist(), gt_starts.tolist()
    for a, b, c, e in zip(dt_starts, dt_starts[1:], gt_starts, gt_starts[1:]):
        if a < b and c < e:
            ious = iou_matrix(dt_box[a:b], gt_box[c:e])
            hit = (ious >= min_iou) & (dt_cat[a:b, None] == gt_cat[None, c:e])
            d, g = np.nonzero(hit)
            found.append((d + a, g + c, ious[d, g]))
    det, gt, iou = zip(*found)
    return np.concatenate(det), np.concatenate(gt), np.concatenate(iou)


@dataclass
class Entries:
    """The AP entries of one evaluation, in entry order: each one's copy, detection and segment.

    Copy 0 is a detection in its zone, copy 1 the same detection in the whole
    image (zone ``n_zones``); ``det`` indexes the whole ``DetectionSet`` and
    ``seg`` is ``zone * n_categories + category``.
    """

    copy: np.ndarray
    det: np.ndarray
    seg: np.ndarray


def reference_entries(ds: Dataset, dets: DetectionSet, partition, cfg: EvalConfig) -> Entries:
    """The AP entries that ``zone_eval._geometry`` numbers, from one lexsort by (segment, -score, row).

    Row ``c * dets.total + d`` is copy ``c`` of detection ``d``.  A copy is an
    entry when it is under the cap: the detection's rank by score within its
    image (from ``dets.starts``), or with ``cap_after_zone`` the copy's rank
    within its (image, zone) by ``rank_within`` over both copies, the whole
    image being zone ``n_zones``.
    """
    n, n_zones, n_cat = dets.total, len(partition.zones), len(ds.category_ids)
    copy, det = np.repeat([0, 1], n), np.tile(np.arange(n), 2)
    zone = partition.assign(*box_centers(dets.box), *ds.image_size[dets.image].T)
    row_zone = np.where(copy == 0, zone[det], n_zones)
    if cfg.cap_after_zone:
        rank = rank_within(dets.image[det] * (n_zones + 1) + row_zone)
    else:
        rank = (np.arange(n) - dets.starts[dets.image])[det]
    seg = row_zone * n_cat + dets.category[det]
    rows = np.flatnonzero(rank < cfg.max_dets_per_image)
    rows = rows[np.lexsort((rows, -dets.score[det[rows]], seg[rows]))]
    return Entries(copy[rows], det[rows], seg[rows])


def random_instance(rng: np.random.Generator) -> tuple[Dataset, DetectionSet]:
    """Small random instance: <= 6 images, <= 4 GTs and <= 10 detections per image.

    Detections are a mix of perturbed ground-truth copies and noise; scores
    are rounded to two decimals so ties are frequent.
    """
    n_img = int(rng.integers(1, 7))
    n_cat = int(rng.integers(1, 4))
    images = [ImageInfo(id=i + 1, width=100.0, height=100.0) for i in range(n_img)]
    cats = [Category(c + 1, f"c{c + 1}") for c in range(n_cat)]
    gts, dets = [], []
    gt_id = 1
    for img in images:
        img_gts = []
        for _ in range(int(rng.integers(0, 5))):
            x, y = rng.uniform(0, 80, 2)
            w, h = rng.uniform(5, 20, 2)
            img_gts.append(
                GroundTruth(
                    gt_id,
                    img.id,
                    int(rng.integers(1, n_cat + 1)),
                    BBox(x, y, w, h),
                    w * h,
                    ignore=bool(rng.random() < 0.15),
                )
            )
            gt_id += 1
        gts.extend(img_gts)
        for _ in range(int(rng.integers(0, 11))):
            if img_gts and rng.random() < 0.6:
                base = img_gts[int(rng.integers(0, len(img_gts)))].bbox
                x = base.x + rng.uniform(-6, 6)
                y = base.y + rng.uniform(-6, 6)
                w = max(2.0, base.w + rng.uniform(-4, 4))
                h = max(2.0, base.h + rng.uniform(-4, 4))
            else:
                x, y = rng.uniform(0, 80, 2)
                w, h = rng.uniform(5, 20, 2)
            dets.append(
                Detection(
                    img.id,
                    int(rng.integers(1, n_cat + 1)),
                    BBox(x, y, w, h),
                    round(float(rng.random()), 2),
                )
            )
    ds = Dataset(images, cats, gts)
    return ds, DetectionSet(dets, ds)


def random_multiclass_benchmark(
    n_images: int,
    gts_per_image: int,
    dets_per_image: int,
    n_categories: int = 4,
    crowd_rate: float = 0.15,
    seed: int = 0,
    image_size: tuple[float, float] = (320.0, 320.0),
) -> tuple[Dataset, DetectionSet]:
    """Several categories, crowd boxes, and box sides log-uniform in [8, 140] pixels.

    Detections are jittered ground-truth copies (some with the wrong category,
    so categories meet zones where they have no ground truth) plus noise
    boxes, a few overflowing the image border; scores are rounded to two
    decimals so that ties occur.
    """
    rng = np.random.default_rng(seed)
    width, height = image_size
    images = [ImageInfo(id=i + 1, width=width, height=height) for i in range(n_images)]
    cats = [Category(c + 1, f"c{c + 1}") for c in range(n_categories)]
    gts, dets = [], []
    for img in images:
        img_gts = []
        for _ in range(gts_per_image):
            w, h = np.exp(rng.uniform(np.log(8), np.log(140), 2))
            x, y = rng.uniform(0, width - w), rng.uniform(0, height - h)
            img_gts.append(
                GroundTruth(
                    len(gts) + len(img_gts) + 1,
                    img.id,
                    int(rng.integers(1, n_categories + 1)),
                    BBox(x, y, w, h),
                    w * h,
                    ignore=bool(rng.random() < crowd_rate),
                )
            )
        gts.extend(img_gts)
        for _ in range(dets_per_image):
            cat = int(rng.integers(1, n_categories + 1))
            if img_gts and rng.random() < 0.6:
                g = img_gts[int(rng.integers(0, len(img_gts)))]
                b = g.bbox
                box = BBox(b.x + rng.uniform(-8, 8), b.y + rng.uniform(-8, 8),
                           max(2.0, b.w + rng.uniform(-6, 6)), max(2.0, b.h + rng.uniform(-6, 6)))
                if rng.random() < 0.8:
                    cat = g.category_id
            else:
                w, h = np.exp(rng.uniform(np.log(8), np.log(140), 2))
                box = BBox(rng.uniform(-20, width), rng.uniform(-20, height), w, h)
            dets.append(Detection(img.id, cat, box, round(float(rng.random()), 2)))
    ds = Dataset(images, cats, gts)
    return ds, DetectionSet(dets, ds)


def random_benchmark(
    n_images: int,
    gts_per_image: int,
    dets_per_image: int,
    seed: int = 0,
    image_size: tuple[float, float] = (640.0, 640.0),
) -> tuple[Dataset, DetectionSet]:
    """Random boxes with a centered bias; detections are jittered GT copies plus noise."""
    rng = np.random.default_rng(seed)
    width, height = image_size
    images = [ImageInfo(id=i + 1, width=width, height=height) for i in range(n_images)]
    categories = [Category(id=1, name="object")]

    n_gt = n_images * gts_per_image
    # triangular pull toward the center approximates photographic framing
    cx = rng.triangular(0.1, 0.5, 0.9, size=n_gt) * width
    cy = rng.triangular(0.1, 0.5, 0.9, size=n_gt) * height
    gw = rng.uniform(16, 120, size=n_gt)
    gh = rng.uniform(16, 120, size=n_gt)
    gts = [
        GroundTruth(
            id=i + 1,
            image_id=(i % n_images) + 1,
            category_id=1,
            bbox=BBox(cx[i] - gw[i] / 2, cy[i] - gh[i] / 2, gw[i], gh[i]),
            area=gw[i] * gh[i],
        )
        for i in range(n_gt)
    ]
    ds = Dataset(images, categories, gts)

    n_copy = min(gts_per_image, dets_per_image)
    n_noise = dets_per_image - n_copy
    dets = []
    jx = rng.uniform(-12, 12, size=n_gt)
    jy = rng.uniform(-12, 12, size=n_gt)
    scores = rng.uniform(0.3, 1.0, size=n_gt)
    for i in range(n_gt):
        if i % gts_per_image >= n_copy:
            continue
        g = gts[i]
        dets.append(
            Detection(
                g.image_id,
                1,
                BBox(g.bbox.x + jx[i], g.bbox.y + jy[i], g.bbox.w, g.bbox.h),
                round(float(scores[i]), 3),
            )
        )
    n_total_noise = n_images * n_noise
    if n_total_noise:
        nx = rng.uniform(0, width - 40, size=n_total_noise)
        ny = rng.uniform(0, height - 40, size=n_total_noise)
        nw = rng.uniform(10, 90, size=n_total_noise)
        nh = rng.uniform(10, 90, size=n_total_noise)
        ns = rng.uniform(0.0, 0.6, size=n_total_noise)
        for i in range(n_total_noise):
            dets.append(
                Detection(
                    (i % n_images) + 1,
                    1,
                    BBox(nx[i], ny[i], nw[i], nh[i]),
                    round(float(ns[i]), 3),
                )
            )
    return ds, DetectionSet(dets, ds)


_NUMBER_TYPES = (int, float, np.integer, np.floating)


def _ref_number(v, what: str) -> float:
    if isinstance(v, bool) or not isinstance(v, _NUMBER_TYPES):
        raise ValueError(f"{what} {v!r} is not a number")
    return float(v)


def _ref_id(v) -> int:
    if isinstance(v, bool) or not isinstance(v, _NUMBER_TYPES):
        raise ValueError(f"id {v!r} is not a number")
    if isinstance(v, (float, np.floating)) and not float(v).is_integer():
        raise ValueError(f"id {v!r} is not an integer")
    return int(v)


def _ref_box(x: float, y: float, w: float, h: float) -> tuple:
    if not all(map(math.isfinite, (x + w, y + h, w * h))):
        raise IngestError(f"non-finite bbox corner or area in BBox(x={x!r}, y={y!r}, w={w!r}, h={h!r})")
    if w <= 0 or h <= 0:
        raise IngestError(f"bbox dimensions must be positive, got w={w}, h={h}")
    if not ((x + w) - x) * ((y + h) - y) <= sys.float_info.max / 2:
        raise IngestError(f"bbox area past half the float range in BBox(x={x!r}, y={y!r}, w={w!r}, h={h!r})")
    return x, y, w, h


def _ref_annotation(rec: dict) -> tuple:
    """``(id, image_id, category_id, x, y, w, h, area, crowd)``, checked field by field."""
    x, y, w, h = rec["bbox"]
    box = _ref_box(*(_ref_number(v, "bbox value") for v in (x, y, w, h)))
    ids = _ref_id(rec["id"]), _ref_id(rec["image_id"]), _ref_id(rec["category_id"])
    area = box[2] * box[3] if rec.get("area") is None else _ref_number(rec["area"], "area")
    crowd = rec.get("iscrowd", 0)
    if not (isinstance(crowd, int) and crowd in (0, 1)):
        raise ValueError(f"flag {crowd!r} is not 0, 1, true or false")
    return (*ids, *box, area, bool(crowd))


def _ref_detection(rec: dict) -> tuple:
    """``(image_id, category_id, x, y, w, h, score)``, checked field by field."""
    x, y, w, h = rec["bbox"]
    ids = _ref_id(rec["image_id"]), _ref_id(rec["category_id"])
    box = _ref_box(*(_ref_number(v, "bbox value") for v in (x, y, w, h)))
    return (*ids, *box, _ref_number(rec["score"], "score"))


def _ref_records(records, kind: str, parse, by_id: bool = True) -> list[tuple]:
    """One tuple per record; the first bad record is named by its id (if ``by_id``), else by its position."""
    if not isinstance(records, list):
        raise IngestError(f"{kind} records must be a JSON list")
    rows = []
    for i, rec in enumerate(records):
        name = f"{kind} {rec['id']}" if by_id and isinstance(rec, dict) and "id" in rec else f"{kind} #{i}"
        if not isinstance(rec, dict):
            raise IngestError(f"{name} is not a JSON object: {rec!r}")
        try:
            rows.append(parse(rec))
        except IngestError as e:
            raise IngestError(f"{name}: {e}") from e
        except KeyError as e:
            raise IngestError(f"{name}: missing field {e}") from e
        except (TypeError, ValueError, OverflowError) as e:
            raise IngestError(f"{name}: malformed record ({e})") from e
    return rows


def _ref_index(records: list) -> dict:
    return {i: k for k, i in enumerate(sorted(_ref_id(rec["id"]) for rec in records))}


def reference_ground_truth(doc: dict) -> dict:
    """The ground-truth columns of a COCO document, built one record tuple at a time.

    The images and categories must be valid; the columns are by (image, id),
    as ``Dataset`` holds them.
    """
    image_index, category_index = _ref_index(doc["images"]), _ref_index(doc["categories"])
    rows = sorted(_ref_records(doc["annotations"], "annotation", _ref_annotation), key=lambda r: r[0])
    ids, image_ids, category_ids, *box, areas, crowd = list(zip(*rows)) or [()] * 9
    image = np.array([image_index.get(i, -1) for i in image_ids], dtype=np.int64)
    category = np.array([category_index.get(c, -1) for c in category_ids], dtype=np.int64)
    for k, g in enumerate(ids):
        if k and g == ids[k - 1]:
            raise IngestError(f"duplicate annotation id {g}")
        if image[k] < 0:
            raise IngestError(f"annotation {g} references missing image {image_ids[k]}")
        if category[k] < 0:
            raise IngestError(f"annotation {g} references missing category {category_ids[k]}")
        if not areas[k] > 0:
            raise IngestError(f"annotation {g}: area must be positive, got {areas[k]}")
        if areas[k] == math.inf:
            raise IngestError(f"annotation {g}: area must be finite, got {areas[k]}")
    order = np.argsort(image, kind="stable")
    return {"gt_id": [ids[k] for k in order], "gt_image": image[order], "gt_category": category[order],
            "gt_box": np.array(box, dtype=float).reshape(4, len(rows))[:, order].T,
            "gt_area": np.array(areas, dtype=float)[order], "gt_crowd": np.array(crowd, dtype=bool)[order],
            "gt_starts": np.searchsorted(image[order], np.arange(len(image_index) + 1))}


def reference_detections(records, doc: dict) -> dict:
    """The detection columns of a results list against a valid COCO document, one record tuple at a time.

    The columns are by image, then descending score, as ``DetectionSet`` holds them.
    """
    image_index, category_index = _ref_index(doc["images"]), _ref_index(doc["categories"])
    rows = _ref_records(records, "detection", _ref_detection, by_id=False)  # a result's id is not checked
    ids, cats, *box, score = list(zip(*rows)) or [()] * 7
    image = np.array([image_index.get(i, -1) for i in ids], dtype=np.int64)
    category = np.array([category_index.get(c, -1) for c in cats], dtype=np.int64)
    for k, s in enumerate(score):
        if image[k] < 0:
            raise IngestError(f"detection #{k} references unknown image {ids[k]}")
        if category[k] < 0:
            raise IngestError(f"detection #{k} references unknown category {cats[k]}")
        if not math.isfinite(s):
            raise IngestError(f"detection #{k} has non-finite score")
    score = np.array(score, dtype=float)
    order = np.lexsort((-score, image))
    return {"total": len(rows), "image": image[order], "category": category[order],
            "box": np.array(box, dtype=float).reshape(4, len(rows))[:, order].T, "score": score[order],
            "starts": np.searchsorted(image[order], np.arange(len(image_index) + 1))}


def random_coco_document(rng: np.random.Generator) -> tuple[dict, list]:
    """A valid annotation document and results list, in the forms a COCO file may hold.

    Coordinates are ints or floats, some ints above 2**53; ids are small or
    above 2**63, and references to small ids are sometimes integral floats
    (``3.0``).  ``area`` is missing, null, an int or a float; ``iscrowd`` is
    missing, 0, 1, true or false; records carry extra keys; scores tie often;
    either list may be empty.  Decode ``json.dumps`` of it to get JSON types.
    """
    def pick(pool, n):
        return [pool[k] for k in rng.permutation(len(pool))[:n]]

    def ref(i):  # a reference to an id, sometimes written as an integral float
        return float(i) if i < 2**53 and rng.random() < 0.2 else i

    def coord():
        kind = rng.integers(3)
        return int(rng.integers(0, 500)) if kind == 0 else float(rng.uniform(0, 500)) if kind == 1 \
            else 2**53 + int(rng.integers(1, 2**20))

    def side():
        kind = rng.integers(3)
        return int(rng.integers(1, 200)) if kind == 0 else float(rng.uniform(0.5, 200)) if kind == 1 \
            else 2**53 + int(rng.integers(1, 2**20))

    image_ids = pick([1, 2, 5, 9, 2**63 + 5, 2**64 + 1, 10**30], int(rng.integers(1, 5)))
    category_ids = pick([1, 3, 4, 2**63, 2**70 + 3], int(rng.integers(1, 4)))
    images = [{"id": i, "width": float(rng.uniform(50, 900)), "height": int(rng.integers(50, 900)),
               "file_name": f"{i}.jpg"} for i in image_ids]
    categories = [{"id": c, "name": f"c{c}"} for c in category_ids]
    n_ann = int(rng.integers(0, 12)) if rng.random() > 0.1 else 0
    annotations = []
    for g in pick([*range(1, 30), 2**63 + 1, 2**64, 2**64 + 9, 10**25], n_ann):
        rec = {"id": g, "image_id": ref(image_ids[rng.integers(len(image_ids))]),
               "category_id": ref(category_ids[rng.integers(len(category_ids))]),
               "bbox": [coord(), coord(), side(), side()]}
        area = rng.integers(4)
        if area:
            rec["area"] = (None, int(rng.integers(1, 10**6)), float(rng.uniform(1, 1e4)))[area - 1]
        crowd = rng.integers(5)
        if crowd:
            rec["iscrowd"] = (0, 1, True, False)[crowd - 1]
        if rng.random() < 0.3:
            rec["segmentation"] = [[1.0, 2.0, 3.0]]
        annotations.append(rec)
    n_det = int(rng.integers(0, 25)) if rng.random() > 0.1 else 0
    results = []
    for _ in range(n_det):
        rec = {"image_id": ref(image_ids[rng.integers(len(image_ids))]),
               "category_id": ref(category_ids[rng.integers(len(category_ids))]),
               "bbox": [coord(), coord(), side(), side()],
               "score": int(rng.integers(2)) if rng.random() < 0.1 else round(float(rng.random()), 1)}
        if rng.random() < 0.2:
            rec["note"] = "extra"
        results.append(rec)
    doc = {"images": images, "annotations": annotations, "categories": categories}
    return doc, results
