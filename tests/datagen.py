"""Vectorized random-data generators for the heavier tests, and a per-group AP reference.

The generators make no closed-form promises; they exist so the large
determinism and runtime checks can build realistic inputs in a couple of
seconds.  ``match_image`` and ``full_image_ap`` run the matching kernel one
(image, category) group at a time, so tests can hold the batched pass of
``evaluate_zones`` against them.
"""

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
    iou_matrix,
    xywh,
)
from zoneval.matching import (
    EvalConfig,
    average_precision,
    greedy_match,
    in_scale_range,
    mean_ap,
    pair_order,
)


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
    order, step = pair_order(row, slot, iou, np.zeros(len(dets), dtype=np.int64))
    tp, ign = greedy_match(row[order], slot[order], iou[order], step,
                           gt_ignored, len(dets), cfg.iou_thresholds)
    out_of_range = ~in_scale_range(det_box[:, 2] * det_box[:, 3], cfg.scale_range)
    ign |= ~tp & out_of_range[:, None]
    scores = np.array([d.score for d in dets], dtype=float)
    return MatchFragment(int((~gt_ignored).sum()), scores, tp.T, ign.T)


def full_image_ap(ds: Dataset, dets: DetectionSet, cfg: EvalConfig) -> float | None:
    """Whole-image AP from match_image groups: the array kernel, one group at a time.

    Every (image, category) group is matched on its own, with nothing pruned,
    so tests can hold the batched pass of evaluate_zones against it.  Each
    category with a countable ground truth joins its groups in image order
    and sorts them stably by score before ``average_precision``.
    """
    tp, ignored, n_pos = [], [], []
    for cat in ds.category_ids:
        frags = [
            match_image([g for g in ds.gts_by_image[img.id] if g.category_id == cat],
                        [d for d in dets.for_image(img.id)[: cfg.max_dets_per_image]
                         if d.category_id == cat], cfg)
            for img in ds.images
        ]
        pos = sum(f.n_pos_gt for f in frags)
        if pos == 0:
            continue
        order = np.argsort(-np.concatenate([f.scores for f in frags]), kind="stable")
        tp.append(np.concatenate([f.tp for f in frags], axis=1)[:, order])
        ignored.append(np.concatenate([f.ignored for f in frags], axis=1)[:, order])
        n_pos.append(pos)
    if not n_pos:
        return None
    starts = np.cumsum([0] + [t.shape[1] for t in tp])[:-1]
    return mean_ap(average_precision(np.concatenate(tp, axis=1), np.concatenate(ignored, axis=1),
                                     starts, np.array(n_pos), cfg.recall_grid()))


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
