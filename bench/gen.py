"""Seeded input generator for the benchmark.

Writes a COCO annotation file (``gt.json``), a COCO results file (``dt.json``)
and a ``meta.json`` with the record counts into one directory.  It uses numpy
only and imports nothing from ``zoneval`` or ``tests``, so every commit of the
package is measured on byte-identical inputs for a given seed.

Two shapes of input exist:

* ``coco``: COCO-val-shaped.  80 categories with the COCO ids and a skewed
  frequency, a few ground truths per image from a heavy-tailed count, mixed
  image sizes, about 2% crowd boxes, center-biased placement, a few boxes
  that overflow the image border, scores rounded to two decimals (so ties
  occur) and about 10% of images with more than the 100-detection cap.
* ``crowd``: one class, tens of ground truths per image on 640x640 images:
  triangular center pull, jittered ground-truth copies as true positives and
  uniform noise boxes, the shape of ``tests/datagen.random_benchmark``.

The number of boxes per image is drawn once from a fixed stream and only
permuted by the seed, so every seed gives the same total amount of work.

Run ``python3 bench/gen.py --kind coco --size full --seed 1 --out DIR``.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path

import numpy as np

# bump when the generated bytes change, so cached inputs are rebuilt
GEN_VERSION = 1

SIZES = {
    "coco": {"full": {"n_images": 300}, "tiny": {"n_images": 6}},
    "crowd": {
        "full": {"n_images": 70, "gts_per_image": 30, "dets_per_image": 100},
        "tiny": {"n_images": 3, "gts_per_image": 8, "dets_per_image": 12},
    },
    "scale": {"full": {"n_images": 8}, "tiny": {"n_images": 2}},
}

COCO_CATEGORY_IDS = (
    list(range(1, 12)) + list(range(13, 26)) + [27, 28] + list(range(31, 45))
    + list(range(46, 66)) + [67, 70] + list(range(72, 83)) + list(range(84, 91))
)
# (width, height, weight): the common COCO val image shapes
IMAGE_SHAPES = ((640, 480, 45), (480, 640, 15), (640, 427, 20), (427, 640, 10),
                (500, 375, 5), (640, 640, 5))
DET_CAP = 100
# the input shape each benchmark workload runs on
WORKLOAD_INPUTS = {
    "coco_annular5": "coco",
    "coco_annular5_w2": "coco",
    "crowd_grid11": "crowd",
    "scale_study_annular5": "scale",
}
_SALT = {"coco": 11, "crowd": 23, "scale": 37}


def _fixed_counts(n_images: int) -> np.ndarray:
    """(gt count, detection count) per image from a stream that ignores the seed."""
    rng = np.random.default_rng(20231020)
    gts = np.minimum(rng.negative_binomial(1.2, 0.15, n_images) + 1, 60)
    dets = np.clip(np.round(gts * 6 + 15 + rng.normal(0, 8, n_images)), 5, DET_CAP).astype(int)
    over = rng.permutation(n_images)[: max(1, n_images // 10)]
    dets[over] = DET_CAP + rng.integers(1, 41, over.size)
    return np.stack([gts, dets], axis=1)


def _boxes(rng: np.random.Generator, n: int, width: float, height: float) -> np.ndarray:
    """Center-biased boxes as rows of (x, y, w, h)."""
    centered = rng.random(n) < 0.85
    cx = np.where(centered, rng.beta(2.0, 2.0, n), rng.random(n)) * width
    cy = np.where(centered, rng.beta(2.0, 2.0, n), rng.random(n)) * height
    side = np.exp(rng.uniform(np.log(6.0), np.log(0.8 * min(width, height)), n))
    aspect = np.exp(rng.normal(0.0, 0.45, n))
    w = np.maximum(side * np.sqrt(aspect), 1.0)
    h = np.maximum(side / np.sqrt(aspect), 1.0)
    return np.stack([cx - w / 2, cy - h / 2, w, h], axis=1)


def _clip(boxes: np.ndarray, width: float, height: float) -> np.ndarray:
    x0 = np.clip(boxes[:, 0], 0.0, width - 1.0)
    y0 = np.clip(boxes[:, 1], 0.0, height - 1.0)
    x1 = np.clip(boxes[:, 0] + boxes[:, 2], x0 + 1.0, width)
    y1 = np.clip(boxes[:, 1] + boxes[:, 3], y0 + 1.0, height)
    return np.stack([x0, y0, x1 - x0, y1 - y0], axis=1)


def _round_boxes(boxes: np.ndarray) -> np.ndarray:
    out = np.round(boxes, 2)
    out[:, 2:] = np.maximum(out[:, 2:], 0.01)
    return out


def gen_coco(seed: int, n_images: int, salt: int) -> tuple[dict, list]:
    rng = np.random.default_rng([salt, seed])
    counts = _fixed_counts(n_images)[rng.permutation(n_images)]
    cat_ids = np.array(COCO_CATEGORY_IDS)
    cat_weight = 1.0 / np.arange(1, cat_ids.size + 1) ** 0.9
    cat_weight /= cat_weight.sum()
    shape_weight = np.array([s[2] for s in IMAGE_SHAPES], dtype=float)
    shape_idx = rng.choice(len(IMAGE_SHAPES), n_images, p=shape_weight / shape_weight.sum())

    images, annotations, results = [], [], []
    ann_id = 1
    for i in range(n_images):
        width, height = (float(v) for v in IMAGE_SHAPES[shape_idx[i]][:2])
        image_id = i + 1
        images.append({"id": image_id, "width": width, "height": height,
                       "file_name": f"{image_id:012d}.jpg"})
        n_gt, n_det = (int(v) for v in counts[i])
        image_cats = rng.choice(cat_ids, int(rng.integers(1, 5)), replace=False, p=cat_weight)

        gt = _boxes(rng, n_gt, width, height)
        inside = rng.random(n_gt) >= 0.05  # the rest keep their overflow
        gt[inside] = _clip(gt[inside], width, height)
        gt = _round_boxes(gt)
        gt_cat = rng.choice(image_cats, n_gt)
        crowd = rng.random(n_gt) < 0.02
        seg_share = rng.uniform(0.45, 0.95, n_gt)
        for k in range(n_gt):
            annotations.append({
                "id": ann_id, "image_id": image_id, "category_id": int(gt_cat[k]),
                "bbox": gt[k].tolist(),
                "area": round(float(gt[k, 2] * gt[k, 3] * seg_share[k]), 2),
                "iscrowd": int(crowd[k]),
            })
            ann_id += 1

        # true-positive candidates: up to two jittered copies per ground truth
        copies = np.repeat(np.arange(n_gt), rng.integers(0, 3, n_gt))[:n_det]
        base = gt[copies]
        jitter = rng.normal(0.0, 0.08, (copies.size, 2)) * base[:, 2:]
        grow = np.exp(rng.normal(0.0, 0.12, (copies.size, 2)))
        tp = np.concatenate([base[:, :2] + jitter, base[:, 2:] * grow], axis=1)
        tp_cat = np.where(rng.random(copies.size) < 0.9, gt_cat[copies],
                          rng.choice(cat_ids, copies.size, p=cat_weight))
        tp_score = rng.uniform(0.3, 1.0, copies.size)

        n_fp = n_det - copies.size
        fp = _boxes(rng, n_fp, width, height)
        outside = rng.random(n_fp) < 0.02  # centers pushed past the border
        fp[outside, 0] += rng.choice([-1.0, 1.0], outside.sum()) * 0.6 * width
        fp_cat = np.where(rng.random(n_fp) < 0.5, rng.choice(image_cats, n_fp),
                          rng.choice(cat_ids, n_fp, p=cat_weight))
        fp_score = rng.uniform(0.0, 0.7, n_fp) ** 2

        boxes = _round_boxes(np.concatenate([tp, fp]))
        cats = np.concatenate([tp_cat, fp_cat])
        scores = np.round(np.concatenate([tp_score, fp_score]), 2)
        for k in rng.permutation(n_det):
            results.append({"image_id": image_id, "category_id": int(cats[k]),
                            "bbox": boxes[k].tolist(), "score": float(scores[k])})

    categories = [{"id": int(c), "name": f"category-{c}"} for c in cat_ids]
    return {"images": images, "annotations": annotations, "categories": categories}, results


def gen_crowd(seed: int, n_images: int, gts_per_image: int, dets_per_image: int,
              salt: int) -> tuple[dict, list]:
    rng = np.random.default_rng([salt, seed])
    width = height = 640.0
    n_gt = n_images * gts_per_image
    cx = rng.triangular(0.1, 0.5, 0.9, n_gt) * width
    cy = rng.triangular(0.1, 0.5, 0.9, n_gt) * height
    gw = rng.uniform(16, 120, n_gt)
    gh = rng.uniform(16, 120, n_gt)
    gt = _round_boxes(np.stack([cx - gw / 2, cy - gh / 2, gw, gh], axis=1))
    image_of = np.arange(n_gt) % n_images + 1

    n_copy = min(gts_per_image, dets_per_image)
    copy = (np.arange(n_gt) // n_images) < n_copy
    jitter = rng.uniform(-12, 12, (n_gt, 2))
    tp = np.concatenate([gt[:, :2] + jitter, gt[:, 2:]], axis=1)[copy]
    tp_score = rng.uniform(0.3, 1.0, n_gt)[copy]
    n_noise = n_images * (dets_per_image - n_copy)
    noise = np.stack([rng.uniform(0, width - 40, n_noise), rng.uniform(0, height - 40, n_noise),
                      rng.uniform(10, 90, n_noise), rng.uniform(10, 90, n_noise)], axis=1)
    noise_score = rng.uniform(0.0, 0.6, n_noise)

    images = [{"id": i + 1, "width": width, "height": height, "file_name": f"{i + 1:06d}.jpg"}
              for i in range(n_images)]
    annotations = [
        {"id": k + 1, "image_id": int(image_of[k]), "category_id": 1, "bbox": gt[k].tolist(),
         "area": round(float(gt[k, 2] * gt[k, 3]), 2), "iscrowd": 0}
        for k in range(n_gt)
    ]
    boxes = _round_boxes(np.concatenate([tp, noise]))
    det_image = np.concatenate([image_of[copy], np.arange(n_noise) % n_images + 1])
    scores = np.round(np.concatenate([tp_score, noise_score]), 3)
    results = [
        {"image_id": int(det_image[k]), "category_id": 1, "bbox": boxes[k].tolist(),
         "score": float(scores[k])}
        for k in range(boxes.shape[0])
    ]
    categories = [{"id": 1, "name": "object"}]
    return {"images": images, "annotations": annotations, "categories": categories}, results


def generate(kind: str, size: str, seed: int) -> tuple[dict, list]:
    params = SIZES[kind][size]
    if kind == "crowd":
        return gen_crowd(seed, salt=_SALT[kind], **params)
    return gen_coco(seed, salt=_SALT[kind], **params)


def ensure_inputs(kind: str, size: str, seed: int, out: Path) -> dict:
    """Generate the inputs into ``out`` unless an identical set is already there.

    Returns the metadata.  ``meta.json`` is written last and renamed into place,
    so a run cut short never leaves a directory that looks complete.
    """
    want = {"gen_version": GEN_VERSION, "kind": kind, "size": size, "seed": seed,
            "params": SIZES[kind][size]}
    meta_path = out / "meta.json"
    if meta_path.exists():
        meta = json.loads(meta_path.read_text())
        if all(meta.get(k) == v for k, v in want.items()):
            return meta
    out.mkdir(parents=True, exist_ok=True)
    gt, dt = generate(kind, size, seed)
    for name, payload in (("gt.json", gt), ("dt.json", dt)):
        tmp = out / (name + ".tmp")
        tmp.write_text(json.dumps(payload, separators=(",", ":")))
        os.replace(tmp, out / name)
    meta = dict(want, n_images=len(gt["images"]), n_annotations=len(gt["annotations"]),
                n_detections=len(dt))
    tmp = out / "meta.json.tmp"
    tmp.write_text(json.dumps(meta, sort_keys=True))
    os.replace(tmp, meta_path)
    return meta


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--kind", choices=sorted(SIZES), required=True)
    p.add_argument("--size", choices=["full", "tiny"], default="full")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()
    print(json.dumps(ensure_inputs(args.kind, args.size, args.seed, args.out), sort_keys=True))


if __name__ == "__main__":
    main()
