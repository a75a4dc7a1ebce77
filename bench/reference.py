"""The benchmark's own reference computations, written with numpy only.

Outputs of zoneval are checked against these, so nothing here calls zoneval.
The rules follow the method's definition: a box belongs to the zone that
holds its center, centers outside the image are clamped onto the border, the
right and bottom image edges belong to the last row and column, zones are
half-open ``[lo, hi)`` rectangles with rational bounds, and each image keeps
only its 100 highest-scoring detections, ties kept in file order.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

JUST_BELOW_ONE = math.nextafter(1.0, 0.0)
DET_CAP = 100


def parse_spec(spec: str) -> tuple[str, tuple[int, ...]]:
    kind, _, arg = spec.partition(":")
    if kind == "annular":
        return kind, (int(arg),)
    if kind == "grid":
        rows, cols = arg.split("x")
        return kind, (int(rows), int(cols))
    raise ValueError(f"reference supports annular and grid partitions, not {spec!r}")


def zone_ids(spec: str) -> list[str]:
    kind, args = parse_spec(spec)
    if kind == "annular":
        return [f"z{i},{i + 1}" for i in range(args[0])]
    rows, cols = args
    return [f"g{r}_{c}" for r in range(rows) for c in range(cols)]


def normalize(x, y, width, height) -> tuple[np.ndarray, np.ndarray]:
    """Clamp pixel points into the image and map them into [0, 1)^2."""
    u = np.minimum(np.clip(np.asarray(x, float), 0.0, width) / width, JUST_BELOW_ONE)
    v = np.minimum(np.clip(np.asarray(y, float), 0.0, height) / height, JUST_BELOW_ONE)
    return u, v


def _cell(u: np.ndarray, n: int) -> np.ndarray:
    edges = np.array([float(Fraction(k, n)) for k in range(n + 1)])
    return np.searchsorted(edges, u, side="right") - 1


def zone_index(spec: str, u, v) -> np.ndarray:
    """Zone position (in ``zone_ids`` order) of normalized points."""
    kind, args = parse_spec(spec)
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    if kind == "grid":
        rows, cols = args
        return _cell(v, rows) * cols + _cell(u, cols)
    n = args[0]
    # ring i is the square [i/2n, 1 - i/2n)^2 minus the next one; squares nest
    idx = np.zeros(np.broadcast(u, v).shape, dtype=np.int64)
    for i in range(1, n):
        lo, hi = float(Fraction(i, 2 * n)), float(1 - Fraction(i, 2 * n))
        idx += (u >= lo) & (u < hi) & (v >= lo) & (v < hi)
    return idx


def box_zones(spec: str, boxes: np.ndarray, width: np.ndarray, height: np.ndarray) -> np.ndarray:
    """Zone position of each (x, y, w, h) box by its clamped center."""
    cx = boxes[:, 0] + boxes[:, 2] / 2.0
    cy = boxes[:, 1] + boxes[:, 3] / 2.0
    return zone_index(spec, *normalize(cx, cy, width, height))


def capped(image_ids: np.ndarray, scores: np.ndarray, cap: int = DET_CAP) -> np.ndarray:
    """Mask of detections kept by the per-image cap: top ``cap`` by score, stable."""
    n = image_ids.size
    order = np.lexsort((np.arange(n), -scores, image_ids))
    sorted_img = image_ids[order]
    starts = np.flatnonzero(np.r_[True, sorted_img[1:] != sorted_img[:-1]])
    lengths = np.diff(np.r_[starts, n])
    rank = np.arange(n) - np.repeat(starts, lengths)
    keep = np.zeros(n, dtype=bool)
    keep[order[rank < cap]] = True
    return keep


class Inputs:
    """Columns of one generated COCO ground-truth and results pair."""

    def __init__(self, gt: dict, dt: list) -> None:
        self.gt = gt
        self.dt = dt
        image_ids = np.array([im["id"] for im in gt["images"]])
        order = np.argsort(image_ids)
        self.image_ids = image_ids[order]
        self.widths = np.array([float(im["width"]) for im in gt["images"]])[order]
        self.heights = np.array([float(im["height"]) for im in gt["images"]])[order]
        anns = gt["annotations"]
        self.gt_image = np.array([a["image_id"] for a in anns], dtype=np.int64)
        self.gt_boxes = np.array([a["bbox"] for a in anns], dtype=float).reshape(-1, 4)
        self.dt_image = np.array([d["image_id"] for d in dt], dtype=np.int64)
        self.dt_boxes = np.array([d["bbox"] for d in dt], dtype=float).reshape(-1, 4)
        self.dt_scores = np.array([d["score"] for d in dt], dtype=float)

    def _size(self, image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pos = np.searchsorted(self.image_ids, image)
        return self.widths[pos], self.heights[pos]

    def gt_zones(self, spec: str) -> np.ndarray:
        return box_zones(spec, self.gt_boxes, *self._size(self.gt_image))

    def dt_zones(self, spec: str) -> np.ndarray:
        return box_zones(spec, self.dt_boxes, *self._size(self.dt_image))

    def zone_counts(self, spec: str) -> tuple[np.ndarray, np.ndarray]:
        """(ground truths, detections after the cap) per zone."""
        nz = len(zone_ids(spec))
        keep = capped(self.dt_image, self.dt_scores)
        gt = np.bincount(self.gt_zones(spec), minlength=nz)
        dt = np.bincount(self.dt_zones(spec)[keep], minlength=nz)
        return gt, dt


def iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every box in ``a`` against every box in ``b``, shape (len(a), len(b)).

    Corners, intersection and union follow the same float operations as the
    scalar definition, so equal inputs give bit-equal results.
    """
    ax0, ay0 = a[:, 0][:, None], a[:, 1][:, None]
    ax1, ay1 = ax0 + a[:, 2][:, None], ay0 + a[:, 3][:, None]
    bx0, by0 = b[:, 0][None, :], b[:, 1][None, :]
    bx1, by1 = bx0 + b[:, 2][None, :], by0 + b[:, 3][None, :]
    iw = np.minimum(ax1, bx1) - np.maximum(ax0, bx0)
    ih = np.minimum(ay1, by1) - np.maximum(ay0, by0)
    inter = iw * ih
    union = np.maximum((ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter, inter)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where((iw > 0) & (ih > 0), inter / union, 0.0)
