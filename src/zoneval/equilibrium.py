"""Spatial-weight function, label-assignment simulation, and density analysis.

The spatial weight maps a point to [0, 1]: 0 at the image center, 1 anywhere
on the boundary.  The SELA rule relaxes a positive-IoU threshold t by
gamma * weight, so border anchors qualify at lower IoU; the beta variant
instead raises the threshold inside one chosen zone.  Both are pure
simulations over caller-supplied anchors: no feature-map or stride logic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .coco import BBox, Dataset, GroundTruth, ImageInfo, bbox_center, iou_matrix, xywh
from .errors import OutsideImageError
from .zones import Partition, Zone, gt_zone_counts, normalize_points


@dataclass(frozen=True)
class Anchor:
    center: tuple[float, float]
    box: BBox

    def __post_init__(self) -> None:
        cx, cy = bbox_center(self.box)
        if abs(cx - self.center[0]) > 1e-9 or abs(cy - self.center[1]) > 1e-9:
            raise ValueError(f"anchor center {self.center} is not the box center ({cx}, {cy})")

    @classmethod
    def from_box(cls, box: BBox) -> "Anchor":
        return cls(bbox_center(box), box)


@dataclass(frozen=True)
class AssignConfig:
    t: float
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.t <= 1.0:
            raise ValueError("positive IoU threshold t must lie in (0, 1]")
        if not self.gamma >= 0.0:  # written so that NaN fails
            raise ValueError("gamma must be >= 0")
        if not self.t - self.gamma >= 0.0:
            raise ValueError("t - gamma must stay non-negative")


def spatial_weight(x, y, width: float, height: float):
    """Distance-from-center score 2 * max(|x - W/2| / W, |y - H/2| / H), elementwise."""
    outside = np.flatnonzero(np.logical_not((0.0 <= x) & (x <= width) & (0.0 <= y) & (y <= height)))
    if outside.size:
        x0, y0 = np.ravel(x)[outside[0]], np.ravel(y)[outside[0]]
        raise OutsideImageError(f"point ({x0}, {y0}) outside {width}x{height} image")
    return 2.0 * np.maximum(np.abs(x - width / 2.0) / width, np.abs(y - height / 2.0) / height)


def se_loss_weight(x, y, width: float, height: float, gamma: float):
    """Loss weight factor 1 + gamma * spatial_weight; >= 1 everywhere, elementwise."""
    if not 0.0 <= gamma < math.inf:
        raise ValueError("gamma must be finite and >= 0")
    return 1.0 + gamma * spatial_weight(x, y, width, height)


@dataclass
class AssignmentResult:
    """Positive anchors per ground truth (indices into the input lists)."""

    anchors: list[Anchor]
    gts: list[GroundTruth]
    positives: dict[int, tuple[int, ...]]  # gt index -> anchor indices

    def positive_anchor_indices(self) -> list[int]:
        """Distinct anchors that are positive for at least one ground truth."""
        return sorted({ai for idxs in self.positives.values() for ai in idxs})


def sela_assign(
    anchors: list[Anchor],
    gts: list[GroundTruth],
    cfg: AssignConfig,
    img: ImageInfo,
) -> AssignmentResult:
    """Threshold-relaxing assignment: positive iff IoU >= t - gamma * weight.

    gamma = 0 reproduces the plain max-IoU threshold rule.
    """
    xs, ys = np.array([a.center for a in anchors], dtype=float).reshape(-1, 2).T
    return _threshold_positives(anchors, gts, cfg.t - cfg.gamma * spatial_weight(xs, ys, img.width, img.height))


def check_beta(alpha_pos: float, beta: float) -> None:
    """Reject a non-finite threshold of the beta rule."""
    if not (math.isfinite(alpha_pos) and math.isfinite(beta)):
        raise ValueError(f"alpha_pos and beta must be finite, got {alpha_pos} and {beta}")


def beta_assign(
    anchors: list[Anchor],
    gts: list[GroundTruth],
    alpha_pos: float,
    beta: float,
    zone: Zone,
    img: ImageInfo,
) -> AssignmentResult:
    """Zone-penalizing assignment: positive iff IoU >= alpha_pos + beta * [in zone].

    beta = 0 reduces to the plain alpha_pos threshold.  alpha_pos + beta > 1
    makes in-zone positives impossible; that is allowed but warned about.
    """
    check_beta(alpha_pos, beta)
    if alpha_pos + beta > 1.0:
        warnings.warn(
            f"alpha_pos + beta = {alpha_pos + beta:g} > 1: no anchor inside zone "
            f"{zone.id!r} can be positive",
            stacklevel=2,
        )
    centers = np.array([a.center for a in anchors], dtype=float).reshape(-1, 2)
    us, vs = normalize_points(centers[:, 0], centers[:, 1], img.width, img.height)
    cut = np.where(zone.contains(us, vs), alpha_pos + beta, alpha_pos)
    return _threshold_positives(anchors, gts, cut)


def _threshold_positives(
    anchors: list[Anchor], gts: list[GroundTruth], cut: np.ndarray
) -> AssignmentResult:
    """Anchor ai is positive for ground truth gi iff their IoU >= cut[ai]."""
    hits = iou_matrix(xywh([a.box for a in anchors]), xywh([g.bbox for g in gts])) >= cut[:, None]
    positives = {gi: tuple(np.flatnonzero(hits[:, gi]).tolist()) for gi in range(len(gts))}
    return AssignmentResult(anchors, gts, positives)


@dataclass
class ZoneDensity:
    zone_id: str
    count: int
    area: float  # normalized fraction, or pixels^2 in absolute mode
    density: float


@dataclass
class DensityReport:
    zones: list[ZoneDensity]
    absolute: bool

    def counts(self) -> list[int]:
        return [z.count for z in self.zones]

    def densities(self) -> list[float]:
        return [z.density for z in self.zones]


def object_density(ds: Dataset, partition: Partition, absolute: bool = False) -> DensityReport:
    """Ground-truth center count per zone divided by zone area.

    Normalized zone areas (image fraction) keep reports comparable across
    image sizes; absolute mode divides by pixel area instead and requires all
    images to share one size.
    """
    pixel_area = 1.0
    if absolute:
        sizes = {(im.width, im.height) for im in ds.images}
        if len(sizes) > 1:
            raise ValueError("absolute-area densities need a uniform image size")
        w, h = next(iter(sizes)) if sizes else (1.0, 1.0)
        pixel_area = w * h
    return _density_report(partition, gt_zone_counts(ds, partition), pixel_area, absolute)


def supervision_density(
    result: AssignmentResult, partition: Partition, img: ImageInfo
) -> DensityReport:
    """Positive-anchor count and density per zone (distinct anchors)."""
    centers = [result.anchors[ai].center for ai in result.positive_anchor_indices()]
    xs, ys = np.array(centers, dtype=float).reshape(-1, 2).T
    idx = partition.assign(xs, ys, img.width, img.height)
    return _density_report(partition, np.bincount(idx, minlength=len(partition.zones)), 1.0, False)


def _density_report(
    partition: Partition, counts: np.ndarray, pixel_area: float, absolute: bool
) -> DensityReport:
    zones = []
    for zone, count in zip(partition.zones, counts.tolist()):
        area = zone.area_fraction * pixel_area
        zones.append(ZoneDensity(zone.id, count, area, count / area if area > 0 else 0.0))
    return DensityReport(zones, absolute)


def anchor_grid(img: ImageInfo, cols: int, rows: int, box_size: float | None = None) -> list[Anchor]:
    """Regular anchor lattice: one anchor per cell center, square boxes.

    Test/simulation helper; defaults the box side to the cell pitch.
    """
    if cols < 1 or rows < 1:
        raise ValueError("anchor grid needs cols, rows >= 1")
    pitch_x = img.width / cols
    pitch_y = img.height / rows
    size = box_size if box_size is not None else min(pitch_x, pitch_y)
    anchors = []
    for r in range(rows):
        cy = (r + 0.5) * pitch_y
        for c in range(cols):
            cx = (c + 0.5) * pitch_x
            anchors.append(Anchor((cx, cy), BBox(cx - size / 2, cy - size / 2, size, size)))
    return anchors
