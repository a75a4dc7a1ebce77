"""Spatial-weight function, label-assignment simulation, and density analysis.

The spatial weight maps a point to [0, 1]: 0 at the image center, 1 anywhere
on the boundary.  The SELA rule relaxes a positive-IoU threshold t by
gamma * weight, so border anchors qualify at lower IoU; the beta variant
instead raises the threshold inside one chosen zone.  Both are pure
simulations over caller-supplied anchors: no feature-map or stride logic.

It is array code throughout.  ``anchor_grid`` returns an ``AnchorSet`` (read-only
(N, 4) xywh boxes and (N, 2) centers; ``Anchor`` objects are built only on
indexing).  The rules convert a list of ``Anchor`` or ``GroundTruth`` once on
entry, or take ground truths as an (M, 4) xywh array, and return the boolean
(anchors x ground truths) hit matrix; ``positives`` is a view derived from it.

What depends only on the anchors and the image size is kept on the anchor
set, which never changes: the ``spatial_weight`` of its centers for the last
image size (``sela_assign``) and their zone index for the last (image size,
partition), the partition by identity (``supervision_density``), each built
on first use, read-only, and replaced when its key changes.  ``anchor_grid``
returns one shared ``AnchorSet`` per (width, height, cols, rows, box_size),
from an ``lru_cache`` of at most 64 lattices, keyed by value (the sizes are
floats and the counts plain ints), whose arguments are checked on every
call.  So a lattice reused image after image computes its arrays
once, and a set the caller builds keeps its arrays until it dies.  The hit
matrix is a new array on every call.  A call that raises raises again on
every call: only built results are stored.
"""

from __future__ import annotations

import math
import operator
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .coco import BBox, Dataset, GroundTruth, ImageInfo, bbox_center, iou_matrix, xywh
from .errors import OutsideImageError, _flag, _integer, _real
from .zones import Partition, Zone, gt_zone_counts, normalize_points


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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


@dataclass(frozen=True, eq=False)
class AnchorSet(Sequence):
    """Anchors as read-only arrays, row for row: (N, 4) xywh ``boxes`` and (N, 2) ``centers``.

    Every value must be finite and every box side positive, as ``BBox`` asks;
    a ``ValueError`` names the first row that is not.  It holds the last array
    of each kind derived from it (see the module docstring).
    """

    boxes: np.ndarray
    centers: np.ndarray
    _held: dict = field(default_factory=dict, init=False, repr=False)  # kind -> (key, array)

    def __post_init__(self) -> None:
        for name, cols in (("boxes", 4), ("centers", 2)):
            a = np.array(getattr(self, name), dtype=float).reshape(-1, cols)
            object.__setattr__(self, name, _read_only(a))
        if len(self.boxes) != len(self.centers):
            raise ValueError(f"{len(self.boxes)} anchor boxes but {len(self.centers)} centers")
        box_ok, center_ok, side_ok = np.isfinite(self.boxes), np.isfinite(self.centers), self.boxes[:, 2:] > 0
        if not (box_ok.all() and center_ok.all() and side_ok.all()):
            # per-row reductions only on failure: numpy reduces a 2- or 4-wide axis slowly
            i = int(np.argmin(box_ok.all(axis=1) & center_ok.all(axis=1) & side_ok.all(axis=1)))
            raise ValueError(f"anchor {i}: box {self.boxes[i].tolist()} and center {self.centers[i].tolist()} "
                             "must be finite, with positive sides")

    def __len__(self) -> int:
        return len(self.boxes)

    def __getitem__(self, i) -> Anchor:
        """The ``Anchor`` of row ``i`` (negative counts from the end), built on each call."""
        i = operator.index(i)
        return Anchor(tuple(self.centers[i].tolist()), BBox(*self.boxes[i].tolist()))

    def _derived(self, kind: str, key: tuple, build) -> np.ndarray:
        """The held ``kind`` array if it was built for ``key``, else ``build()``, made read-only and held."""
        # no lock: a call returns the array it read under a matching key or built itself,
        # so threads racing on one set can cost a rebuild, never a wrong array
        held = self._held.get(kind)
        if held is not None and held[0] == key:
            return held[1]
        a = _read_only(build())
        self._held[kind] = (key, a)
        return a


@dataclass(frozen=True)
class AssignConfig:
    t: float
    gamma: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", _real(self.t, "t"))
        object.__setattr__(self, "gamma", _real(self.gamma, "gamma"))
        if not 0.0 < self.t <= 1.0:
            raise ValueError("positive IoU threshold t must lie in (0, 1]")
        if not self.gamma >= 0.0:  # written so that NaN fails
            raise ValueError("gamma must be >= 0")
        if not self.t - self.gamma >= 0.0:
            raise ValueError("t - gamma must stay non-negative")


def spatial_weight(x, y, width: float, height: float):
    """Distance-from-center score 2 * max(|x - W/2| / W, |y - H/2| / H), elementwise."""
    width, height = _real(width, "width"), _real(height, "height")
    if not (0.0 < width < math.inf and 0.0 < height < math.inf):
        raise ValueError(f"image width and height must be finite and > 0, got {width} and {height}")
    outside = np.flatnonzero(np.logical_not((0.0 <= x) & (x <= width) & (0.0 <= y) & (y <= height)))
    if outside.size:
        x0, y0 = np.ravel(x)[outside[0]], np.ravel(y)[outside[0]]
        raise OutsideImageError(f"point ({x0}, {y0}) outside {width}x{height} image")
    return 2.0 * np.maximum(np.abs(x - width / 2.0) / width, np.abs(y - height / 2.0) / height)


def se_loss_weight(x, y, width: float, height: float, gamma: float):
    """Loss weight factor 1 + gamma * spatial_weight; >= 1 everywhere, elementwise."""
    if not 0.0 <= _real(gamma, "gamma") < math.inf:
        raise ValueError("gamma must be finite and >= 0")
    return 1.0 + gamma * spatial_weight(x, y, width, height)


@dataclass(eq=False)
class AssignmentResult:
    """Which anchor is positive for which ground truth (indices into the inputs)."""

    anchors: AnchorSet
    hits: np.ndarray  # (anchors, ground truths) bool

    @property
    def positives(self) -> dict[int, tuple[int, ...]]:
        """Ground-truth index -> its positive anchors' indices, ascending."""
        return {gi: tuple(np.flatnonzero(column).tolist()) for gi, column in enumerate(self.hits.T)}

    def positive_anchor_indices(self) -> list[int]:
        """Distinct anchors that are positive for at least one ground truth, ascending."""
        return np.flatnonzero(self.hits.any(axis=1)).tolist()


def _as_arrays(anchors, gts) -> tuple[AnchorSet, np.ndarray]:
    """Anchors as an ``AnchorSet`` (an ``Anchor`` keeps its own center), ground truths as (M, 4) xywh."""
    if not isinstance(anchors, AnchorSet):
        anchors = AnchorSet(xywh([a.box for a in anchors]), [a.center for a in anchors])
    boxes = np.asarray(gts, dtype=float) if isinstance(gts, np.ndarray) else xywh([g.bbox for g in gts])
    if boxes.shape[1:] != (4,):
        raise ValueError(f"ground-truth boxes must be an (M, 4) xywh array, got shape {boxes.shape}")
    return anchors, boxes


def sela_assign(
    anchors: AnchorSet | list[Anchor], gts: list[GroundTruth] | np.ndarray, cfg: AssignConfig, img: ImageInfo
) -> AssignmentResult:
    """Threshold-relaxing assignment: positive iff IoU >= t - gamma * weight.

    gamma = 0 reproduces the plain max-IoU threshold rule.
    """
    anchors, boxes = _as_arrays(anchors, gts)
    weight = anchors._derived("weight", (img.width, img.height),
                              lambda: spatial_weight(*anchors.centers.T, img.width, img.height))
    return _threshold_positives(anchors, boxes, cfg.t - cfg.gamma * weight)


def check_beta(alpha_pos: float, beta: float) -> None:
    """Reject a threshold of the beta rule that is not a finite number."""
    if not (math.isfinite(_real(alpha_pos, "alpha_pos")) and math.isfinite(_real(beta, "beta"))):
        raise ValueError(f"alpha_pos and beta must be finite, got {alpha_pos} and {beta}")


def check_anchor_grid(cols: int, rows: int, box_size: float | None) -> tuple[int, int, float | None]:
    """``cols``, ``rows`` as plain ints and ``box_size`` as a float (or None); reject bad counts or a bad side.

    A count must be an integer (not a bool) >= 1; the box side a finite number > 0.
    """
    cols, rows = _integer(cols, "cols"), _integer(rows, "rows")
    if cols < 1 or rows < 1:
        raise ValueError("anchor grid needs cols, rows >= 1")
    side = None if box_size is None else _real(box_size, "box_size")
    if side is not None and not 0.0 < side < math.inf:
        raise ValueError(f"anchor box side must be finite and > 0, got {box_size}")
    return cols, rows, side


def beta_assign(
    anchors: AnchorSet | list[Anchor],
    gts: list[GroundTruth] | np.ndarray,
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
        warnings.warn(f"alpha_pos + beta = {alpha_pos + beta:g} > 1: no anchor inside zone "
                      f"{zone.id!r} can be positive", stacklevel=2)
    anchors, boxes = _as_arrays(anchors, gts)
    us, vs = normalize_points(*anchors.centers.T, img.width, img.height)
    cut = np.where(zone.contains(us, vs), alpha_pos + beta, alpha_pos)
    return _threshold_positives(anchors, boxes, cut)


def _threshold_positives(anchors: AnchorSet, gt_boxes: np.ndarray, cut: np.ndarray) -> AssignmentResult:
    """Anchor ai is positive for ground truth gi iff their IoU >= cut[ai]."""
    return AssignmentResult(anchors, iou_matrix(anchors.boxes, gt_boxes) >= cut[:, None])


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
    images to share one size.  ``absolute`` must be a bool (numpy's too).
    """
    pixel_area, absolute = 1.0, _flag(absolute, "absolute")
    if absolute:
        sizes = {(im.width, im.height) for im in ds.images}
        if len(sizes) > 1:
            raise ValueError("absolute-area densities need a uniform image size")
        w, h = next(iter(sizes)) if sizes else (1.0, 1.0)
        pixel_area = w * h
    return _density_report(partition, gt_zone_counts(ds, partition), pixel_area, absolute)


def supervision_density(result: AssignmentResult, partition: Partition, img: ImageInfo) -> DensityReport:
    """Positive-anchor count and density per zone (distinct anchors)."""
    anchors = result.anchors
    zone = anchors._derived("zones", (img.width, img.height, partition),
                            lambda: partition.assign(*anchors.centers.T, img.width, img.height))
    counts = np.bincount(zone[result.hits.any(axis=1)], minlength=len(partition.zones))
    return _density_report(partition, counts, 1.0, False)


def _density_report(
    partition: Partition, counts: np.ndarray, pixel_area: float, absolute: bool
) -> DensityReport:
    areas = partition.area_fractions * pixel_area
    density = np.divide(counts, areas, out=np.zeros(len(areas)), where=areas > 0)
    rows = zip(partition.zone_ids, counts.tolist(), areas.tolist(), density.tolist())
    return DensityReport([ZoneDensity(*row) for row in rows], absolute)


def anchor_grid(img: ImageInfo, cols: int, rows: int, box_size: float | None = None) -> AnchorSet:
    """Regular anchor lattice: one anchor per cell center, square boxes, rows top to bottom.

    Test/simulation helper; defaults the box side to the cell pitch.  A center
    is (c + 0.5) * pitch exactly, not x + w / 2, which may differ in the last bit.
    Calls with equal image sizes and arguments return one shared ``AnchorSet``.
    """
    return _lattice(_real(img.width, "width"), _real(img.height, "height"), *check_anchor_grid(cols, rows, box_size))


@lru_cache(maxsize=64)
def _lattice(width: float, height: float, cols: int, rows: int, box_size: float | None) -> AnchorSet:
    pitch_x, pitch_y = width / cols, height / rows
    size = box_size if box_size is not None else min(pitch_x, pitch_y)
    centers = np.column_stack([np.tile((np.arange(cols) + 0.5) * pitch_x, rows),
                               np.repeat((np.arange(rows) + 0.5) * pitch_y, cols)])
    return AnchorSet(np.column_stack([centers - size / 2, np.full((len(centers), 2), size)]), centers)
