"""COCO-format ground truth and detection results: parsing, validation, geometry.

The accepted files are bit-compatible with the public COCO format, so
third-party detector outputs evaluate unmodified.  Annotation files carry
top-level ``images``, ``annotations`` and ``categories`` keys; result files
are a flat list of ``{image_id, category_id, bbox, score}`` records.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IngestError


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in pixel coordinates, (x, y) = top-left corner."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        # x + w is finite only if x and w are; finite sides can still overflow
        # at the far corner or in the area
        for v in (self.x + self.w, self.y + self.h, self.w * self.h):
            if not math.isfinite(v):
                raise IngestError(f"non-finite bbox corner or area in {self!r}")
        if self.w <= 0 or self.h <= 0:
            raise IngestError(f"bbox dimensions must be positive, got w={self.w}, h={self.h}")

    @property
    def area(self) -> float:
        return self.w * self.h


def bbox_center(b: BBox) -> tuple[float, float]:
    """Center point of a box in pixels."""
    return (b.x + b.w / 2.0, b.y + b.h / 2.0)


def xywh(boxes: list[BBox]) -> np.ndarray:
    """(N, 4) array of the boxes' x, y, w, h."""
    # one list per column converts several times faster than one tuple per box
    columns = [[b.x for b in boxes], [b.y for b in boxes], [b.w for b in boxes], [b.h for b in boxes]]
    return np.array(columns, dtype=float).T


def box_centers(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Center coordinates of an (N, 4) xywh array, by the same arithmetic as bbox_center."""
    return a[:, 0] + a[:, 2] / 2.0, a[:, 1] + a[:, 3] / 2.0


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every row of ``a`` with every row of ``b``, both (N, 4) xywh arrays.

    Disjoint pairs score 0.0.  Areas come from the same corner differences as
    the intersection, so identical boxes score exactly 1.0.
    """
    ax0, ay0, bx0, by0 = a[:, 0], a[:, 1], b[:, 0], b[:, 1]
    ax1, ay1, bx1, by1 = ax0 + a[:, 2], ay0 + a[:, 3], bx0 + b[:, 2], by0 + b[:, 3]
    iw = np.minimum(ax1[:, None], bx1[None, :]) - np.maximum(ax0[:, None], bx0[None, :])
    ih = np.minimum(ay1[:, None], by1[None, :]) - np.maximum(ay0[:, None], by0[None, :])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    area_a = (ax1 - ax0) * (ay1 - ay0)
    area_b = (bx1 - bx0) * (by1 - by0)
    union = np.maximum(area_a[:, None] + area_b[None, :] - inter, inter)
    return np.divide(inter, union, out=np.zeros_like(inter), where=inter > 0)


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes; 0.0 when disjoint."""
    return float(iou_matrix(xywh([a]), xywh([b]))[0, 0])


@dataclass(frozen=True)
class ImageInfo:
    id: int
    width: float
    height: float
    file_name: str = ""

    def __post_init__(self) -> None:
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise IngestError(
                f"image {self.id}: dimensions must be finite and positive, got {self.width}x{self.height}"
            )


@dataclass(frozen=True)
class Category:
    id: int
    name: str


@dataclass(frozen=True)
class GroundTruth:
    id: int
    image_id: int
    category_id: int
    bbox: BBox
    area: float
    ignore: bool = False


@dataclass(frozen=True)
class Detection:
    image_id: int
    category_id: int
    bbox: BBox
    score: float


def _id(v) -> int:
    """An id field as an int; ``int()`` alone would truncate 1.7 to 1."""
    if isinstance(v, float) and not v.is_integer():
        raise ValueError(f"id {v!r} is not an integer")
    return int(v)


def _flag(v) -> bool:
    """A 0/1 flag field; ``bool()`` alone would read the string "0" as true."""
    if not (isinstance(v, int) and v in (0, 1)):  # bool is an int
        raise ValueError(f"flag {v!r} is not 0, 1, true or false")
    return bool(v)


def _image_record(rec: dict) -> ImageInfo:
    return ImageInfo(
        id=_id(rec["id"]),
        width=float(rec["width"]),
        height=float(rec["height"]),
        file_name=str(rec.get("file_name", "")),
    )


def _category_record(rec: dict) -> Category:
    return Category(id=_id(rec["id"]), name=str(rec["name"]))


def _annotation_record(rec: dict) -> GroundTruth:
    x, y, w, h = rec["bbox"]
    bbox = BBox(float(x), float(y), float(w), float(h))
    return GroundTruth(
        id=_id(rec["id"]),
        image_id=_id(rec["image_id"]),
        category_id=_id(rec["category_id"]),
        bbox=bbox,
        area=bbox.area if rec.get("area") is None else float(rec["area"]),
        ignore=_flag(rec.get("iscrowd", 0)),
    )


def _detection_record(rec: dict) -> Detection:
    x, y, w, h = rec["bbox"]
    return Detection(
        image_id=_id(rec["image_id"]),
        category_id=_id(rec["category_id"]),
        bbox=BBox(float(x), float(y), float(w), float(h)),
        score=float(rec["score"]),
    )


def _record_error(name: str, e: Exception) -> str:
    """Message for the record ``name`` that failed to parse."""
    if isinstance(e, IngestError):  # ImageInfo names its image already
        return str(e) if str(e).startswith(f"{name}:") else f"{name}: {e}"
    if isinstance(e, KeyError):
        return f"{name}: missing field {e}"
    return f"{name}: malformed record ({e})"


def _parse_record(rec, name: str, parse):
    """Parse one record, named ``name`` in errors; a malformed record raises IngestError.

    Malformed: not an object, missing a required field, or holding a field of
    the wrong type or an invalid value.
    """
    if not isinstance(rec, dict):
        raise IngestError(f"{name} is not a JSON object: {rec!r}")
    try:
        return parse(rec)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise IngestError(_record_error(name, e)) from e


def _parse_records(records, kind: str, parse) -> list:
    """Parse every record of one top-level list, naming each by its id, else by position."""
    if not isinstance(records, list):
        raise IngestError(f"{kind} records must be a JSON list")
    return [
        _parse_record(rec, f"{kind} {rec['id']}" if isinstance(rec, dict) and "id" in rec
                      else f"{kind} #{i}", parse)
        for i, rec in enumerate(records)
    ]


class Dataset:
    """Validated, indexed ground truth. Immutable after construction.

    Lists are kept in stable order (sorted by id), so iteration and every
    downstream report are deterministic.
    """

    def __init__(
        self,
        images: list[ImageInfo],
        categories: list[Category],
        ground_truths: list[GroundTruth],
    ) -> None:
        self.images = sorted(images, key=lambda im: im.id)
        self.categories = sorted(categories, key=lambda c: c.id)
        self.ground_truths = sorted(ground_truths, key=lambda g: g.id)

        self.images_by_id = {im.id: im for im in self.images}
        if len(self.images_by_id) != len(self.images):
            raise IngestError("duplicate image id")
        self.categories_by_id = {c.id: c for c in self.categories}
        if len(self.categories_by_id) != len(self.categories):
            raise IngestError("duplicate category id")

        seen_ann = set()
        self.gts_by_image: dict[int, list[GroundTruth]] = {im.id: [] for im in self.images}
        for gt in self.ground_truths:
            if gt.id in seen_ann:
                raise IngestError(f"duplicate annotation id {gt.id}")
            seen_ann.add(gt.id)
            if gt.image_id not in self.images_by_id:
                raise IngestError(f"annotation {gt.id} references missing image {gt.image_id}")
            if gt.category_id not in self.categories_by_id:
                raise IngestError(
                    f"annotation {gt.id} references missing category {gt.category_id}"
                )
            if not gt.area > 0:  # also rejects NaN
                raise IngestError(f"annotation {gt.id}: area must be positive, got {gt.area}")
            self.gts_by_image[gt.image_id].append(gt)

    @property
    def category_ids(self) -> list[int]:
        return [c.id for c in self.categories]

    @classmethod
    def from_coco_dict(cls, data: dict) -> "Dataset":
        for key in ("images", "annotations", "categories"):
            if key not in data:
                raise IngestError(f"annotation file missing top-level key '{key}'")
        images = _parse_records(data["images"], "image", _image_record)
        categories = _parse_records(data["categories"], "category", _category_record)
        gts = _parse_records(data["annotations"], "annotation", _annotation_record)
        return cls(images, categories, gts)

    def to_coco_dict(self) -> dict:
        """Serialize back to the COCO annotation schema."""
        return {
            "images": [
                {"id": im.id, "width": im.width, "height": im.height, "file_name": im.file_name}
                for im in self.images
            ],
            "annotations": [
                {
                    "id": g.id,
                    "image_id": g.image_id,
                    "category_id": g.category_id,
                    "bbox": [g.bbox.x, g.bbox.y, g.bbox.w, g.bbox.h],
                    "area": g.area,
                    "iscrowd": 1 if g.ignore else 0,
                }
                for g in self.ground_truths
            ],
            "categories": [{"id": c.id, "name": c.name} for c in self.categories],
        }


class DetectionSet:
    """Scored detections grouped by image, each group sorted by descending score.

    Score ties keep input order, so evaluation does not depend on the sort
    implementation.  Immutable after construction.
    """

    def __init__(self, detections: list[Detection], dataset: Dataset) -> None:
        by_image: dict[int, list[Detection]] = {}
        for i, det in enumerate(detections):
            if det.image_id not in dataset.images_by_id:
                raise IngestError(f"detection #{i} references unknown image {det.image_id}")
            if det.category_id not in dataset.categories_by_id:
                raise IngestError(f"detection #{i} references unknown category {det.category_id}")
            if not math.isfinite(det.score):
                raise IngestError(f"detection #{i} has non-finite score")
            by_image.setdefault(det.image_id, []).append(det)
        # sorted() is stable: equal scores preserve input order
        self.by_image = {
            img_id: sorted(dets, key=lambda d: -d.score) for img_id, dets in by_image.items()
        }
        self.total = len(detections)

    def for_image(self, image_id: int) -> list[Detection]:
        return self.by_image.get(image_id, [])

    @classmethod
    def from_coco_list(cls, data: list, dataset: Dataset) -> "DetectionSet":
        return cls(_parse_records(data, "detection", _detection_record), dataset)

    def to_coco_list(self) -> list[dict]:
        out = []
        for img_id in sorted(self.by_image):
            for d in self.by_image[img_id]:
                out.append(
                    {
                        "image_id": d.image_id,
                        "category_id": d.category_id,
                        "bbox": [d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h],
                        "score": d.score,
                    }
                )
        return out


def _read_text(path: str | Path) -> str:
    """A file's text; a missing, unreadable or undecodable file raises IngestError."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise IngestError(f"cannot read {path}: {e}") from e


def _decode_json(text: str, where: str | Path):
    """One JSON document, from a whole file or one line of it; ``where`` names it in errors."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:  # the decoder recurses per nesting level
        raise IngestError(f"{where} is not valid JSON: {e}") from e


def _read_json(path: str | Path):
    """Parse a JSON file; an unreadable or malformed file raises IngestError."""
    return _decode_json(_read_text(path), path)


def load_ground_truth(path: str | Path) -> Dataset:
    """Load and validate a COCO annotation file."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise IngestError(f"{path}: annotation file must be a JSON object")
    return Dataset.from_coco_dict(data)


def load_detections(path: str | Path, dataset: Dataset) -> DetectionSet:
    """Load a COCO results file and resolve it against a dataset."""
    return DetectionSet.from_coco_list(_read_json(path), dataset)
