"""COCO-format ground truth and detection results: parsing, validation, geometry.

The accepted files are bit-compatible with the public COCO format, so
third-party detector outputs evaluate unmodified.  Annotation files carry
top-level ``images``, ``annotations`` and ``categories`` keys; result files
are a flat list of ``{image_id, category_id, bbox, score}`` records.

The evaluator reads columns, and ``Dataset`` and ``DetectionSet`` hold only
columns.  ``Dataset`` keeps its images and categories, ``image_size``, and the
ground-truth columns ``gt_id`` (Python ints), ``gt_image``, ``gt_category``,
``gt_box``, ``gt_area`` and ``gt_crowd``, by image and then by id (image ``i``
at rows ``gt_starts[i]:gt_starts[i + 1]``); ``to_coco_dict`` writes them by id.
``ground_truths`` (by id) and ``gts_by_image`` are ``GroundTruth`` views, built
on first read and cached, for callers outside the evaluator.  ``DetectionSet``
holds the ``image``, ``category``, ``box`` and ``score`` columns, by image,
then descending score (image ``i`` at rows ``starts[i]:starts[i + 1]``);
``for_image`` builds ``Detection`` views.
Ids become indices through the dataset's ``{id: index}`` dicts.  Both check
their records in bulk: a bad annotation is reported by the lowest id, a bad
detection by its input position.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from operator import eq, itemgetter
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
        _check_box(self.x, self.y, self.w, self.h)

    @property
    def area(self) -> float:
        return self.w * self.h


def _check_box(x, y, w, h) -> tuple:
    # x + w is finite only if x and w are; finite sides can still overflow
    # at the far corner or in the area
    for v in (x + w, y + h, w * h):
        if not math.isfinite(v):
            raise IngestError(f"non-finite bbox corner or area in BBox(x={x!r}, y={y!r}, w={w!r}, h={h!r})")
    if w <= 0 or h <= 0:
        raise IngestError(f"bbox dimensions must be positive, got w={w}, h={h}")
    return x, y, w, h


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


def _annotation_record(rec: dict) -> tuple:
    """A validated ``(id, image_id, category_id, x, y, w, h, area, crowd)``."""
    x, y, w, h = rec["bbox"]
    box = _check_box(float(x), float(y), float(w), float(h))
    ids = _id(rec["id"]), _id(rec["image_id"]), _id(rec["category_id"])
    area = box[2] * box[3] if rec.get("area") is None else float(rec["area"])
    return (*ids, *box, area, _flag(rec.get("iscrowd", 0)))


def _detection_record(rec: dict) -> tuple:
    """A validated ``(image_id, category_id, x, y, w, h, score)``."""
    x, y, w, h = rec["bbox"]
    ids = _id(rec["image_id"]), _id(rec["category_id"])
    return (*ids, *_check_box(float(x), float(y), float(w), float(h)), float(rec["score"]))


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
    """Parse every record of one top-level list; the first bad one is named by its id, else by position."""
    if not isinstance(records, list):
        raise IngestError(f"{kind} records must be a JSON list")
    try:
        if all(isinstance(rec, dict) for rec in records):
            return [parse(rec) for rec in records]
    except (KeyError, TypeError, ValueError, OverflowError):  # IngestError is a ValueError
        pass  # parse again one by one, naming each record, so the first that fails is reported
    return [_parse_record(rec, f"{kind} {rec['id']}" if isinstance(rec, dict) and "id" in rec
                          else f"{kind} #{i}", parse) for i, rec in enumerate(records)]


class Dataset:
    """Validated, indexed ground truth: images and categories by id, ground-truth columns by (image, id).

    Immutable after construction; every downstream report is deterministic.
    """

    def __init__(self, images: list[ImageInfo], categories: list[Category],
                 ground_truths: list[GroundTruth]) -> None:
        self._fill(images, categories, [(g.id, g.image_id, g.category_id, g.bbox.x, g.bbox.y, g.bbox.w,
                                         g.bbox.h, g.area, g.ignore) for g in ground_truths])

    def _fill(self, images: list[ImageInfo], categories: list[Category], records: list[tuple]) -> None:
        """Index the images and categories; check and sort ``_annotation_record`` tuples into columns."""
        self.images = sorted(images, key=lambda im: im.id)
        self.categories = sorted(categories, key=lambda c: c.id)
        self.images_by_id = {im.id: im for im in self.images}
        if len(self.images_by_id) != len(self.images):
            raise IngestError("duplicate image id")
        self.category_index = {c.id: k for k, c in enumerate(self.categories)}
        if len(self.category_index) != len(self.categories):
            raise IngestError("duplicate category id")
        self.image_index = {i: k for k, i in enumerate(self.images_by_id)}
        self.image_ids, self.category_ids = list(self.image_index), list(self.category_index)
        self.image_size = np.array([(im.width, im.height) for im in self.images], dtype=float).reshape(-1, 2)
        n = len(records)
        records.sort(key=itemgetter(0))  # ids stay Python ints, of any size; equal ids keep input order
        ids, image_ids, category_ids, *box, areas, crowd = list(zip(*records)) or [()] * 9
        del records[:]  # free the record tuples now: each caller passes a list built for this call
        image = np.array([self.image_index.get(i, -1) for i in image_ids], dtype=np.int64)
        category = np.array([self.category_index.get(c, -1) for c in category_ids], dtype=np.int64)
        area = np.array(areas, dtype=float)
        dup = np.array(list(map(eq, ids, (None, *ids))), dtype=bool)  # an id equal to the one before it
        bad = np.flatnonzero(dup | (image < 0) | (category < 0) | ~(area > 0))  # NaN is not > 0
        if bad.size:  # the lowest bad id, by the first check it fails
            k = int(bad[0])
            raise IngestError(
                f"duplicate annotation id {ids[k]}" if dup[k] else
                f"annotation {ids[k]} references missing image {image_ids[k]}" if image[k] < 0 else
                f"annotation {ids[k]} references missing category {category_ids[k]}" if category[k] < 0
                else f"annotation {ids[k]}: area must be positive, got {areas[k]}")
        order = np.argsort(image, kind="stable")  # by image, then by id
        self.gt_id = [ids[k] for k in order.tolist()]
        self.gt_image, self.gt_category, self.gt_area = image[order], category[order], area[order]
        self.gt_box = np.array(box, dtype=float).reshape(4, n)[:, order].T
        self.gt_crowd = np.array(crowd, dtype=bool)[order]
        self.gt_starts = np.searchsorted(self.gt_image, np.arange(len(self.images) + 1))

    def _gt_rows(self) -> list[tuple]:
        """``(id, image_id, category_id, [x, y, w, h], area, crowd)`` per ground truth, by (image, id)."""
        columns = (self.gt_image.tolist(), self.gt_category.tolist(), self.gt_box.tolist(),
                   self.gt_area.tolist(), self.gt_crowd.tolist())
        return [(g, self.image_ids[i], self.category_ids[c], box, a, crowd)
                for g, i, c, box, a, crowd in zip(self.gt_id, *columns)]

    @cached_property
    def gts_by_image(self) -> dict[int, list[GroundTruth]]:
        """Each image's ground truths as ``GroundTruth`` objects, by id; built on first read."""
        gts = [GroundTruth(g, i, c, BBox(*box), a, crowd) for g, i, c, box, a, crowd in self._gt_rows()]
        starts = self.gt_starts.tolist()
        return {i: gts[s:e] for i, s, e in zip(self.image_ids, starts, starts[1:])}

    @cached_property
    def ground_truths(self) -> list[GroundTruth]:
        """Every ground truth as a ``GroundTruth`` object, by id; built on first read."""
        return sorted((g for gts in self.gts_by_image.values() for g in gts), key=lambda g: g.id)

    @classmethod
    def from_coco_dict(cls, data: dict) -> "Dataset":
        for key in ("images", "annotations", "categories"):
            if key not in data:
                raise IngestError(f"annotation file missing top-level key '{key}'")
        images = _parse_records(data["images"], "image", _image_record)
        categories = _parse_records(data["categories"], "category", _category_record)
        ds = cls.__new__(cls)
        ds._fill(images, categories, _parse_records(data["annotations"], "annotation", _annotation_record))
        return ds

    def to_coco_dict(self) -> dict:
        """Serialize back to the COCO annotation schema, annotations by id, from the columns."""
        rows = sorted(self._gt_rows(), key=itemgetter(0))
        return {
            "images": [{"id": im.id, "width": im.width, "height": im.height, "file_name": im.file_name}
                       for im in self.images],
            "annotations": [{"id": g, "image_id": i, "category_id": c, "bbox": box, "area": a,
                             "iscrowd": int(crowd)} for g, i, c, box, a, crowd in rows],
            "categories": [{"id": c.id, "name": c.name} for c in self.categories],
        }


class DetectionSet:
    """Scored detections as columns, by image and then by descending score.

    Score ties keep input order, so evaluation does not depend on the sort
    implementation.  Immutable after construction.
    """

    def __init__(self, detections: list[Detection], dataset: Dataset) -> None:
        self._fill([(d.image_id, d.category_id, d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h, d.score)
                    for d in detections], dataset)

    def _fill(self, records: list[tuple], dataset: Dataset) -> None:
        """Resolve and sort ``(image_id, category_id, x, y, w, h, score)`` records into columns."""
        n = self.total = len(records)
        ids, cats, *box, score = list(zip(*records)) or [()] * 7
        image = np.array([dataset.image_index.get(i, -1) for i in ids], dtype=np.int64)
        category = np.array([dataset.category_index.get(c, -1) for c in cats], dtype=np.int64)
        score = np.array(score, dtype=float)
        bad = np.flatnonzero((image < 0) | (category < 0) | ~np.isfinite(score))
        if bad.size:  # the first bad record, by the first check it fails
            i = int(bad[0])
            what = (f"references unknown image {ids[i]}" if image[i] < 0 else
                    f"references unknown category {cats[i]}" if category[i] < 0 else "has non-finite score")
            raise IngestError(f"detection #{i} {what}")
        order = np.lexsort((-score, image))  # stable: equal scores keep input order
        self.image, self.category, self.score = image[order], category[order], score[order]
        self.box = np.array(box, dtype=float).reshape(4, n)[:, order].T
        self.starts = np.searchsorted(self.image, np.arange(len(dataset.images) + 1))
        self.image_ids, self.category_ids = dataset.image_ids, dataset.category_ids
        self._image_index = dataset.image_index

    def for_image(self, image_id: int) -> list[Detection]:
        """One image's detections as ``Detection`` objects, by descending score."""
        i = self._image_index.get(image_id)
        rows = slice(0, 0) if i is None else slice(self.starts[i], self.starts[i + 1])
        columns = (self.category[rows].tolist(), self.box[rows].tolist(), self.score[rows].tolist())
        return [Detection(self.image_ids[i], self.category_ids[c], BBox(*box), s) for c, box, s in zip(*columns)]

    @classmethod
    def from_coco_list(cls, data: list, dataset: Dataset) -> "DetectionSet":
        dets = cls.__new__(cls)
        dets._fill(_parse_records(data, "detection", _detection_record), dataset)
        return dets

    def to_coco_list(self) -> list[dict]:
        columns = (self.image.tolist(), self.category.tolist(), self.box.tolist(), self.score.tolist())
        return [{"image_id": self.image_ids[i], "category_id": self.category_ids[c], "bbox": box, "score": s}
                for i, c, box, s in zip(*columns)]


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
