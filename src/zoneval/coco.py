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
Ids become indices through the dataset's ``{id: index}`` dicts.  Every view
is built from the checked columns by one helper, ``_views``, which sets the
fields of values that passed ingest's rules and runs no check again.

There is one ingest path: ``Dataset(...)`` and ``DetectionSet(...)`` read
their objects as the COCO records they stand for, by the same step as
``from_coco_dict`` and ``from_coco_list``, and ``_columns`` is the only reader
of a top-level record list.  Annotations and detections become columns
straight from the list: each field is gathered once and checked as a whole
column (its types, then ``_check_box``'s rule and the ``iscrowd`` rule as
array masks).  There is one rule per field: when a check fails, ``_columns``
bisects the list to the first bad record and names it by the first rule it
breaks when run on that record alone.  Ids, sizes, boxes, areas and scores
are numbers (JSON's, or numpy's from Python), never strings or
``true``/``false``.  References, duplicate ids, areas and scores are then
checked on the columns: a duplicate id or a bad annotation is reported by the
lowest id, a bad detection by its input position.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, repeat
from operator import eq, itemgetter
from pathlib import Path

import numpy as np

from .errors import IngestError, _numeric


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in pixel coordinates, (x, y) = top-left corner."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        box = (self.x, self.y, self.w, self.h)
        # the reader's number rule, named as a file's bbox value; four floats pass at once
        if not (type(self.x) is type(self.y) is type(self.w) is type(self.h) is float or _numeric(box)):
            raise IngestError(f"bbox value {next(v for v in box if not _numeric((v,)))!r} is not a number")
        _check_box(*box)

    @property
    def area(self) -> float:
        return self.w * self.h


# the largest area ``corner_iou`` may take from a box's corners: two of them sum to at most the float maximum
_MAX_AREA = float(np.finfo(float).max) / 2


def _check_box(x, y, w, h) -> tuple:
    # x + w is finite only if x and w are; finite sides can still overflow
    # at the far corner or in the area
    for v in (x + w, y + h, w * h):
        if not math.isfinite(v):
            raise IngestError(f"non-finite bbox corner or area in BBox(x={x!r}, y={y!r}, w={w!r}, h={h!r})")
    if w <= 0 or h <= 0:
        raise IngestError(f"bbox dimensions must be positive, got w={w}, h={h}")
    if not ((x + w) - x) * ((y + h) - y) <= _MAX_AREA:
        raise IngestError(f"bbox area past half the float range in BBox(x={x!r}, y={y!r}, w={w!r}, h={h!r})")
    return x, y, w, h


def _box_ok(box: np.ndarray) -> np.ndarray:
    """Per row of an (N, 4) xywh array, whether ``_check_box`` accepts it: the one array form of its rule.

    Finite x, y, w, h; w, h > 0; finite x + w, y + h and w * h; and an area
    from the corners, ``((x + w) - x) * ((y + h) - y)``, at most half the
    float maximum, so that no union in ``corner_iou`` overflows.
    """
    x, y, w, h = box.T
    # x + w is finite only if x and w are; the overflows are what is checked
    with np.errstate(over="ignore", invalid="ignore"):
        x1, y1 = x + w, y + h
        return (np.isfinite(x1) & np.isfinite(y1) & np.isfinite(w * h) & (w > 0) & (h > 0)
                & ((x1 - x) * (y1 - y) <= _MAX_AREA))


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


def box_corners(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(x0, y0, x1, y1) columns of an (N, 4) xywh array: the corners every IoU is computed from."""
    x0, y0 = a[:, 0], a[:, 1]
    return x0, y0, x0 + a[:, 2], y0 + a[:, 3]


_SMALLEST_SUBNORMAL = np.finfo(float).smallest_subnormal


def corner_iou(a: tuple, b: tuple) -> np.ndarray:
    """Elementwise IoU of boxes given as (x0, y0, x1, y1) corner arrays that broadcast together.

    The domain is the boxes the package accepts (``_box_ok``): finite
    corners and area, positive sides, and an area from the corners of at
    most half the float maximum, so that no two areas sum past the float
    range.  Disjoint pairs score 0.0, as do pairs whose intersection area
    underflows to 0.  Areas come from the same corner differences as the
    intersection, so identical boxes score exactly 1.0, unless a side is
    lost at its far corner or the area underflows.  This is the one IoU kernel:
    ``iou_matrix`` broadcasts it and the evaluator calls it on flat pairs, so
    both give the same bits for the same two boxes.

    It works in two full-size buffers.  The x overlap, clamped at 0, goes
    into the first and the y overlap into the second; their product, the
    intersection, into the first.  The union (the two areas' sum less the
    intersection, at least the intersection and at least the smallest
    subnormal) goes into the second, and the quotient over it.  The floor
    makes a zero intersection score 0.0 with no mask; it moves no union of a
    positive intersection, which is at least that subnormal already.
    """
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    inter = np.minimum(ax1, bx1)
    inter -= np.maximum(ax0, bx0)
    np.maximum(inter, 0.0, out=inter)
    union = np.minimum(ay1, by1)
    union -= np.maximum(ay0, by0)
    np.maximum(union, 0.0, out=union)
    inter *= union
    np.add((ax1 - ax0) * (ay1 - ay0), (bx1 - bx0) * (by1 - by0), out=union)
    union -= inter
    np.maximum(union, inter, out=union)
    np.maximum(union, _SMALLEST_SUBNORMAL, out=union)
    return np.divide(inter, union, out=union)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every row of ``a`` with every row of ``b``, both (N, 4) xywh arrays: (N, M) floats.

    This is ``corner_iou`` broadcast with the longer operand on the inner,
    contiguous axis: (N, 1) x (1, M) when N <= M, else the transpose of the
    (M, N) matrix, so the result may be a transposed (F-ordered) view.  IoU
    is symmetric bit for bit, so the values do not depend on the orientation.
    """
    if len(a) > len(b):
        return iou_matrix(b, a).T
    return corner_iou([c[:, None] for c in box_corners(a)], [c[None, :] for c in box_corners(b)])


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
        try:
            _checked_number(self.width, "width")
            _checked_number(self.height, "height")
        except ValueError as e:
            raise IngestError(f"image {self.id}: malformed record ({e})") from None  # a file's text
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


def _views(cls, *columns) -> list:
    """A ``cls`` object per row of ``columns``, one column per field in order: the views of checked columns.

    Each field is set on every object in one pass, by ``object.__setattr__``
    as a frozen dataclass's ``__init__`` sets it, but with no constructor: a
    box column has passed ``_box_ok`` at ingest, ``_check_box``'s rule, so
    ``BBox.__post_init__`` does not check it again.  A view equals, hashes
    and prints as the object the public constructor builds from the same values.
    """
    views = list(map(object.__new__, repeat(cls, len(columns[0]))))
    for field, column in zip(fields(cls), columns, strict=True):
        deque(map(object.__setattr__, views, repeat(field.name), column), maxlen=0)
    return views


_FLAG = (int, np.integer, np.bool_)  # 0, 1, true or false, from JSON (bool is an int) or from numpy


def _checked_number(v, what: str):
    """``v`` if it is a number by ``_numeric``'s rule."""
    if not _numeric((v,)):
        raise ValueError(f"{what} {v!r} is not a number")
    return v


def _number(v, what: str) -> float:
    """A size, box, area or score field as a float; ``float()`` alone would read "1_0" as 10.0."""
    return float(_checked_number(v, what))


def _id(v) -> int:
    """An id field as an int; ``int()`` alone would truncate 1.7 to 1 and read "1" as 1."""
    if isinstance(_checked_number(v, "id"), (float, np.floating)) and not float(v).is_integer():
        raise ValueError(f"id {v!r} is not an integer")
    return int(v)


def _image_record(rec: dict) -> ImageInfo:
    return ImageInfo(
        id=_id(rec["id"]),
        width=_number(rec["width"], "width"),
        height=_number(rec["height"], "height"),
        file_name=str(rec.get("file_name", "")),
    )


def _category_record(rec: dict) -> Category:
    return Category(id=_id(rec["id"]), name=str(rec["name"]))


def _floats(values: list, what: str) -> np.ndarray:
    """A float column of numbers; the first value that is not one raises, named as ``what``.

    The types are checked first, because ``dtype=float`` alone would parse
    strings and read true as 1.0.  ``dtype=float`` converts each int as
    ``float()`` does; numpy's own dtype discovery rounds some ints above 2**63
    otherwise.
    """
    if not _numeric(values):
        for v in values:  # in order, as one record is read: an int too large for a float may raise first
            _number(v, what)
    return np.array(values, dtype=float)  # an int too large for a float raises OverflowError


def _ids(values: list) -> list:
    """Ids as ints by ``_id``'s rule; a list of ints passes as it is, ints of any size."""
    return values if set(map(type, values)) <= {int} else [_id(v) for v in values]


def _bboxes(records: list) -> list:
    """The ``bbox`` field of each record, as it is, after checking that it unpacks into 4 values."""
    boxes = [r["bbox"] for r in records]
    for _x, _y, _w, _h in boxes:  # Python's own unpacking and its messages, with no container per box
        pass
    return boxes


def _box(boxes: list) -> np.ndarray:
    """The (N, 4) column of ``bbox`` fields, checked by ``_check_box``'s rule as array masks (``_box_ok``)."""
    box = _floats(list(chain.from_iterable(boxes)), "bbox value").reshape(-1, 4)
    ok = _box_ok(box)
    if not ok.all():
        _check_box(*box[np.argmin(ok)].tolist())  # raises, naming the first bad box
        raise ValueError("a bbox is not finite and positive")
    return box


def _detection_columns(records: list) -> tuple:
    """``(image_ids, category_ids, box, score)`` of results records, each field checked as a column."""
    boxes = _bboxes(records)
    image_ids, category_ids = (_ids([r[key] for r in records]) for key in ("image_id", "category_id"))
    return image_ids, category_ids, _box(boxes), _floats([r["score"] for r in records], "score")


def _annotation_columns(records: list) -> tuple:
    """``(ids, image_ids, category_ids, box, area, crowd)`` of annotations, each field checked as a column."""
    box = _box(_bboxes(records))
    ids, image_ids, category_ids = (_ids([r[key] for r in records]) for key in ("id", "image_id", "category_id"))
    areas = [r.get("area") for r in records]
    missing = [k for k, a in enumerate(areas) if a is None] if None in areas else []
    area = _floats([0.0 if a is None else a for a in areas] if missing else areas, "area")
    area[missing] = box[missing, 2] * box[missing, 3]  # a missing or null area is w * h
    crowd = [r.get("iscrowd", 0) for r in records]
    if not (all(issubclass(t, _FLAG) for t in set(map(type, crowd))) and set(crowd) <= {0, 1}):
        flag = next(v for v in crowd if not (isinstance(v, _FLAG) and v in (0, 1)))
        raise ValueError(f"flag {flag!r} is not 0, 1, true or false")
    return ids, image_ids, category_ids, box, area, np.array(crowd, dtype=bool)


def _columns(records, kind: str, build, by_id: bool = True):
    """What ``build`` makes of one top-level list of records; the only reader of such a list.

    ``build`` fails on a part of the list if and only if the part holds a bad
    record, so when it fails, halves of the list are built until the first bad
    record is found; ``build`` run on that record alone names it by the first
    rule it breaks, so each rule is written once.  The record is named by its
    ``id``, else by position (``kind #i``), always by position with ``by_id``
    false: a result's ``id`` is not a field the reader checks.
    """
    if not isinstance(records, list):
        raise IngestError(f"{kind} records must be a JSON list")
    try:
        return build(records)
    except (KeyError, TypeError, ValueError, OverflowError):  # IngestError is a ValueError
        pass
    lo, hi = 0, len(records)  # records[:lo] holds no bad record, records[lo:hi] the first one
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            build(records[lo:mid])
            lo = mid
        except (KeyError, TypeError, ValueError, OverflowError):
            hi = mid
    for i, rec in enumerate(records[lo:hi], lo):  # raises, naming the record
        _parse_record(rec, f"{kind} {rec['id']}" if by_id and isinstance(rec, dict) and "id" in rec
                      else f"{kind} #{i}", lambda rec: build([rec]))
    raise IngestError(f"{kind} records do not form columns")  # a list that fails only as a whole


def _parse_record(rec, name: str, parse):
    """Parse one record, named ``name`` in errors; a malformed record raises IngestError.

    Malformed: not an object, missing a required field, or holding a field of
    the wrong type or an invalid value.
    """
    if not isinstance(rec, dict):
        raise IngestError(f"{name} is not a JSON object: {rec!r}")
    try:
        return parse(rec)
    except IngestError as e:  # ImageInfo names its image already
        raise IngestError(str(e) if str(e).startswith(f"{name}:") else f"{name}: {e}") from e
    except KeyError as e:
        raise IngestError(f"{name}: missing field {e}") from e
    except (TypeError, ValueError, OverflowError) as e:
        raise IngestError(f"{name}: malformed record ({e})") from e


def _index(index: dict, ids: list) -> np.ndarray:
    """The index of each id in an ``{id: index}`` dict, -1 for an id it lacks."""
    return np.fromiter(map(index.get, ids, repeat(-1)), dtype=np.int64, count=len(ids))


class Dataset:
    """Validated, indexed ground truth: images and categories by id, ground-truth columns by (image, id).

    Immutable after construction; every downstream report is deterministic.
    """

    def __init__(self, images: list[ImageInfo], categories: list[Category],
                 ground_truths: list[GroundTruth]) -> None:
        # the COCO records the objects stand for (an image's and a category's fields are their
        # COCO keys), read as an annotation file is: every field by the file's rule and message
        self._fill(list(map(vars, images)), list(map(vars, categories)),
                   [{"id": g.id, "image_id": g.image_id, "category_id": g.category_id, "bbox": [b.x, b.y, b.w, b.h],
                     "area": g.area, "iscrowd": g.ignore} for g in ground_truths for b in (g.bbox,)])

    def _fill(self, images: list, categories: list, annotations: list) -> None:
        """Read the image, category and annotation records; check the columns and sort them by (image, id)."""
        images = _columns(images, "image", lambda records: list(map(_image_record, records)))
        categories = _columns(categories, "category", lambda records: list(map(_category_record, records)))
        ids, image_ids, category_ids, box, area, crowd = _columns(annotations, "annotation", _annotation_columns)
        self.images = sorted(images, key=lambda im: im.id)
        self.categories = sorted(categories, key=lambda c: c.id)
        for kind, objects in (("image", self.images), ("category", self.categories)):
            repeated = [b.id for a, b in zip(objects, objects[1:]) if a.id == b.id]  # by id: the lowest first
            if repeated:
                raise IngestError(f"duplicate {kind} id {repeated[0]}")
        self.images_by_id = {im.id: im for im in self.images}
        self.category_index = {c.id: k for k, c in enumerate(self.categories)}
        self.image_index = {i: k for k, i in enumerate(self.images_by_id)}
        self.image_ids, self.category_ids = list(self.image_index), list(self.category_index)
        self.image_size = np.array([(im.width, im.height) for im in self.images], dtype=float).reshape(-1, 2)
        # ids stay Python ints, of any size; equal ids keep input order
        by_id = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.int64)
        ids = [ids[k] for k in by_id.tolist()]
        image = _index(self.image_index, image_ids)[by_id]
        category = _index(self.category_index, category_ids)[by_id]
        area = area[by_id]
        dup = np.array(list(map(eq, ids, (None, *ids))), dtype=bool)  # an id equal to the one before it
        bad = np.flatnonzero(dup | (image < 0) | (category < 0) | ~((area > 0) & (area < np.inf)))  # NaN fails
        if bad.size:  # the lowest bad id, by the first check it fails
            k = int(bad[0])
            j = int(by_id[k])
            raise IngestError(
                f"duplicate annotation id {ids[k]}" if dup[k] else
                f"annotation {ids[k]} references missing image {image_ids[j]}" if image[k] < 0 else
                f"annotation {ids[k]} references missing category {category_ids[j]}" if category[k] < 0 else
                f"annotation {ids[k]}: area must be positive, got {float(area[k])}" if not area[k] > 0
                else f"annotation {ids[k]}: area must be finite, got {float(area[k])}")
        order = np.argsort(image, kind="stable")  # by image, then by id
        rows = by_id[order]
        self.gt_id = [ids[k] for k in order.tolist()]
        self.gt_image, self.gt_category, self.gt_area = image[order], category[order], area[order]
        self.gt_box, self.gt_crowd = np.asfortranarray(box[rows]), crowd[rows]
        self.gt_starts = np.searchsorted(self.gt_image, np.arange(len(self.images) + 1))

    def _gt_columns(self, box: list) -> tuple:
        """``(id, image_id, category_id, box, area, crowd)`` of the ground truths as lists, by (image, id)."""
        return (self.gt_id, [self.image_ids[i] for i in self.gt_image.tolist()],
                [self.category_ids[c] for c in self.gt_category.tolist()], box,
                self.gt_area.tolist(), self.gt_crowd.tolist())

    @cached_property
    def gts_by_image(self) -> dict[int, list[GroundTruth]]:
        """Each image's ground truths as ``GroundTruth`` objects, by id; built on first read, from the columns."""
        gts = _views(GroundTruth, *self._gt_columns(_views(BBox, *self.gt_box.T.tolist())))
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
        ds = cls.__new__(cls)
        ds._fill(data["images"], data["categories"], data["annotations"])
        return ds

    def to_coco_dict(self) -> dict:
        """Serialize back to the COCO annotation schema, annotations by id, from the columns."""
        rows = sorted(zip(*self._gt_columns(self.gt_box.tolist())), key=itemgetter(0))
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
        # the results records the objects stand for, read as a results file is
        self._fill([{"image_id": d.image_id, "category_id": d.category_id, "bbox": [b.x, b.y, b.w, b.h],
                     "score": d.score} for d in detections for b in (d.bbox,)], dataset)

    def _fill(self, records: list, dataset: Dataset) -> None:
        """Read the results records, resolve their ids and check them; sort by image, then descending score."""
        ids, cats, box, score = _columns(records, "detection", _detection_columns, by_id=False)
        self.total = len(ids)
        image = _index(dataset.image_index, ids)
        category = _index(dataset.category_index, cats)
        bad = np.flatnonzero((image < 0) | (category < 0) | ~np.isfinite(score))
        if bad.size:  # the first bad record, by the first check it fails
            i = int(bad[0])
            what = (f"references unknown image {ids[i]}" if image[i] < 0 else
                    f"references unknown category {cats[i]}" if category[i] < 0 else "has non-finite score")
            raise IngestError(f"detection #{i} {what}")
        order = np.lexsort((-score, image))  # stable: equal scores keep input order
        self.image, self.category, self.score = image[order], category[order], score[order]
        self.box = np.asfortranarray(box[order])  # each coordinate contiguous: the evaluator reads by column
        self.starts = np.searchsorted(self.image, np.arange(len(dataset.images) + 1))
        self.image_ids, self.category_ids = dataset.image_ids, dataset.category_ids
        self._image_index = dataset.image_index

    def for_image(self, image_id: int) -> list[Detection]:
        """One image's detections as ``Detection`` objects, by descending score."""
        i = self._image_index.get(image_id)
        if i is None:
            return []
        rows = slice(self.starts[i], self.starts[i + 1])
        boxes = _views(BBox, *self.box[rows].T.tolist())
        return _views(Detection, [self.image_ids[i]] * len(boxes),
                      [self.category_ids[c] for c in self.category[rows].tolist()], boxes, self.score[rows].tolist())

    @classmethod
    def from_coco_list(cls, data: list, dataset: Dataset) -> "DetectionSet":
        dets = cls.__new__(cls)
        dets._fill(data, dataset)
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
