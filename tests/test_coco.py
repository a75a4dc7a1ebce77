import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zoneval import coco
from zoneval.coco import (
    BBox,
    Category,
    Dataset,
    Detection,
    DetectionSet,
    GroundTruth,
    ImageInfo,
    bbox_center,
    iou,
    iou_matrix,
    load_detections,
    load_ground_truth,
    xywh,
)
from zoneval.errors import IngestError
from zoneval.oracle import _overlap
from zoneval.zone_eval import evaluate_zones
from zoneval.zones import Annular, build_partition

from conftest import write_coco_gt
from datagen import (random_coco_document, random_multiclass_benchmark, reference_corner_iou,
                     reference_detections, reference_ground_truth)


def coco_doc(images, annotations, categories):
    return {"images": images, "annotations": annotations, "categories": categories}


MINIMAL = coco_doc(
    images=[{"id": 1, "width": 100, "height": 80, "file_name": "a.jpg"}],
    annotations=[{"id": 1, "image_id": 1, "category_id": 1, "bbox": [5, 5, 20, 10], "area": 200, "iscrowd": 0}],
    categories=[{"id": 1, "name": "cat"}],
)


class TestLoadGroundTruth:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(MINIMAL))
        ds = load_ground_truth(path)
        assert len(ds.ground_truths) == 1
        assert len(ds.images) == 1
        assert ds.ground_truths[0].bbox == BBox(5, 5, 20, 10)

    def test_dangling_image_reference_names_annotation(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["annotations"][0]["image_id"] = 99
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(IngestError, match="annotation 1"):
            load_ground_truth(path)

    def test_dangling_category_reference(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["annotations"][0]["category_id"] = 42
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(IngestError, match="annotation 1.*category 42"):
            load_ground_truth(path)

    def test_non_positive_box_rejected_with_location(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["annotations"][0]["bbox"] = [5, 5, 0, 10]
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(IngestError, match="annotation 1"):
            load_ground_truth(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "gt.json"
        path.write_text("{nope")
        with pytest.raises(IngestError, match="not valid JSON"):
            load_ground_truth(path)

    def test_missing_area_defaults_to_wh(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        del doc["annotations"][0]["area"]
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(doc))
        ds = load_ground_truth(path)
        assert ds.ground_truths[0].area == 200.0

    def test_infinite_area_rejected_on_both_paths(self, tmp_path):
        # an area that overflows to inf is not positive-and-finite; -inf and NaN are not positive
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(MINIMAL).replace('"area": 200', '"area": 1e400'))
        with pytest.raises(IngestError, match="^annotation 1: area must be finite, got inf$"):
            load_ground_truth(path)
        for area, problem in [(math.inf, "finite, got inf"), (-math.inf, "positive, got -inf"),
                              (math.nan, "positive, got nan")]:
            gt = GroundTruth(1, 1, 1, BBox(5, 5, 20, 10), area)
            with pytest.raises(IngestError, match=f"^annotation 1: area must be {problem}$"):
                Dataset([ImageInfo(1, 100.0, 80.0)], [Category(1, "cat")], [gt])

    def test_iscrowd_maps_to_ignore(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["annotations"][0]["iscrowd"] = 1
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(doc))
        assert load_ground_truth(path).ground_truths[0].ignore is True

    def test_fixture_counts(self, tmp_path, mini_dataset):
        # 3 images / 7 boxes / 4 categories fixture survives a disk round trip
        path = tmp_path / "gt.json"
        write_coco_gt(path, mini_dataset)
        ds = load_ground_truth(path)
        assert (len(ds.images), len(ds.ground_truths), len(ds.categories)) == (3, 7, 4)

    def test_round_trip_equivalence(self, tmp_path, mini_dataset):
        path = tmp_path / "gt.json"
        write_coco_gt(path, mini_dataset)
        ds = load_ground_truth(path)
        assert ds.to_coco_dict() == mini_dataset.to_coco_dict()

    def test_per_image_counts_sum_to_total(self, mini_dataset):
        per_image = sum(len(v) for v in mini_dataset.gts_by_image.values())
        assert per_image == len(mini_dataset.ground_truths)


class TestLoadDetections:
    def test_empty_list(self, tmp_path, mini_dataset):
        path = tmp_path / "dt.json"
        path.write_text("[]")
        dets = load_detections(path, mini_dataset)
        assert dets.total == 0
        assert dets.for_image(1) == []

    def test_sorted_by_descending_score(self, tmp_path, mini_dataset):
        path = tmp_path / "dt.json"
        path.write_text(
            json.dumps(
                [
                    {"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 0.3},
                    {"image_id": 1, "category_id": 1, "bbox": [9, 9, 5, 5], "score": 0.9},
                ]
            )
        )
        dets = load_detections(path, mini_dataset)
        assert [d.score for d in dets.for_image(1)] == [0.9, 0.3]

    def test_tie_preserves_input_order(self, tmp_path, mini_dataset):
        path = tmp_path / "dt.json"
        path.write_text(
            json.dumps(
                [
                    {"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 0.5},
                    {"image_id": 1, "category_id": 2, "bbox": [9, 9, 5, 5], "score": 0.5},
                ]
            )
        )
        dets = load_detections(path, mini_dataset)
        assert [d.category_id for d in dets.for_image(1)] == [1, 2]

    def test_grouping_matches_hand_count(self, tmp_path, mini_dataset):
        records = [
            {"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 0.1},
            {"image_id": 2, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 0.2},
            {"image_id": 1, "category_id": 2, "bbox": [0, 0, 5, 5], "score": 0.3},
            {"image_id": 3, "category_id": 3, "bbox": [0, 0, 5, 5], "score": 0.4},
            {"image_id": 1, "category_id": 4, "bbox": [0, 0, 5, 5], "score": 0.5},
        ]
        path = tmp_path / "dt.json"
        path.write_text(json.dumps(records))
        dets = load_detections(path, mini_dataset)
        assert dets.total == 5
        assert len(dets.for_image(1)) == 3
        assert len(dets.for_image(2)) == 1
        assert len(dets.for_image(3)) == 1

    def test_unknown_image_rejected(self, tmp_path, mini_dataset):
        path = tmp_path / "dt.json"
        path.write_text(json.dumps([{"image_id": 77, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 0.5}]))
        with pytest.raises(IngestError, match="unknown image 77"):
            load_detections(path, mini_dataset)

    def test_non_finite_score_rejected(self, mini_dataset):
        with pytest.raises(IngestError, match="non-finite score"):
            DetectionSet.from_coco_list(
                [{"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5], "score": float("nan")}],
                mini_dataset,
            )

    def test_round_trip_preserves_groups(self, mini_dataset, mini_detections):
        reloaded = DetectionSet.from_coco_list(mini_detections.to_coco_list(), mini_dataset)
        assert reloaded.total == mini_detections.total
        for img in mini_dataset.images:
            dets = mini_detections.for_image(img.id)
            assert [d.score for d in reloaded.for_image(img.id)] == [d.score for d in dets]


class TestDetectionOrder:
    """Rows are grouped by image in id order, then by descending score; ties keep input order."""

    @staticmethod
    def _rec(image_id, category_id, score, x=0):
        return {"image_id": image_id, "category_id": category_id, "bbox": [x, 0, 5, 5], "score": score}

    def test_interleaved_images(self, mini_dataset):
        records = [self._rec(2, 1, 0.2), self._rec(1, 1, 0.4), self._rec(3, 2, 0.1),
                   self._rec(1, 2, 0.8), self._rec(2, 3, 0.9), self._rec(1, 3, 0.6)]
        dets = DetectionSet.from_coco_list(records, mini_dataset)
        assert [(d.category_id, d.score) for d in dets.for_image(1)] == [(2, 0.8), (3, 0.6), (1, 0.4)]
        assert [(d.category_id, d.score) for d in dets.for_image(2)] == [(3, 0.9), (1, 0.2)]
        assert [(d.category_id, d.score) for d in dets.for_image(3)] == [(2, 0.1)]
        assert [(r["image_id"], r["score"]) for r in dets.to_coco_list()] == [
            (1, 0.8), (1, 0.6), (1, 0.4), (2, 0.9), (2, 0.2), (3, 0.1)]

    def test_equal_scores_keep_input_order(self, mini_dataset):
        for scores in ([0.0, -0.0, 0.0, 0.5], [-0.0, 0.0, -0.0, 0.5]):
            records = [self._rec(1, c, s) for c, s in zip((1, 2, 3, 4), scores)]
            dets = DetectionSet.from_coco_list(records, mini_dataset)
            ranked = dets.for_image(1)
            assert [d.category_id for d in ranked] == [4, 1, 2, 3]
            assert [math.copysign(1.0, d.score) for d in ranked[1:]] == [math.copysign(1.0, s)
                                                                         for s in scores[:3]]
            assert [r["score"] for r in dets.to_coco_list()] == [d.score for d in ranked]

    def test_image_without_detections(self, mini_dataset):
        dets = DetectionSet.from_coco_list([self._rec(1, 1, 0.5), self._rec(3, 1, 0.5)], mini_dataset)
        assert dets.for_image(2) == []
        assert len(dets.for_image(1)) == len(dets.for_image(3)) == 1

    def test_huge_ids_round_trip_and_evaluate(self):
        big, cat = 2**70, 2**65
        crowd = {"image_id": 1, "category_id": cat, "iscrowd": 1}
        doc = coco_doc(
            images=[{"id": big, "width": 100, "height": 80}, {"id": 1, "width": 100, "height": 80}],
            annotations=[{"id": 1, "image_id": big, "category_id": cat, "bbox": [5, 5, 20, 10]},
                         {"id": 2**64 + 7, "bbox": [5, 5, 9, 9], **crowd},
                         {"id": 2**64 + 3, "bbox": [9, 9, 5, 5], **crowd}],
            categories=[{"id": cat, "name": "huge"}],
        )
        ds = Dataset.from_coco_dict(doc)
        assert [g.id for g in ds.ground_truths] == [1, 2**64 + 3, 2**64 + 7]
        written = ds.to_coco_dict()
        assert Dataset.from_coco_dict(json.loads(json.dumps(written))).to_coco_dict() == written
        records = [{"image_id": big, "category_id": cat, "bbox": [5.0, 5.0, 20.0, 10.0], "score": 0.9},
                   {"image_id": big, "category_id": cat, "bbox": [60.0, 50.0, 20.0, 10.0], "score": 0.3}]
        dets = DetectionSet.from_coco_list(records, ds)
        assert dets.to_coco_list() == records
        assert [d.image_id for d in dets.for_image(big)] == [big, big]
        report = evaluate_zones(ds, dets, build_partition(Annular(1)))
        assert report.full_ap == 100.0

    def test_other_dataset_is_rejected(self, mini_dataset, mini_detections):
        other = Dataset([ImageInfo(id=i, width=400.0, height=300.0) for i in (1, 2, 4)],
                        mini_dataset.categories, [])
        with pytest.raises(ValueError, match="other image or category ids"):
            evaluate_zones(other, mini_detections, build_partition(Annular(2)))
        fewer = Dataset(mini_dataset.images, mini_dataset.categories[:3], [])
        with pytest.raises(ValueError, match="other image or category ids"):
            evaluate_zones(fewer, mini_detections, build_partition(Annular(2)))


# annotations out of id order across two images and two categories, one crowd
TWO_IMAGES = coco_doc(
    images=[{"id": 1, "width": 100.0, "height": 80.0, "file_name": "a.jpg"},
            {"id": 2, "width": 50.0, "height": 40.0, "file_name": "b.jpg"}],
    annotations=[
        {"id": 12, "image_id": 2, "category_id": 7, "bbox": [1.0, 2.0, 3.0, 4.0], "area": 12.0, "iscrowd": 0},
        {"id": 3, "image_id": 1, "category_id": 1, "bbox": [5.0, 5.0, 20.0, 10.0], "area": 150.0, "iscrowd": 1},
        {"id": 8, "image_id": 2, "category_id": 1, "bbox": [0.5, 0.5, 9.0, 9.0], "area": 81.0, "iscrowd": 0},
        {"id": 5, "image_id": 1, "category_id": 7, "bbox": [30.0, 40.0, 6.0, 8.0], "area": 48.0, "iscrowd": 0},
    ],
    categories=[{"id": 1, "name": "cat"}, {"id": 7, "name": "dog"}],
)


class TestColumnsAndViews:
    def test_object_and_record_construction_agree(self):
        doc = TWO_IMAGES
        from_dict = Dataset.from_coco_dict(doc)
        objects = [GroundTruth(a["id"], a["image_id"], a["category_id"], BBox(*a["bbox"]), a["area"],
                               bool(a["iscrowd"])) for a in doc["annotations"]]
        from_objects = Dataset(from_dict.images, from_dict.categories, objects)
        for column in ("gt_id", "gt_image", "gt_category", "gt_box", "gt_area", "gt_crowd"):
            assert np.array_equal(getattr(from_objects, column), getattr(from_dict, column)), column
        assert from_dict.gt_id == [3, 5, 8, 12]  # by image, then by id
        assert json.dumps(from_objects.to_coco_dict()) == json.dumps(from_dict.to_coco_dict())
        assert [g.id for g in from_dict.ground_truths] == [3, 5, 8, 12]

    def test_objects_are_cached_views_built_on_first_read(self, tmp_path):
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(TWO_IMAGES))
        ds = load_ground_truth(path)
        assert "ground_truths" not in vars(ds) and "gts_by_image" not in vars(ds)
        assert ds.gts_by_image is ds.gts_by_image
        assert [[g.id for g in gts] for gts in ds.gts_by_image.values()] == [[3, 5], [8, 12]]
        assert ds.ground_truths is ds.ground_truths
        assert ds.gts_by_image[1][0] is ds.ground_truths[0]

    def test_serialization_reads_the_columns(self, tmp_path):
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(TWO_IMAGES))
        ds = load_ground_truth(path)
        text = json.dumps(ds.to_coco_dict())
        assert "ground_truths" not in vars(ds) and "gts_by_image" not in vars(ds)
        views = [{"id": g.id, "image_id": g.image_id, "category_id": g.category_id,
                  "bbox": [g.bbox.x, g.bbox.y, g.bbox.w, g.bbox.h], "area": g.area,
                  "iscrowd": 1 if g.ignore else 0} for g in ds.ground_truths]
        assert text == json.dumps({**ds.to_coco_dict(), "annotations": views})

    def test_numpy_ids_round_trip_as_ints(self):
        doc = TWO_IMAGES
        images = [ImageInfo(np.int64(im["id"]), im["width"], im["height"]) for im in doc["images"]]
        categories = [Category(np.int64(c["id"]), c["name"]) for c in doc["categories"]]
        objects = [GroundTruth(np.int64(a["id"]), np.int64(a["image_id"]), np.int64(a["category_id"]),
                               BBox(*a["bbox"]), a["area"], np.bool_(a["iscrowd"])) for a in doc["annotations"]]
        ds = Dataset(images, categories, objects)
        again = Dataset.from_coco_dict(json.loads(json.dumps(ds.to_coco_dict())))
        for column in ("gt_id", "gt_image", "gt_category", "gt_box", "gt_area", "gt_crowd"):
            assert np.array_equal(getattr(again, column), getattr(ds, column)), column
        assert again.to_coco_dict() == ds.to_coco_dict()
        assert [type(i) for i in (*ds.gt_id, *ds.image_ids, *ds.category_ids)] == [int] * 8

    @pytest.mark.parametrize("bad", [1.5, np.float32(1.5)], ids=["float", "float32"])
    @pytest.mark.parametrize("field", ["id", "image_id", "category_id", "image", "category"])
    def test_fractional_id_raises_at_construction(self, field, bad):
        images, categories = [ImageInfo(1, 10.0, 10.0)], [Category(1, "c")]
        gt = GroundTruth(1, 1, 1, BBox(0, 0, 2, 2), 4.0)
        if field == "image":
            images = [ImageInfo(bad, 10.0, 10.0)]
        elif field == "category":
            categories = [Category(bad, "c")]
        else:
            gt = GroundTruth(**{**vars(gt), field: bad})
        with pytest.raises(ValueError, match="is not an integer"):
            Dataset(images, categories, [gt])

    def test_gt_starts_index_each_image(self):
        # image 0 has no ground truth and sorts first
        ds = Dataset.from_coco_dict({**TWO_IMAGES, "images": [*TWO_IMAGES["images"],
                                                               {"id": 0, "width": 10.0, "height": 10.0}]})
        s = ds.gt_starts
        assert s.tolist() == [0, 0, 2, 4]
        assert [ds.gt_id[s[i]:s[i + 1]] for i in range(len(ds.images))] == \
            [[g.id for g in gts] for gts in ds.gts_by_image.values()]


    @pytest.mark.parametrize("seed", range(4))
    def test_views_match_the_public_constructors(self, seed):
        # crowd flags, several categories, score ties and detections past the image edge
        ds, dets = random_multiclass_benchmark(6, 8, 12, seed=seed)
        assert any(g.ignore for g in ds.ground_truths)
        want = {a["id"]: GroundTruth(a["id"], a["image_id"], a["category_id"], BBox(*a["bbox"]), a["area"],
                                     bool(a["iscrowd"])) for a in ds.to_coco_dict()["annotations"]}
        pairs = [(g, want[g.id]) for g in ds.ground_truths]
        pairs += [(g, want[g.id]) for gts in ds.gts_by_image.values() for g in gts]
        assert [g.id for g in ds.ground_truths] == sorted(want)
        records = dets.to_coco_list()
        for img in ds.images:
            got = dets.for_image(img.id)
            expected = [Detection(r["image_id"], r["category_id"], BBox(*r["bbox"]), r["score"])
                        for r in records if r["image_id"] == img.id]
            assert len(got) == len(expected)
            pairs += zip(got, expected)
        assert any(d.bbox.x + d.bbox.w > img.width for img in ds.images for d in dets.for_image(img.id))
        for got, expected in pairs:
            assert type(got) is type(expected) and type(got.bbox) is BBox
            assert got == expected and hash(got) == hash(expected) and repr(got) == repr(expected)
            assert got.bbox == expected.bbox and hash(got.bbox) == hash(expected.bbox)

    def test_for_image_of_an_unknown_image_is_empty(self):
        ds, dets = random_multiclass_benchmark(2, 3, 4, seed=0)
        assert dets.for_image(999) == []

_GT_COLUMNS = ("gt_id", "gt_image", "gt_category", "gt_box", "gt_area", "gt_crowd", "gt_starts", "image_size",
               "images", "image_ids", "category_ids")
_DT_COLUMNS = ("total", "image", "category", "box", "score", "starts")


class TestObjectsReadAsRecords:
    """An object gives what the COCO record it stands for gives when read from a file: columns or message."""

    @staticmethod
    def _both(kind: str, field: str, value):
        """``(from objects, from records)``: a Dataset or DetectionSet, or the IngestError message."""
        image = {"id": 1, "width": 100.0, "height": 80.0, "file_name": "a.jpg"}
        gt = {"id": 1, "image_id": 1, "category_id": 1, "bbox": [5.0, 5.0, 20.0, 10.0], "area": 200.0, "iscrowd": 0}
        det = {"image_id": 1, "category_id": 1, "bbox": [5.0, 5.0, 20.0, 10.0], "score": 0.9}
        key = "iscrowd" if field == "ignore" else field
        {"image": image, "annotation": gt, "detection": det}[kind][key] = value
        doc = {"images": [image], "annotations": [gt], "categories": [{"id": 1, "name": "cat"}]}
        if kind == "detection":
            ds = Dataset.from_coco_dict(doc)
            obj = Detection(det["image_id"], det["category_id"], BBox(*det["bbox"]), det["score"])
            return _loaded(lambda: DetectionSet([obj], ds)), _loaded(lambda: DetectionSet.from_coco_list([det], ds))
        obj = GroundTruth(gt["id"], gt["image_id"], gt["category_id"], BBox(*gt["bbox"]), gt["area"], gt["iscrowd"])
        return (_loaded(lambda: Dataset([ImageInfo(**image)], [Category(1, "cat")], [obj])),
                _loaded(lambda: Dataset.from_coco_dict(doc)))

    @staticmethod
    def _columns(loaded):
        if isinstance(loaded, str):
            return loaded
        names = _DT_COLUMNS if isinstance(loaded, DetectionSet) else _GT_COLUMNS
        return {name: getattr(loaded, name) for name in names}

    @pytest.mark.parametrize("kind,field,value,message", [
        ("detection", "image_id", True, "detection #0: malformed record (id True is not a number)"),
        ("detection", "category_id", "1", "detection #0: malformed record (id '1' is not a number)"),
        ("detection", "score", "0.9", "detection #0: malformed record (score '0.9' is not a number)"),
        ("detection", "score", True, "detection #0: malformed record (score True is not a number)"),
        ("annotation", "image_id", True, "annotation 1: malformed record (id True is not a number)"),
        ("annotation", "ignore", "no", "annotation 1: malformed record (flag 'no' is not 0, 1, true or false)"),
        ("annotation", "ignore", 2, "annotation 1: malformed record (flag 2 is not 0, 1, true or false)"),
        ("annotation", "area", "5", "annotation 1: malformed record (area '5' is not a number)"),
        ("annotation", "area", True, "annotation 1: malformed record (area True is not a number)"),
        ("image", "width", True, "image 1: malformed record (width True is not a number)"),
    ])
    def test_a_bad_value_gets_the_file_message(self, kind, field, value, message):
        # each of these was accepted from objects: image_id True as 1, "0.9" as 0.9, "no" as a crowd box
        assert self._both(kind, field, value) == (message, message)

    @pytest.mark.parametrize("kind,field,value,plain", [
        ("annotation", "area", None, 200.0),  # a missing area reads as w * h
        ("annotation", "id", np.int64(1), 1),
        ("annotation", "image_id", np.uint8(1), 1),
        ("annotation", "area", np.float32(200.0), 200.0),
        ("annotation", "ignore", np.bool_(True), True),
        ("annotation", "ignore", np.bool_(False), 0),
        ("annotation", "ignore", np.int64(1), 1),
        ("image", "id", np.int32(1), 1),
        ("image", "height", np.float64(80.0), 80.0),
        ("detection", "image_id", np.int64(1), 1),
        ("detection", "score", np.float32(0.5), 0.5),
    ])
    def test_an_accepted_value_gives_the_file_columns(self, kind, field, value, plain):
        objects, records = self._both(kind, field, value)
        _assert_same(objects, self._columns(records), f"{field}={value!r}")
        _assert_same(objects, self._columns(self._both(kind, field, plain)[1]), f"{field}={value!r} as {plain!r}")


_DROP = object()  # delete the key
# wrong types and containers, strings of numbers, booleans, NaN and +-inf, integral and fractional
# floats, ints too large for a float and past 2**63
_MUTANTS = [_DROP, None, True, False, "1", "x", "1_0", [], {}, [1, 2, 3], [1, 2, 3, 4], 1.5, 3.0, 0, -1,
            math.nan, math.inf, -math.inf, 1e308, 10**400, 2**64]
_FIELDS = ["id", "image_id", "category_id", "bbox", "area", "iscrowd", "score"]


def _mutate(rng, doc: dict, results: list) -> tuple[dict, list]:
    """The document and results with one to three fields, boxes, records or lists replaced."""
    for _ in range(int(rng.integers(1, 4))):
        records = doc["annotations"] if rng.random() < 0.5 else results
        if not isinstance(records, list) or not records:
            continue
        k = int(rng.integers(len(records)))
        value = _MUTANTS[rng.integers(len(_MUTANTS))]
        rec, key = records[k], _FIELDS[rng.integers(len(_FIELDS))]
        if rng.random() < 0.05:
            records[k] = [5] if rng.random() < 0.5 else "x"
        elif not isinstance(rec, dict):
            continue
        elif key == "bbox" and value is not _DROP and isinstance(rec.get("bbox"), list) \
                and len(rec["bbox"]) == 4 and rng.random() < 0.6:
            rec["bbox"][rng.integers(4)] = value
        elif value is _DROP:
            rec.pop(key, None)
        else:
            rec[key] = value
    if rng.random() < 0.02:
        doc["annotations"] = {}
    if rng.random() < 0.02:
        results = {"image_id": 1}
    return doc, results


def _loaded(build):
    """What ``build()`` returns, or the message of the IngestError it raises."""
    try:
        return build()
    except IngestError as e:
        return str(e)


def _assert_same(got, want, what: str) -> None:
    """The loaded columns equal the reference's in dtype and bytes; the ids in value and type."""
    if isinstance(want, str) or isinstance(got, str):
        assert got == want, what
        return
    for name, column in want.items():
        mine = getattr(got, name)
        if isinstance(column, np.ndarray):
            assert (mine.dtype, mine.shape, mine.tobytes()) == (column.dtype, column.shape, column.tobytes()), \
                f"{what}: {name}"
        else:  # gt_id, Python ints of any size, or total
            assert repr(mine) == repr(column), f"{what}: {name}"


class TestColumnarIngest:
    """The bulk-checked columns and messages equal those of the one-tuple-per-record reference."""

    @pytest.mark.parametrize("seed", range(40))
    def test_columns_equal_the_reference(self, seed):
        doc, results = json.loads(json.dumps(random_coco_document(np.random.default_rng(seed))))
        ds = Dataset.from_coco_dict(doc)
        _assert_same(ds, reference_ground_truth(doc), f"seed {seed}")
        _assert_same(DetectionSet.from_coco_list(results, ds), reference_detections(results, doc), f"seed {seed}")

    @pytest.mark.parametrize("block", range(8))
    def test_mutated_documents_give_the_reference_message(self, block):
        for seed in range(block * 50, block * 50 + 50):
            rng = np.random.default_rng(seed)
            doc, results = _mutate(rng, *json.loads(json.dumps(random_coco_document(rng))))
            doc, results = json.loads(json.dumps([doc, results]))
            ds = _loaded(lambda: Dataset.from_coco_dict(doc))
            _assert_same(ds, _loaded(lambda: reference_ground_truth(doc)), f"seed {seed}")
            if not isinstance(ds, str):
                _assert_same(_loaded(lambda: DetectionSet.from_coco_list(results, ds)),
                             _loaded(lambda: reference_detections(results, doc)), f"seed {seed}")

    def test_valid_files_build_each_column_set_once(self, tmp_path, monkeypatch):
        # a valid file whose bulk check failed would be bisected, building columns many times over
        calls = {"annotation": 0, "detection": 0}

        def counted(kind, build):
            def wrapper(records):
                calls[kind] += 1
                return build(records)
            return wrapper

        monkeypatch.setattr(coco, "_annotation_columns", counted("annotation", coco._annotation_columns))
        monkeypatch.setattr(coco, "_detection_columns", counted("detection", coco._detection_columns))
        gt, dt = tmp_path / "gt.json", tmp_path / "dt.json"
        for seed in range(10):
            doc, results = random_coco_document(np.random.default_rng(seed))
            gt.write_text(json.dumps(doc))
            dt.write_text(json.dumps(results))
            assert len(load_detections(dt, load_ground_truth(gt)).score) == len(results)
            assert calls == {"annotation": seed + 1, "detection": seed + 1}
        dt.write_text(json.dumps([{"image_id": 1, "category_id": 1, "bbox": [0, 0, 0, 1], "score": 1.0}]))
        ds = load_ground_truth(gt)
        with pytest.raises(IngestError, match="^detection #0: bbox dimensions must be positive"):
            load_detections(dt, ds)
        assert calls["detection"] > 11  # more than once for this file: the builder ran again to name the bad record

    @pytest.mark.parametrize("kind,records,message", [
        ("detection", [{"image_id": "1", "category_id": 1, "score": 1.0}],
         "detection #0: missing field 'bbox'"),
        ("detection", [{"image_id": "1", "category_id": 1, "bbox": ["x", 0, 1, 1], "score": 1.0}],
         "detection #0: malformed record (id '1' is not a number)"),
        ("annotation", [{"id": 1.5, "image_id": 1, "category_id": 1, "bbox": [0, "x", 1, 1]}],
         "annotation 1.5: malformed record (bbox value 'x' is not a number)"),
        ("annotation", [{"id": 7, "image_id": 1, "category_id": 1, "bbox": [0, 0, 1, 1], "area": "x", "iscrowd": 2}],
         "annotation 7: malformed record (area 'x' is not a number)"),
        ("detection", [{"image_id": 1, "category_id": 1, "bbox": [0, 0, 1, 1], "score": 1.0},
                       {"image_id": 1, "category_id": 1, "bbox": [0, 0, 0, 1], "score": 1.0},
                       {"image_id": 1, "category_id": 1, "bbox": [0, 0, 1, 1], "score": "x"}],
         "detection #1: bbox dimensions must be positive, got w=0.0, h=1.0"),
    ])
    def test_a_record_that_breaks_two_rules_is_named_by_the_first(self, kind, records, message):
        doc = json.loads(json.dumps(MINIMAL))
        if kind == "annotation":
            doc["annotations"] = records
            got, want = (_loaded(lambda: build(doc)) for build in (Dataset.from_coco_dict, reference_ground_truth))
        else:
            ds = Dataset.from_coco_dict(doc)
            got = _loaded(lambda: DetectionSet.from_coco_list(records, ds))
            want = _loaded(lambda: reference_detections(records, doc))
        assert got == want == message


class TestDuplicateIds:
    def test_duplicate_image_id(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["images"].append(dict(doc["images"][0]))
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(IngestError, match="duplicate image id"):
            load_ground_truth(path)

    @pytest.mark.parametrize("kind,key", [("image", "images"), ("category", "categories")])
    def test_duplicate_image_or_category_names_the_lowest_id(self, tmp_path, kind, key):
        doc = json.loads(json.dumps(TWO_IMAGES))
        doc[key] = [dict(doc[key][0], id=i) for i in (9, 5, 9, 7, 5, 1)]
        doc["annotations"] = []
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(IngestError, match=f"^duplicate {kind} id 5$"):
            load_ground_truth(path)
        images, categories = [ImageInfo(**im) for im in doc["images"]], [Category(**c) for c in doc["categories"]]
        with pytest.raises(IngestError, match=f"^duplicate {kind} id 5$"):
            Dataset(images, categories, [])

    def test_duplicate_annotation_id(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["annotations"].append(dict(doc["annotations"][0]))
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(IngestError, match="duplicate annotation id"):
            load_ground_truth(path)

    def test_several_bad_annotations_report_the_lowest_id(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        path = tmp_path / "gt.json"
        doc["annotations"] = [{"id": 9, "image_id": 99, "category_id": 1, "bbox": [5, 5, 20, 10]},
                              {"id": 4, "image_id": 1, "category_id": 1, "bbox": [5, 5, 20, 10], "area": 0}]
        path.write_text(json.dumps(doc))
        with pytest.raises(IngestError, match="^annotation 4: area must be positive, got 0.0$"):
            load_ground_truth(path)
        # the later of two equal ids is the duplicate, before its missing image is looked at
        doc["annotations"] = [{"id": 3, "image_id": 1, "category_id": 1, "bbox": [5, 5, 20, 10]},
                              {"id": 3, "image_id": 99, "category_id": 1, "bbox": [5, 5, 20, 10]}]
        path.write_text(json.dumps(doc))
        with pytest.raises(IngestError, match="^duplicate annotation id 3$"):
            load_ground_truth(path)


class TestGeometry:
    def test_center_simple(self):
        assert bbox_center(BBox(0, 0, 10, 10)) == (5, 5)

    def test_center_arithmetic(self):
        assert bbox_center(BBox(10, 20, 30, 40)) == (25, 40)

    def test_center_of_full_image_box(self):
        assert bbox_center(BBox(0, 0, 600, 600)) == (300, 300)

    def test_iou_identical(self):
        b = BBox(3, 4, 10, 12)
        assert iou(b, b) == 1.0

    def test_iou_disjoint(self):
        assert iou(BBox(0, 0, 10, 10), BBox(100, 100, 5, 5)) == 0.0

    def test_iou_half_overlap(self):
        # intersection 50, union 150
        assert iou(BBox(0, 0, 10, 10), BBox(5, 0, 10, 10)) == pytest.approx(1 / 3)


boxes = st.builds(
    BBox,
    x=st.floats(-500, 500),
    y=st.floats(-500, 500),
    w=st.floats(0.1, 400),
    h=st.floats(0.1, 400),
)


class TestIoUProperties:
    @given(a=boxes, b=boxes)
    def test_symmetric(self, a, b):
        assert iou(a, b) == pytest.approx(iou(b, a), abs=1e-12)

    @given(a=boxes, b=boxes)
    def test_bounded(self, a, b):
        v = iou(a, b)
        assert 0.0 <= v <= 1.0

    @given(a=boxes)
    def test_self_iou_is_one(self, a):
        assert iou(a, a) == 1.0


class TestIoUMatrix:
    def test_agrees_with_oracle_overlap(self):
        rng = np.random.default_rng(4)
        a = [BBox(*rng.uniform(-50, 150, 2), *rng.uniform(0.5, 80, 2)) for _ in range(60)]
        b = [BBox(*rng.uniform(-50, 150, 2), *rng.uniform(0.5, 80, 2)) for _ in range(40)]
        got = iou_matrix(xywh(a), xywh(b))
        want = np.array([[_overlap(p, q) for q in b] for p in a])
        assert got.shape == (60, 40)
        assert (want > 0).sum() > 100  # the boxes overlap often enough to test something
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_identical_boxes_score_exactly_one(self):
        rng = np.random.default_rng(5)
        boxes = xywh([BBox(*rng.uniform(-1e4, 1e4, 2), *rng.uniform(1e-3, 1e3, 2))
                      for _ in range(50)])
        assert (np.diag(iou_matrix(boxes, boxes)) == 1.0).all()

    def test_empty_sides(self):
        assert iou_matrix(xywh([]), xywh([BBox(0, 0, 1, 1)])).shape == (0, 1)


TINY = np.finfo(float).smallest_subnormal
# boxes the package accepts, each a corner case of the IoU kernel
ADVERSARIAL = np.array([
    [0.0, 0.0, 10.0, 10.0], [10.0, 0.0, 10.0, 10.0], [0.0, 10.0, 10.0, 10.0],  # edges that touch
    [10.0, 10.0, 5.0, 5.0], [3.0, 4.0, 7.0, 6.0],  # a touching corner; a box touching the first from inside
    [-0.0, -0.0, 10.0, 10.0], [-0.0, 0.0, 3.0, 7.0], [0.0, -0.0, 7.0, 3.0], [-5.0, -0.0, 5.0, 2.0],  # signed zeros
    [0.0, 0.0, TINY, TINY], [0.0, 0.0, 1e-310, 1e-310], [0.0, 0.0, TINY, 10.0], [-0.0, 0.0, 2 * TINY, 1e-300],
    [1e-310, 0.0, 1e-310, 5.0],  # subnormal sides and corners
    [0.0, 0.0, 1e-200, 1.0], [0.0, 0.0, 1.0, 1e-200], [0.5, 0.0, 1.0, 1e-200], [0.0, 0.0, 1e-170, 1e-170],
    [1e-160, 1e-160, 1e-160, 1e-160],  # intersections and areas that underflow
    [0.0, 0.0, 9e153, 9e153], [-9e153, -9e153, 9e153, 9e153], [4.5e153, 0.0, 9e153, 9e153],
    [0.0, 0.0, 2.0**511, 2.0**512 - 2.0**459], [-2.0**511, 0.0, 2.0**511, 2.0**512 - 2.0**460],
    [0.0, 0.0, 1e154, 1.0],  # areas up to half the float maximum, the largest accepted
    [1e300, 1e300, 1e7, 1e7], [-1e308, 0.0, 1e308, 1e-300], [1e16, 0.0, 1.0, 1.0],  # sides lost at their corner
])


def random_boxes(rng: np.random.Generator, n: int) -> np.ndarray:
    """Boxes at mixed scales, many overlapping, some sharing an edge with the one before."""
    scale = 10.0 ** rng.integers(-3, 4, (n, 1))
    box = np.column_stack([rng.uniform(-50, 150, (n, 2)), rng.uniform(0.5, 80, (n, 2))]) * scale
    box[1::7, 0] = box[:-1:7, 0] + box[:-1:7, 2]  # touching in x
    return box


def reference_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return reference_corner_iou([c[:, None] for c in coco.box_corners(a)], [c[None, :] for c in coco.box_corners(b)])


class TestIoUKernel:
    """The in-place kernel against the masked one it replaced, bit for bit, on accepted boxes.

    An accepted box's area is at most half the float maximum, so no union
    overflows and numpy has nothing to warn about.
    """

    def test_adversarial_boxes_are_in_the_domain(self):
        assert coco._box_ok(ADVERSARIAL).all()
        for box in ADVERSARIAL.tolist():
            BBox(*box)

    @pytest.mark.parametrize("boxes", ["random", "adversarial"])
    def test_flat_pairs_equal_the_reference(self, boxes):
        box = random_boxes(np.random.default_rng(11), 300) if boxes == "random" else ADVERSARIAL
        i, j = (k.ravel() for k in np.indices((len(box), len(box))))
        a, b = coco.box_corners(box[i]), coco.box_corners(box[j])
        got, want = coco.corner_iou(a, b), reference_corner_iou(a, b)
        assert got.dtype == want.dtype and got.shape == want.shape == (len(box) ** 2,)
        assert got.tobytes() == want.tobytes()
        assert 0.0 < (got > 0).mean() < 1.0

    @pytest.mark.parametrize("n,m", [(3, 40), (40, 3), (25, 25), (1, 40), (40, 1), (0, 40), (40, 0), (0, 0)])
    def test_matrix_equals_the_reference_in_both_orientations(self, n, m):
        rng = np.random.default_rng(n * 100 + m)
        pool = np.concatenate([random_boxes(rng, 40), ADVERSARIAL])
        a, b = pool[rng.permutation(len(pool))[:n]], pool[rng.permutation(len(pool))[:m]]
        got, want = iou_matrix(a, b), reference_matrix(a, b)
        assert got.shape == want.shape == (n, m) and got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == iou_matrix(b, a).T.tobytes()

    def test_adversarial_matrix_is_symmetric_bit_for_bit(self):
        got = iou_matrix(ADVERSARIAL, ADVERSARIAL)
        assert got.tobytes() == reference_matrix(ADVERSARIAL, ADVERSARIAL).tobytes()
        assert got.tobytes() == got.T.tobytes()
        assert not np.signbit(got).any() and not np.isnan(got).any()

    def test_identical_boxes_score_exactly_one(self):
        x0, y0, x1, y1 = coco.box_corners(ADVERSARIAL)
        area = (x1 - x0) * (y1 - y0)
        got = np.diag(iou_matrix(ADVERSARIAL, ADVERSARIAL))
        # every accepted area doubles within the float range; a side lost at its far corner,
        # or an area that underflows, scores 0
        assert np.isfinite(2 * area).all() and 2 * area.max() == np.finfo(float).max
        whole = area > 0
        assert whole.sum() > 15
        assert (got[whole] == 1.0).all() and (got[~whole] == 0.0).all()

    def test_areas_past_half_the_float_maximum_are_rejected(self):
        # their union would overflow: two such boxes scored 0.0 against themselves
        for box in ([0.0, 0.0, 1.3e154, 1.3e154], [0.0, 0.0, 1e154, 1e154], [0.0, 0.0, 2.0**511, 2.0**512 - 2.0**458]):
            assert not coco._box_ok(np.array([box])).any()
            with pytest.raises(IngestError, match="^bbox area past half the float range in BBox"):
                BBox(*box)


class TestBoxRule:
    @pytest.mark.parametrize("box", [
        [0.0, 0.0, 10.0, 10.0], [-0.0, 0.0, TINY, TINY], [1e308, 0.0, 7e307, 1.0], [0.0, 0.0, 9e153, 9e153],
        [0.0, 0.0, 2.0**511, 2.0**512 - 2.0**459],
        [math.nan, 0.0, 10.0, 10.0], [0.0, 0.0, -10.0, 10.0], [0.0, 0.0, math.inf, 10.0], [10.0, 10.0, 0.0, 0.0],
        [1e308, 0.0, 1e308, 10.0], [0.0, -1e308, 10.0, -1e308], [0.0, 0.0, 1e200, 1e200], [0.0, 0.0, 10.0, -0.0],
        [-math.inf, 0.0, math.inf, 1.0], [0.0, 0.0, 1.3e154, 1.3e154], [0.0, 0.0, 2.0**511, 2.0**512 - 2.0**458],
    ])
    def test_array_rule_is_the_scalar_rule(self, box):
        try:
            BBox(*box)
            accepted = True
        except IngestError:
            accepted = False
        assert coco._box_ok(np.array([box, [0.0, 0.0, 1.0, 1.0]])).tolist() == [accepted, True]


class TestImageInfoValidation:
    @pytest.mark.parametrize("w,h", [(math.nan, 100.0), (100.0, math.nan), (math.inf, 100.0),
                                     (100.0, -math.inf), (0.0, 100.0)])
    def test_rejects_non_finite_or_non_positive_size(self, w, h):
        with pytest.raises(IngestError, match="image 7"):
            ImageInfo(id=7, width=w, height=h)

    @pytest.mark.parametrize("w,h", [("5", 10.0), (10.0, True), (np.bool_(True), 10.0)])
    def test_size_that_is_not_a_number_raises_the_readers_error(self, w, h):
        # the file's text for the same value; a bare TypeError or a bool read as 1 before
        bad = f"width {w!r}" if isinstance(h, float) else f"height {h!r}"
        with pytest.raises(IngestError, match=f"^image 1: malformed record \\({re.escape(bad)} is not a number\\)$"):
            ImageInfo(1, w, h)

    def test_nan_width_rejected_at_ingest(self, tmp_path):
        doc = coco_doc([{"id": 1, "width": math.nan, "height": 100}], [], [])
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(IngestError, match="image 1"):
            load_ground_truth(path)


class TestBBoxValidation:
    @pytest.mark.parametrize("w,h", [(0, 5), (-1, 5), (5, 0)])
    def test_rejects_non_positive_dims(self, w, h):
        with pytest.raises(IngestError):
            BBox(0, 0, w, h)

    def test_rejects_non_finite(self):
        with pytest.raises(IngestError):
            BBox(math.inf, 0, 5, 5)

    @pytest.mark.parametrize("box,bad", [(("1", 0, 1, 1), "1"), ((True, 0, 1, 1), True),
                                         ((0.0, 0.0, 1.0, np.bool_(False)), np.bool_(False))])
    def test_value_that_is_not_a_number_raises_the_readers_error(self, box, bad):
        # "1" was a bare TypeError and True was built as 1
        with pytest.raises(IngestError, match=f"^bbox value {re.escape(repr(bad))} is not a number$"):
            BBox(*box)

    def test_numpy_numbers_are_numbers(self):
        assert BBox(np.int64(1), np.float32(2), 3, 4.0).area == 12.0
