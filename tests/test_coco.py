import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zoneval.coco import (
    BBox,
    Dataset,
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

    def test_gt_starts_index_each_image(self):
        # image 0 has no ground truth and sorts first
        ds = Dataset.from_coco_dict({**TWO_IMAGES, "images": [*TWO_IMAGES["images"],
                                                               {"id": 0, "width": 10.0, "height": 10.0}]})
        s = ds.gt_starts
        assert s.tolist() == [0, 0, 2, 4]
        assert [ds.gt_id[s[i]:s[i + 1]] for i in range(len(ds.images))] == \
            [[g.id for g in gts] for gts in ds.gts_by_image.values()]


class TestDuplicateIds:
    def test_duplicate_image_id(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["images"].append(dict(doc["images"][0]))
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(IngestError, match="duplicate image id"):
            load_ground_truth(path)

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


class TestImageInfoValidation:
    @pytest.mark.parametrize("w,h", [(math.nan, 100.0), (100.0, math.nan), (math.inf, 100.0),
                                     (100.0, -math.inf), (0.0, 100.0)])
    def test_rejects_non_finite_or_non_positive_size(self, w, h):
        with pytest.raises(IngestError, match="image 7"):
            ImageInfo(id=7, width=w, height=h)

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
