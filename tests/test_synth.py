import json
import math

import numpy as np
import pytest

from zoneval.coco import bbox_center, iou
from zoneval.matching import EvalConfig
from zoneval.synth import (
    QualityProfile,
    SudokuConfig,
    ZoneQuality,
    graded_profile,
    sudoku_layout,
    synthetic_benchmark,
    zone_mean_weight,
)
from zoneval.zone_eval import evaluate_zones
from zoneval.zones import Annular, Grid, StripX, build_partition


class TestSudokuLayout:
    def test_nine_objects_fill_one_canvas(self):
        cfg = SudokuConfig(objects=tuple((i + 1, 1) for i in range(9)))
        ds, manifest = sudoku_layout(cfg)
        assert len(ds.images) == 1
        centers = [bbox_center(g.bbox) for g in ds.ground_truths]
        expected = [((2 * c + 1) * 100.0, (2 * r + 1) * 100.0) for r in range(3) for c in range(3)]
        assert centers == expected
        assert centers[0] == (100.0, 100.0)
        assert centers[-1] == (500.0, 500.0)

    def test_single_object_lands_in_first_cell(self):
        ds, manifest = sudoku_layout(SudokuConfig(objects=((42, 3),)))
        assert manifest == [
            {"gt_id": 1, "image_id": 1, "cell": [0, 0], "zone": "g0_0", "source_id": 42}
        ]

    def test_voc_sized_layout_balances_cells(self):
        n = 14976
        cfg = SudokuConfig(objects=tuple((i, 1 + i % 4) for i in range(n)))
        ds, manifest = sudoku_layout(cfg)
        per_cell = {}
        for entry in manifest:
            per_cell[tuple(entry["cell"])] = per_cell.get(tuple(entry["cell"]), 0) + 1
        counts = sorted(per_cell.values())
        assert len(per_cell) == 9
        assert counts[-1] - counts[0] <= 1
        assert counts[0] == 1664  # 14976 / 9 exactly
        assert len(ds.images) == 1664

    def test_placement_matches_evaluation_grid(self):
        cfg = SudokuConfig(objects=tuple((i, 1) for i in range(21)))
        ds, manifest = sudoku_layout(cfg)
        partition = build_partition(Grid(3, 3))
        gt_by_id = {g.id: g for g in ds.ground_truths}
        for entry in manifest:
            g = gt_by_id[entry["gt_id"]]
            img = ds.images_by_id[g.image_id]
            assert partition.zone_of_clamped(bbox_center(g.bbox), img) == entry["zone"]

    def test_zero_objects_rejected(self):
        with pytest.raises(ValueError):
            SudokuConfig(objects=())

    def test_oversized_object_rejected(self):
        with pytest.raises(ValueError):
            SudokuConfig(objects=((1, 1),), canvas=300.0, object_size=100.0)

    @pytest.mark.parametrize(
        "field,value",
        [("canvas", math.nan), ("canvas", math.inf), ("canvas", 0.0), ("canvas", -600.0),
         ("object_size", math.nan), ("object_size", 0.0), ("object_size", -5.0), ("object_size", -math.inf)],
    )
    def test_canvas_and_object_size_must_be_finite_and_positive(self, field, value):
        # NaN failed only the cell rule before, and a negative size reached the box rule
        with pytest.raises(ValueError, match=f"^{field} must be finite and positive, got {value!r}$"):
            SudokuConfig(objects=((1, 1),), **{field: value})


class TestQualityProfile:
    def test_recall_above_one_infeasible(self):
        with pytest.raises(ValueError, match="infeasible"):
            ZoneQuality(recall=1.2)

    def test_graded_profile_declines_toward_border(self):
        p = build_partition(Annular(5))
        profile = graded_profile(p, best_recall=0.9, worst_recall=0.4)
        recalls = [profile.zones[z].recall for z in p.zone_ids]
        assert recalls == sorted(recalls)  # outermost first, so increasing
        assert zone_mean_weight(p.zones[0]) > zone_mean_weight(p.zones[-1])


class TestSyntheticBenchmark:
    def bench(self, seed=7, **kwargs):
        p = build_partition(StripX(2))
        profile = QualityProfile(
            {"x0": ZoneQuality(recall=1.0), "x1": ZoneQuality(recall=0.5)}, rng_seed=seed
        )
        defaults = dict(n_images=20, n_objects=200, center_bias=0.0)
        defaults.update(kwargs)
        return synthetic_benchmark(partition=p, profile=profile, **defaults), p

    def test_perfect_profile_scores_100_everywhere(self):
        p = build_partition(Annular(3))
        profile = QualityProfile(
            {z.id: ZoneQuality(recall=1.0) for z in p.zones}, rng_seed=2
        )
        ds, dets, expected = synthetic_benchmark(15, 300, 1.0, profile, p)
        report = evaluate_zones(ds, dets, p, EvalConfig())
        assert all(z.zp == 100.0 for z in report.zones)
        assert report.zp_variance == 0.0
        assert expected.zp_variance == 0.0

    def test_reproducible_bit_for_bit(self):
        (ds1, dets1, exp1), _ = self.bench()
        (ds2, dets2, exp2), _ = self.bench()
        assert json.dumps(ds1.to_coco_dict()) == json.dumps(ds2.to_coco_dict())
        assert json.dumps(dets1.to_coco_list()) == json.dumps(dets2.to_coco_list())
        assert exp1.to_json() == exp2.to_json()

    def test_false_positives_leave_the_object_views_unbuilt(self):
        p = build_partition(StripX(2))
        profile = QualityProfile({z: ZoneQuality(recall=0.5, fp_per_tp=1.5) for z in p.zone_ids}, rng_seed=3)
        ds, dets, expected = synthetic_benchmark(10, 100, 0.0, profile, p)
        assert dets.total > len(ds.gt_id) * 0.5  # false positives were planted
        assert "gts_by_image" not in vars(ds) and "ground_truths" not in vars(ds)

    def test_zero_jitter_detections_have_unit_iou(self):
        (ds, dets, _), _ = self.bench()
        gt_boxes = {(g.image_id,): [] for g in ds.ground_truths}
        for g in ds.ground_truths:
            gt_boxes[(g.image_id,)].append(g.bbox)
        for img_id in ds.image_ids:
            for d in dets.for_image(img_id):
                best = max((iou(d.bbox, b) for b in gt_boxes.get((img_id,), [])), default=0.0)
                assert best == 1.0 or best < 0.45  # planted tp or planted fp

    def test_measured_report_matches_expected(self):
        (ds, dets, expected), p = self.bench()
        report = evaluate_zones(ds, dets, p, EvalConfig())
        for want, got in zip(expected.zones, report.zones):
            assert got.gt_count == want.gt_count
            assert got.det_count == want.det_count
            if want.zp is None:
                assert got.zp is None
            else:
                assert got.zp == pytest.approx(want.zp, abs=0.1)
        assert report.zp_variance == pytest.approx(expected.zp_variance, abs=0.2)
        assert report.full_ap == pytest.approx(expected.full_ap, abs=0.1)

    def test_profile_must_cover_partition(self):
        p = build_partition(StripX(3))
        profile = QualityProfile({"x0": ZoneQuality(recall=1.0)}, rng_seed=0)
        with pytest.raises(ValueError, match="missing zone"):
            synthetic_benchmark(5, 50, 0.0, profile, p)

    @pytest.mark.parametrize("extra", [{"extra": ZoneQuality(recall=1.0)}, {"x2": ZoneQuality(recall=0.5)}])
    def test_profile_zone_outside_partition_rejected(self, extra):
        # such a zone was dropped silently: an annular:5 profile on annular:3 lost two rings
        p = build_partition(StripX(2))
        zones = {"x0": ZoneQuality(recall=1.0), **extra, "x1": ZoneQuality(recall=1.0)}
        name = next(iter(extra))
        with pytest.raises(ValueError, match=rf"^profile zone '{name}' is not a zone of strip-x:2$"):
            synthetic_benchmark(5, 50, 0.0, QualityProfile(zones), p)

    def test_center_bias_concentrates_objects(self):
        p = build_partition(Annular(2))
        profile = QualityProfile(
            {z.id: ZoneQuality(recall=1.0) for z in p.zones}, rng_seed=3
        )
        ds_flat, _, _ = synthetic_benchmark(10, 4000, 0.0, profile, p)
        ds_biased, _, _ = synthetic_benchmark(10, 4000, 3.0, profile, p)

        def central_fraction(ds):
            partition = build_partition(Annular(2))
            inner = 0
            for img in ds.images:
                for g in ds.gts_by_image[img.id]:
                    if partition.zone_of_clamped(bbox_center(g.bbox), img) == "z1,2":
                        inner += 1
            return inner / len(ds.ground_truths)

        assert central_fraction(ds_biased) > central_fraction(ds_flat) + 0.1

    @pytest.mark.parametrize("bias", [math.nan, math.inf, 1e308, 50.001, -1.0])
    def test_center_bias_it_cannot_sample_raises_before_sampling(self, monkeypatch, bias):
        # a large bias keeps about 2 / bias**2 of the drawn centers, so past 50 the sampler all but stalls
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled")

        monkeypatch.setattr(np.random, "default_rng", no_sampling)
        with pytest.raises(ValueError, match=r"center_bias must lie in \[0, 50\]"):
            self.bench(center_bias=bias)

    def test_largest_center_bias_still_samples(self):
        (ds, _, _), _ = self.bench(n_images=1, n_objects=5, center_bias=50.0)
        assert len(ds.gt_id) == 5
