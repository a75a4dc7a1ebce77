import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zoneval.coco import BBox, Category, Dataset, Detection, DetectionSet, GroundTruth, ImageInfo
from zoneval.matching import EvalConfig
from zoneval.oracle import ap_oracle, zone_instance
from zoneval.synth import QualityProfile, ZoneQuality, synthetic_benchmark
from zoneval.zone_eval import (
    evaluate_zones,
    grid_heatmap,
    scale_bins,
    scale_study,
    zp_variance,
)
from zoneval.zones import Annular, Custom, Grid, StripX, build_partition

from datagen import random_instance

THREE_ZONES = Custom(
    (
        ("top", ((0.0, 0.0, 1.0, 0.3),)),
        ("bottom-left", ((0.0, 0.3, 0.45, 1.0),)),
        ("bottom-right", ((0.45, 0.3, 1.0, 1.0),)),
    )
)


class TestZpVariance:
    def test_constant_series(self):
        assert zp_variance([10.0, 10.0, 10.0]) == 0.0

    def test_published_coco_row(self):
        # one-decimal table inputs give 16.74, matching the published 16.9
        # up to the rounding already baked into those inputs
        v = zp_variance([31.1, 37.5, 39.4, 38.5, 43.8])
        assert v == pytest.approx(16.7384, abs=1e-10)
        assert abs(v - 16.9) < 0.3

    def test_published_voc_row(self):
        v = zp_variance([34.3, 39.6, 42.5, 46.6, 56.1])
        assert v == pytest.approx(53.7416, abs=1e-10)
        assert abs(v - 53.6) < 0.3

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            zp_variance([])

    def test_population_not_sample(self):
        # n divisor, not n-1
        assert zp_variance([0.0, 2.0]) == 1.0

    @given(
        zps=st.lists(
            st.floats(0, 100).map(lambda v: round(v, 1)), min_size=1, max_size=12
        )
    )
    def test_nonnegative_and_zero_iff_constant(self, zps):
        v = zp_variance(zps)
        assert v >= 0.0
        if len(set(zps)) > 1:
            assert v > 0.0
        if len(set(zps)) == 1:
            assert v == 0.0


def one_image_dataset(gts, width=600.0, height=600.0):
    images = [ImageInfo(id=1, width=width, height=height)]
    cats = [Category(c, f"c{c}") for c in sorted({g.category_id for g in gts})] or [
        Category(1, "c1")
    ]
    return Dataset(images, cats, gts)


@pytest.fixture
def clustered():
    """All objects inside the top-left quadrant cell of a 2x2 grid."""
    gts = [
        GroundTruth(i + 1, 1, 1, BBox(20 + 40 * i, 30, 30, 30), 900.0) for i in range(4)
    ]
    ds = one_image_dataset(gts)
    dets = DetectionSet([Detection(1, 1, g.bbox, 0.9 - 0.05 * i) for i, g in enumerate(gts)], ds)
    return ds, dets


class TestEvaluateZones:
    def test_single_zone_equals_ap(self, clustered):
        ds, dets = clustered
        report = evaluate_zones(ds, dets, build_partition(Annular(1)))
        assert report.zones[0].zp == report.full_ap
        assert report.zp_variance == 0.0

    def test_filtering_identity_one_cell(self, clustered):
        ds, dets = clustered
        report = evaluate_zones(ds, dets, build_partition(Grid(2, 2)))
        by_id = {z.zone_id: z for z in report.zones}
        assert by_id["g0_0"].zp == report.full_ap
        assert report.undefined_zones == ["g0_1", "g1_0", "g1_1"]
        assert by_id["g0_1"].zp is None

    def test_zone_gt_counts_partition_total(self, mini_dataset, mini_detections):
        for spec in (Annular(5), Grid(3, 3), StripX(5)):
            report = evaluate_zones(mini_dataset, mini_detections, build_partition(spec))
            assert sum(z.gt_count for z in report.zones) == len(mini_dataset.ground_truths)

    def test_variance_invariant_under_zone_permutation(self, mini_dataset, mini_detections):
        p = build_partition(StripX(3))
        report = evaluate_zones(mini_dataset, mini_detections, p)
        reordered = build_partition(StripX(3))
        reordered.zones = list(reversed(reordered.zones))
        report2 = evaluate_zones(mini_dataset, mini_detections, reordered)
        assert [z.zone_id for z in report2.zones] == list(
            reversed([z.zone_id for z in report.zones])
        )
        assert report2.zp_variance == report.zp_variance
        assert report2.full_ap == report.full_ap

    def test_report_identical_across_runs_and_workers(self, mini_dataset, mini_detections):
        p = build_partition(Annular(5))
        a = evaluate_zones(mini_dataset, mini_detections, p, workers=1)
        b = evaluate_zones(mini_dataset, mini_detections, p, workers=1)
        c = evaluate_zones(mini_dataset, mini_detections, p, workers=4)
        assert a.to_json() == b.to_json() == c.to_json()

    def test_synthetic_profile_matches_closed_form(self):
        p = build_partition(Annular(5))
        profile = QualityProfile(
            {
                "z0,1": ZoneQuality(recall=0.4),
                "z1,2": ZoneQuality(recall=0.6, fp_per_tp=0.5),
                "z2,3": ZoneQuality(recall=0.8),
                "z3,4": ZoneQuality(recall=0.9, fp_per_tp=0.25),
                "z4,5": ZoneQuality(recall=1.0),
            },
            rng_seed=11,
        )
        ds, dets, expected = synthetic_benchmark(30, 500, 1.5, profile, p)
        report = evaluate_zones(ds, dets, p)
        for want, got in zip(expected.zones, report.zones):
            if want.zp is None:
                assert got.zp is None
            else:
                assert got.zp == pytest.approx(want.zp, abs=1e-9)
        assert report.full_ap == pytest.approx(expected.full_ap, abs=1e-9)
        assert report.zp_variance == pytest.approx(expected.zp_variance, abs=1e-9)

    def test_undefined_zone_excluded_from_variance(self, clustered):
        ds, dets = clustered
        report = evaluate_zones(ds, dets, build_partition(Grid(2, 2)))
        # only one defined zone: variance over a single value is zero
        assert report.zp_variance == 0.0

    def test_fully_empty_dataset_is_undefined(self):
        ds = one_image_dataset([])
        report = evaluate_zones(ds, DetectionSet([], ds), build_partition(Annular(2)))
        assert report.full_ap is None
        assert report.zp_variance is None
        assert len(report.undefined_zones) == 2

    @pytest.mark.parametrize(
        "spec,scale_range,cap_after_zone",
        [
            pytest.param(spec, rng, cap, id=f"spec{i}{label}{'-cap_after_zone' if cap else ''}")
            for i, spec in enumerate([Annular(3), Grid(2, 2), StripX(4)])
            for rng, label in [(None, ""), ((0.0, 32.0**2), "-small"), ((32.0**2, 96.0**2), "-medium")]
            for cap in (False, True)
        ],
    )
    def test_zone_zp_equals_manually_filtered_subeval(self, spec, scale_range, cap_after_zone):
        # independent path: build the per-zone sub-dataset by hand and score it
        # with the plain full-image evaluator, which matches every category
        # of every image and prunes nothing
        from zoneval.coco import bbox_center
        from datagen import full_image_ap, random_multiclass_benchmark

        ds, dets = random_multiclass_benchmark(12, gts_per_image=8, dets_per_image=20, seed=17)
        p = build_partition(spec)
        cfg = EvalConfig(max_dets_per_image=12, scale_range=scale_range,
                         cap_after_zone=cap_after_zone)
        report = evaluate_zones(ds, dets, p, cfg)
        full = full_image_ap(ds, dets, cfg)
        assert report.full_ap == (None if full is None else 100.0 * full)

        defined = 0
        for zone, got in zip(p.zones, report.zones):
            sub_gts = [
                g
                for g in ds.ground_truths
                if p.zone_of_clamped(bbox_center(g.bbox), ds.images_by_id[g.image_id])
                == zone.id
            ]
            sub_dets = []
            for img in ds.images:
                ranked = dets.for_image(img.id)
                if not cap_after_zone:
                    ranked = ranked[: cfg.max_dets_per_image]
                in_zone = [d for d in ranked if p.zone_of_clamped(bbox_center(d.bbox), img) == zone.id]
                sub_dets += in_zone[: cfg.max_dets_per_image]
            sub_ds = Dataset(ds.images, ds.categories, sub_gts)
            manual = full_image_ap(sub_ds, DetectionSet(sub_dets, sub_ds), cfg)
            assert got.gt_count == len(sub_gts)
            assert got.det_count == len(sub_dets)
            if manual is None:
                assert got.zp is None
            else:
                assert got.zp == 100.0 * manual
                defined += 1
        assert defined >= 2  # the scale range leaves something to score


class TestZoneOracle:
    """Every zone's ZP against ap_oracle on that zone's members, cut out by oracle.zone_instance."""

    @pytest.mark.parametrize("cap_after_zone", [False, True], ids=["cap_first", "cap_after_zone"])
    @pytest.mark.parametrize(
        "spec", [Annular(3), Grid(2, 2), StripX(4), THREE_ZONES],
        ids=["annular3", "grid2x2", "strip_x4", "custom3"],
    )
    def test_every_zone_matches_oracle(self, spec, cap_after_zone):
        p = build_partition(spec)
        rng = np.random.default_rng(23)
        defined = 0
        for _ in range(20):
            ds, dets = random_instance(rng)
            cap = int(rng.integers(1, 11))
            for scale_range in (None, (0.0, 32.0**2), (32.0**2, 96.0**2), (64.0, 225.0)):
                cfg = EvalConfig(max_dets_per_image=cap, scale_range=scale_range,
                                 cap_after_zone=cap_after_zone)
                report = evaluate_zones(ds, dets, p, cfg)
                for zone, got in zip(p.zones, report.zones):
                    sub_ds, sub_dets = zone_instance(ds, dets, zone, cfg)
                    assert (got.gt_count, got.det_count) == (len(sub_ds.ground_truths), sub_dets.total)
                    want = ap_oracle(sub_ds, sub_dets, cfg)
                    if want is None:
                        assert got.zp is None
                    else:
                        assert got.zp / 100.0 == pytest.approx(want, abs=1e-12)
                        defined += 1
        assert defined >= 50


class TestCountThenMatch:
    """Only (zone, category) pairs with a countable ground truth are matched."""

    @staticmethod
    def instance():
        # category 1: countable ground truth on the left only, detections on
        # both sides; category 2: crowd ground truth only; category 3:
        # detections only
        images = [ImageInfo(id=i, width=200.0, height=100.0) for i in (1, 2, 3)]
        gts, dets = [], []
        for img in images:
            left = BBox(20, 30, 30, 30)
            gts.append(GroundTruth(len(gts) + 1, img.id, 1, left, 900.0))
            gts.append(GroundTruth(len(gts) + 1, img.id, 2, BBox(60, 30, 30, 30), 900.0, ignore=True))
            dets += [
                Detection(img.id, 1, BBox(22, 31, 30, 30), 0.9),
                Detection(img.id, 1, BBox(150, 30, 30, 30), 0.8),
                Detection(img.id, 2, BBox(61, 30, 30, 30), 0.7),
                Detection(img.id, 3, BBox(120, 40, 20, 20), 0.6),
                Detection(img.id, 3, BBox(30, 40, 20, 20), 0.5),
            ]
        ds = Dataset(images, [Category(c, f"c{c}") for c in (1, 2, 3)], gts)
        return ds, DetectionSet(dets, ds)

    def test_matches_only_countable_pairs(self, monkeypatch):
        from zoneval import zone_eval

        ds, dets = self.instance()
        p = build_partition(StripX(2))
        cfg = EvalConfig()
        geo = zone_eval._geometry(ds, dets, p, cfg)
        n_cat, n_gt = len(ds.category_ids), len(geo.gt_cat)
        countable = zone_eval._positives(geo, cfg) > 0
        # row d is detection d in its zone, row n_dets + d the same detection in the whole image
        det_image = np.repeat(np.arange(len(ds.images)),
                              [len(dets.for_image(img.id)) for img in ds.images])

        def groups(live):
            """(zone index, n_zones for the whole image; category id; image index) of matched rows."""
            rows = geo.pair_row[live]
            return {
                (seg // n_cat, ds.category_ids[seg % n_cat], img)
                for seg, img in zip(geo.row_seg[rows].tolist(),
                                    det_image[rows % len(det_image)].tolist())
            }

        live, tp, ignored = zone_eval._match(geo, cfg, countable)
        # per image: (x0, category 1) and (whole image, category 1); the right
        # strip holds category-1 detections but no category-1 ground truth
        assert groups(live) == {(z, 1, i) for z in (0, len(p.zones)) for i in range(len(ds.images))}
        gts = geo.pair_slot[live] % n_gt
        assert {ds.category_ids[c] for c in geo.gt_cat[gts].tolist()} == {1}
        assert len(set(gts.tolist())) == len(ds.images)  # one category-1 ground truth per image

        every = np.ones_like(countable)
        live_all, tp_all, ignored_all = zone_eval._match(geo, cfg, every)
        assert len(groups(live_all)) > 2 * len(ds.images)
        rows = countable[geo.row_seg]
        assert (tp_all[rows] == tp[rows]).all()
        assert (ignored_all[rows] == ignored[rows]).all()

        pruned = evaluate_zones(ds, dets, p)
        real = zone_eval._match
        monkeypatch.setattr(zone_eval, "_match", lambda g, c, countable: real(g, c, every))
        unpruned = evaluate_zones(ds, dets, p)
        assert pruned.to_json() == unpruned.to_json()

    def test_pool_workers_match_the_same_pairs(self):
        ds, dets = self.instance()
        p = build_partition(StripX(2))
        assert evaluate_zones(ds, dets, p, workers=2).to_json() == evaluate_zones(ds, dets, p).to_json()


class TestCapPlacement:
    def test_cap_after_zone_keeps_more_border_detections(self):
        # 6 gts in the left strip, 6 in the right; 12 detections but a cap of 6:
        # capping before zone filtering starves whichever zone scores lower
        images = [ImageInfo(id=1, width=600.0, height=600.0)]
        gts, dets = [], []
        for i in range(6):
            left = BBox(10 + 40 * i, 100, 30, 30)
            right = BBox(310 + 40 * i, 100, 30, 30)
            gts += [
                GroundTruth(2 * i + 1, 1, 1, left, 900.0),
                GroundTruth(2 * i + 2, 1, 1, right, 900.0),
            ]
            dets.append(Detection(1, 1, left, 0.9))   # high-scored left hits
            dets.append(Detection(1, 1, right, 0.2))  # low-scored right hits
        ds = Dataset(images, [Category(1, "c")], gts)
        dset = DetectionSet(dets, ds)
        p = build_partition(StripX(2))

        before = evaluate_zones(ds, dset, p, EvalConfig(iou_thresholds=(0.5,), max_dets_per_image=6))
        after = evaluate_zones(
            ds, dset, p,
            EvalConfig(iou_thresholds=(0.5,), max_dets_per_image=6, cap_after_zone=True),
        )
        by_before = {z.zone_id: z for z in before.zones}
        by_after = {z.zone_id: z for z in after.zones}
        assert by_before["x1"].det_count == 0  # image-level cap dropped all right-side hits
        assert by_after["x1"].det_count == 6
        assert by_after["x1"].zp > (by_before["x1"].zp or 0.0)


class TestScaleStudy:
    def test_bins_for_r128(self):
        assert scale_bins(128) == [(0.0, 128.0**2), (128.0**2, 256.0**2), (256.0**2, math.inf)]

    def test_bins_for_r_inf(self):
        assert scale_bins(None) == [(0.0, math.inf)]

    def test_bin_counts_follow_cap(self):
        for r, expected in [(4, 65), (8, 33), (16, 17), (32, 9), (64, 5), (128, 3)]:
            assert len(scale_bins(r)) == expected

    def test_r_inf_reduces_to_plain_evaluation(self, mini_dataset, mini_detections):
        p = build_partition(Annular(2))
        study = scale_study(mini_dataset, mini_detections, p, steps=(None,))
        plain = evaluate_zones(mini_dataset, mini_detections, p)
        for mean_val, z in zip(study.mean_zp[None], plain.zones):
            assert mean_val == z.zp
        assert study.grand_mean == [z.zp for z in plain.zones]

    def test_uniform_quality_gives_equal_zone_means(self):
        p = build_partition(StripX(2))
        profile = QualityProfile(
            {"x0": ZoneQuality(recall=1.0), "x1": ZoneQuality(recall=1.0)}, rng_seed=5
        )
        ds, dets, _ = synthetic_benchmark(20, 300, 0.0, profile, p)
        study = scale_study(ds, dets, p, steps=(64, None))
        for r in (64, None):
            vals = [v for v in study.mean_zp[r] if v is not None]
            assert max(vals) - min(vals) < 1e-9  # all 100.0

    def test_means_equal_one_evaluation_per_bin(self):
        from datagen import random_multiclass_benchmark

        ds, dets = random_multiclass_benchmark(6, gts_per_image=8, dets_per_image=20, seed=3)
        p = build_partition(Annular(3))
        cfg = EvalConfig(max_dets_per_image=15)
        study = scale_study(ds, dets, p, cfg)
        for r in study.steps:
            sums = [0.0] * len(p.zones)
            counts = [0] * len(p.zones)
            for lo, hi in scale_bins(r):
                report = evaluate_zones(ds, dets, p, replace(cfg, scale_range=(lo, hi)))
                for zi, z in enumerate(report.zones):
                    if z.zp is not None:
                        sums[zi] += z.zp
                        counts[zi] += 1
            assert study.mean_zp[r] == [s / c if c else None for s, c in zip(sums, counts)]
            assert any(counts)

    def test_workers_run_in_process(self, mini_dataset, mini_detections, monkeypatch):
        import multiprocessing.pool

        p = build_partition(Annular(2))
        one = scale_study(mini_dataset, mini_detections, p, steps=(128, None), workers=1)
        report_one = evaluate_zones(mini_dataset, mini_detections, p, workers=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("evaluation must not start a process pool")

        monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", no_pool)
        two = scale_study(mini_dataset, mini_detections, p, steps=(128, None), workers=2)
        assert two.to_json_dict() == one.to_json_dict()
        report_two = evaluate_zones(mini_dataset, mini_detections, p, workers=2)
        assert report_two.to_json() == report_one.to_json()

    def test_report_json_shape(self, mini_dataset, mini_detections):
        p = build_partition(StripX(2))
        study = scale_study(mini_dataset, mini_detections, p, steps=(128, None))
        doc = study.to_json_dict()
        assert set(doc["per_scale_step"]) == {"128", "inf"}
        assert len(doc["grand_mean"]) == 2
        assert doc["zone_ids"] == ["x0", "x1"]


class TestGridHeatmap:
    def test_1x1_grid_is_plain_ap(self, mini_dataset, mini_detections):
        matrix = grid_heatmap(mini_dataset, mini_detections, 1, 1)
        full = evaluate_zones(mini_dataset, mini_detections, build_partition(Annular(1)))
        assert matrix == [[full.full_ap]]

    def test_2x2_clustered_sentinels(self, clustered):
        ds, dets = clustered
        matrix = grid_heatmap(ds, dets, 2, 2, EvalConfig(iou_thresholds=(0.5,)))
        assert matrix[0][0] == pytest.approx(100.0)
        assert matrix[0][1] is None
        assert matrix[1][0] is None
        assert matrix[1][1] is None

    def test_11x11_quality_gradient_shows_in_cells(self):
        p = build_partition(Grid(11, 11))
        zones = {}
        for z in p.zones:
            r, c = (int(v) for v in z.id[1:].split("_"))
            central = abs(r - 5) <= 2 and abs(c - 5) <= 2
            zones[z.id] = ZoneQuality(recall=1.0 if central else 0.5)
        profile = QualityProfile(zones, rng_seed=2)
        ds, dets, _ = synthetic_benchmark(60, 3000, 0.0, profile, p)
        matrix = grid_heatmap(ds, dets, 11, 11, EvalConfig(iou_thresholds=(0.5,)))
        center_vals = [matrix[r][c] for r in range(3, 8) for c in range(3, 8)]
        border_vals = [matrix[0][c] for c in range(11)] + [matrix[10][c] for c in range(11)]
        center_vals = [v for v in center_vals if v is not None]
        border_vals = [v for v in border_vals if v is not None]
        assert min(center_vals) > max(border_vals)
