import math
import sys
from fractions import Fraction
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zoneval.coco import (BBox, Category, Dataset, Detection, DetectionSet, GroundTruth, ImageInfo,
                          load_detections, load_ground_truth)
from zoneval import matching, zone_eval
from zoneval.coco import box_corners
from zoneval.matching import EvalConfig
from zoneval.oracle import ap_oracle, zone_instance
from zoneval.synth import QualityProfile, ZoneQuality, synthetic_benchmark
from zoneval.zone_eval import (
    SCALE_STEPS,
    evaluate_zones,
    grid_heatmap,
    scale_bins,
    scale_study,
    zp_variance,
)
from zoneval.zones import Annular, Custom, Grid, StripX, build_partition

from conftest import write_coco_dt, write_coco_gt
from datagen import (candidate_pairs_by_image, in_scale_range, random_benchmark, random_instance,
                     random_multiclass_benchmark)

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

    def test_no_categories_leave_every_zone_undefined(self):
        ds = Dataset([ImageInfo(1, 10.0, 10.0)], [], [])
        dets = DetectionSet([], ds)
        p = build_partition(Annular(2))
        report = evaluate_zones(ds, dets, p)
        assert [(z.zp, z.gt_count, z.det_count) for z in report.zones] == [(None, 0, 0)] * 2
        assert report.full_ap is None
        assert scale_study(ds, dets, p, steps=(64, None)).grand_mean == [None, None]

    @pytest.mark.parametrize("cfg", [
        EvalConfig(),
        EvalConfig(max_dets_per_image=20, cap_after_zone=True),
        EvalConfig(scale_range=(32.0**2, 96.0**2)),
        EvalConfig(iou_thresholds=(0.3, 0.55, 0.8), recall_points=11, max_dets_per_image=7),
    ], ids=["default", "cap_after_zone", "scale_range", "thresholds"])
    def test_single_zone_equals_ap_under_every_config(self, cfg):
        ds, dets = random_multiclass_benchmark(8, 10, 25, seed=43)
        report = evaluate_zones(ds, dets, build_partition(Annular(1)), cfg)
        (zone,) = report.zones
        assert report.full_ap is not None and zone.zp == report.full_ap
        assert zone.gt_count == len(ds.gt_id)
        assert zone.det_count == np.minimum(np.diff(dets.starts), cfg.max_dets_per_image).sum()

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
        n_cat, n_gt = len(ds.category_ids), len(geo.gt_area)
        # row d is detection d in its zone, row n_dets + d the same detection in the whole image
        det_image = np.repeat(np.arange(len(ds.images)),
                              [len(dets.for_image(img.id)) for img in ds.images])

        def groups(rows):
            """(zone index, n_zones for the whole image; category id; image index) of the pairs' rows."""
            return {
                (seg // n_cat, ds.category_ids[seg % n_cat], img)
                for seg, img in zip(geo.row_seg[rows].tolist(),
                                    det_image[rows % len(det_image)].tolist())
            }

        # capture the pruned greedy pass of one evaluation; copies, since _evaluate then edits ignored
        real, calls = zone_eval.greedy_match, []

        def spy(*args):
            tp, ignored = real(*args)
            calls.append((args, tp.copy(), ignored.copy()))
            return tp, ignored

        monkeypatch.setattr(zone_eval, "greedy_match", spy)
        pruned = evaluate_zones(ds, dets, p)
        [((row, slot, iou, step, slot_ignored, n_rows, thresholds), tp, ignored)] = calls
        # under one scale range the pass gets the pairs of countable segments in pair order; a
        # pair's row is its row's place among the AP rows of the countable segments, its slot
        # is (range 0, slot) = its slot, and every slot has a flag: ignored when crowd, as
        # every area lies in the range
        crowd = np.tile(geo.gt_crowd, 2)
        countable = np.bincount(geo.slot_seg[~crowd], minlength=(len(p.zones) + 1) * n_cat) > 0
        entry_rows = geo.ap_rows[countable[geo.row_seg[geo.ap_rows]]]
        live = countable[geo.row_seg[geo.pair_row]]
        assert n_rows == len(entry_rows) and np.array_equal(slot_ignored, crowd)
        assert (entry_rows[row] == geo.pair_row[live]).all() and (slot == geo.pair_slot[live]).all()
        assert (iou == geo.pair_iou[live]).all() and (step == geo.pair_step[live]).all()
        # per image: (x0, category 1) and (whole image, category 1); the right
        # strip holds category-1 detections but no category-1 ground truth
        assert groups(entry_rows[row]) == {(z, 1, i) for z in (0, len(p.zones)) for i in range(len(ds.images))}
        gts = slot % n_gt
        assert {ds.category_ids[c] for c in (geo.slot_seg[gts] % n_cat).tolist()} == {1}
        assert len(set(gts.tolist())) == len(ds.images)  # one category-1 ground truth per image

        # the unpruned pass over every pair agrees on every row of a countable segment
        tp_all, ignored_all = real(geo.pair_row, geo.pair_slot, geo.pair_iou, geo.pair_step,
                                   crowd, len(geo.row_seg), thresholds)
        assert len(groups(geo.pair_row)) > 2 * len(ds.images)
        assert groups(entry_rows[row]) == groups(geo.pair_row[live])
        assert (tp_all[entry_rows] == tp).all()
        assert (ignored_all[entry_rows] == ignored).all()

        monkeypatch.setattr(zone_eval, "greedy_match", lambda *args: (tp_all[entry_rows], ignored_all[entry_rows]))
        unpruned = evaluate_zones(ds, dets, p)
        assert pruned.to_json() == unpruned.to_json()

    def test_scale_study_matches_range_slots(self, monkeypatch):
        # a three-bin study with the cap after zoning: each block's greedy pass gets slot
        # range * n_slots + slot for the pairs of the segments countable in that range, and one
        # flag per (range, slot) of the block, ignored when crowd or out of the range
        ds, dets = random_multiclass_benchmark(8, gts_per_image=10, dets_per_image=20, seed=0,
                                               image_size=(400.0, 300.0))
        doc, results = ds.to_coco_dict(), dets.to_coco_list()
        for img in doc["images"]:  # one ground truth per image in the last bin, and a detection on it
            doc["annotations"].append({"id": 1000 + img["id"], "image_id": img["id"], "category_id": 1,
                                       "bbox": [60.0, 50.0, 250.0, 200.0], "area": 50000.0, "iscrowd": 0})
            results.append({"image_id": img["id"], "category_id": 1, "bbox": [64.0, 52.0, 248.0, 196.0],
                            "score": 0.55})
        ds = Dataset.from_coco_dict(doc)
        dets = DetectionSet.from_coco_list(results, ds)
        p, cfg = build_partition(Annular(3)), EvalConfig(max_dets_per_image=8, cap_after_zone=True)
        bins = scale_bins(100)
        assert len(bins) == 3
        geo = zone_eval._geometry(ds, dets, p, cfg, whole_image=False)
        n_slots, n_seg = len(geo.slot_seg), (len(p.zones) + 1) * len(ds.category_ids)
        assert n_slots == len(ds.gt_area)  # no whole-image copy

        real_evaluate, real_match, calls = zone_eval._evaluate, zone_eval.greedy_match, []

        def evaluate(geo, cfg, ranges, keys):
            calls.append([ranges, keys])
            return real_evaluate(geo, cfg, ranges, keys)

        def match(*args):
            calls[-1].append(args)
            return real_match(*args)

        monkeypatch.setattr(zone_eval, "_evaluate", evaluate)
        monkeypatch.setattr(zone_eval, "greedy_match", match)
        study = scale_study(ds, dets, p, cfg, steps=(100,))
        assert [rng for ranges, _, _ in calls for rng in ranges] == bins  # each bin counts a ground truth

        for ranges, keys, (row, slot, iou, step, slot_ignored, n_rows, _) in calls:
            counted = ~geo.gt_crowd & np.array([in_scale_range(geo.gt_area, rng) for rng in ranges])
            assert np.array_equal(slot_ignored, ~counted.ravel())
            # the entries are the AP rows of each key's segment, key by key
            entry_rows = np.concatenate([geo.ap_rows[geo.seg_start[k % n_seg]:geo.seg_start[k % n_seg + 1]]
                                         for k in keys.tolist()])
            entry_range = np.repeat(keys // n_seg, np.diff(geo.seg_start)[keys % n_seg])
            assert n_rows == len(entry_rows) and (slot // n_slots == entry_range[row]).all()
            got = sorted(zip((slot // n_slots).tolist(), entry_rows[row].tolist(), (slot % n_slots).tolist(),
                             iou.tolist()))
            seg_counted = np.array([np.bincount(geo.slot_seg[c], minlength=n_seg) > 0 for c in counted])
            want = sorted((r, pr, ps, pi) for r in range(len(ranges))
                          for pr, ps, pi in zip(geo.pair_row.tolist(), geo.pair_slot.tolist(), geo.pair_iou.tolist())
                          if seg_counted[r, geo.row_seg[pr]])
            assert got == want and len(want) > 0
        assert study.mean_zp[100] and all(zp is not None for zp in study.mean_zp[100])

    def test_a_range_without_countable_ground_truth_reaches_neither_kernel(self, monkeypatch):
        # every ground truth has area 900, so [1000, inf) counts none: every ZP is undefined,
        # and the counts are those of the whole evaluation
        import json

        ds, dets = self.instance()
        p = build_partition(StripX(2))
        want = json.loads(evaluate_zones(ds, dets, p).to_json())
        assert want["full_ap"] is not None and all(z["det_count"] for z in want["zones"])
        for z in want["zones"]:
            z["zp"], z["zp_by_threshold"] = None, [None] * len(z["zp_by_threshold"])
        want.update(variance=None, full_ap=None, undefined_zones=p.zone_ids)

        def kernel(*args):
            raise AssertionError("a kernel ran for a scale range without countable ground truth")

        monkeypatch.setattr(zone_eval, "greedy_match", kernel)
        monkeypatch.setattr(zone_eval, "average_precision", kernel)
        report = evaluate_zones(ds, dets, p, EvalConfig(scale_range=(1000.0, math.inf)))
        assert report.to_json() == json.dumps(want, indent=2, sort_keys=True) + "\n"

    def test_pool_workers_match_the_same_pairs(self):
        ds, dets = self.instance()
        p = build_partition(StripX(2))
        assert evaluate_zones(ds, dets, p, workers=2).to_json() == evaluate_zones(ds, dets, p).to_json()


class TestMatchOutcome:
    """The match outcome that ``_evaluate`` returns and every report reduces."""

    @pytest.mark.parametrize("scale_range", [None, (32.0**2, 96.0**2)])
    @pytest.mark.parametrize("cap_after_zone", [False, True])
    def test_whole_image_curves_are_the_per_group_fragments(self, monkeypatch, cap_after_zone, scale_range):
        # every whole-image curve holds, bit for bit, its category's match_image fragments
        # joined in stable score order, as full_image_ap builds them
        from datagen import whole_image_curves

        ds, dets = random_multiclass_benchmark(6, gts_per_image=8, dets_per_image=20, seed=4)
        p = build_partition(Annular(3))
        cfg = EvalConfig(max_dets_per_image=15, scale_range=scale_range, cap_after_zone=cap_after_zone)
        real, calls = zone_eval._evaluate, []

        def spy(geo, cfg, ranges, keys):
            outcome = real(geo, cfg, ranges, keys)
            calls.append((keys, outcome))
            return outcome

        monkeypatch.setattr(zone_eval, "_evaluate", spy)
        evaluate_zones(ds, dets, p, cfg)
        [(keys, (tp, ignored, starts))] = calls
        for a in (tp, ignored):
            assert a.dtype == bool and a.flags.c_contiguous and a.shape == (len(cfg.iou_thresholds), tp.shape[1])
        assert not (tp & ignored).any()
        assert starts[0] == 0 and (np.diff(starts) >= 0).all() and len(starts) == len(keys)

        n_cat = len(ds.category_ids)
        ends = np.append(starts[1:], tp.shape[1])
        whole = {ds.category_ids[key % n_cat]: (tp[:, a:b], ignored[:, a:b])  # one range: a key is a segment
                 for key, a, b in zip(keys.tolist(), starts.tolist(), ends.tolist()) if key // n_cat == len(p.zones)}
        want = whole_image_curves(ds, dets, cfg)
        assert whole.keys() == want.keys() and len(want) > 1
        for cat, (want_tp, want_ignored, _) in want.items():
            assert np.array_equal(whole[cat][0], want_tp) and np.array_equal(whole[cat][1], want_ignored)
        assert any(t.any() for t, _, _ in want.values())
        assert scale_range is None or any(i.any() for _, i, _ in want.values())


class TestApOrder:
    @pytest.mark.parametrize("cap_after_zone", [False, True])
    def test_equals_one_lexsort_over_both_copies(self, cap_after_zone):
        # the AP rows are the rows under the cap by (segment, -score), ties in row order;
        # scores are rounded to two decimals, so ties are frequent
        rng = np.random.default_rng(29)
        p = build_partition(Annular(3))
        for _ in range(60):
            ds, dets = random_instance(rng)
            cap = int(rng.integers(1, 8))
            geo = zone_eval._geometry(ds, dets, p, EvalConfig(max_dets_per_image=cap, cap_after_zone=cap_after_zone))
            rank = np.arange(dets.total) - dets.starts[dets.image]
            kept = np.ones(dets.total, dtype=bool) if cap_after_zone else rank < cap
            score, image = np.tile(dets.score[kept], 2), np.tile(dets.image[kept], 2)
            under_cap = np.ones(len(score), dtype=bool)
            if cap_after_zone:
                zone = geo.row_seg // geo.n_categories
                under_cap = matching.rank_within(image * (len(p.zones) + 1) + zone) < cap
            rows = np.flatnonzero(under_cap)
            want = rows[np.lexsort((-score[rows], geo.row_seg[rows]))]
            assert geo.ap_rows.tolist() == want.tolist()
            # seg_start: each segment's first place, the count of AP rows in lower segments
            seg, n_seg = geo.row_seg[want].tolist(), (len(p.zones) + 1) * geo.n_categories
            assert geo.seg_start.tolist() == [sum(x < s for x in seg) for s in range(n_seg + 1)]
            # ap_rank: a row's place in its segment's run of AP rows, -1 over the cap
            place = [seg[:i].count(s) for i, s in enumerate(seg)]
            assert geo.ap_rank[want].tolist() == place
            assert (geo.ap_rank[~under_cap] == -1).all()


class TestZonesOnlyGeometry:
    @pytest.mark.parametrize("spec", [Annular(1), Grid(3, 3), THREE_ZONES])
    @pytest.mark.parametrize("cap_after_zone", [False, True])
    def test_equals_the_zone_half_of_the_full_geometry(self, spec, cap_after_zone):
        # the zone copy shares no row or slot with the whole-image copy, so leaving the
        # whole image out changes none of the zone copy's slots, rows, pairs or AP rows
        p = build_partition(spec)
        for seed in range(3):
            ds, dets = random_multiclass_benchmark(6, gts_per_image=8, dets_per_image=20, seed=seed)
            cfg = EvalConfig(max_dets_per_image=5, cap_after_zone=cap_after_zone)
            full = zone_eval._geometry(ds, dets, p, cfg)
            zones = zone_eval._geometry(ds, dets, p, cfg, whole_image=False)
            n_gt, n_dt = len(full.gt_area), len(full.row_seg) // 2
            in_zone = full.pair_row < n_dt  # the zone copy's pairs, in their order
            zone_rows = full.ap_rows[full.ap_rows < n_dt]
            n_zone_seg = len(p.zones) * full.n_categories
            want = {
                "n_zones": full.n_zones, "n_categories": full.n_categories,
                "gt_area": full.gt_area, "gt_crowd": full.gt_crowd, "slot_seg": full.slot_seg[:n_gt],
                "row_seg": full.row_seg[:n_dt], "row_area": full.row_area[:n_dt],
                "pair_row": full.pair_row[in_zone], "pair_slot": full.pair_slot[in_zone],
                "pair_iou": full.pair_iou[in_zone], "pair_step": full.pair_step[in_zone],
                "ap_rows": zone_rows, "ap_rank": full.ap_rank[:n_dt],
                # the whole-image segments are empty runs after the zone ones
                "seg_start": np.append(full.seg_start[:n_zone_seg + 1],
                                       np.full(full.n_categories, len(zone_rows))),
            }
            assert want.keys() == zones.__dict__.keys()
            for name, value in want.items():
                got = getattr(zones, name)
                assert np.asarray(got).dtype == np.asarray(value).dtype, name
                assert np.array_equal(got, value), name
            assert in_zone.any() and not in_zone.all()
            assert (full.pair_slot[in_zone] < n_gt).all() and (full.pair_slot[~in_zone] >= n_gt).all()


class TestPerThresholdZps:
    @pytest.mark.parametrize("spec", [Annular(3), Grid(3, 3)])
    @pytest.mark.parametrize("cap_after_zone", [False, True])
    @pytest.mark.parametrize("thresholds", [(0.5,), tuple(round(0.05 * k, 2) for k in range(1, 21))],
                             ids=["T1", "T20"])
    def test_each_figure_is_the_mean_of_its_own_entries(self, spec, cap_after_zone, thresholds):
        # a zone's zp_by_threshold[t] is 100 x the mean of column t of its AP table, and its zp
        # 100 x mean_ap of the table, bit for bit; up to 12 categories a zone, so a column sums
        # more than numpy's 8 values in one run and a whole table, at T = 20, more than 128
        p = build_partition(spec)
        ds, dets = random_multiclass_benchmark(12, gts_per_image=20, dets_per_image=40, n_categories=12, seed=61)
        cfg = EvalConfig(iou_thresholds=thresholds, max_dets_per_image=30, cap_after_zone=cap_after_zone)
        report = evaluate_zones(ds, dets, p, cfg)
        aps, cuts = zone_eval._zone_aps(zone_eval._geometry(ds, dets, p, cfg), cfg, [None])
        assert len(cuts) == len(p.zones) + 2
        for k, z in enumerate(report.zones):
            table = aps[cuts[k] : cuts[k + 1]]
            assert len(table) > 8
            assert z.zp == 100.0 * matching.mean_ap(table)
            assert z.zp_by_threshold == [100.0 * float(np.ascontiguousarray(table[:, t]).mean())
                                         for t in range(len(thresholds))]
        assert report.full_ap == 100.0 * matching.mean_ap(aps[cuts[-2] :])
        assert len({z.zp for z in report.zones}) == len(p.zones)


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
    def test_scale_range_is_refused(self):
        ds, dets = random_multiclass_benchmark(8, 10, 25, seed=43)
        with pytest.raises(ValueError, match="scale_range"):
            scale_study(ds, dets, build_partition(Annular(3)), EvalConfig(scale_range=(0.0, 100.0)), steps=(64, None))

    def test_bins_for_r128(self):
        assert scale_bins(128) == [(0.0, 128.0**2), (128.0**2, 256.0**2), (256.0**2, math.inf)]

    def test_bins_for_r_inf(self):
        assert scale_bins(None) == [(0.0, math.inf)]

    def test_bin_counts_follow_cap(self):
        for r, expected in [(4, 65), (8, 33), (16, 17), (32, 9), (64, 5), (128, 3)]:
            assert len(scale_bins(r)) == expected

    @pytest.mark.parametrize("r", [0, -4, math.nan, math.inf])
    def test_bin_width_must_be_finite_and_positive(self, r):
        # 0 and -4 never reached the cap and built bins until memory ran out;
        # nan and inf gave the single all-scales bin
        with pytest.raises(ValueError, match="finite and positive"):
            scale_bins(r)

    @pytest.mark.parametrize("r,cap", [(1e160, 8e160), (10**200, 10**201), (1e306, math.inf)])
    def test_squared_bin_edges_must_not_overflow(self, r, cap):
        with pytest.raises(ValueError, match="a squared bin edge overflows"):
            scale_bins(r, cap=cap)

    @pytest.mark.parametrize("r,cap", [(1e-9, 256), (1e-3, 256), (0.25, 256), (1, 1000), (10**-300, 10**6)])
    def test_more_than_1000_bins_are_refused_before_any_is_built(self, r, cap):
        # 1e-9 would give 2.56e11 bins, built one by one
        with pytest.raises(ValueError, match=f"^scale bin width {r} up to {cap} gives more than 1000 bins$"):
            scale_bins(r, cap=cap)

    def test_1000_bins_are_built(self):
        assert len(scale_bins(1, cap=999)) == 1000

    def test_study_refuses_a_tiny_step_before_any_work(self, mini_dataset, mini_detections, monkeypatch):
        def no_geometry(*args):
            raise AssertionError("built the geometry")

        monkeypatch.setattr(zone_eval, "_geometry", no_geometry)
        with pytest.raises(ValueError, match="gives more than 1000 bins"):
            scale_study(mini_dataset, mini_detections, build_partition(Annular(2)), steps=(64, 1e-9))

    @pytest.mark.parametrize("r", [True, np.True_, False])
    def test_bin_width_must_not_be_a_bool(self, r):
        # True built width-1 bins
        with pytest.raises(ValueError, match=f"^scale bin width must be finite and positive, got {r}$"):
            scale_bins(r)

    @pytest.mark.parametrize("r", [Fraction(32), "32"])
    def test_bin_width_must_be_a_number_by_the_readers_rule(self, r):
        # a Fraction passed, and a string raised TypeError
        with pytest.raises(ValueError, match=f"^scale bin width must be finite and positive, got {r}$"):
            scale_bins(r)

    def test_study_refuses_a_bool_step(self, mini_dataset, mini_detections):
        # (True, 1) was refused as "not distinct"
        with pytest.raises(ValueError, match="^scale bin width must be finite and positive, got True$"):
            scale_study(mini_dataset, mini_detections, build_partition(Annular(2)), steps=(True, 1))

    def test_study_refuses_a_zero_step(self, mini_dataset, mini_detections):
        with pytest.raises(ValueError, match="finite and positive"):
            scale_study(mini_dataset, mini_detections, build_partition(Annular(2)), steps=(64, 0))

    def test_repeated_and_missing_steps(self, mini_dataset, mini_detections, monkeypatch):
        # a repeated step would count once per repeat in the grand mean but show once in the
        # report; no step gave an empty report whose grand means all read None, as if no zone
        # had ground truth.  Both are refused before any work
        p = build_partition(Annular(2))

        def no_geometry(*args):
            raise AssertionError("built the geometry")

        monkeypatch.setattr(zone_eval, "_geometry", no_geometry)
        for steps in ((64, 64, None), (None, 8, None), (4, 4.0)):
            with pytest.raises(ValueError, match="^scale_study steps must be distinct, got "):
                scale_study(mini_dataset, mini_detections, p, steps=steps)
        for steps in ((), []):
            with pytest.raises(ValueError, match="^scale_study needs at least one step$"):
                scale_study(mini_dataset, mini_detections, p, steps=steps)

    def test_grand_mean_is_the_mean_of_the_reported_steps(self):
        # with steps (4, 4, None), z0,1 read 6.7594 = (2 * 8.2249 + 3.8284) / 3 against a
        # report that shows the step 4 once
        ds, dets = random_multiclass_benchmark(4, 6, 12, seed=1)
        p = build_partition(Annular(3))
        with pytest.raises(ValueError, match=r"^scale_study steps must be distinct, got \(4, 4, None\)$"):
            scale_study(ds, dets, p, steps=(4, 4, None))
        doc = scale_study(ds, dets, p, steps=(4, None)).to_json_dict()
        assert list(doc["per_scale_step"]) == ["4", "inf"]
        for zi, grand in enumerate(doc["grand_mean"]):
            shown = [v[zi] for v in doc["per_scale_step"].values() if v[zi] is not None]
            total = 0.0
            for v in shown:  # left to right
                total += v
            assert grand == (total / len(shown) if shown else None)
        assert doc["per_scale_step"]["4"][1] != doc["per_scale_step"]["inf"][1]

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

    @pytest.mark.parametrize("cfg,steps", [
        (EvalConfig(max_dets_per_image=15, cap_after_zone=True), SCALE_STEPS + (None,)),
        (EvalConfig(iou_thresholds=(0.3, 0.6, 0.9), max_dets_per_image=15), (100, None)),
    ])
    def test_bins_equal_evaluate_zones_bit_for_bit(self, monkeypatch, cfg, steps):
        # every bin of a scale_study pass is scored as evaluate_zones scores it,
        # however the bins are cut into passes
        import json

        from zoneval import matching, zone_eval

        from datagen import random_multiclass_benchmark

        ds, dets = random_multiclass_benchmark(6, gts_per_image=8, dets_per_image=20, seed=4)
        p = build_partition(Annular(3))
        study = scale_study(ds, dets, p, cfg, steps)
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

        doc = json.dumps(study.to_json_dict(), sort_keys=True)
        rows = len(zone_eval._geometry(ds, dets, p, cfg).row_seg) * len(cfg.iou_thresholds)
        for entries in (1, 2 * rows, 3 * rows + 1):  # one bin per pass, then passes that straddle steps
            monkeypatch.setattr(matching, "BLOCK_ENTRIES", entries)
            again = scale_study(ds, dets, p, cfg, steps)
            assert json.dumps(again.to_json_dict(), sort_keys=True) == doc

    def test_only_live_bin_pair_instances_are_matched_and_scored(self, monkeypatch):
        # a (bin, pair) instance is live when the pair's segment holds a ground truth
        # countable in the bin; bins with none reach neither kernel.  The study reports
        # zones only, so only the zone copy is matched: slot g is ground truth g
        from collections import Counter

        ds, dets = random_multiclass_benchmark(6, gts_per_image=8, dets_per_image=20, seed=4)
        p = build_partition(Annular(3))
        cfg = EvalConfig(max_dets_per_image=15)
        steps = SCALE_STEPS + (None,)
        geo = zone_eval._geometry(ds, dets, p, cfg, whole_image=False)
        n_seg = (len(p.zones) + 1) * geo.n_categories
        assert len(geo.slot_seg) == len(geo.gt_area) and geo.slot_seg.max() < len(p.zones) * geo.n_categories
        bins = [rng for r in steps for rng in scale_bins(r)]
        countable = []  # per bin, per segment
        for rng in bins:
            seg = np.zeros(n_seg, dtype=bool)
            seg[geo.slot_seg[~geo.gt_crowd & in_scale_range(geo.gt_area, rng)]] = True
            countable.append(seg)
        instances = sum(int(c[geo.row_seg[geo.pair_row]].sum()) for c in countable)
        curves = sum(int(c.sum()) for c in countable)
        entries = sum(int(c[geo.row_seg[geo.ap_rows]].sum()) for c in countable)
        live = Counter(rng for rng, c in zip(bins, countable) if c.any())
        assert 0 < sum(live.values()) < len(bins)
        assert 0 < instances < len(bins) * len(geo.pair_row)

        seen = Counter()
        real_evaluate, real_greedy, real_ap = zone_eval._evaluate, zone_eval.greedy_match, zone_eval.average_precision

        def evaluate(geo, cfg, ranges, keys):
            seen.update(ranges)
            assert (keys % n_seg // geo.n_categories < len(p.zones)).all()  # no whole-image segment
            return real_evaluate(geo, cfg, ranges, keys)

        def greedy(row, *rest):
            seen["pairs"] += len(row)
            return real_greedy(row, *rest)

        def ap(tp, ignored, starts, *rest):
            seen["curves"] += len(starts)
            seen["entries"] += tp.shape[1]
            return real_ap(tp, ignored, starts, *rest)

        want = scale_study(ds, dets, p, cfg, steps).to_json_dict()
        monkeypatch.setattr(zone_eval, "_evaluate", evaluate)
        monkeypatch.setattr(zone_eval, "greedy_match", greedy)
        monkeypatch.setattr(zone_eval, "average_precision", ap)
        assert scale_study(ds, dets, p, cfg, steps).to_json_dict() == want
        assert (seen.pop("pairs"), seen.pop("curves"), seen.pop("entries")) == (instances, curves, entries)
        assert seen == live

    @pytest.mark.parametrize("cap_after_zone", [False, True])
    def test_all_scales_step_equals_evaluate_zones(self, cap_after_zone):
        # the None step is the one bin [0, inf), which holds every area a Dataset accepts,
        # the largest finite one too
        ds, dets = random_multiclass_benchmark(6, gts_per_image=8, dets_per_image=20, seed=4)
        gts = ds.ground_truths
        gts[3] = replace(gts[3], area=sys.float_info.max, ignore=False)
        ds = Dataset(ds.images, ds.categories, gts)
        dets = DetectionSet.from_coco_list(dets.to_coco_list(), ds)
        p = build_partition(Annular(3))
        cfg = EvalConfig(max_dets_per_image=15, cap_after_zone=cap_after_zone)
        zps = [z.zp for z in evaluate_zones(ds, dets, p, cfg).zones]
        assert scale_study(ds, dets, p, cfg, steps=(None,)).mean_zp[None] == zps
        finite = evaluate_zones(ds, dets, p, replace(cfg, scale_range=(0.0, 1e300)))
        assert [z.zp for z in finite.zones] != zps

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


class TestCandidatePairs:
    """The blocked pair pass against the per-image loop it replaced: same pairs, same bits, same order."""

    @staticmethod
    def instance(rng):
        # integer corners on a small canvas, so boxes often touch exactly; some
        # boxes shrunk by 1e-170, so two of them overlap with an area that
        # underflows to 0. Ground truths and detections each skip some images
        n_img, n_cat = int(rng.integers(1, 6)), int(rng.integers(2, 5))

        def boxes(n):
            shown = rng.random(n_img) < 0.8
            img = np.sort(rng.choice(np.flatnonzero(shown), size=n)) if shown.any() else np.zeros(0, np.int64)
            box = np.concatenate([rng.integers(0, 8, (len(img), 2)), rng.integers(1, 5, (len(img), 2))], axis=1)
            box = box * np.where(rng.random(len(img)) < 0.15, 1e-170, 1.0)[:, None]
            return img, rng.integers(0, n_cat, len(img)), box

        gt_img, gt_cat, gt_box = boxes(int(rng.integers(0, 20)))
        dt_img, dt_cat, dt_box = boxes(int(rng.integers(0, 50)))
        copies = rng.random(len(dt_img)) < 0.2  # a detection may copy a ground truth of its image
        for d in np.flatnonzero(copies & np.isin(dt_img, gt_img)):
            g = rng.choice(np.flatnonzero(gt_img == dt_img[d]))
            dt_cat[d], dt_box[d] = gt_cat[g], gt_box[g]
        return n_img, n_cat, (dt_img, dt_box, dt_cat), (gt_img, gt_box, gt_cat)

    @staticmethod
    def coverage(n_img, dt, gt, min_iou, found):
        (dt_img, dt_box, dt_cat), (gt_img, gt_box, gt_cat) = dt, gt
        same = (dt_img[:, None] == gt_img[None, :]) & (dt_cat[:, None] == gt_cat[None, :])
        (dx0, dy0, dx1, dy1), (gx0, gy0, gx1, gy1) = box_corners(dt_box), box_corners(gt_box)
        iw = np.minimum(dx1[:, None], gx1[None, :]) - np.maximum(dx0[:, None], gx0[None, :])
        ih = np.minimum(dy1[:, None], gy1[None, :]) - np.maximum(dy0[:, None], gy0[None, :])
        images = np.arange(n_img)
        has_dt, has_gt = np.isin(images, dt_img), np.isin(images, gt_img)
        lone_cat = [d for d in range(len(dt_img)) if has_gt[dt_img[d]] and not same[d].any()]
        return {
            "detections, no ground truth": bool((has_dt & ~has_gt).any()),
            "ground truths, no detection": bool((has_gt & ~has_dt).any()),
            "category without ground truth in an image": bool(lone_cat),
            "touching boxes": bool((same & (iw == 0) & (ih > 0)).any()),
            "iou equal to min_iou": bool((found[2] == min_iou).any()),
            "intersection underflows": bool((same & (iw > 0) & (ih > 0) & (iw * ih == 0)).any()),
        }

    @pytest.mark.parametrize("per_block", [None, 1, 7, 250, 10**9])
    def test_equals_the_per_image_loop(self, monkeypatch, per_block):
        # a block holds whole detections of at most per_block pairs in all (four entries a pair),
        # or one detection that has more
        if per_block is not None:
            monkeypatch.setattr(matching, "BLOCK_ENTRIES", 4 * per_block)
        rng = np.random.default_rng(41)
        seen = {}
        for _ in range(150):
            n_img, n_cat, dt, gt = self.instance(rng)
            (dt_img, dt_box, dt_cat), (gt_img, gt_box, gt_cat) = dt, gt
            gt_starts = np.searchsorted(gt_img, np.arange(n_img + 1))
            # a threshold equal to an IoU that occurs, when one does
            ious = candidate_pairs_by_image(dt_img, dt_box, dt_cat, gt_starts, gt_box, gt_cat, 1e-300)[2]
            min_iou = float(rng.choice(ious)) if len(ious) and rng.random() < 0.8 else float(rng.uniform(0.05, 1))
            want = candidate_pairs_by_image(dt_img, dt_box, dt_cat, gt_starts, gt_box, gt_cat, min_iou)
            got = zone_eval._candidate_pairs(dt_img * n_cat + dt_cat, dt_box, gt_img * n_cat + gt_cat, gt_box, n_cat,
                                             min_iou)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
            for case, hit in self.coverage(n_img, dt, gt, min_iou, want).items():
                seen[case] = seen.get(case, 0) + hit
        assert min(seen.values()) >= 5, seen

    @pytest.mark.parametrize("entries", [3, 12, 40])
    def test_group_offsets_over_many_image_runs(self, monkeypatch, entries):
        # five categories: a run holds one image (its 5-entry table is over the bound alone), two
        # images or eight, of 40; the pair blocks shrink with the bound too
        monkeypatch.setattr(matching, "BLOCK_ENTRIES", entries)
        n_img, n_cat = 40, 5
        assert len(list(matching.blocks(np.full(n_img, n_cat)))) >= 5
        rng = np.random.default_rng(47)
        lone_cat = no_gt = 0
        for _ in range(20):
            def boxes(per_image, shown):
                img = np.repeat(np.arange(n_img), rng.integers(0, per_image + 1, n_img) * shown)
                box = np.concatenate([rng.integers(0, 8, (len(img), 2)), rng.integers(1, 5, (len(img), 2))], axis=1)
                # each image draws its categories from a few of the five
                return img, rng.integers(0, n_cat, len(img)) % rng.integers(1, n_cat + 1, n_img)[img], box.astype(float)

            gt_img, gt_cat, gt_box = boxes(4, rng.random(n_img) < 0.6)
            dt_img, dt_cat, dt_box = boxes(8, rng.random(n_img) < 0.9)
            gt_starts = np.searchsorted(gt_img, np.arange(n_img + 1))
            want = candidate_pairs_by_image(dt_img, dt_box, dt_cat, gt_starts, gt_box, gt_cat, 0.2)
            got = zone_eval._candidate_pairs(dt_img * n_cat + dt_cat, dt_box, gt_img * n_cat + gt_cat, gt_box, n_cat,
                                             0.2)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
            gt_groups = set((gt_img * n_cat + gt_cat).tolist())
            lone_cat += sum(np.isin(dt_img, gt_img) & ~np.isin(dt_img * n_cat + dt_cat, list(gt_groups)))
            no_gt += len(np.setdiff1d(dt_img, gt_img))
        assert lone_cat > 20 and no_gt > 20, (lone_cat, no_gt)

    def test_memory_stays_within_the_block_bound(self, monkeypatch):
        # 1,600,000 same-group pairs are 1,562 times the 1,024 pairs of a block (listed at once,
        # they would take 77 MB); few reach the threshold, so the pass's temporaries, not its
        # output, set the peak, which must grow with the bound: a block that keeps no pair
        # leaves nothing behind, so the many blocks of a small bound cost no more than a few
        import tracemalloc

        rng = np.random.default_rng(43)
        n_img, per_image = 10, 400

        def boxes():
            corner = rng.integers(0, 1000, (n_img * per_image, 2))
            return np.repeat(np.arange(n_img), per_image), np.hstack([corner, np.full_like(corner, 20)]).astype(float)

        (dt_group, dt_box), (gt_group, gt_box) = boxes(), boxes()

        def peak(entries):
            monkeypatch.setattr(matching, "BLOCK_ENTRIES", entries)
            tracemalloc.start()
            try:
                det, gt, iou = zone_eval._candidate_pairs(dt_group, dt_box, gt_group, gt_box, 1, 0.5)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert 0 < len(det) < 1000
            return peak

        peaks = {entries: peak(entries) for entries in (1 << 10, 1 << 12, 1 << 14)}
        assert peaks[1 << 12] < 2 << 20, peaks
        assert peaks[1 << 10] <= peaks[1 << 14], peaks

    def test_no_pairs(self):
        box = np.array([[0.0, 0.0, 1.0, 1.0]])
        for dt_group, gt_group in [([], [0]), ([0], []), ([0], [1]), ([], [])]:
            got = zone_eval._candidate_pairs(np.array(dt_group, dtype=np.int64), box[: len(dt_group)],
                                             np.array(gt_group, dtype=np.int64), box[: len(gt_group)], 1, 0.5)
            assert [len(a) for a in got] == [0, 0, 0]
            assert [a.dtype for a in got] == [np.int64, np.int64, np.float64]


class TestColumnarPath:
    def test_no_detection_object_is_built(self, tmp_path, monkeypatch):
        """Loading results and evaluating them reads columns; no Detection or BBox is built."""
        ds0, dets0 = random_benchmark(12, 6, 15, seed=5)
        write_coco_gt(tmp_path / "gt.json", ds0)
        write_coco_dt(tmp_path / "dt.json", dets0)
        ds = load_ground_truth(tmp_path / "gt.json")
        p = build_partition(Annular(3))
        cfgs = [EvalConfig(max_dets_per_image=8, cap_after_zone=after) for after in (False, True)]

        def run():
            dets = load_detections(tmp_path / "dt.json", ds)
            reports = [evaluate_zones(ds, dets, p, cfg).to_json() for cfg in cfgs]
            return reports + [scale_study(ds, dets, p, cfgs[0], steps=(64, None)).to_json_dict()]

        want = run()

        def no_objects(*args, **kwargs):
            raise AssertionError("a detection object was built on the evaluation path")

        monkeypatch.setattr(BBox, "__post_init__", no_objects)
        monkeypatch.setattr(Detection, "__init__", no_objects)
        assert run() == want


class TestGridHeatmap:
    def test_1x1_grid_is_plain_ap(self, mini_dataset, mini_detections):
        matrix = grid_heatmap(mini_dataset, mini_detections, 1, 1)
        full = evaluate_zones(mini_dataset, mini_detections, build_partition(Annular(1)))
        assert matrix == [[full.full_ap]]

    @pytest.mark.parametrize("rows,cols", [(1, 1), (3, 3), (2, 5)])
    @pytest.mark.parametrize("cfg", [
        EvalConfig(max_dets_per_image=12),
        EvalConfig(max_dets_per_image=12, cap_after_zone=True, scale_range=(16.0**2, 96.0**2)),
    ])
    def test_cells_are_the_evaluate_zones_zps(self, monkeypatch, rows, cols, cfg):
        # the heatmap matches and scores the zone copies alone, and reads the ZPs of
        # evaluate_zones bit for bit
        from zoneval.zones import grid_rows

        ds, dets = random_multiclass_benchmark(6, gts_per_image=8, dets_per_image=20, seed=5)
        p = build_partition(Grid(rows, cols))
        want = grid_rows(p, [z.zp for z in evaluate_zones(ds, dets, p, cfg).zones])
        assert any(v is not None for row in want for v in row)
        real, n_seg = zone_eval._evaluate, (len(p.zones) + 1) * len(ds.category_ids)

        def evaluate(geo, cfg, ranges, keys):
            assert (keys % n_seg // geo.n_categories < len(p.zones)).all()  # no whole-image segment
            return real(geo, cfg, ranges, keys)

        monkeypatch.setattr(zone_eval, "_evaluate", evaluate)
        assert grid_heatmap(ds, dets, rows, cols, cfg) == want

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
