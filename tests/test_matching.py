import numpy as np
import pytest

from zoneval.coco import BBox, Category, Dataset, Detection, DetectionSet, GroundTruth, ImageInfo
from zoneval.matching import EvalConfig
from zoneval.oracle import ap_oracle
from zoneval.zone_eval import evaluate_zones
from zoneval.zones import Annular, build_partition

from datagen import full_image_ap, match_image, random_instance


def gt(gid, bbox, cat=1, img=1, ignore=False):
    return GroundTruth(gid, img, cat, bbox, bbox.area, ignore=ignore)


def det(bbox, score, cat=1, img=1):
    return Detection(img, cat, bbox, score)


def entries(frag):
    """Per IoU threshold, (score, is_tp, is_ignored) of each detection of a fragment."""
    n = len(frag.scores)
    assert frag.tp.shape == frag.ignored.shape == (frag.tp.shape[0], n)
    return [
        list(zip(frag.scores.tolist(), tp.tolist(), ign.tolist()))
        for tp, ign in zip(frag.tp, frag.ignored)
    ]


def single_image_instance(gts, dets):
    images = [ImageInfo(id=1, width=200.0, height=200.0)]
    cats = [Category(c, f"c{c}") for c in sorted({g.category_id for g in gts} | {d.category_id for d in dets})]
    ds = Dataset(images, cats or [Category(1, "c1")], gts)
    return ds, DetectionSet(dets, ds)


class TestEvalConfig:
    def test_defaults(self):
        cfg = EvalConfig()
        assert cfg.iou_thresholds == (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)
        assert cfg.recall_points == 101
        assert cfg.max_dets_per_image == 100

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iou_thresholds": (0.5, 0.5)},
            {"iou_thresholds": (0.9, 0.5)},
            {"iou_thresholds": (0.0, 0.5)},
            {"iou_thresholds": (0.5, 1.2)},
            {"recall_points": 1},
            {"scale_range": (100.0, 100.0)},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            EvalConfig(**kwargs)


class TestMatchImage:
    def test_perfect_match_is_tp_at_every_threshold(self):
        g = gt(1, BBox(10, 10, 50, 50))
        d = det(BBox(10, 10, 50, 50), 0.8)
        frag = match_image([g], [d], EvalConfig())
        assert frag.n_pos_gt == 1
        assert len(entries(frag)) == 10
        for rows in entries(frag):
            assert rows == [(0.8, True, False)]

    def test_single_match_rule(self):
        # both detections overlap the one gt; the higher-scored wins
        g = gt(1, BBox(10, 10, 50, 50))
        d_hi = det(BBox(10, 10, 50, 50), 0.9)
        d_lo = det(BBox(12, 12, 50, 50), 0.4)
        frag = match_image([g], [d_hi, d_lo], EvalConfig(iou_thresholds=(0.5,)))
        assert entries(frag)[0] == [(0.9, True, False), (0.4, False, False)]

    def test_greedy_takes_best_iou_not_best_packing(self):
        # det1 prefers A (0.6 > ~0.54), leaving det2 with nothing above 0.5,
        # even though assigning det1->B and det2->A would give two matches
        a = gt(1, BBox(0, 0, 10, 10))
        b = gt(2, BBox(5.5, 0, 10, 10))
        d1 = det(BBox(2.5, 0, 10, 10), 0.9)  # IoU 0.6 with A, ~0.538 with B
        d2 = det(BBox(1, 0, 10, 10), 0.8)  # IoU ~0.818 with A, ~0.379 with B
        frag = match_image([a, b], [d1, d2], EvalConfig(iou_thresholds=(0.5,)))
        assert entries(frag)[0] == [(0.9, True, False), (0.8, False, False)]
        # brute-force confirmation on the full instance
        ds, dset = single_image_instance([a, b], [d1, d2])
        cfg = EvalConfig(iou_thresholds=(0.5,))
        assert full_image_ap(ds, dset, cfg) == pytest.approx(ap_oracle(ds, dset, cfg), abs=1e-12)

    def test_ignored_gt_absorbs_without_penalty(self):
        g = gt(1, BBox(10, 10, 50, 50), ignore=True)
        d = det(BBox(10, 10, 50, 50), 0.9)
        frag = match_image([g], [d], EvalConfig(iou_thresholds=(0.5,)))
        assert frag.n_pos_gt == 0
        assert entries(frag)[0] == [(0.9, False, True)]

    def test_real_gt_preferred_over_better_ignored(self):
        real = gt(1, BBox(0, 0, 10, 10))
        crowd = gt(2, BBox(2, 0, 10, 10), ignore=True)
        d = det(BBox(2, 0, 10, 10), 0.9)  # IoU 1.0 with crowd, ~0.667 with real
        frag = match_image([real, crowd], [d], EvalConfig(iou_thresholds=(0.5,)))
        assert entries(frag)[0] == [(0.9, True, False)]

    def test_gt_outside_scale_range_is_ignored(self):
        g = gt(1, BBox(10, 10, 50, 50))  # area 2500
        d = det(BBox(10, 10, 50, 50), 0.9)
        frag = match_image([g], [d], EvalConfig(iou_thresholds=(0.5,), scale_range=(0.0, 100.0)))
        assert frag.n_pos_gt == 0
        assert entries(frag)[0] == [(0.9, False, True)]

    def test_unmatched_out_of_range_detection_is_ignored(self):
        g = gt(1, BBox(10, 10, 10, 10))  # area 100, in range
        d_far = det(BBox(150, 150, 40, 40), 0.9)  # area 1600, out of range, no match
        frag = match_image([g], [d_far], EvalConfig(iou_thresholds=(0.5,), scale_range=(0.0, 200.0)))
        assert entries(frag)[0] == [(0.9, False, True)]

    def test_equal_iou_goes_to_the_later_ground_truth(self):
        # d1 overlaps a and b by exactly 1/3 each; d2 reaches only a
        a = gt(1, BBox(0, 0, 10, 10))
        b = gt(2, BBox(10, 0, 10, 10))
        d1 = det(BBox(5, 0, 10, 10), 0.9)
        d2 = det(BBox(0, 0, 10, 10), 0.8)
        cfg = EvalConfig(iou_thresholds=(0.3,))
        # d1 takes b, the later one, which leaves a for d2
        assert entries(match_image([a, b], [d1, d2], cfg)) == [[(0.9, True, False), (0.8, True, False)]]
        # in the other order d1 takes a, and d2 finds nothing
        assert entries(match_image([b, a], [d1, d2], cfg)) == [[(0.9, True, False), (0.8, False, False)]]

    def test_real_match_beats_better_ignored_until_the_threshold_rises(self):
        real = gt(1, BBox(0, 0, 10, 10))
        crowd = gt(2, BBox(2, 0, 10, 10), ignore=True)
        d = det(BBox(2, 0, 10, 10), 0.9)  # IoU 1.0 with crowd, ~0.667 with real
        frag = match_image([real, crowd], [d], EvalConfig(iou_thresholds=(0.5, 0.7)))
        assert entries(frag) == [[(0.9, True, False)], [(0.9, False, True)]]

    def test_taken_ground_truth_is_skipped_only_where_taken(self):
        g = gt(1, BBox(0, 0, 10, 10))
        d1 = det(BBox(2.5, 0, 10, 10), 0.9)  # IoU 0.6
        d2 = det(BBox(0.5, 0, 10, 10), 0.8)  # IoU ~0.905
        frag = match_image([g], [d1, d2], EvalConfig(iou_thresholds=(0.5, 0.7)))
        # at 0.5 d1 takes g first and d2 must skip it; at 0.7 d1 cannot reach g
        assert entries(frag) == [
            [(0.9, True, False), (0.8, False, False)],
            [(0.9, False, False), (0.8, True, False)],
        ]

    def test_empty_inputs_are_valid(self):
        frag = match_image([], [], EvalConfig(iou_thresholds=(0.5,)))
        assert frag.n_pos_gt == 0
        assert entries(frag) == [[]]


class TestBatchedGroups:
    def test_group_alone_equals_group_batched(self):
        # evaluate_zones matches every group of every image in one greedy pass;
        # each group's rows must equal match_image on that group alone
        from zoneval import zone_eval
        from zoneval.coco import bbox_center
        from zoneval.zones import Annular, build_partition

        from datagen import random_multiclass_benchmark

        ds, dset = random_multiclass_benchmark(6, gts_per_image=10, dets_per_image=30, seed=5)
        p = build_partition(Annular(3))
        n_zones = len(p.zones)
        for cfg in (EvalConfig(max_dets_per_image=20),
                    EvalConfig(max_dets_per_image=20, cap_after_zone=True,
                               scale_range=(0.0, 48.0**2))):
            geo = zone_eval._geometry(ds, dset, p, cfg)
            everything = np.ones((n_zones + 1) * len(ds.category_ids), dtype=bool)
            _, tp, ignored = zone_eval._match(geo, cfg, everything)
            n_dets = len(geo.row_seg) // 2
            row = 0
            compared = 0
            for img in ds.images:
                ranked = dset.for_image(img.id)
                if not cfg.cap_after_zone:
                    ranked = ranked[: cfg.max_dets_per_image]
                zone_of = {id(b): p.zone_of_clamped(bbox_center(b.bbox), img)
                           for b in [*ds.gts_by_image[img.id], *ranked]}
                rows_of = {id(d): row + i for i, d in enumerate(ranked)}
                row += len(ranked)
                for zid in [*p.zone_ids, None]:
                    for cat in ds.category_ids:
                        gts = [g for g in ds.gts_by_image[img.id]
                               if g.category_id == cat and zid in (None, zone_of[id(g)])]
                        if zid is None:
                            dets = ranked[: cfg.max_dets_per_image]
                            offset = n_dets
                        else:
                            dets = [d for d in ranked if zone_of[id(d)] == zid][: cfg.max_dets_per_image]
                            offset = 0
                        dets = [d for d in dets if d.category_id == cat]
                        alone = match_image(gts, dets, cfg)
                        idx = [offset + rows_of[id(d)] for d in dets]
                        assert (tp[idx].T == alone.tp).all()
                        assert (ignored[idx].T == alone.ignored).all()
                        compared += int(alone.tp.any())
            assert compared > 20


class TestApFromMatches:
    def run_ap(self, gts, dets, cfg=None):
        cfg = cfg or EvalConfig(iou_thresholds=(0.5,))
        ds, dset = single_image_instance(gts, dets)
        return full_image_ap(ds, dset, cfg)

    def test_perfect_detection_scores_one(self):
        gts = [gt(i + 1, BBox(20 * i, 10, 15, 15)) for i in range(3)]
        dets = [det(g.bbox, 0.9 - 0.1 * i) for i, g in enumerate(gts)]
        assert self.run_ap(gts, dets) == 1.0

    def test_no_detections_scores_zero(self):
        gts = [gt(1, BBox(10, 10, 15, 15))]
        assert self.run_ap(gts, []) == 0.0

    def test_tp_fp_tp_sequence(self):
        # precisions 1, 1/2, 2/3 at recalls 1/3, 1/3, 2/3 -> 101-point AP = 56/101
        gts = [gt(i + 1, BBox(60 * i, 10, 20, 20)) for i in range(3)]
        dets = [
            det(gts[0].bbox, 0.9),
            det(BBox(150, 150, 20, 20), 0.8),  # overlaps nothing
            det(gts[1].bbox, 0.7),
        ]
        assert self.run_ap(gts, dets) == pytest.approx(56 / 101, abs=1e-12)

    def test_undefined_when_no_category_has_gt(self):
        ds, dset = single_image_instance(
            [], [det(BBox(10, 10, 5, 5), 0.5)]
        )
        assert full_image_ap(ds, dset, EvalConfig(iou_thresholds=(0.5,))) is None

    def test_zero_gt_category_excluded_from_mean(self):
        # category 2 has detections but no gt: it must not drag the mean down
        gts = [gt(1, BBox(10, 10, 15, 15), cat=1)]
        dets = [det(gts[0].bbox, 0.9, cat=1), det(BBox(50, 50, 10, 10), 0.8, cat=2)]
        assert self.run_ap(gts, dets) == 1.0

    def test_per_threshold_view_matches_overall(self):
        gts = [gt(i + 1, BBox(60 * i, 10, 20, 20)) for i in range(3)]
        dets = [det(gts[0].bbox, 0.9), det(gts[1].bbox, 0.7)]
        report = evaluate_zones(*single_image_instance(gts, dets), build_partition(Annular(1)),
                                EvalConfig())
        (zone,) = report.zones
        assert np.mean(zone.zp_by_threshold) == pytest.approx(zone.zp, abs=1e-10)
        assert zone.zp == report.full_ap


class TestOracle:
    def test_matches_worked_examples(self):
        gts = [gt(i + 1, BBox(60 * i, 10, 20, 20)) for i in range(3)]
        dets = [det(gts[0].bbox, 0.9), det(BBox(150, 150, 20, 20), 0.8), det(gts[1].bbox, 0.7)]
        ds, dset = single_image_instance(gts, dets)
        cfg = EvalConfig(iou_thresholds=(0.5,))
        assert ap_oracle(ds, dset, cfg) == pytest.approx(56 / 101, abs=1e-12)

    def test_empty_detections(self):
        ds, dset = single_image_instance([gt(1, BBox(10, 10, 15, 15))], [])
        assert ap_oracle(ds, dset, EvalConfig(iou_thresholds=(0.5,))) == 0.0

    def test_instance_too_large(self):
        images = [ImageInfo(id=i + 1, width=100, height=100) for i in range(7)]
        ds = Dataset(images, [Category(1, "c")], [])
        with pytest.raises(ValueError, match="too large"):
            ap_oracle(ds, DetectionSet([], ds), EvalConfig())

    def test_too_many_detections_per_image(self):
        ds, _ = single_image_instance([gt(1, BBox(10, 10, 15, 15))], [])
        dets = DetectionSet(
            [det(BBox(5 * i, 5, 10, 10), 0.5) for i in range(11)], ds
        )
        with pytest.raises(ValueError, match="too large"):
            ap_oracle(ds, dets, EvalConfig())

    def test_random_agreement(self):
        rng = np.random.default_rng(7)
        threshold_menu = [
            (0.5,),
            (0.3, 0.7),
            (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95),
            (0.25, 0.5, 0.75, 1.0),
        ]
        for _ in range(200):
            ds, dset = random_instance(rng)
            cfg = EvalConfig(
                iou_thresholds=threshold_menu[int(rng.integers(0, len(threshold_menu)))],
                recall_points=int(rng.choice([11, 41, 101])),
                max_dets_per_image=int(rng.integers(1, 11)),
                scale_range=(64.0, 225.0) if rng.random() < 0.3 else None,
            )
            a = full_image_ap(ds, dset, cfg)
            b = ap_oracle(ds, dset, cfg)
            if a is None or b is None:
                assert a is None and b is None
            else:
                assert a == pytest.approx(b, abs=1e-12)

    def test_crowd_heavy_agreement(self):
        # most ground truths ignored: absorption logic must line up exactly
        rng = np.random.default_rng(31)
        for _ in range(60):
            images = [ImageInfo(id=1, width=100.0, height=100.0)]
            gts = []
            for i in range(4):
                x, y = rng.uniform(0, 70, 2)
                gts.append(
                    GroundTruth(i + 1, 1, 1, BBox(x, y, 20, 20), 400.0,
                                ignore=bool(rng.random() < 0.7))
                )
            ds = Dataset(images, [Category(1, "c")], gts)
            dets = []
            for _ in range(8):
                base = gts[int(rng.integers(0, 4))].bbox
                dets.append(
                    Detection(1, 1,
                              BBox(base.x + rng.uniform(-8, 8), base.y + rng.uniform(-8, 8),
                                   20, 20),
                              round(float(rng.random()), 1))
                )
            dset = DetectionSet(dets, ds)
            cfg = EvalConfig(iou_thresholds=(0.5, 0.75))
            a = full_image_ap(ds, dset, cfg)
            b = ap_oracle(ds, dset, cfg)
            if a is None or b is None:
                assert a is None and b is None
            else:
                assert a == pytest.approx(b, abs=1e-12)


class TestApInvariants:
    def _instance(self, seed=3):
        rng = np.random.default_rng(seed)
        return random_instance(rng)

    def test_score_scaling_invariance(self):
        ds, dset = self._instance()
        cfg = EvalConfig()
        base = full_image_ap(ds, dset, cfg)
        for c in (0.5, 2.0):
            scaled = DetectionSet(
                [
                    Detection(d.image_id, d.category_id, d.bbox, d.score * c)
                    for img_id in sorted(dset.by_image)
                    for d in dset.by_image[img_id]
                ],
                ds,
            )
            assert full_image_ap(ds, scaled, cfg) == base

    def test_trailing_zero_iou_detection_never_helps(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            ds, dset = random_instance(rng)
            cfg = EvalConfig()
            base = full_image_ap(ds, dset, cfg)
            if base is None:
                continue
            img_id = ds.images[0].id
            low = min(
                (d.score for dets in dset.by_image.values() for d in dets), default=1.0
            )
            extra = Detection(img_id, ds.category_ids[0], BBox(1e6, 1e6, 5, 5), low - 1.0)
            dets = [d for i in sorted(dset.by_image) for d in dset.by_image[i]] + [extra]
            worse = full_image_ap(ds, DetectionSet(dets, ds), cfg)
            assert worse <= base + 1e-12

    def test_fp_to_tp_flip_never_decreases(self):
        # move a missing detection onto an undetected gt, holding its score rank
        g1 = gt(1, BBox(10, 10, 20, 20))
        g2 = gt(2, BBox(100, 100, 20, 20))
        cfg = EvalConfig(iou_thresholds=(0.5,))
        d_hit = det(g1.bbox, 0.9)
        d_fp = det(BBox(150, 20, 20, 20), 0.6)
        before = full_image_ap(*single_image_instance([g1, g2], [d_hit, d_fp]), cfg)
        d_tp = det(g2.bbox, 0.6)
        after = full_image_ap(*single_image_instance([g1, g2], [d_hit, d_tp]), cfg)
        assert after >= before
