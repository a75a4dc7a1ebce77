import math
from fractions import Fraction

import numpy as np
import pytest

from zoneval import matching, zone_eval
from zoneval.coco import BBox, Category, Dataset, Detection, DetectionSet, GroundTruth, ImageInfo, iou_matrix
from zoneval.matching import EvalConfig, average_precision, greedy_match, pair_order
from zoneval.oracle import ap_oracle
from zoneval.zone_eval import evaluate_zones
from zoneval.zones import Annular, build_partition

from datagen import full_image_ap, in_scale_range, match_image, random_instance, random_multiclass_benchmark


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
            # values of the wrong type: some gave wrong numbers, the others failed late or with TypeError
            {"recall_points": 2.5},  # gave the recall grid [0, 0.667, 1.333]
            {"recall_points": True},
            {"max_dets_per_image": 1.5},  # acted as a cap of 2
            {"max_dets_per_image": True},  # acted as a cap of 1
            {"scale_range": ("10", "5")},  # passed, as the strings compare as text
            {"scale_range": ("5", "10")},
            {"scale_range": (0, 5, 7)},  # failed inside evaluation
            {"scale_range": (0,)},
            {"scale_range": 5.0},
            {"iou_thresholds": ("0.5",)},  # raised a bare TypeError
            {"iou_thresholds": (0.5, True)},
            {"iou_thresholds": 0.5},
            # numbers outside the readers' rule: they passed, and only to_json() failed or the
            # report held a Fraction
            {"iou_thresholds": (Fraction(1, 2),)},
            {"iou_thresholds": (0.5, np.bool_(True))},
            {"scale_range": (Fraction(0), 100.0)},
            {"scale_range": (0.0, 10**400)},  # past the float range
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            EvalConfig(**kwargs)

    def test_numpy_numbers_accepted(self):
        cfg = EvalConfig(iou_thresholds=(np.float32(0.5), np.float64(0.75)), recall_points=np.int64(11),
                         max_dets_per_image=np.int32(3), scale_range=(np.int64(0), math.inf))
        assert cfg.recall_grid().tolist() == EvalConfig(recall_points=11).recall_grid().tolist()

    def test_numbers_are_stored_as_python_numbers(self):
        cfg = EvalConfig(iou_thresholds=(np.float32(0.5), np.float64(0.75), 1), scale_range=(np.int64(0), 100))
        assert cfg == EvalConfig(iou_thresholds=(0.5, 0.75, 1.0), scale_range=(0.0, 100.0))
        assert [type(v) for v in (*cfg.iou_thresholds, *cfg.scale_range)] == [float] * 5
        assert type(EvalConfig(iou_thresholds=[0.5, 0.75]).iou_thresholds) is tuple

    def test_equal_configs_write_equal_reports(self):
        # an int threshold wrote 1 where 1.0 wrote 1.0, and a float32 one made to_json() raise
        ds, dets = random_multiclass_benchmark(4, gts_per_image=6, dets_per_image=12, seed=7)
        p = build_partition(Annular(2))
        for ts, want in [((1,), (1.0,)), ((np.float32(0.5), np.float64(0.75)), (0.5, 0.75))]:
            got = evaluate_zones(ds, dets, p, EvalConfig(iou_thresholds=ts)).to_json()
            assert got == evaluate_zones(ds, dets, p, EvalConfig(iou_thresholds=want)).to_json()


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
        # each group's AP entries must equal match_image on that group alone
        from zoneval import zone_eval
        from zoneval.coco import bbox_center
        from zoneval.zones import Annular, build_partition

        from datagen import random_multiclass_benchmark, reference_entries

        ds, dset = random_multiclass_benchmark(6, gts_per_image=10, dets_per_image=30, seed=5)
        p = build_partition(Annular(3))
        for cfg in (EvalConfig(max_dets_per_image=20),
                    EvalConfig(max_dets_per_image=20, cap_after_zone=True,
                               scale_range=(0.0, 48.0**2))):
            geo = zone_eval._geometry(ds, dset, p, cfg)
            # each (copy, detection)'s AP entry: copy 0 in its zone, copy 1 in the whole image
            ref = reference_entries(ds, dset, p, cfg)
            entry_of = {cd: e for e, cd in enumerate(zip(ref.copy.tolist(), ref.det.tolist()))}
            assert len(entry_of) == geo.seg_start[-1]
            # every pair, also of the groups that evaluate_zones leaves out for want of a countable ground truth
            slot_ignored = np.tile(geo.gt_crowd | ~in_scale_range(geo.gt_area, cfg.scale_range), 2)
            tp, ignored = greedy_match(geo.seg_start[geo.pair_seg] + geo.pair_place, geo.pair_slot, geo.pair_iou,
                                       geo.pair_step, slot_ignored, len(entry_of), cfg.iou_thresholds)
            ignored |= ~tp & ~in_scale_range(geo.entry_area, cfg.scale_range)[:, None]
            compared = 0
            for k, img in enumerate(ds.images):
                ranked = dset.for_image(img.id)
                if not cfg.cap_after_zone:
                    ranked = ranked[: cfg.max_dets_per_image]
                zone_of = {id(b): p.zone_of_clamped(bbox_center(b.bbox), img)
                           for b in [*ds.gts_by_image[img.id], *ranked]}
                det_of = {id(d): int(dset.starts[k]) + i for i, d in enumerate(ranked)}
                for zid in [*p.zone_ids, None]:
                    for cat in ds.category_ids:
                        gts = [g for g in ds.gts_by_image[img.id]
                               if g.category_id == cat and zid in (None, zone_of[id(g)])]
                        if zid is None:
                            dets = ranked[: cfg.max_dets_per_image]
                            copy = 1
                        else:
                            dets = [d for d in ranked if zone_of[id(d)] == zid][: cfg.max_dets_per_image]
                            copy = 0
                        dets = [d for d in dets if d.category_id == cat]
                        alone = match_image(gts, dets, cfg)
                        idx = [entry_of[copy, det_of[id(d)]] for d in dets]
                        assert (tp[idx].T == alone.tp).all()
                        assert (ignored[idx].T == alone.ignored).all()
                        compared += int(alone.tp.any())
            assert compared > 20


class TestIgnoreColumns:
    """Each column of a table of ignore flags, as one greedy_match call, equals a scalar greedy loop."""

    @staticmethod
    def instance(rng, n_groups=10):
        """Candidate pairs of random groups, in pair_order, on a coarse lattice (IoU and score ties)."""
        found, n_rows, n_slots = [], 0, 0
        for _ in range(n_groups):
            n_det, n_gt = rng.integers(1, 14), rng.integers(2, 8)
            gt_box = (rng.integers(0, 5, (n_gt, 4)) * [8, 8, 4, 4] + [0, 0, 12, 12]).astype(float)
            gt_box[-1] = gt_box[0]  # a duplicate: equal IoU with every detection
            det_box = (rng.integers(0, 5, (n_det, 4)) * [8, 8, 4, 4] + [0, 0, 12, 12]).astype(float)
            score = rng.integers(0, 3, n_det)  # tied scores keep their detection order
            ious = iou_matrix(det_box[np.argsort(-score, kind="stable")], gt_box)
            d, k = np.nonzero(ious >= 0.3)
            found.append((d + n_rows, k + n_slots, ious[d, k]))
            n_rows, n_slots = n_rows + n_det, n_slots + n_gt
        row, slot, iou = (np.concatenate(a) for a in zip(*found))
        order, step = pair_order(row, slot, iou)
        return row[order], slot[order], iou[order], step, n_rows, n_slots

    @staticmethod
    def scalar_greedy(row, slot, iou, slot_ignored, n_rows, thresholds):
        """COCO's greedy rule one row at a time, rows in id order and each row's pairs in pair order."""
        tp = np.zeros((n_rows, len(thresholds)), dtype=bool)
        ign = np.zeros_like(tp)
        for t, threshold in enumerate(thresholds):
            taken = set()
            for r in np.unique(row).tolist():
                free = [p for p in np.flatnonzero(row == r) if iou[p] >= threshold and slot[p] not in taken]
                best = [p for p in free if not slot_ignored[slot[p]]] or free
                if best:
                    taken.add(slot[best[0]])
                    ign[r, t] = slot_ignored[slot[best[0]]]
                    tp[r, t] = not ign[r, t]
        return tp, ign

    @pytest.mark.parametrize("seed", range(8))
    def test_columns_equal_one_column_calls(self, seed):
        rng = np.random.default_rng(seed)
        row, slot, iou, step, n_rows, n_slots = self.instance(rng)
        thresholds = (0.3, 0.5, 0.75)
        ignored = rng.random((n_slots, 6)) < 0.3
        # column 0 ignores the ground truth of highest IoU with each detection
        # (each row's first pair), columns 4 and 5 ignore none and all
        best = np.flatnonzero(np.append(True, row[1:] != row[:-1]))
        ignored[slot[best], 0] = True
        ignored[:, 4], ignored[:, 5] = False, True
        assert ((row[1:] == row[:-1]) & (iou[1:] == iou[:-1])).any()  # a row's IoU tie, broken by -slot

        # one call per column; groups share no slot and their rows rise with rank, so rows go in id order
        tp, ign = zip(*(greedy_match(row, slot, iou, step, ignored[:, b], n_rows, thresholds) for b in range(6)))
        for b in range(6):
            assert tp[b].shape == ign[b].shape == (n_rows, len(thresholds))
            want_tp, want_ign = self.scalar_greedy(row, slot, iou, ignored[:, b], n_rows, thresholds)
            assert (tp[b] == want_tp).all()
            assert (ign[b] == want_ign).all()
            assert not (tp[b] & ign[b]).any()
        assert tp[0].any() and ign[0].any()  # a lower-IoU real match, and an ignored one
        assert not ign[4].any() and not tp[5].any()


class TestConflictLevels:
    """``pair_order`` steps are conflict levels, and ``greedy_match`` over them is COCO's greedy rule."""

    THRESHOLDS = (0.3, 0.5, 0.75)

    @classmethod
    def assert_columns_agree(cls, rng, row, slot, iou, step, n_rows, n_slots, crowd=None):
        """``greedy_match`` equals the scalar loop on six ignore columns: four random, then none and all.

        Column 0 also ignores each row's best slot; ``crowd`` slots are ignored in every column.
        """
        ignored = rng.random((n_slots, 6)) < 0.3
        best = np.flatnonzero(np.append(True, row[1:] != row[:-1]))
        ignored[slot[best], 0] = True
        ignored[:, 4], ignored[:, 5] = False, True
        if crowd is not None:
            ignored |= crowd[:, None]
        for b in range(6):
            tp, ign = greedy_match(row, slot, iou, step, ignored[:, b], n_rows, cls.THRESHOLDS)
            want_tp, want_ign = TestIgnoreColumns.scalar_greedy(row, slot, iou, ignored[:, b], n_rows,
                                                                cls.THRESHOLDS)
            assert (tp == want_tp).all() and (ign == want_ign).all(), b

    @staticmethod
    def pair_entry(geo):
        """Each candidate pair's AP entry, its row in the greedy pass over the whole geometry."""
        return geo.seg_start[geo.pair_seg] + geo.pair_place

    @staticmethod
    def row_levels(row, step):
        """Each row's step, checked to be one per row."""
        level = {}
        for r, s in zip(row.tolist(), step.tolist()):
            assert level.setdefault(r, s) == s
        return level

    def test_one_ground_truth_past_the_cap_is_as_deep_as_the_cap(self):
        # eight detections, all on one ground truth and its near copy: the cap keeps five, each
        # contending with the one before it, so the depth is the cap in the zone and the whole image
        cap = 5
        gts = [gt(1, BBox(50, 50, 40, 40)), gt(2, BBox(56, 50, 40, 40))]
        dets = [det(BBox(50 + 2 * i, 50 - i, 40, 40), 0.9 - 0.05 * i) for i in range(8)]
        ds, dset = single_image_instance(gts, dets)
        cfg = EvalConfig(iou_thresholds=self.THRESHOLDS, max_dets_per_image=cap)
        geo = zone_eval._geometry(ds, dset, build_partition(Annular(1)), cfg)
        entry = self.pair_entry(geo)
        assert len(set(entry.tolist())) == 2 * cap
        assert int(geo.pair_step.max()) + 1 == cap
        rng = np.random.default_rng(61)
        for _ in range(10):
            self.assert_columns_agree(rng, entry, geo.pair_slot, geo.pair_iou, geo.pair_step,
                                      geo.seg_start[-1], len(geo.slot_seg))

    def test_rows_of_one_group_share_a_level(self):
        # group 0: rows 0 and 1 reach slots 0 and 1 alone (level 0), row 2 reaches both
        # (level 1), row 3 reaches slot 1 after row 2 (level 2); group 1: rows 4 and 5 on slot 2
        row = np.array([0, 1, 2, 2, 3, 4, 5])
        slot = np.array([0, 1, 0, 1, 1, 2, 2])
        iou = np.array([0.9, 0.8, 0.7, 0.7, 0.95, 0.5, 0.9])
        order, step = pair_order(row, slot, iou)
        assert self.row_levels(row[order], step) == {0: 0, 1: 0, 2: 1, 3: 2, 4: 0, 5: 1}
        assert (np.diff(step) >= 0).all()
        rng = np.random.default_rng(67)
        for _ in range(20):
            self.assert_columns_agree(rng, row[order], slot[order], iou[order], step, 6, 3)

    @pytest.mark.parametrize("seed", range(3))
    def test_crowd_slots(self, seed):
        # crowd ground truths are ignored slots that rows still contend for
        ds, dset = random_multiclass_benchmark(6, gts_per_image=10, dets_per_image=30, seed=seed)
        cfg = EvalConfig(iou_thresholds=self.THRESHOLDS, max_dets_per_image=25)
        geo = zone_eval._geometry(ds, dset, build_partition(Annular(3)), cfg)
        crowd = np.tile(geo.gt_crowd, 2)
        assert crowd[geo.pair_slot].any() and geo.pair_step.max() > 0
        rng = np.random.default_rng(71 + seed)
        for _ in range(3):
            self.assert_columns_agree(rng, self.pair_entry(geo), geo.pair_slot, geo.pair_iou, geo.pair_step,
                                      geo.seg_start[-1], len(geo.slot_seg), crowd)

    @pytest.mark.parametrize("seed", range(3))
    def test_sparse_row_ids(self, seed):
        # rows without a pair leave gaps between the row ids: spread apart seven times, the
        # rows give the same permutation and steps as their dense numbering
        rng = np.random.default_rng(73 + seed)
        row, slot, iou, _, _, _ = TestIgnoreColumns.instance(rng, n_groups=30)
        shuffle = rng.permutation(len(row))
        dense = np.unique(row, return_inverse=True)[1][shuffle]
        slot, iou = slot[shuffle], iou[shuffle]
        order, step = pair_order(dense, slot, iou)
        sparse_order, sparse_step = pair_order(dense * 7, slot, iou)
        assert (sparse_order == order).all() and (sparse_step == step).all()
        assert step.max() > 1

    @pytest.mark.parametrize("seed", range(4))
    def test_levels_of_random_benchmarks(self, seed):
        ds, dset = random_multiclass_benchmark(8, gts_per_image=12, dets_per_image=40, seed=seed)
        for cfg in (EvalConfig(max_dets_per_image=30), EvalConfig(max_dets_per_image=30, cap_after_zone=True)):
            geo = zone_eval._geometry(ds, dset, build_partition(Annular(3)), cfg)
            row, slot, step = self.pair_entry(geo), geo.pair_slot, geo.pair_step
            assert (np.diff(step) >= 0).all()
            # no step holds two pairs of one slot
            key = step.astype(np.int64) * len(geo.slot_seg) + slot
            assert len(np.unique(key)) == len(key)
            # every earlier row on a slot sits on a lower step, and a row's step is the least
            # that allows it: 0, or one more than the highest step of an earlier row on its slots
            level = self.row_levels(row, step)
            rows_on = {}
            for r, k in sorted(zip(row.tolist(), slot.tolist())):
                rows_on.setdefault(k, []).append(r)
            below = {}
            for rows in rows_on.values():
                for prev, r in zip(rows, rows[1:]):
                    assert level[prev] < level[r]
                    below[r] = max(below.get(r, -1), level[prev])
            assert all(level[r] == below.get(r, -1) + 1 for r in level)
            assert max(level.values()) > 1


class TestTableMeans:
    @pytest.mark.parametrize("t_count", [1, 3, 10])
    def test_equals_mean_ap_and_the_threshold_columns_bit_for_bit(self, t_count):
        # table sizes c * T on both sides of numpy's pairwise-sum limits of 8 and 128 values,
        # each size several times, in random order, with values of many magnitudes
        rng = np.random.default_rng(53)
        sizes = [*range(0, 20), 42, 43, 60, 63, 64, 65, 127, 128, 129, 140] * 3
        sizes = rng.permutation(sizes)
        entries = sizes * t_count
        assert (entries[entries > 0] < 8).any() or t_count == 10
        assert ((entries > 8) & (entries < 128)).any() and (entries > 128).any()
        cuts = np.append(0, np.cumsum(sizes))
        aps = rng.random((cuts[-1], t_count)) * 10.0 ** rng.uniform(-3, 3, (cuts[-1], t_count))
        means, by_threshold = matching.table_means(aps, cuts)
        assert len(means) == len(by_threshold) == len(sizes)
        order_matters = False
        for k, (lo, hi) in enumerate(zip(cuts[:-1].tolist(), cuts[1:].tolist())):
            table = aps[lo:hi]
            if hi == lo:
                assert means[k] is None and by_threshold[k] == [None] * t_count
                continue
            want = matching.mean_ap(table)
            assert np.float64(means[k]).tobytes() == np.float64(want).tobytes()
            assert np.array(by_threshold[k]).tobytes() == np.ascontiguousarray(table.T).mean(axis=1).tobytes()
            left_to_right = 0.0
            for v in table.ravel().tolist():
                left_to_right += v
            order_matters |= left_to_right / table.size != want
        assert order_matters  # the bits test the order of the sums

    @pytest.mark.parametrize("t_count", [1, 10])
    def test_mean_aps_alone_are_the_same_figures(self, t_count):
        rng = np.random.default_rng(59)
        sizes = rng.permutation([*range(0, 20), 63, 64, 65, 129] * 2)
        cuts = np.append(0, np.cumsum(sizes))
        aps = rng.random((cuts[-1], t_count)) * 10.0 ** rng.uniform(-3, 3, (cuts[-1], t_count))
        got, want = matching.table_mean_aps(aps, cuts), matching.table_means(aps, cuts)[0]
        assert [m is None for m in got] == [m is None for m in want] == list(sizes == 0)
        defined = [np.array([m for m in ms if m is not None]) for ms in (got, want)]
        assert defined[0].tobytes() == defined[1].tobytes()
        assert matching.table_mean_aps(np.zeros((0, 4)), np.array([0])) == []

    def test_no_tables_and_empty_tables(self):
        assert matching.table_means(np.zeros((0, 4)), np.array([0])) == ([], [])
        assert matching.table_means(np.zeros((0, 2)), np.array([0, 0, 0])) == ([None, None], [[None] * 2] * 2)
        means, by_threshold = matching.table_means(np.ones((2, 2)), np.array([0, 0, 2, 2]))
        assert means == [None, 1.0, None] and by_threshold == [[None, None], [1.0, 1.0], [None, None]]


class TestBlocks:
    @staticmethod
    def check(sizes, bound):
        runs = list(matching.blocks(sizes))
        assert all(isinstance(i, int) for run in runs for i in run)
        # consecutive runs that cover 0..n in order
        ends = [0] + [hi for _, hi in runs]
        assert [lo for lo, _ in runs] == ends[:-1] and ends[-1] == len(sizes)
        for lo, hi in runs:
            total = int(sizes[lo:hi].sum())
            assert hi > lo and (total <= bound or hi == lo + 1)
            if hi < len(sizes):  # maximal: the next item would go over the bound
                assert total + int(sizes[hi]) > bound
        return runs

    @pytest.mark.parametrize("bound", [1, 7, 250, 1 << 16])
    def test_runs_are_consecutive_bounded_and_maximal(self, monkeypatch, bound):
        monkeypatch.setattr(matching, "BLOCK_ENTRIES", bound)
        rng = np.random.default_rng(47)
        for _ in range(200):
            top = int(rng.choice([1, 10, 2 * bound, 10 * bound]))
            sizes = rng.integers(0, top, size=int(rng.integers(1, 60)))
            sizes[rng.random(len(sizes)) < 0.3] = 0
            self.check(sizes, bound)

    def test_zero_sizes_and_empty_input(self, monkeypatch):
        monkeypatch.setattr(matching, "BLOCK_ENTRIES", 4)
        assert self.check(np.zeros(0, dtype=np.int64), 4) == []
        assert self.check(np.zeros(5, dtype=np.int64), 4) == [(0, 5)]
        assert self.check(np.array([0, 9, 0, 2, 2, 0, 1]), 4) == [(0, 1), (1, 2), (2, 6), (6, 7)]


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


class TestAveragePrecisionKernel:
    @staticmethod
    def reference(tp, ignored, starts, n_pos, grid):
        # one curve at a time, from the definition
        t_count, n = tp.shape
        out = np.empty((len(starts), t_count))
        for s, (a, b) in enumerate(zip(starts, np.append(starts[1:], n))):
            for t in range(t_count):
                hit = tp[t, a:b][~ignored[t, a:b]]
                tp_cum = np.cumsum(hit)
                recall = tp_cum / n_pos[s]
                precision = np.maximum.accumulate((tp_cum / np.arange(1, len(hit) + 1))[::-1])[::-1]
                at = np.searchsorted(recall, grid, side="left")
                samples = np.zeros(len(grid))
                samples[at < len(hit)] = precision[at[at < len(hit)]]
                out[s, t] = samples.mean()
        return out

    @staticmethod
    def curves(rng):
        # empty, one-entry and longer segments, some curves all ignored;
        # false positives repeat a recall
        t_count = int(rng.integers(1, 11))
        sizes = rng.choice([0, 1, 2, 5, 12], size=int(rng.integers(1, 25)))
        n = int(sizes.sum())
        tp = rng.random((t_count, n)) < rng.random()
        ignored = rng.random((t_count, n)) < rng.choice([0.0, 0.3, 1.0])
        n_pos = rng.integers(1, 8, size=len(sizes))
        starts = np.append(0, np.cumsum(sizes)[:-1])
        return tp & ~ignored, ignored, starts, n_pos

    @staticmethod
    def sparse_curves(rng):
        # curves of several hundred entries, at most 5% of them true positives,
        # each led by a run of false positives; some segments have none at all.
        # A true positive may also be ignored, and then it does not count
        t_count = int(rng.integers(1, 11))
        sizes = rng.integers(200, 600, size=int(rng.integers(1, 6)))
        starts = np.append(0, np.cumsum(sizes)[:-1])
        tp = rng.random((t_count, int(sizes.sum()))) < rng.uniform(0.0, 0.05)
        ignored = rng.random(tp.shape) < rng.choice([0.0, 0.3])
        for a, size, none in zip(starts, sizes, rng.random(len(sizes)) < 0.25):
            tp[:, a : a + (size if none else int(rng.integers(1, size // 2)))] = False
        n_pos = np.array([(tp & ~ignored)[:, a : a + size].sum(axis=1).max() for a, size in zip(starts, sizes)])
        return tp, ignored, starts, n_pos + rng.integers(1, 10, size=len(sizes))

    @pytest.mark.parametrize("bound", [None, 1, 7, 250, 1000])
    def test_equals_one_curve_at_a_time_bit_for_bit(self, monkeypatch, bound):
        # small bounds cut the curves into blocks, and a curve longer than the bound is a block of its own
        if bound is not None:
            monkeypatch.setattr(matching, "BLOCK_ENTRIES", bound)
        rng = np.random.default_rng(23)
        for _ in range(40):
            tp, ignored, starts, n_pos = self.curves(rng)
            grid = EvalConfig(recall_points=int(rng.choice([2, 11, 101]))).recall_grid()
            got = average_precision(tp, ignored, starts, n_pos, grid)
            want = self.reference(tp, ignored, starts, n_pos, grid)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bound", [None, 1, 7, 250, 1000])
    def test_sparse_true_positives_bit_for_bit(self, monkeypatch, bound):
        # the kernel visits only true positives; the false positives between them
        # and before the first one must still count in every precision
        if bound is not None:
            monkeypatch.setattr(matching, "BLOCK_ENTRIES", bound)
        rng = np.random.default_rng(29)
        for _ in range(12):
            tp, ignored, starts, n_pos = self.sparse_curves(rng)
            assert tp.mean() <= 0.05
            grid = EvalConfig(recall_points=int(rng.choice([2, 11, 101]))).recall_grid()
            got = average_precision(tp, ignored, starts, n_pos, grid)
            assert got.tobytes() == self.reference(tp, ignored, starts, n_pos, grid).tobytes()

    @pytest.mark.parametrize("bound", [None, 1, 7, 250, 1000])
    def test_trailing_false_positives_and_ignored_entries_change_nothing(self, monkeypatch, bound):
        # deleting a detection that is, at every threshold, ignored or a false
        # positive after its curve's last true positive leaves every byte as it was
        if bound is not None:
            monkeypatch.setattr(matching, "BLOCK_ENTRIES", bound)
        rng = np.random.default_rng(31)
        grid = EvalConfig().recall_grid()
        deleted = 0
        for _ in range(12):
            tp, ignored, starts, n_pos = self.sparse_curves(rng)
            want = average_precision(tp, ignored, starts, n_pos, grid).tobytes()
            # per threshold and column, whether a true positive of its curve comes at or after it
            later_tp = np.zeros_like(tp)
            for a, b in zip(starts, np.append(starts[1:], tp.shape[1])):
                later_tp[:, a:b] = np.cumsum(tp[:, a:b][:, ::-1], axis=1)[:, ::-1] > 0
            spare = np.flatnonzero((ignored | ~later_tp).all(axis=0))
            for col in rng.choice(spare, size=min(4, len(spare)), replace=False):
                keep = np.arange(tp.shape[1]) != col
                got = average_precision(tp[:, keep], ignored[:, keep], starts - (starts > col), n_pos, grid)
                assert got.tobytes() == want, col
                deleted += 1
        assert deleted > 20

    @staticmethod
    def edge_curves(r_count, rng):
        # one segment per case, at two thresholds (the second drops some true
        # positives), so threshold 0's last curve runs straight into threshold 1's first:
        # - every: r_count true positives among false positives, n_pos r_count, so
        #   true positive k reaches grid point k - 1: every point, and recall ends at 1
        # - low then one: precision 1/41, then precision 1 in the next curve
        # - exact then none: recall ends at exactly 1 (no tail of zeros), then no
        #   true positive at all (a curve of zeros only)
        every = np.zeros(3 * r_count, dtype=bool)
        every[rng.choice(3 * r_count, r_count, replace=False)] = True
        low = np.append(np.zeros(40, dtype=bool), True)
        segments = [(every, r_count), (low, 2), (np.ones(3, dtype=bool), 3),
                    (np.array([True, False, True, False, True]), 3), (np.zeros(4, dtype=bool), 2), (low, 2)]
        tp = np.concatenate([hit for hit, _ in segments])
        tp = np.stack([tp, tp & (rng.random(len(tp)) < 0.7)])
        starts = np.cumsum([0] + [len(hit) for hit, _ in segments[:-1]])
        n_pos = np.array([pos for _, pos in segments])
        return tp, np.zeros_like(tp), starts, n_pos

    @pytest.mark.parametrize("bound", [None, 1, 7])
    @pytest.mark.parametrize("r_count", [2, 101, 1001, 10001])
    def test_reached_points_bit_for_bit(self, monkeypatch, bound, r_count):
        # the suffix maximum runs over the points each curve reaches; it must reach as
        # deep as a curve that reaches every grid point (10,001 is the CLI's largest
        # grid) and never cross into the next curve, and a curve's run of zeros may be
        # empty or the whole curve
        if bound is not None:
            monkeypatch.setattr(matching, "BLOCK_ENTRIES", bound)
        rng = np.random.default_rng(43)
        grid = EvalConfig(recall_points=r_count).recall_grid()
        tp, ignored, starts, n_pos = self.edge_curves(r_count, rng)
        recall = np.cumsum(tp[0, : starts[1]]) / r_count
        assert (np.searchsorted(grid, recall[tp[0, : starts[1]]], side="right") - 1 == np.arange(r_count)).all()
        got = average_precision(tp, ignored, starts, n_pos, grid)
        want = self.reference(tp, ignored, starts, n_pos, grid)
        assert got.tobytes() == want.tobytes()
        # the cases are what they claim: low sits below one, exact is above none's 0
        assert got[1, 0] < got[2, 0] == 1.0
        assert got[3, 0] > got[4, 0] == 0.0

    @pytest.mark.parametrize("bound", [1, 7])
    @pytest.mark.parametrize("r_count", [101, 10001])
    def test_blocks_without_a_true_positive(self, monkeypatch, bound, r_count):
        # per threshold, curves of 5 (true positives), 3 (false positives), 2 (an ignored true
        # positive and a false positive), 0, 4 (false positives) and 6 (true positives) entries:
        # with a bound of 7 the curves of 3, 2 and 0 entries are one block, and the one of 4 is
        # another, so whole blocks hold no true positive and build no samples
        monkeypatch.setattr(matching, "BLOCK_ENTRIES", bound)
        real, points = matching._reached_points, []

        def spy(*args):
            found = real(*args)
            points.append(len(found[0]))
            return found

        monkeypatch.setattr(matching, "_reached_points", spy)
        hits = [[True, False, True, True, False], [False] * 3, [True, False], [], [False] * 4,
                [False, True, True, False, True, True]]
        tp = np.array([h for hit in hits for h in hit])
        ignored = np.zeros_like(tp)
        ignored[5 + 3] = True  # the first entry of the curve of 2
        tp = np.stack([tp, tp & (np.arange(len(tp)) % 3 != 0)])
        ignored = np.stack([ignored, ignored])
        starts = np.cumsum([0] + [len(hit) for hit in hits[:-1]])
        n_pos = np.array([4, 2, 1, 3, 1, 5])
        grid = EvalConfig(recall_points=r_count).recall_grid()
        got = average_precision(tp, ignored, starts, n_pos, grid)
        assert got.tobytes() == self.reference(tp, ignored, starts, n_pos, grid).tobytes()
        assert (got[1:5] == 0.0).all() and (got[[0, 5]] > 0.0).all()
        assert points.count(0) >= 2 * (2 if bound == 7 else 4)

    def test_memory_layout_changes_nothing(self):
        rng = np.random.default_rng(37)
        grid = EvalConfig().recall_grid()
        for make in [self.curves] * 20 + [self.sparse_curves] * 5:
            tp, ignored, starts, n_pos = make(rng)
            c = average_precision(np.ascontiguousarray(tp), np.ascontiguousarray(ignored), starts, n_pos, grid)
            f = average_precision(np.asfortranarray(tp), np.asfortranarray(ignored), starts, n_pos, grid)
            # the transposed (N, T) view that a row-major gather yields
            v = average_precision(np.ascontiguousarray(tp.T).T, np.ascontiguousarray(ignored.T).T,
                                  starts, n_pos, grid)
            assert c.tobytes() == f.tobytes() == v.tobytes()

    def test_memory_stays_within_the_block_bound(self, monkeypatch):
        # a threshold row of 200,000 entries is 49 times the bound; the kernel's
        # temporaries must grow with the bound, not with the row
        import tracemalloc

        monkeypatch.setattr(matching, "BLOCK_ENTRIES", 1 << 12)
        rng = np.random.default_rng(41)
        starts = np.append(0, np.sort(rng.choice(np.arange(1, 200_000), 999, replace=False)))
        tp = rng.random((10, 200_000)) < 0.3
        ignored = rng.random(tp.shape) < 0.1
        n_pos = np.diff(np.append(starts, 200_000))
        grid = EvalConfig().recall_grid()
        tracemalloc.start()
        try:
            average_precision(tp, ignored, starts, n_pos, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, peak


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
                    for img in ds.images
                    for d in dset.for_image(img.id)
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
                (d.score for img in ds.images for d in dset.for_image(img.id)), default=1.0
            )
            extra = Detection(img_id, ds.category_ids[0], BBox(1e6, 1e6, 5, 5), low - 1.0)
            dets = [d for img in ds.images for d in dset.for_image(img.id)] + [extra]
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
