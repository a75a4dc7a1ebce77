import gc
import math
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zoneval import equilibrium
from zoneval.coco import BBox, Category, Dataset, GroundTruth, ImageInfo, iou, iou_matrix
from zoneval.equilibrium import (
    Anchor,
    AnchorSet,
    AssignConfig,
    anchor_grid,
    beta_assign,
    check_anchor_grid,
    object_density,
    se_loss_weight,
    sela_assign,
    spatial_weight,
    supervision_density,
)
from zoneval.errors import OutsideImageError
from zoneval.matching import BLOCK_ENTRIES
from zoneval.oracle import _overlap
from zoneval.zones import Annular, Custom, Grid, Partition, build_partition, normalize_points, parse_zone_spec

from datagen import random_benchmark


class TestSpatialWeight:
    def test_zero_at_center(self):
        assert spatial_weight(300, 300, 600, 600) == 0.0

    def test_one_at_corner(self):
        assert spatial_weight(0, 0, 600, 600) == 1.0

    def test_quarter_point(self):
        assert spatial_weight(150, 300, 600, 600) == 0.5

    def test_one_along_whole_boundary(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            t = float(rng.uniform(0, 600))
            assert spatial_weight(t, 0, 600, 600) == 1.0
            assert spatial_weight(t, 600, 600, 600) == 1.0
            assert spatial_weight(0, t, 600, 600) == 1.0
            assert spatial_weight(600, t, 600, 600) == 1.0

    def test_outside_image_rejected(self):
        with pytest.raises(OutsideImageError):
            spatial_weight(-1, 10, 600, 600)

    @pytest.mark.parametrize("size", [0.0, -600.0, math.inf, -math.inf, math.nan])
    def test_image_size_must_be_finite_and_positive(self, size):
        # (0.0, 0.0, 0.0, 10.0) and an infinite width returned nan with a RuntimeWarning;
        # the size is checked before the point, so an outside point gets the size's message
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x, y, w, h in [(0.0, 0.0, size, 10.0), (0.0, 0.0, 10.0, size), (-1.0, 5.0, size, 10.0),
                               (np.zeros(3), np.zeros(3), size, size)]:
                with pytest.raises(ValueError, match="^image width and height must be finite and > 0"):
                    spatial_weight(x, y, w, h)
                with pytest.raises(ValueError, match="^image width and height must be finite and > 0"):
                    se_loss_weight(x, y, w, h, 0.2)

    @given(
        u=st.floats(0, 1), v=st.floats(0, 1),
        w=st.floats(10, 2000), h=st.floats(10, 2000),
    )
    def test_range_property(self, u, v, w, h):
        a = spatial_weight(u * w, v * h, w, h)
        assert 0.0 <= a <= 1.0 + 1e-12

    @given(u=st.floats(0, 1), v=st.floats(0, 1))
    def test_eightfold_symmetry(self, u, v):
        # reflections and the diagonal swap leave the weight unchanged
        base = spatial_weight(u, v, 1.0, 1.0)
        variants = [
            spatial_weight(1.0 - u, v, 1.0, 1.0),
            spatial_weight(u, 1.0 - v, 1.0, 1.0),
            spatial_weight(1.0 - u, 1.0 - v, 1.0, 1.0),
            spatial_weight(v, u, 1.0, 1.0),
            spatial_weight(1.0 - v, u, 1.0, 1.0),
            spatial_weight(v, 1.0 - u, 1.0, 1.0),
            spatial_weight(1.0 - v, 1.0 - u, 1.0, 1.0),
        ]
        for other in variants:
            assert other == pytest.approx(base, abs=1e-12)


class TestSeLossWeight:
    def test_center_is_one(self):
        for gamma in (0.0, 0.2, 5.0):
            assert se_loss_weight(300, 300, 600, 600, gamma) == 1.0

    def test_corner_with_gamma(self):
        assert se_loss_weight(0, 0, 600, 600, 0.2) == pytest.approx(1.2)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -0.1])
    def test_bad_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite and >= 0"):
            se_loss_weight(0, 0, 600, 600, gamma)

    def test_gamma_zero_anywhere(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x, y = rng.uniform(0, 600, 2)
            assert se_loss_weight(x, y, 600, 600, 0.0) == 1.0


def make_gt(gid, bbox, img=1):
    return GroundTruth(gid, img, 1, bbox, bbox.area)


IMG = ImageInfo(id=1, width=600.0, height=600.0)


class TestSelaAssign:
    def test_boundary_iou_exactly_t_is_positive(self):
        g = make_gt(1, BBox(100, 100, 40, 40))
        # shifted copy with IoU exactly 1/3 >= t = 1/3
        a = Anchor.from_box(BBox(120, 100, 40, 40))
        res = sela_assign([a], [g], AssignConfig(t=1 / 3, gamma=0.0), IMG)
        assert res.positives[0] == (0,)

    def test_center_anchor_gets_no_relaxation(self):
        g = make_gt(1, BBox(280, 280, 40, 40))
        a = Anchor.from_box(BBox(290, 280, 40, 40))  # centered anchor, IoU 0.6
        t = 0.62
        assert sela_assign([a], [g], AssignConfig(t=t, gamma=0.3), IMG).positives[0] == ()

    def test_corner_anchor_gets_full_relaxation(self):
        # anchor centered exactly on the image corner: weight 1, cut = t - gamma
        corner = Anchor.from_box(BBox(-20, -20, 40, 40))
        g = make_gt(1, BBox(0, -20, 40, 40))  # IoU(anchor, gt) = 1/3 exactly
        strict = sela_assign([corner], [g], AssignConfig(t=2 / 3, gamma=0.0), IMG)
        relaxed = sela_assign([corner], [g], AssignConfig(t=2 / 3, gamma=1 / 3), IMG)
        assert strict.positives[0] == ()
        assert relaxed.positives[0] == (0,)  # IoU equals the relaxed cut 1/3

    def test_gamma_zero_is_plain_threshold(self):
        anchors = anchor_grid(IMG, 8, 8)
        gts = [make_gt(1, BBox(50, 50, 80, 80)), make_gt(2, BBox(400, 300, 90, 60))]
        res = sela_assign(anchors, gts, AssignConfig(t=0.4, gamma=0.0), IMG)
        from zoneval.coco import iou

        for gi, g in enumerate(gts):
            manual = tuple(
                ai for ai, a in enumerate(anchors) if iou(a.box, g.bbox) >= 0.4
            )
            assert res.positives[gi] == manual

    def test_negative_cut_rejected(self):
        with pytest.raises(ValueError):
            AssignConfig(t=0.3, gamma=0.4)

    @pytest.mark.parametrize("t,gamma", [(0.5, math.nan), (math.nan, 0.0), (0.5, math.inf)])
    def test_nan_thresholds_rejected(self, t, gamma):
        with pytest.raises(ValueError):
            AssignConfig(t=t, gamma=gamma)

    def test_superset_monotonicity_randomized(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            anchors = [
                Anchor.from_box(
                    BBox(rng.uniform(0, 540), rng.uniform(0, 540), rng.uniform(20, 60), rng.uniform(20, 60))
                )
                for _ in range(40)
            ]
            gts = [
                make_gt(i + 1, BBox(rng.uniform(0, 540), rng.uniform(0, 540), rng.uniform(20, 60), rng.uniform(20, 60)))
                for i in range(3)
            ]
            prev: dict[int, set] = {}
            for gamma in (0.0, 0.1, 0.2):
                res = sela_assign(anchors, gts, AssignConfig(t=0.3, gamma=gamma), IMG)
                for gi in range(len(gts)):
                    current = set(res.positives[gi])
                    if gi in prev:
                        assert prev[gi] <= current
                    prev[gi] = current

    def test_added_anchors_sit_away_from_center(self):
        # whatever gamma adds relative to gamma=0 must have positive weight
        anchors = anchor_grid(IMG, 10, 10)
        gts = [make_gt(1, BBox(10, 250, 70, 70))]
        base = set(sela_assign(anchors, gts, AssignConfig(t=0.3, gamma=0.0), IMG).positives[0])
        relaxed = set(sela_assign(anchors, gts, AssignConfig(t=0.3, gamma=0.25), IMG).positives[0])
        for ai in relaxed - base:
            a = anchors[ai]
            assert spatial_weight(a.center[0], a.center[1], IMG.width, IMG.height) > 0


class TestBetaAssign:
    def zone(self, which="out"):
        # central square [0.25, 0.75)^2 vs its complement
        p = build_partition(
            Custom(
                (
                    ("z_out", ((0.0, 0.0, 1.0, 0.25), (0.0, 0.75, 1.0, 1.0),
                               (0.0, 0.25, 0.25, 0.75), (0.75, 0.25, 1.0, 0.75))),
                    ("z_in", ((0.25, 0.25, 0.75, 0.75),)),
                )
            )
        )
        return p.zones_by_id["z_out" if which == "out" else "z_in"]

    def test_beta_zero_is_plain_threshold(self):
        anchors = anchor_grid(IMG, 6, 6)
        gts = [make_gt(1, BBox(80, 80, 90, 90))]
        a_res = beta_assign(anchors, gts, 0.45, 0.0, self.zone("in"), IMG)
        b_res = sela_assign(anchors, gts, AssignConfig(t=0.45, gamma=0.0), IMG)
        assert a_res.positives == b_res.positives

    def test_beta_one_wipes_out_zone(self):
        # even a perfect-IoU anchor inside the penalized zone stays negative
        g = make_gt(1, BBox(30, 30, 60, 60))  # center (60, 60): border zone
        perfect = Anchor.from_box(g.bbox)
        with pytest.warns(UserWarning):
            res = beta_assign([perfect], [g], 0.5, 1.0, self.zone("out"), IMG)
        assert res.positives[0] == ()

    @pytest.mark.parametrize("alpha_pos,beta", [(math.nan, 0.1), (0.5, math.nan), (0.5, -math.inf)])
    def test_non_finite_thresholds_rejected(self, alpha_pos, beta):
        g = make_gt(1, BBox(280, 280, 40, 40))
        with pytest.raises(ValueError, match="alpha_pos and beta must be finite"):
            beta_assign(anchor_grid(IMG, 2, 2), [g], alpha_pos, beta, self.zone("in"), IMG)

    def test_beta_raises_bar_inside_zone(self):
        g = make_gt(1, BBox(280, 280, 40, 40))  # central
        a = Anchor.from_box(BBox(290, 280, 40, 40))  # IoU 0.6, center in z_in
        res = beta_assign([a], [g], 0.5, 0.3, self.zone("in"), IMG)
        assert res.positives[0] == ()  # 0.6 < 0.8
        res2 = beta_assign([a], [g], 0.5, 0.05, self.zone("in"), IMG)
        assert res2.positives[0] == (0,)


class TestDensity:
    def test_uniform_centers_give_equal_grid_density(self):
        rng = np.random.default_rng(4)
        images = [ImageInfo(id=1, width=1000.0, height=1000.0)]
        gts = [
            GroundTruth(i + 1, 1, 1, BBox(rng.uniform(0, 990), rng.uniform(0, 990), 10, 10), 100.0)
            for i in range(8000)
        ]
        ds = Dataset(images, [Category(1, "c")], gts)
        report = object_density(ds, build_partition(Grid(2, 2)))
        densities = report.densities()
        assert max(densities) / min(densities) < 1.15  # sampling noise only

    def test_counts_sum_to_gt_total(self, mini_dataset):
        report = object_density(mini_dataset, build_partition(Annular(5)))
        assert sum(report.counts()) == len(mini_dataset.ground_truths)

    def test_four_zone_toy_absolute_densities(self):
        # 10 x 8 image split into cells of 16, 24, 28 and 12 px^2
        # holding 1, 2, 3 and 1 object centers
        p = build_partition(
            Custom(
                (
                    ("q1", ((0.0, 0.0, 0.4, 0.5),)),
                    ("q2", ((0.4, 0.0, 1.0, 0.5),)),
                    ("q3", ((0.0, 0.5, 0.7, 1.0),)),
                    ("q4", ((0.7, 0.5, 1.0, 1.0),)),
                )
            )
        )
        images = [ImageInfo(id=1, width=10.0, height=8.0)]
        centers = [(2, 2), (5, 1), (8, 3), (1, 6), (3, 7), (5, 5), (8, 6)]
        gts = [
            GroundTruth(i + 1, 1, 1, BBox(cx - 0.5, cy - 0.5, 1, 1), 1.0)
            for i, (cx, cy) in enumerate(centers)
        ]
        ds = Dataset(images, [Category(1, "c")], gts)
        report = object_density(ds, p, absolute=True)
        by_zone = {z.zone_id: z for z in report.zones}
        assert by_zone["q1"].count == 1 and by_zone["q1"].area == pytest.approx(16)
        assert by_zone["q2"].count == 2 and by_zone["q2"].area == pytest.approx(24)
        assert by_zone["q3"].count == 3 and by_zone["q3"].area == pytest.approx(28)
        assert by_zone["q4"].count == 1 and by_zone["q4"].area == pytest.approx(12)
        assert by_zone["q1"].density == pytest.approx(1 / 16)
        assert by_zone["q2"].density == pytest.approx(2 / 24)
        assert by_zone["q3"].density == pytest.approx(3 / 28)
        assert by_zone["q4"].density == pytest.approx(1 / 12)

    def test_centralized_distribution_rises_toward_center(self):
        from zoneval.synth import QualityProfile, ZoneQuality, synthetic_benchmark
        from zoneval.analysis import spearman

        p = build_partition(Annular(50))
        profile = QualityProfile(
            {z.id: ZoneQuality(recall=1.0) for z in p.zones}, rng_seed=12
        )
        ds, _, _ = synthetic_benchmark(40, 20000, 3.0, profile, p)
        report = object_density(ds, p)
        densities = report.densities()
        # ring index grows toward the center; density must follow
        assert spearman(list(range(50)), densities) > 0.9

    def test_absolute_mode_needs_uniform_sizes(self):
        images = [ImageInfo(id=1, width=10, height=10), ImageInfo(id=2, width=20, height=10)]
        ds = Dataset(images, [Category(1, "c")], [])
        with pytest.raises(ValueError):
            object_density(ds, build_partition(Grid(1, 1)), absolute=True)


class TestSupervisionDensity:
    def test_no_anchors_all_zero(self):
        p = build_partition(Annular(3))
        res = sela_assign([], [], AssignConfig(t=0.5, gamma=0.1), IMG)
        report = supervision_density(res, p, IMG)
        assert report.counts() == [0, 0, 0]

    def test_border_positives_grow_with_gamma(self):
        p = build_partition(Annular(5))
        anchors = anchor_grid(IMG, 20, 20, box_size=60.0)
        g = make_gt(1, BBox(5, 270, 60, 60))  # border object on the left edge
        base = supervision_density(
            sela_assign(anchors, [g], AssignConfig(t=0.35, gamma=0.0), IMG), p, IMG
        )
        relaxed = supervision_density(
            sela_assign(anchors, [g], AssignConfig(t=0.35, gamma=0.2), IMG), p, IMG
        )
        assert relaxed.zones[0].count > base.zones[0].count

    def test_beta_one_empties_target_zone(self):
        p = build_partition(Annular(2))
        outer = p.zones_by_id["z0,1"]
        anchors = anchor_grid(IMG, 12, 12, box_size=60.0)
        gts = [make_gt(1, BBox(10, 10, 60, 60)), make_gt(2, BBox(280, 280, 60, 60))]
        with pytest.warns(UserWarning):
            res = beta_assign(anchors, gts, 0.5, 1.0, outer, IMG)
        report = supervision_density(res, p, IMG)
        assert report.zones[0].count == 0


class TestAnchorGrid:
    def test_grid_shape_and_centers(self):
        anchors = anchor_grid(IMG, 8, 8)
        assert len(anchors) == 64
        assert anchors[0].center == (37.5, 37.5)
        assert anchors[-1].center == (562.5, 562.5)

    def test_center_consistency_invariant(self):
        from zoneval.coco import bbox_center

        for a in anchor_grid(IMG, 5, 3, box_size=40.0):
            assert bbox_center(a.box) == pytest.approx(a.center)

    @pytest.mark.parametrize("bad", [True, np.True_, False, 2.5, 3.0, "3", None])
    def test_counts_must_be_integers(self, bad):
        # True built a 1-column lattice, 2.5 failed inside np.column_stack, "3" raised TypeError
        for cols, rows, name in ((bad, 3, "cols"), (3, bad, "rows")):
            for check in (lambda: anchor_grid(IMG, cols, rows), lambda: check_anchor_grid(cols, rows, None)):
                with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
                    check()

    def test_numpy_counts_share_the_int_lattice(self):
        assert check_anchor_grid(np.int64(8), np.int32(6), None) == (8, 6, None)
        assert all(type(n) is int for n in check_anchor_grid(np.int64(8), np.uint8(6), None)[:2])
        img = ImageInfo(1, 640.0, 480.0)
        lattice = anchor_grid(img, 8, 6)
        assert anchor_grid(img, np.int64(8), np.int16(6)) is lattice
        assert anchor_grid(img, np.uint64(8), 6) is lattice


def old_lattice(img, cols, rows, box_size=None):
    """The per-cell loop ``anchor_grid`` ran before it built arrays: ``(center, xywh)`` per anchor."""
    pitch_x = img.width / cols
    pitch_y = img.height / rows
    size = box_size if box_size is not None else min(pitch_x, pitch_y)
    lattice = []
    for r in range(rows):
        cy = (r + 0.5) * pitch_y
        for c in range(cols):
            cx = (c + 0.5) * pitch_x
            lattice.append(((cx, cy), (cx - size / 2, cy - size / 2, size, size)))
    return lattice


def scalar_reference(anchors, boxes, cut_of, partition, img):
    """Positives, positive anchors and per-zone counts, one anchor and one box at a time."""
    positives = {
        gi: tuple(ai for ai, a in enumerate(anchors) if iou(a.box, BBox(*box)) >= cut_of(a))
        for gi, box in enumerate(boxes)
    }
    indices = sorted({ai for idxs in positives.values() for ai in idxs})
    counts = [0] * len(partition.zones)
    for ai in indices:
        u, v = unit_point(anchors[ai].center, img)
        (k,) = [k for k, z in enumerate(partition.zones) if z.contains(u, v)]
        counts[k] += 1
    return positives, indices, counts


def unit_point(center, img):
    """A pixel point clamped into the image and scaled to [0, 1), as zones see it."""
    below_one = np.nextafter(1.0, 0.0)
    return tuple(min(min(max(p, 0.0), side) / side, below_one)
                 for p, side in zip(center, (img.width, img.height)))


def random_anchors(rng, img, n):
    """Hand-built anchors whose given center may differ from x + w / 2 in the last bit."""
    anchors = []
    for _ in range(n):
        cx, cy = rng.uniform(0, img.width), rng.uniform(0, img.height)
        w, h = rng.uniform(5, 120, 2)
        anchors.append(Anchor((cx, cy), BBox(cx - w / 2, cy - h / 2, w, h)))
    return anchors


class TestArrayPathEquivalence:
    """The array path against a per-anchor scalar reference on random instances."""

    SPECS = ("annular:3", "grid:3x4", "strip-x:2", "annular:5")

    def instances(self):
        rng = np.random.default_rng(2024)
        for trial in range(80):
            img = ImageInfo(1, float(rng.uniform(40, 700)), float(rng.uniform(40, 700)))
            if trial % 2:
                cols, rows = (int(v) for v in rng.integers(1, 10, 2))
                size = None if trial % 4 == 1 else float(rng.uniform(4, 150))
                anchors = anchor_grid(img, cols, rows, size)
            else:
                anchors = random_anchors(rng, img, int(rng.integers(0, 30)))
            m = int(rng.integers(0, 6))
            wh = rng.uniform(5, 200, (m, 2))
            xy = rng.uniform(-0.2, 1.0, (m, 2)) * [img.width, img.height]
            # half of them are jittered anchor boxes, so that positives occur
            near = [anchors[int(i)].box for i in rng.integers(0, len(anchors), m // 2)] if len(anchors) else []
            boxes = np.array([[b.x + rng.normal(0, 0.1 * b.w), b.y + rng.normal(0, 0.1 * b.h),
                               b.w * rng.uniform(0.7, 1.4), b.h * rng.uniform(0.7, 1.4)] for b in near]
                             + np.column_stack([xy, wh]).tolist()).reshape(-1, 4)
            partition = build_partition(parse_zone_spec(self.SPECS[trial % len(self.SPECS)]))
            yield rng, img, anchors, boxes, partition

    @staticmethod
    def gts(boxes):
        return [GroundTruth(i + 1, 1, 1, BBox(*b), float(b[2] * b[3])) for i, b in enumerate(boxes.tolist())]

    def check(self, result, anchors, boxes, cut_of, partition, img):
        positives, indices, counts = scalar_reference(anchors, boxes, cut_of, partition, img)
        assert result.positives == positives
        assert result.positive_anchor_indices() == indices
        assert supervision_density(result, partition, img).counts() == counts
        assert [a.center for a in result.anchors] == [a.center for a in anchors]

    def test_sela_matches_scalar_reference(self):
        for rng, img, anchors, boxes, partition in self.instances():
            cfg = AssignConfig(t=float(rng.uniform(0.2, 0.7)), gamma=float(rng.uniform(0, 0.2)))

            def cut_of(a):
                return cfg.t - cfg.gamma * spatial_weight(a.center[0], a.center[1], img.width, img.height)

            for gts in (boxes, self.gts(boxes)):
                self.check(sela_assign(anchors, gts, cfg, img), anchors, boxes, cut_of, partition, img)

    def test_beta_matches_scalar_reference(self):
        for rng, img, anchors, boxes, partition in self.instances():
            zone = partition.zones[int(rng.integers(0, len(partition.zones)))]
            alpha_pos, beta = float(rng.uniform(0.2, 0.6)), float(rng.uniform(-0.1, 0.3))

            def cut_of(a):
                return alpha_pos + beta if zone.contains(*unit_point(a.center, img)) else alpha_pos

            for gts in (boxes, self.gts(boxes)):
                result = beta_assign(anchors, gts, alpha_pos, beta, zone, img)
                self.check(result, anchors, boxes, cut_of, partition, img)

    def test_empty_inputs(self):
        p = build_partition(Annular(3))
        for anchors, gts in [([], []), ([], np.zeros((0, 4))), (anchor_grid(IMG, 3, 2), np.zeros((0, 4))),
                             ([Anchor.from_box(BBox(10, 10, 20, 20))], [])]:
            result = sela_assign(anchors, gts, AssignConfig(t=0.5, gamma=0.1), IMG)
            assert result.hits.shape == (len(anchors), len(gts))
            assert result.positives == {} and result.positive_anchor_indices() == []
            assert supervision_density(result, p, IMG).counts() == [0, 0, 0]

    def test_lattice_floats_match_old_loop(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            img = ImageInfo(1, float(rng.uniform(1, 2000)), float(rng.uniform(1, 2000)))
            cols, rows = (int(v) for v in rng.integers(1, 17, 2))
            size = None if rng.random() < 0.5 else float(rng.uniform(1, 300))
            anchors = anchor_grid(img, cols, rows, size)
            want = old_lattice(img, cols, rows, size)
            got = [(a.center, (a.box.x, a.box.y, a.box.w, a.box.h)) for a in anchors]
            assert got == want  # exact floats, not approx
            n = len(want)
            assert len(anchors) == n
            for i in (0, n - 1, -1, -n):
                assert (anchors[i].center, anchors[i].box) == (want[i][0], BBox(*want[i][1]))
            with pytest.raises(IndexError):
                anchors[n]
            with pytest.raises(IndexError):
                anchors[-n - 1]


class TestAnchorSet:
    def test_arrays_are_read_only(self):
        anchors = anchor_grid(IMG, 4, 3)
        with pytest.raises(ValueError):
            anchors.boxes[0, 0] = 1.0
        with pytest.raises(ValueError):
            anchors.centers[0, 0] = 1.0
        with pytest.raises(AttributeError):
            anchors.boxes = np.zeros((12, 4))

    def test_constructor_copies_and_checks_rows(self):
        boxes = np.array([[0.0, 0.0, 10.0, 10.0]])
        anchors = AnchorSet(boxes, [(5.0, 5.0)])
        boxes[0, 0] = 99.0
        assert anchors[0].box == BBox(0.0, 0.0, 10.0, 10.0)
        with pytest.raises(ValueError, match="1 anchor boxes but 2 centers"):
            AnchorSet(boxes, [(5.0, 5.0), (6.0, 6.0)])

    def test_slices_are_not_indices(self):
        with pytest.raises(TypeError):
            anchor_grid(IMG, 4, 3)[1:3]

    @pytest.mark.parametrize("shape", [(4,), (2, 5), (3, 4, 1)])
    def test_ground_truth_array_must_be_m_by_4(self, shape):
        with pytest.raises(ValueError, match=r"\(M, 4\) xywh array"):
            sela_assign(anchor_grid(IMG, 2, 2), np.ones(shape), AssignConfig(t=0.5), IMG)


def test_array_path_builds_no_anchor_or_bbox(monkeypatch):
    """anchor_grid -> sela_assign / beta_assign -> supervision_density on an (M, 4) array: no objects."""
    built = []
    for cls in (Anchor, BBox):
        def counting(self, _check=cls.__post_init__):
            built.append(type(self).__name__)
            _check(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    img = ImageInfo(1, 640.0, 480.0)
    partition = build_partition(Annular(5))
    gts = np.array([[10.0, 10.0, 80.0, 60.0], [300.0, 200.0, 120.0, 90.0], [560.0, 400.0, 90.0, 90.0]])
    anchors = anchor_grid(img, 16, 12, box_size=64.0)
    results = [sela_assign(anchors, gts, AssignConfig(t=0.4, gamma=0.2), img),
               beta_assign(anchors, gts, 0.3, 0.2, partition.zones[-1], img)]
    counts = []
    for result in results:
        assert result.positives and result.positive_anchor_indices()
        counts += supervision_density(result, partition, img).counts()
    assert built == []
    assert sum(counts) > 0
    anchors[-1]  # the counter does see a view built on demand
    assert built == ["BBox", "Anchor"]


class TestAnchorSetRows:
    @pytest.mark.parametrize("box,center", [
        ([0.0, 0.0, -5.0, 10.0], [5.0, 5.0]),  # negative side
        ([0.0, 0.0, 10.0, 0.0], [5.0, 5.0]),  # zero side
        ([0.0, 0.0, 10.0, 10.0], [math.nan, 5.0]),
        ([0.0, math.inf, 10.0, 10.0], [5.0, 5.0]),
        ([0.0, 0.0, math.nan, 10.0], [5.0, 5.0]),
        ([0.0, 0.0, 10.0, 10.0], [5.0, -math.inf]),
        ([1e308, 0.0, 1e308, 10.0], [5.0, 5.0]),  # finite values, infinite far corner
        ([0.0, 0.0, 1e200, 1e200], [5.0, 5.0]),  # finite sides, infinite area
    ])
    def test_bad_row_rejected_by_index(self, box, center):
        good = [0.0, 0.0, 10.0, 10.0]
        with pytest.raises(ValueError, match=r"anchor 1: .* must be finite, with positive sides and a finite far corner"):
            AnchorSet([good, box, box], [[5.0, 5.0], center, center])

    def test_anchor_with_nan_center_rejected_on_entry(self):
        # Anchor's own center check lets a NaN through; the array path must not
        nan_anchor = Anchor((math.nan, math.nan), BBox(500.0, 500.0, 10.0, 10.0))
        g = make_gt(1, BBox(10, 10, 40, 40))
        zone = build_partition(Annular(2)).zones[0]
        with pytest.raises(ValueError, match="anchor 0"):
            sela_assign([nan_anchor], [g], AssignConfig(t=0.5), IMG)
        with pytest.raises(ValueError, match="anchor 0"):
            beta_assign([nan_anchor], [g], 0.5, 0.1, zone, IMG)

    def test_empty_set_is_fine(self):
        assert len(AnchorSet(np.zeros((0, 4)), np.zeros((0, 2)))) == 0


class TestGroundTruthArrayRows:
    """An (M, 4) ground-truth array is held to ``BBox``'s box rule, row by row, by both rules."""

    IMG = ImageInfo(1, 640.0, 480.0)
    GOOD = [25.0, 5.0, 110.0, 110.0]  # near the first anchor box, [20, 0, 120, 120]

    def assign(self, rule, gts):
        anchors = anchor_grid(self.IMG, 4, 4)
        if rule == "sela":
            return sela_assign(anchors, gts, AssignConfig(t=0.3, gamma=0.3), self.IMG)
        return beta_assign(anchors, gts, 0.3, 0.1, build_partition(Annular(3)).zones[0], self.IMG)

    @pytest.mark.parametrize("rule", ["sela", "beta"])
    @pytest.mark.parametrize("bad", [
        [math.nan, 0.0, 10.0, 10.0],
        [0.0, 0.0, -10.0, 10.0],
        [0.0, 0.0, math.inf, 10.0],
        [10.0, 10.0, 0.0, 0.0],
        [1e308, 0.0, 1e308, 10.0],  # finite values, infinite far corner
        [0.0, 0.0, 1e200, 1e200],  # finite sides, infinite area
        [0.0, 0.0, 1.3e154, 1.3e154],  # a finite area whose double overflows
    ])
    def test_bad_row_rejected_by_index(self, rule, bad):
        # each used to run and score no hit for the row
        message = (r"^ground truth 1: box \[.*\] must be finite, with positive sides and a finite far corner and area,"
                   r" and an area from its corners of at most half the float maximum$")
        with pytest.raises(ValueError, match=message):
            self.assign(rule, np.array([self.GOOD, bad, bad]))

    @pytest.mark.parametrize("rule", ["sela", "beta"])
    def test_accepted_rows_still_score(self, rule):
        result = self.assign(rule, np.array([self.GOOD, [1e-300, 0.0, 5e-324, 1e-300], [-0.0, 0.0, 9e153, 9e153]]))
        assert result.hits.shape == (16, 3) and result.hits[:, 0].any()


class TestBothBroadcastOrientations:
    """Fewer anchors than ground truths and more, each hit recounted with the oracle's scalar IoU."""

    IMG = ImageInfo(1, 640.0, 480.0)
    PARTITIONS = [build_partition(parse_zone_spec(s)) for s in ("annular:5", "grid:3x4")]

    def ground_truths(self):
        """30 boxes: jittered anchor boxes of both lattices, so that each gets hits, and random ones."""
        rng = np.random.default_rng(40)
        near = [anchor_grid(self.IMG, 12, 12).boxes[rng.integers(0, 144, 10)],
                anchor_grid(self.IMG, 1, 2).boxes[rng.integers(0, 2, 10)]]
        jittered = [b + rng.normal(0, 0.08, b.shape) * b[:, [2, 3, 2, 3]] for b in near]
        wh = rng.uniform(10, 300, (10, 2))
        random = np.column_stack([rng.uniform(0, 1, (10, 2)) * [640.0, 480.0] - wh / 2, wh])
        return np.concatenate(jittered + [random])

    def recount(self, anchors, boxes, cut, partition):
        hits = np.array([[_overlap(anchors[i].box, BBox(*b)) >= cut[i] for b in boxes.tolist()]
                         for i in range(len(anchors))])
        counts = [0] * len(partition.zones)
        for i in np.flatnonzero(hits.any(axis=1)):
            (k,) = [k for k, z in enumerate(partition.zones) if z.contains(*unit_point(anchors[i].center, self.IMG))]
            counts[k] += 1
        return hits, counts

    @pytest.mark.parametrize("cols,rows", [(1, 2), (12, 12)])
    def test_hits_and_counts_equal_the_oracle_recount(self, cols, rows):
        anchors, boxes = anchor_grid(self.IMG, cols, rows), self.ground_truths()
        # the longer operand is broadcast along the contiguous axis: 144 anchors take the transposed view
        assert iou_matrix(anchors.boxes, boxes).flags.c_contiguous == (len(anchors) <= len(boxes))
        weight = spatial_weight(*anchors.centers.T, self.IMG.width, self.IMG.height)
        us, vs = normalize_points(*anchors.centers.T, self.IMG.width, self.IMG.height)
        for partition in self.PARTITIONS:
            zone = partition.zones[-1]
            cases = [(sela_assign(anchors, boxes, AssignConfig(t=0.5, gamma=0.25), self.IMG), 0.5 - 0.25 * weight),
                     (beta_assign(anchors, boxes, 0.4, 0.2, zone, self.IMG), np.where(zone.contains(us, vs), 0.6, 0.4))]
            for result, cut in cases:
                hits, counts = self.recount(anchors, boxes, cut.tolist(), partition)
                assert result.hits.shape == (cols * rows, 30) and hits.any() and not hits.all()
                assert np.array_equal(result.hits, hits)
                assert supervision_density(result, partition, self.IMG).counts() == counts


class TestPerShapeCaches:
    """One lattice per shape; every anchor set holds only its last weights, zone index and IoU matrix."""

    GTS = np.array([[10.0, 10.0, 80.0, 60.0], [300.0, 200.0, 120.0, 90.0], [560.0, 400.0, 70.0, 70.0]])

    def test_equal_shapes_share_one_anchor_set(self):
        a = anchor_grid(ImageInfo(1, 640.0, 480.0), 8, 6, 64.0)
        assert anchor_grid(ImageInfo(2, 640.0, 480.0, "other.jpg"), 8, 6, 64.0) is a
        assert anchor_grid(ImageInfo(1, 640.0, 480.0), 8, 6) is anchor_grid(ImageInfo(3, 640.0, 480.0), 8, 6)

    @pytest.mark.parametrize("img,cols,rows,size", [
        (ImageInfo(1, 480.0, 640.0), 8, 6, 64.0),  # transposed image
        (ImageInfo(1, 640.0, 480.0), 6, 8, 64.0),
        (ImageInfo(1, 640.0, 480.0), 8, 6, 32.0),
        (ImageInfo(1, 640.0, 480.0), 8, 6, None),
    ])
    def test_different_shapes_get_their_own_set(self, img, cols, rows, size):
        base = anchor_grid(ImageInfo(1, 640.0, 480.0), 8, 6, 64.0)
        other = anchor_grid(img, cols, rows, size)
        assert other is not base
        assert anchor_grid(img, cols, rows, size) is other

    @pytest.mark.parametrize("img,size", [
        (ImageInfo(1, 640, 480), 64.0),  # int sizes
        (ImageInfo(1, 640.0, 480.0), 64),  # int box side
        (ImageInfo(1, np.float64(640.0), np.int64(480)), np.float64(64.0)),
    ])
    def test_equal_sizes_of_other_types_share_the_set(self, img, size):
        # the sizes are keyed by value, as floats: each of these built a lattice of its own
        # while the cache keyed them by type
        assert check_anchor_grid(8, 6, size) == (8, 6, 64.0) and type(check_anchor_grid(8, 6, size)[2]) is float
        assert anchor_grid(img, 8, 6, size) is anchor_grid(ImageInfo(1, 640.0, 480.0), 8, 6, 64.0)
        assert len({id(anchor_grid(IMG, 3, 3, b)) for b in (8, 8.0, np.float64(8.0))}) == 1

    def test_lattice_arguments_checked_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="anchor grid needs"):
                anchor_grid(IMG, 0, 3)
            with pytest.raises(ValueError, match="anchor box side"):
                anchor_grid(IMG, 3, 3, box_size=math.nan)

    def test_held_arrays_reject_writes(self):
        img = ImageInfo(1, 640.0, 480.0)
        lattice = anchor_grid(img, 8, 6, 64.0)
        partition = build_partition(Annular(3))
        for anchors in (lattice, AnchorSet(lattice.boxes, lattice.centers)):
            result = sela_assign(anchors, self.GTS, AssignConfig(t=0.4, gamma=0.2), img)
            supervision_density(result, partition, img)
            held = [a for _, a in anchors._held.values()]
            assert len(held) == 3 and anchors._held["iou"][1].shape == (48, 3)
            for a in held + [anchors.boxes, anchors.centers]:
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 1
            result.hits[0, 0] = not result.hits[0, 0]  # the hit matrix stays the caller's own

    def test_caller_built_sets_die_with_their_arrays(self):
        img = ImageInfo(1, 640.0, 480.0)
        lattice = anchor_grid(img, 8, 6, 64.0)
        partition = build_partition(Annular(3))
        refs = []
        for k in range(3):  # caller-built sets, equal to the lattice and not, listed or as arrays
            own = AnchorSet(lattice.boxes + [k, k, 0, 0], lattice.centers + k)
            for anchors in (own, list(own)):
                result = sela_assign(anchors, self.GTS, AssignConfig(t=0.4, gamma=0.2), img)
                supervision_density(result, partition, img)
                assert result.anchors is not lattice and len(result.anchors._held) == 3
                refs += [weakref.ref(result.anchors)] + [weakref.ref(a) for _, a in result.anchors._held.values()]
            del own, anchors, result
        gc.collect()
        assert [r() for r in refs] == [None] * len(refs)  # nothing keeps a caller's anchors or arrays alive

    def test_a_lattice_holds_one_array_per_kind(self):
        img = ImageInfo(1, 640.0, 480.0)
        lattice = anchor_grid(img, 8, 6, 64.0)
        result = sela_assign(lattice, self.GTS, AssignConfig(t=0.4, gamma=0.2), img)
        refs = []
        zones = build_partition(Annular(3)).zones
        for _ in range(50):  # fresh partitions: build_partition would share one
            partition = Partition(Annular(3), zones)
            supervision_density(result, partition, img)
            refs.append(weakref.ref(partition))
        del partition
        gc.collect()
        assert [r() is not None for r in refs] == [False] * 49 + [True]  # only the last partition's index
        assert sorted(lattice._held) == ["iou", "weight", "zones"]

        # two partitions and two image sizes alternate, so each step's key differs from the last step's
        partitions = [build_partition(parse_zone_spec(s)) for s in ("annular:3", "grid:3x4")]
        sizes = [img, ImageInfo(2, 800.0, 600.0)]
        for i in range(8):
            im, partition = sizes[i % 2], partitions[i // 2 % 2]
            for _ in range(2):  # a repeated key reads the held arrays
                result = sela_assign(lattice, self.GTS, AssignConfig(t=0.4, gamma=0.3), im)
                weight = spatial_weight(*lattice.centers.T, im.width, im.height)
                assert np.array_equal(result.hits, iou_matrix(lattice.boxes, self.GTS) >= (0.4 - 0.3 * weight)[:, None])
                xs, ys = lattice.centers[result.hits.any(axis=1)].T
                want = np.bincount(partition.assign(xs, ys, im.width, im.height), minlength=len(partition.zones))
                assert supervision_density(result, partition, im).counts() == want.tolist()
            assert lattice._held["weight"][0] == (im.width, im.height)
            assert lattice._held["zones"][0][2] is partition and len(lattice._held) == 3

    def test_threads_sharing_a_lattice_get_their_own_keys_arrays(self):
        img = ImageInfo(1, 640.0, 480.0)
        lattice = anchor_grid(img, 8, 6, 64.0)
        partitions = [build_partition(parse_zone_spec(s)) for s in ("annular:3", "grid:3x4")]
        sizes = [img, ImageInfo(2, 800.0, 600.0)]
        want = {}
        for im in sizes:
            weight = spatial_weight(*lattice.centers.T, im.width, im.height)
            hits = iou_matrix(lattice.boxes, self.GTS) >= (0.4 - 0.3 * weight)[:, None]
            for k, partition in enumerate(partitions):
                xs, ys = lattice.centers[hits.any(axis=1)].T
                counts = np.bincount(partition.assign(xs, ys, im.width, im.height), minlength=len(partition.zones))
                want[im.id, k] = hits, counts.tolist()
        wrong = []

        def work(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(400):
                    im, k = sizes[rng.integers(2)], int(rng.integers(2))
                    result = sela_assign(lattice, self.GTS, AssignConfig(t=0.4, gamma=0.3), im)
                    counts = supervision_density(result, partitions[k], im).counts()
                    hits, expected = want[im.id, k]
                    if not (np.array_equal(result.hits, hits) and counts == expected):
                        wrong.append((im.id, k))
            except Exception as e:  # a thread's exception is otherwise only printed
                wrong.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_hits_equal_a_direct_threshold_on_repeated_calls(self):
        img = ImageInfo(1, 640.0, 480.0)
        lattice = anchor_grid(img, 12, 9, 64.0)
        zone = build_partition(Annular(3)).zones[-1]
        near = self.GTS.copy()
        near[1, 2] += 1e-9
        as_list = [make_gt(i + 1, BBox(*b)) for i, b in enumerate(self.GTS.tolist())]
        for anchors in (lattice, AnchorSet(lattice.boxes, lattice.centers), list(lattice)):
            weight = spatial_weight(*lattice.centers.T, img.width, img.height)
            in_zone = zone.contains(*normalize_points(*lattice.centers.T, img.width, img.height))
            results = []
            for gts, rule in [(self.GTS, AssignConfig(t=0.4, gamma=0.0)), (self.GTS, AssignConfig(t=0.4, gamma=0.3)),
                              (near, AssignConfig(t=0.4, gamma=0.3)), (as_list, AssignConfig(t=0.4, gamma=0.3)),
                              (np.asfortranarray(self.GTS), (0.3, 0.2)), (self.GTS[:2], (0.3, 0.2))]:
                if isinstance(rule, AssignConfig):
                    result = sela_assign(anchors, gts, rule, img)
                    cut = rule.t - rule.gamma * weight
                else:
                    result = beta_assign(anchors, gts, *rule, zone, img)
                    cut = np.where(in_zone, rule[0] + rule[1], rule[0])
                boxes = self.GTS if gts is as_list else gts
                assert np.array_equal(result.hits, iou_matrix(lattice.boxes, boxes) >= cut[:, None])
                results.append(result)
            assert results[1].hits.any() and not np.array_equal(results[0].hits, results[1].hits)
            for i, r in enumerate(results):
                for other in results[i + 1:]:
                    assert not np.shares_memory(r.hits, other.hits)

    def test_supervision_density_counts_equal_a_direct_lookup(self):
        rng = np.random.default_rng(5)
        partitions = [build_partition(parse_zone_spec(s)) for s in ("annular:5", "grid:3x4", "strip-y:3")]
        for trial in range(30):
            img = ImageInfo(1, float(rng.choice([320.0, 640.0])), float(rng.choice([240.0, 480.0])))
            anchors = anchor_grid(img, int(rng.integers(2, 12)), int(rng.integers(2, 12)), 64.0)
            wh = rng.uniform(20, 150, (5, 2))
            gts = np.column_stack([rng.uniform(0, 1, (5, 2)) * [img.width, img.height] - wh / 2, wh])
            result = sela_assign(anchors, gts, AssignConfig(t=0.3, gamma=float(rng.uniform(0, 0.3))), img)
            for partition in partitions:
                xs, ys = anchors.centers[result.hits.any(axis=1)].T
                want = np.bincount(partition.assign(xs, ys, img.width, img.height), minlength=len(partition.zones))
                assert supervision_density(result, partition, img).counts() == want.tolist()

    def test_errors_repeat_on_every_call(self):
        outside = AnchorSet([[-30.0, 10.0, 20.0, 20.0]], [[-20.0, 20.0]])
        for _ in range(2):
            with pytest.raises(OutsideImageError):
                sela_assign(outside, self.GTS, AssignConfig(t=0.5, gamma=0.1), IMG)


@pytest.fixture
def iou_builds(monkeypatch):
    """The (anchors, ground truths) shape of every IoU matrix the rules compute."""
    shapes = []

    def spy(a, b):
        shapes.append((len(a), len(b)))
        return iou_matrix(a, b)

    monkeypatch.setattr(equilibrium, "iou_matrix", spy)
    return shapes


class TestHeldIoU:
    """An anchor set holds its IoU with the last ground-truth boxes, keyed by their bytes."""

    def test_one_matrix_per_image_for_a_gamma_sweep(self, iou_builds):
        ds, _ = random_benchmark(6, 12, 1, seed=3)
        zone = build_partition(Annular(3)).zones[-1]
        for k, img in enumerate(ds.images):
            lattice = anchor_grid(img, 12, 12)
            rows = ds.gt_box[ds.gt_starts[k]:ds.gt_starts[k + 1]]
            for gts in (ds.gts_by_image[img.id], rows):  # a list is turned into the same bytes
                for gamma in (0.0, 0.1, 0.2, 0.3):
                    sela_assign(lattice, gts, AssignConfig(t=0.5, gamma=gamma), img)
                beta_assign(lattice, gts, 0.4, 0.2, zone, img)
            assert iou_builds == [(144, 12)] * (k + 1)

    def test_hits_equal_a_fresh_sets_bit_for_bit(self):
        ds, _ = random_benchmark(20, 30, 1, seed=11)
        zones = build_partition(Grid(3, 3)).zones
        for k, img in enumerate(ds.images):
            lattice = anchor_grid(img, 16, 12)
            rows = ds.gt_box[ds.gt_starts[k]:ds.gt_starts[k + 1]]
            for gts in (rows, ds.gts_by_image[img.id]):
                for gamma in (0.0, 0.1, 0.2, 0.3):
                    cfg = AssignConfig(t=0.5, gamma=gamma)
                    fresh = AnchorSet(lattice.boxes, lattice.centers)  # computes its own IoU matrix
                    assert np.array_equal(sela_assign(lattice, gts, cfg, img).hits,
                                          sela_assign(fresh, gts, cfg, img).hits)
                fresh, zone = AnchorSet(lattice.boxes, lattice.centers), zones[k % len(zones)]
                assert np.array_equal(beta_assign(lattice, gts, 0.3, 0.3, zone, img).hits,
                                      beta_assign(fresh, gts, 0.3, 0.3, zone, img).hits)
            assert lattice._held["iou"][1].tobytes() == iou_matrix(lattice.boxes, rows).tobytes()

    def test_other_bytes_rebuild_the_matrix(self, iou_builds):
        img = ImageInfo(1, 640.0, 480.0)
        lattice = anchor_grid(img, 8, 6, 64.0)
        gts = np.array([[0.0, 0.0, 80.0, 60.0], [300.0, 200.0, 120.0, 90.0], [560.0, 400.0, 70.0, 70.0]])
        nudged, signed = gts.copy(), gts.copy()
        nudged[1, 2] = np.nextafter(nudged[1, 2], math.inf)
        signed[0, 0] = -0.0  # equal to 0.0, other bytes
        weight = spatial_weight(*lattice.centers.T, img.width, img.height)
        cfg = AssignConfig(t=0.4, gamma=0.2)
        # equal bytes (a copy, a Fortran-ordered copy) read the held matrix; other bytes rebuild it
        as_list = [make_gt(i + 1, BBox(*b)) for i, b in enumerate(gts[:2].tolist())]
        for given, boxes, builds in [(gts, gts, 1), (gts.copy(), gts, 1), (np.asfortranarray(gts), gts, 1),
                                     (nudged, nudged, 2), (nudged, nudged, 2), (signed, signed, 3), (gts, gts, 4),
                                     (gts[:2], gts[:2], 5), (as_list, gts[:2], 5)]:
            result = sela_assign(lattice, given, cfg, img)
            assert len(iou_builds) == builds
            assert lattice._held["iou"][0] == (boxes.tobytes(),)
            cut = cfg.t - cfg.gamma * weight
            assert np.array_equal(result.hits, iou_matrix(lattice.boxes, boxes) >= cut[:, None])

    def test_a_matrix_over_the_block_bound_is_not_held(self, iou_builds):
        img = ImageInfo(1, 640.0, 640.0)
        lattice = anchor_grid(img, 64, 64)
        assert len(lattice) * 16 == BLOCK_ENTRIES
        rng = np.random.default_rng(2)
        gts = np.column_stack([rng.uniform(0, 500, (17, 2)), rng.uniform(20, 100, (17, 2))])
        weight = spatial_weight(*lattice.centers.T, img.width, img.height)
        for m, held in [(17, False), (16, True), (17, False)]:
            for gamma in (0.1, 0.2):
                result = sela_assign(lattice, gts[:m], AssignConfig(t=0.3, gamma=gamma), img)
                cut = 0.3 - gamma * weight
                assert np.array_equal(result.hits, iou_matrix(lattice.boxes, gts[:m]) >= cut[:, None])
            assert ("iou" in lattice._held and lattice._held["iou"][0] == (gts[:m].tobytes(),)) is held
        assert iou_builds == [(4096, 17)] * 2 + [(4096, 16)] + [(4096, 17)] * 2
        assert lattice._held["iou"][0] == (gts[:16].tobytes(),)  # a larger matrix leaves the held one

    @pytest.mark.parametrize("cols,rows", [(8, 6), (1, 2)])  # more and fewer anchors than ground truths
    def test_held_matrix_is_read_only_and_dies_with_its_set(self, cols, rows):
        img = ImageInfo(1, 640.0, 480.0)
        lattice = anchor_grid(img, cols, rows, 64.0)
        own = AnchorSet(lattice.boxes, lattice.centers)
        result = sela_assign(own, TestPerShapeCaches.GTS, AssignConfig(t=0.4, gamma=0.2), img)
        iou = own._held["iou"][1]
        assert iou.shape == (cols * rows, 3) and not np.shares_memory(iou, result.hits)
        with pytest.raises(ValueError, match="read-only"):
            iou[0, 0] = 1.0
        refs = [weakref.ref(a) for a in (own, iou, iou.base) if a is not None]
        del own, iou, result
        gc.collect()
        assert [r() for r in refs] == [None] * len(refs)
