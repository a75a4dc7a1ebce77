import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zoneval.coco import BBox, Category, Dataset, GroundTruth, ImageInfo
from zoneval.equilibrium import (
    Anchor,
    AssignConfig,
    anchor_grid,
    beta_assign,
    object_density,
    se_loss_weight,
    sela_assign,
    spatial_weight,
    supervision_density,
)
from zoneval.errors import OutsideImageError
from zoneval.zones import Annular, Custom, Grid, build_partition


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
