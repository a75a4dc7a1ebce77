import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zoneval.analysis import (
    FeatureRecord,
    _average_ranks,
    center_counts,
    correlate_zp_distribution,
    load_feature_records,
    pattern_distance,
    pearson,
    spearman,
)
from zoneval.coco import BBox, Category, Dataset, GroundTruth, ImageInfo
from zoneval.errors import IngestError, UndefinedStatisticError


class TestPearson:
    def test_identity(self):
        x = [1.0, 2.0, 5.0, 7.0]
        assert pearson(x, x) == pytest.approx(1.0)

    def test_negative_affine(self):
        x = [1.0, 2.0, 3.0, 9.0]
        y = [-2 * v + 7 for v in x]
        assert pearson(x, y) == pytest.approx(-1.0)

    def test_hand_computed_example(self):
        # cov = 1, sd = sqrt(1.25) each -> r = 0.8
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_zero_variance_signaled(self):
        with pytest.raises(UndefinedStatisticError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])

    @given(
        xs=st.lists(st.integers(-100, 100), min_size=3, max_size=20),
        a=st.floats(0.1, 10),
        b=st.floats(-5, 5),
    )
    def test_positive_affine_invariance(self, xs, a, b):
        if len(set(xs)) < 2:
            return
        xs = [float(v) for v in xs]
        ys = [2.0 * v + 1.0 for v in xs]
        base = pearson(xs, ys)
        transformed = pearson([a * v + b for v in xs], ys)
        assert transformed == pytest.approx(base, abs=1e-9)
        negated = pearson([-a * v + b for v in xs], ys)
        assert negated == pytest.approx(-base, abs=1e-9)


class TestSpearman:
    def test_monotone_transform_gives_one(self):
        x = [1.0, 4.0, 2.0, 8.0, 3.0]
        y = [math.exp(v) for v in x]
        assert spearman(x, y) == pytest.approx(1.0)

    def test_reversed_gives_minus_one(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert spearman(x, list(reversed(x))) == pytest.approx(-1.0)

    def test_tie_handling_average_ranks(self):
        # x-ranks (1, 2.5, 2.5, 4) vs y-ranks (1, 2, 3, 4):
        # pearson of those ranks = 1.125 / sqrt(1.125 * 1.25)
        expected = 1.125 / math.sqrt(1.125 * 1.25)
        assert spearman([1, 2, 2, 4], [10, 20, 30, 40]) == pytest.approx(expected)

    def test_all_equal_signaled(self):
        with pytest.raises(UndefinedStatisticError):
            spearman([5, 5, 5], [1, 2, 3])

    @given(xs=st.lists(st.integers(-1000, 1000), min_size=3, max_size=15, unique=True))
    def test_strictly_monotone_invariance(self, xs):
        ys = [float(v) for v in range(len(xs))]
        base = spearman([float(v) for v in xs], ys)
        cubed = spearman([float(v) ** 3 for v in xs], ys)
        assert cubed == pytest.approx(base, abs=1e-9)


def _tie_averaged_ranks(values):
    """Brute force: the 1-based sorted positions of each value's ties, averaged."""
    order = sorted(values)
    return [sum(k + 1 for k, w in enumerate(order) if w == v) / order.count(v) for v in values]


class TestAverageRanks:
    @given(st.lists(st.integers(-5, 5), max_size=30))
    def test_matches_brute_force_tie_averaging(self, values):
        assert _average_ranks(values) == _tie_averaged_ranks(values)


def toy_dataset(centers, size=(600.0, 600.0)):
    images = [ImageInfo(id=1, width=size[0], height=size[1])]
    gts = [
        GroundTruth(i + 1, 1, 1, BBox(cx - 5, cy - 5, 10, 10), 100.0)
        for i, (cx, cy) in enumerate(centers)
    ]
    return Dataset(images, [Category(1, "c")], gts)


class TestCenterCounts:
    def test_1x1_counts_everything(self, mini_dataset):
        counts = center_counts(mini_dataset, 1, 1)
        assert counts[0, 0] == len(mini_dataset.ground_truths)

    def test_single_central_object(self):
        ds = toy_dataset([(300.0, 300.0)])
        counts = center_counts(ds, 11, 11)
        assert counts[5, 5] == 1
        assert counts.sum() == 1

    def test_hand_placed_layout(self):
        # four corners and the center of a 3x3 grid
        ds = toy_dataset([(100, 100), (500, 100), (300, 300), (100, 500), (500, 500)])
        counts = center_counts(ds, 3, 3)
        assert counts[0, 0] == 1 and counts[0, 2] == 1
        assert counts[1, 1] == 1
        assert counts[2, 0] == 1 and counts[2, 2] == 1
        assert counts.sum() == 5

    def test_cells_sum_to_total(self, mini_dataset):
        assert center_counts(mini_dataset, 7, 5).sum() == len(mini_dataset.ground_truths)


class TestCorrelateZpDistribution:
    def test_proportional_matrices_give_pcc_one(self):
        counts = np.array([[1, 2], [3, 4]])
        heatmaps = {0.5: [[10.0, 20.0], [30.0, 40.0]], 0.75: [[5.0, 10.0], [15.0, 20.0]]}
        curve = correlate_zp_distribution(heatmaps, counts)
        assert curve.iou_thresholds == (0.5, 0.75)
        assert curve.pcc[0] == pytest.approx(1.0)
        assert curve.pcc[1] == pytest.approx(1.0)
        assert curve.scc[0] == pytest.approx(1.0)

    def test_constant_zp_signaled_as_none(self):
        counts = np.array([[1, 2], [3, 4]])
        heatmaps = {0.5: [[7.0, 7.0], [7.0, 7.0]]}
        curve = correlate_zp_distribution(heatmaps, counts)
        assert curve.pcc == (None,)
        assert curve.scc == (None,)

    def test_undefined_cells_dropped_pairwise(self):
        counts = np.array([[1, 2], [3, 4]])
        heatmaps = {0.5: [[10.0, None], [30.0, 40.0]]}
        curve = correlate_zp_distribution(heatmaps, counts)
        expected = pearson([10.0, 30.0, 40.0], [1.0, 3.0, 4.0])
        assert curve.pcc[0] == pytest.approx(expected)

    def test_too_few_defined_pairs(self):
        counts = np.array([[1, 2]])
        heatmaps = {0.5: [[10.0, None]]}
        with pytest.raises(UndefinedStatisticError):
            correlate_zp_distribution(heatmaps, counts)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            correlate_zp_distribution({0.5: [[1.0, 2.0]]}, np.array([[1, 2, 3]]))


def record(split, tag, cat, area, vector):
    return FeatureRecord(split, tag, cat, area, tuple(vector))


class TestPatternDistance:
    def test_identical_sides_zero(self):
        records = [
            record("test", "in", 1, 100.0, [1.0, 2.0, 3.0]),
            record("test", "in", 1, 5000.0, [0.5, 0.5, 0.5]),
            record("test", "out", 1, 100.0, [1.0, 2.0, 3.0]),
            record("test", "out", 1, 5000.0, [0.5, 0.5, 0.5]),
        ]
        assert pattern_distance(records, ("test", "in"), ("test", "out")) == 0.0

    def test_uniform_offset_returns_delta(self):
        delta = 0.75
        records = []
        for area in (100.0, 2000.0, 70000.0):
            records.append(record("train", "in", 1, area, [1.0, -2.0, 0.25]))
            records.append(record("test", "in", 1, area, [1.0 + delta, -2.0 + delta, 0.25 + delta]))
        assert pattern_distance(records, ("train", "in"), ("test", "in")) == pytest.approx(delta)

    def test_only_overlapping_bins_counted(self):
        # category 2 exists on one side only in bin 0; category 1 overlaps
        records = [
            record("train", "in", 1, 100.0, [0.0, 0.0]),
            record("test", "in", 1, 100.0, [1.0, 3.0]),
            record("train", "in", 2, 100.0, [9.0, 9.0]),
            record("test", "in", 2, 90000.0, [9.0, 9.0]),
        ]
        # only (bin0, cat1) overlaps: mean |diff| = (1 + 3) / 2
        assert pattern_distance(records, ("train", "in"), ("test", "in")) == pytest.approx(2.0)

    def test_no_overlap_is_an_error(self):
        records = [
            record("train", "in", 1, 100.0, [0.0]),
            record("test", "in", 2, 100.0, [1.0]),
        ]
        with pytest.raises(ValueError):
            pattern_distance(records, ("train", "in"), ("test", "in"))

    def test_symmetry_randomized(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            records = []
            for i in range(int(rng.integers(4, 20))):
                records.append(
                    record(
                        "train" if rng.random() < 0.5 else "test",
                        "in" if rng.random() < 0.5 else "out",
                        int(rng.integers(1, 4)),
                        float(rng.uniform(10, 1.2e5)),
                        rng.normal(size=4).tolist(),
                    )
                )
            sides = [("train", "in"), ("test", "out")]
            try:
                ab = pattern_distance(records, sides[0], sides[1])
            except ValueError:
                continue
            ba = pattern_distance(records, sides[1], sides[0])
            assert ab == pytest.approx(ba, abs=1e-12)
            assert ab >= 0.0

    def test_bins_are_half_open_with_a_catch_all(self):
        # bin_width 32, 3 bins: [0, 32^2), [32^2, 64^2), [64^2, inf)
        def distance(area_a, area_b, bin_count=3):
            records = [record("train", "in", 1, area_a, [0.0]), record("test", "in", 1, area_b, [1.0])]
            return pattern_distance(records, ("train", "in"), ("test", "in"), bin_count, 32.0)

        assert distance(1024.0, 2000.0) == 1.0
        assert distance(4096.0, 1e12) == 1.0
        with pytest.raises(ValueError):
            distance(1023.9, 1024.0)
        with pytest.raises(ValueError):
            distance(4095.9, 4096.0)
        assert distance(1.0, 1e12, bin_count=1) == 1.0

    def test_mean_reduction_within_bin(self):
        # means are taken per (bin, category) before the difference
        records = [
            record("train", "in", 1, 100.0, [0.0]),
            record("train", "in", 1, 120.0, [2.0]),  # same bin -> mean 1.0
            record("test", "in", 1, 110.0, [4.0]),
        ]
        assert pattern_distance(records, ("train", "in"), ("test", "in")) == pytest.approx(3.0)


class TestFeatureIO:
    def test_round_trip(self, tmp_path):
        lines = [
            {"split": "train", "zone_tag": "in", "category_id": 1, "area": 144.0, "vector": [1, 2]},
            {"split": "test", "zone_tag": "out", "category_id": 2, "area": 9.0, "vector": [3, 4]},
        ]
        path = tmp_path / "features.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in lines) + "\n")
        records = load_feature_records(path)
        assert len(records) == 2
        assert records[0].vector == (1.0, 2.0)
        assert records[1].split == "test"

    def test_dimension_mismatch_rejected(self, tmp_path):
        lines = [
            {"split": "train", "zone_tag": "in", "category_id": 1, "area": 1.0, "vector": [1, 2]},
            {"split": "train", "zone_tag": "in", "category_id": 1, "area": 1.0, "vector": [1]},
        ]
        path = tmp_path / "features.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in lines))
        with pytest.raises(IngestError):
            load_feature_records(path)

    def test_bad_tag_rejected(self, tmp_path):
        path = tmp_path / "features.jsonl"
        path.write_text(json.dumps({"split": "train", "zone_tag": "corner", "category_id": 1, "area": 1.0, "vector": [1]}))
        with pytest.raises(IngestError):
            load_feature_records(path)

    def test_integral_float_category_id_is_accepted(self, tmp_path):
        path = tmp_path / "features.jsonl"
        path.write_text(json.dumps({"split": "test", "zone_tag": "out", "category_id": 2.0,
                                    "area": 9.0, "vector": [3]}))
        (record,) = load_feature_records(path)
        assert record.category_id == 2 and isinstance(record.category_id, int)

    def test_overflowing_distance_is_rejected(self):
        records = [
            FeatureRecord("train", "in", 1, 100.0, (1e308, 1e308)),
            FeatureRecord("test", "in", 1, 100.0, (-1e308, -1e308)),
        ]
        with np.errstate(all="raise"), pytest.raises(ValueError, match="overflows"):
            pattern_distance(records, ("train", "in"), ("test", "in"))
