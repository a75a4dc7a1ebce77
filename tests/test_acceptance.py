"""Acceptance gate: every top-level criterion at its stated tolerance.

Each test finishes by printing one PASS line (run with ``pytest -v -s`` to see
them; a failed criterion fails its test instead).
"""

import hashlib
import json
import time

import numpy as np
import pytest

from zoneval.analysis import center_counts, correlate_zp_distribution, pearson, spearman
from zoneval.cli import main
from zoneval.coco import BBox, Category, Dataset, Detection, DetectionSet, GroundTruth, ImageInfo
from zoneval.equilibrium import Anchor, AssignConfig, beta_assign, sela_assign, spatial_weight
from zoneval.matching import EvalConfig
from zoneval.oracle import ap_oracle
from zoneval.synth import QualityProfile, ZoneQuality, graded_profile, synthetic_benchmark
from zoneval.zone_eval import evaluate_zones, zp_variance
from zoneval.zones import Annular, Grid, StripX, StripY, build_partition, spec_label

from conftest import write_coco_dt, write_coco_gt
from datagen import full_image_ap, random_benchmark, random_instance


def ok(n, label):
    print(f"criterion {n} ({label}): PASS")


def _fixtures():
    """Hand-built and generated fixtures used by the identity criterion."""
    out = []

    # hand-built: 2 images, crowds and ignores included
    images = [ImageInfo(id=1, width=400, height=300), ImageInfo(id=2, width=640, height=480)]
    cats = [Category(1, "a"), Category(2, "b")]
    gts = [
        GroundTruth(1, 1, 1, BBox(10, 10, 50, 40), 2000.0),
        GroundTruth(2, 1, 2, BBox(200, 100, 80, 60), 4800.0),
        GroundTruth(3, 1, 1, BBox(100, 200, 40, 40), 1600.0, ignore=True),
        GroundTruth(4, 2, 1, BBox(300, 200, 100, 100), 10000.0),
        GroundTruth(5, 2, 2, BBox(50, 50, 60, 60), 3600.0),
    ]
    ds = Dataset(images, cats, gts)
    dets = DetectionSet(
        [
            Detection(1, 1, BBox(12, 11, 50, 40), 0.9),
            Detection(1, 2, BBox(205, 105, 80, 60), 0.85),
            Detection(1, 1, BBox(100, 200, 40, 40), 0.6),
            Detection(1, 2, BBox(0, 0, 30, 30), 0.55),
            Detection(2, 1, BBox(295, 195, 105, 105), 0.8),
            Detection(2, 2, BBox(400, 60, 60, 60), 0.4),
        ],
        ds,
    )
    out.append(("hand-built", ds, dets))

    # generated: annular profile with false positives
    p5 = build_partition(Annular(5))
    prof = QualityProfile(
        {z.id: ZoneQuality(recall=0.75, fp_per_tp=0.4) for z in p5.zones}, rng_seed=13
    )
    ds2, dets2, _ = synthetic_benchmark(30, 450, 2.0, prof, p5)
    out.append(("synthetic annular", ds2, dets2))

    # generated: graded grid profile
    p11 = build_partition(Grid(11, 11))
    ds3, dets3, _ = synthetic_benchmark(
        40, 2500, 3.0, graded_profile(p11, rng_seed=5), p11
    )
    out.append(("synthetic grid", ds3, dets3))
    return out


def test_criterion_1_zone_identity():
    """Annular(1) reproduces the unpartitioned AP bit-for-bit on every fixture."""
    single = build_partition(Annular(1))
    cfg = EvalConfig()
    for label, ds, dets in _fixtures():
        start = time.perf_counter()
        report = evaluate_zones(ds, dets, single, cfg)
        elapsed = time.perf_counter() - start
        direct = full_image_ap(ds, dets, cfg)
        assert report.zones[0].zp == report.full_ap, label
        assert report.full_ap == 100.0 * direct, label
        assert elapsed < 1.0, f"{label}: {elapsed:.2f}s"
    ok(1, "ZP identity")


def test_criterion_2_oracle_equivalence():
    """1000 random small instances agree with the brute-force oracle to 1e-12."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    checked = 0
    for _ in range(1000):
        ds, dets = random_instance(rng)
        cfg = EvalConfig(max_dets_per_image=int(rng.integers(1, 11)))
        if rng.random() < 0.25:
            cfg = EvalConfig(
                max_dets_per_image=cfg.max_dets_per_image, scale_range=(64.0, 225.0)
            )
        fast = full_image_ap(ds, dets, cfg)
        slow = ap_oracle(ds, dets, cfg)
        if fast is None or slow is None:
            assert fast is None and slow is None
        else:
            assert abs(fast - slow) < 1e-12
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 1000
    assert elapsed < 30.0, f"{elapsed:.1f}s"
    ok(2, f"oracle equivalence, {elapsed:.1f}s")


def test_criterion_3_published_variance():
    """Variance recomputation from the published one-decimal ZP rows."""
    coco_row = zp_variance([31.1, 37.5, 39.4, 38.5, 43.8])
    assert coco_row == pytest.approx(16.74, abs=0.005)
    assert abs(coco_row - 16.9) < 0.3
    voc_row = zp_variance([34.3, 39.6, 42.5, 46.6, 56.1])
    assert voc_row == pytest.approx(53.74, abs=0.005)
    assert abs(voc_row - 53.6) < 0.3
    ok(3, "published variance recomputation")


def test_criterion_4_area_identities():
    """Exact ring areas plus disjointness/coverage sampling for builtins."""
    p = build_partition(Annular(5))
    assert p.area_fraction("z4,5") == 0.04
    border = sum((p.zones_by_id[f"z{i},{i + 1}"].area_exact for i in range(4)))
    assert float(border) == 0.96

    us = (np.arange(997) + 0.5) / 997
    vs = (np.arange(991) + 0.5) / 991
    uu, vv = np.meshgrid(us, vs)
    for spec in (Annular(1), Annular(5), Annular(50), StripX(5), StripY(5),
                 Grid(3, 3), Grid(11, 11)):
        counts = sum(z.contains(uu, vv) for z in build_partition(spec).zones)
        assert (counts == 1).all(), spec_label(spec)
    ok(4, "area identities and coverage")


def test_criterion_5_spatial_weight():
    """Weight properties: center zero, boundary one, range, 8-fold symmetry."""
    w, h = 1333.0, 800.0
    assert spatial_weight(w / 2, h / 2, w, h) == 0.0

    rng = np.random.default_rng(5)
    t = rng.uniform(0.0, 1.0, size=2500)
    for tt in t:
        assert spatial_weight(tt * w, 0.0, w, h) == 1.0
        assert spatial_weight(tt * w, h, w, h) == 1.0
        assert spatial_weight(0.0, tt * h, w, h) == 1.0
        assert spatial_weight(w, tt * h, w, h) == 1.0

    xs = rng.uniform(0.0, w, size=1_000_000)
    ys = rng.uniform(0.0, h, size=1_000_000)
    assert all(0.0 <= spatial_weight(x, y, w, h) <= 1.0 for x, y in zip(xs, ys))

    for u, v in rng.uniform(0.0, 1.0, size=(400, 2)):
        base = spatial_weight(u, v, 1.0, 1.0)
        for uu, vv in [(1 - u, v), (u, 1 - v), (1 - u, 1 - v), (v, u),
                       (1 - v, u), (v, 1 - u), (1 - v, 1 - u)]:
            assert abs(spatial_weight(uu, vv, 1.0, 1.0) - base) <= 1e-12
    ok(5, "spatial weight properties")


def test_criterion_6_sela_monotonicity():
    """Gamma-nested positives over 500 random configurations; beta=1 wipes its zone."""
    rng = np.random.default_rng(66)
    img = ImageInfo(id=1, width=800.0, height=600.0)
    gammas = (0.0, 0.1, 0.2)
    for _ in range(500):
        anchors = [
            Anchor.from_box(
                BBox(rng.uniform(0, 740), rng.uniform(0, 540),
                     rng.uniform(20, 70), rng.uniform(20, 70))
            )
            for _ in range(int(rng.integers(10, 50)))
        ]
        gts = [
            GroundTruth(i + 1, 1, 1,
                        BBox(rng.uniform(0, 740), rng.uniform(0, 540),
                             rng.uniform(20, 70), rng.uniform(20, 70)), 1.0)
            for i in range(int(rng.integers(1, 4)))
        ]
        results = [
            sela_assign(anchors, gts, AssignConfig(t=0.3, gamma=g), img) for g in gammas
        ]
        for gi in range(len(gts)):
            sets = [set(r.positives[gi]) for r in results]
            assert sets[0] <= sets[1] <= sets[2]
            for ai in sets[2] - sets[0]:
                a = anchors[ai]
                assert spatial_weight(a.center[0], a.center[1], img.width, img.height) > 0

    # beta = 1 with alpha_pos > 0: no positive can sit inside the penalized zone
    p = build_partition(Annular(2))
    outer = p.zones_by_id["z0,1"]
    anchors = [
        Anchor.from_box(BBox(x - 30, y - 30, 60, 60))
        for x in np.linspace(30, 770, 12)
        for y in np.linspace(30, 570, 9)
    ]
    gts = [GroundTruth(1, 1, 1, BBox(10, 10, 60, 60), 3600.0),
           GroundTruth(2, 1, 1, BBox(380, 280, 60, 60), 3600.0)]
    with pytest.warns(UserWarning):
        res = beta_assign(anchors, gts, 0.5, 1.0, outer, img)
    for idxs in res.positives.values():
        for ai in idxs:
            cx, cy = anchors[ai].center
            u, v = cx / img.width, cy / img.height
            assert not outer.contains(u, v)
    ok(6, "SELA monotonicity and beta wipe-out")


def test_criterion_7_closed_form_zp():
    """Two-zone recall 1.0/0.5 profile hits the 101-point analytic values."""
    p = build_partition(StripX(2))
    profile = QualityProfile(
        {"x0": ZoneQuality(recall=1.0), "x1": ZoneQuality(recall=0.5)}, rng_seed=1
    )
    ds, dets, expected = synthetic_benchmark(40, 400, 0.0, profile, p)
    assert all(z.gt_count % 2 == 0 for z in expected.zones)  # seed keeps halves exact
    analytic = {z.zone_id: z.zp for z in expected.zones}
    assert analytic["x0"] == 100.0
    assert analytic["x1"] == pytest.approx(100 * 51 / 101, abs=1e-9)

    report = evaluate_zones(ds, dets, p, EvalConfig())
    measured = {z.zone_id: z.zp for z in report.zones}
    assert abs(measured["x0"] - analytic["x0"]) < 0.1
    assert abs(measured["x1"] - analytic["x1"]) < 0.1
    assert abs(report.zp_variance - expected.zp_variance) < 0.2
    ok(7, "closed-form two-zone ZP")


def test_criterion_8_correlation_sanity():
    """Centralized benchmark: PCC > 0.3 and SCC > 0.45 at every IoU threshold."""
    p = build_partition(Grid(11, 11))
    profile = graded_profile(p, best_recall=0.95, worst_recall=0.35, rng_seed=8)
    # ~50 objects per image keeps every planted detection under the 100 cap
    ds, dets, _ = synthetic_benchmark(600, 30000, 3.0, profile, p)

    cfg = EvalConfig()
    report = evaluate_zones(ds, dets, p, cfg)
    by_id = {z.zone_id: z for z in report.zones}
    heatmaps = {
        t: [
            [by_id[f"g{r}_{c}"].zp_by_threshold[ti] for c in range(11)]
            for r in range(11)
        ]
        for ti, t in enumerate(cfg.iou_thresholds)
    }
    counts = center_counts(ds, 11, 11)
    curve = correlate_zp_distribution(heatmaps, counts)
    for t, pcc, scc in zip(curve.iou_thresholds, curve.pcc, curve.scc):
        assert pcc is not None and pcc > 0.3, f"PCC at {t}: {pcc}"
        assert scc is not None and scc > 0.45, f"SCC at {t}: {scc}"

    # unit examples, tie handling included
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)
    assert pearson([1.0, 2.0, 5.0], [1.0, 2.0, 5.0]) == pytest.approx(1.0, abs=1e-12)
    assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)
    expected_tied = 1.125 / np.sqrt(1.125 * 1.25)
    assert spearman([1, 2, 2, 4], [10, 20, 30, 40]) == pytest.approx(expected_tied, abs=1e-12)
    ok(8, "correlation sanity")


CRITERION_9_SHA256 = "a1fcd4bbca6a3a6db66e35265c6dddb96c55e22f932b22d6fac1c8cad15f0fc4"


def test_criterion_9_determinism_and_runtime(tmp_path):
    """5,000-image / 100-dets-per-image dataset: worker-count invariance and < 60 s."""
    ds, dets = random_benchmark(5000, gts_per_image=30, dets_per_image=100, seed=99)
    assert dets.total == 500_000

    partition = build_partition(Annular(5))
    start = time.perf_counter()
    report = evaluate_zones(ds, dets, partition, EvalConfig(), workers=1)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"single-core evaluation took {elapsed:.1f}s"
    assert report.full_ap is not None

    gt_path, dt_path = tmp_path / "gt.json", tmp_path / "dt.json"
    write_coco_gt(gt_path, ds)
    write_coco_dt(dt_path, dets)
    outs = []
    for name, workers in (("w1.json", "1"), ("w8.json", "8")):
        out = tmp_path / name
        code = main(["eval", "--gt", str(gt_path), "--dt", str(dt_path),
                     "--partition", "annular:5", "--workers", workers, "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    # the report's bytes at scale: a rewrite of matching or AP must leave them as they are
    assert hashlib.sha256(outs[0]).hexdigest() == CRITERION_9_SHA256
    cli_report = json.loads(outs[0])
    assert cli_report["full_ap"] == report.full_ap
    ok(9, f"determinism and runtime ({elapsed:.1f}s single core)")


def test_criterion_10_pattern_distance():
    """Zero for identical sides, delta for uniform offsets, symmetric to 1e-12."""
    from zoneval.analysis import FeatureRecord, pattern_distance

    base = [
        FeatureRecord("test", "in", 1, 120.0, (0.5, -1.0, 2.0)),
        FeatureRecord("test", "in", 2, 9000.0, (1.5, 0.0, -0.5)),
        FeatureRecord("test", "out", 1, 120.0, (0.5, -1.0, 2.0)),
        FeatureRecord("test", "out", 2, 9000.0, (1.5, 0.0, -0.5)),
    ]
    assert pattern_distance(base, ("test", "in"), ("test", "out")) == 0.0

    delta = 0.375
    offset = []
    for area in (50.0, 1500.0, 80000.0):
        offset.append(FeatureRecord("train", "in", 1, area, (1.0, 2.0, 3.0)))
        offset.append(
            FeatureRecord("test", "in", 1, area, (1.0 + delta, 2.0 + delta, 3.0 + delta))
        )
    assert pattern_distance(offset, ("train", "in"), ("test", "in")) == pytest.approx(
        delta, abs=1e-12
    )

    rng = np.random.default_rng(10)
    compared = 0
    while compared < 200:
        records = []
        for _ in range(int(rng.integers(6, 24))):
            records.append(
                FeatureRecord(
                    "train" if rng.random() < 0.5 else "test",
                    "in" if rng.random() < 0.5 else "out",
                    int(rng.integers(1, 4)),
                    float(rng.uniform(10, 1.5e5)),
                    tuple(rng.normal(size=5).tolist()),
                )
            )
        try:
            ab = pattern_distance(records, ("train", "in"), ("test", "out"))
            ba = pattern_distance(records, ("test", "out"), ("train", "in"))
        except ValueError:
            continue
        assert abs(ab - ba) <= 1e-12
        compared += 1
    ok(10, "pattern distance aggregation")
