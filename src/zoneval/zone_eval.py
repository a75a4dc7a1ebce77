"""Zone-restricted evaluation: ZP series, variance, scale studies, heatmaps.

Each zone is evaluated as a standalone sub-problem containing exactly the
ground truths and detections whose box centers fall in it, so the union of
all zones reproduces the full-image evaluation and the whole-image zone
reproduces AP bit-for-bit.

Count, then match: a ground truth is countable when it is not crowd and its
area lies in the configured scale range.  Before any matching, the
(zone, category) pairs holding at least one countable ground truth are
collected, and only those pairs are matched.  This is exact: every other pair
has no positive ground truth in the zone, and AP accumulation leaves such a
category out of the zone's mean (as COCO's accumulate does), so its matches
could never reach the report.

Evaluation runs in-process, one image at a time; the reduction merges
fragments keyed by image id and is therefore independent of arrival order.
The geometry of an image (cap and zone buckets) does not depend on the scale
range, so the scale study computes it once for all bins.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterable
from dataclasses import dataclass, replace

from .coco import Dataset, Detection, DetectionSet, GroundTruth, ImageInfo, box_centers
from .matching import (
    EvalConfig,
    MatchFragment,
    MatchTable,
    _in_range,
    ap_from_matches,
    ap_matrix,
    match_image,
    mean_ap,
    threshold_aps,
)
from .zones import Grid, Partition, build_partition, gt_zone_indices, spec_label

FULL_ZONE = "__full__"


@dataclass
class ZoneResult:
    zone_id: str
    zp: float | None  # percent
    zp_by_threshold: list[float | None]
    gt_count: int
    det_count: int
    area_fraction: float


@dataclass
class ZoneReport:
    partition: str
    iou_thresholds: tuple[float, ...]
    zones: list[ZoneResult]
    zp_variance: float | None  # percent^2, over zones with defined ZP
    full_ap: float | None  # percent
    undefined_zones: list[str]

    def zp_series(self) -> list[float | None]:
        return [z.zp for z in self.zones]

    def to_json_dict(self) -> dict:
        return {
            "meta": {
                "partition": self.partition,
                "iou_thresholds": list(self.iou_thresholds),
            },
            "zones": [
                {
                    "id": z.zone_id,
                    "zp": z.zp,
                    "zp_by_threshold": z.zp_by_threshold,
                    "gt_count": z.gt_count,
                    "det_count": z.det_count,
                    "area_fraction": z.area_fraction,
                }
                for z in self.zones
            ],
            "variance": self.zp_variance,
            "full_ap": self.full_ap,
            "undefined_zones": self.undefined_zones,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def write_csv(self, f) -> None:
        writer = csv.writer(f)
        header = ["zone", "zp", "gt_count", "det_count", "area_fraction"]
        header += [f"zp@{t:g}" for t in self.iou_thresholds]
        writer.writerow(header)
        for z in self.zones:
            row = [z.zone_id, _cell(z.zp), z.gt_count, z.det_count, repr(z.area_fraction)]
            row += [_cell(v) for v in z.zp_by_threshold]
            writer.writerow(row)


def _cell(v: float | None) -> str:
    return "" if v is None else repr(v)


def zp_variance(zps: list[float]) -> float:
    """Population variance of a zone-metric series (percent^2).

    A constant series returns exactly 0.0 (the rounded mean of n equal floats
    can otherwise leave residue on the order of 1e-32).
    """
    if not zps:
        raise ValueError("variance of an empty ZP series is undefined")
    if all(z == zps[0] for z in zps):
        return 0.0
    mean = sum(zps) / len(zps)
    return sum((z - mean) ** 2 for z in zps) / len(zps)


Buckets = dict[str, tuple[list[GroundTruth], list[Detection]]]
Countable = frozenset[tuple[str, int]]


def _image_geometry(
    img: ImageInfo,
    gts: list[GroundTruth],
    dets: list[Detection],
    partition: Partition,
    cfg: EvalConfig,
) -> tuple[Buckets, dict[str, int], dict[str, int]]:
    """Per-image geometry: the cap, zone buckets (plus FULL_ZONE) and per-zone counts.

    Does not depend on ``cfg.scale_range``, so one pass serves every scale bin.
    """
    capped = dets if cfg.cap_after_zone else dets[: cfg.max_dets_per_image]

    centers = box_centers([b.bbox for b in (*gts, *capped)])
    zone_idx = partition.assign(*centers, img.width, img.height).tolist()
    by_index: list[tuple[list[GroundTruth], list[Detection]]] = [([], []) for _ in partition.zones]
    for g, k in zip(gts, zone_idx):
        by_index[k][0].append(g)
    for d, k in zip(capped, zone_idx[len(gts):]):
        by_index[k][1].append(d)
    buckets = dict(zip(partition.zone_ids, by_index))
    if cfg.cap_after_zone:
        buckets = {
            zid: (zg, zd[: cfg.max_dets_per_image]) for zid, (zg, zd) in buckets.items()
        }
        full_dets = dets[: cfg.max_dets_per_image]
    else:
        full_dets = capped
    gt_counts = {zid: len(zg) for zid, (zg, _) in buckets.items()}
    det_counts = {zid: len(zd) for zid, (_, zd) in buckets.items()}
    buckets[FULL_ZONE] = (gts, full_dets)
    return buckets, gt_counts, det_counts


def _countable(
    ds: Dataset, gt_zones: list[int], partition: Partition, cfg: EvalConfig
) -> Countable:
    """(zone id | FULL_ZONE, category) pairs with at least one countable ground truth.

    ``gt_zones`` holds the zone index of each of ``ds.ground_truths``.  A ground
    truth counts when it is not crowd and its area lies in ``cfg.scale_range``,
    the rule match_image uses for ``n_pos_gt``.
    """
    zone_ids = partition.zone_ids
    pairs = set()
    for g, k in zip(ds.ground_truths, gt_zones):
        if not g.ignore and _in_range(g.area, cfg.scale_range):
            pairs.add((zone_ids[k], g.category_id))
            pairs.add((FULL_ZONE, g.category_id))
    return frozenset(pairs)


def _match_buckets(
    buckets: Buckets, countable: Countable, cfg: EvalConfig
) -> dict[str, dict[int, MatchFragment]]:
    """Fragments per (zone | FULL_ZONE, category), for the countable pairs only."""
    fragments: dict[str, dict[int, MatchFragment]] = {}
    for zid, (zgts, zdets) in buckets.items():
        by_cat: dict[int, tuple[list[GroundTruth], list[Detection]]] = {}
        for g in zgts:
            if (zid, g.category_id) in countable:
                by_cat.setdefault(g.category_id, ([], []))[0].append(g)
        for d in zdets:
            if (zid, d.category_id) in countable:
                by_cat.setdefault(d.category_id, ([], []))[1].append(d)
        if by_cat:
            fragments[zid] = {
                cat: match_image(cgts, cdets, cfg) for cat, (cgts, cdets) in sorted(by_cat.items())
            }
    return fragments


def _evaluate(
    ds: Dataset,
    geometry: Iterable[tuple[int, Buckets, dict[str, int], dict[str, int]]],
    gt_zones: list[int],
    partition: Partition,
    cfg: EvalConfig,
) -> ZoneReport:
    """Count, match and reduce per-image (image id, buckets, gt counts, det counts) into a report.

    ``gt_zones`` holds the zone index of each of ``ds.ground_truths``.
    ``geometry`` is consumed once and lazily, so per-image work can stream in.
    """
    countable = _countable(ds, gt_zones, partition, cfg)
    zone_ids = partition.zone_ids
    n_thr = len(cfg.iou_thresholds)
    tables = {zid: MatchTable(ds.category_ids, n_thr) for zid in zone_ids}
    tables[FULL_ZONE] = MatchTable(ds.category_ids, n_thr)
    gt_counts = {zid: 0 for zid in zone_ids}
    det_counts = {zid: 0 for zid in zone_ids}

    for image_id, buckets, g_counts, d_counts in geometry:
        for zid, n in g_counts.items():
            gt_counts[zid] += n
        for zid, n in d_counts.items():
            det_counts[zid] += n
        for zid, per_cat in _match_buckets(buckets, countable, cfg).items():
            for cat, frag in per_cat.items():
                tables[zid].add(cat, image_id, frag)

    zone_results = []
    undefined = []
    defined_zps = []
    for zid in zone_ids:
        matrix = ap_matrix(tables[zid], cfg)
        ap = mean_ap(matrix)
        per_thr = threshold_aps(matrix, n_thr)
        zp = None if ap is None else 100.0 * ap
        if zp is None:
            undefined.append(zid)
        else:
            defined_zps.append(zp)
        zone_results.append(
            ZoneResult(
                zone_id=zid,
                zp=zp,
                zp_by_threshold=[None if v is None else 100.0 * v for v in per_thr],
                gt_count=gt_counts[zid],
                det_count=det_counts[zid],
                area_fraction=partition.area_fraction(zid),
            )
        )

    full = ap_from_matches(tables[FULL_ZONE], cfg)
    return ZoneReport(
        partition=spec_label(partition.spec),
        iou_thresholds=cfg.iou_thresholds,
        zones=zone_results,
        zp_variance=zp_variance(defined_zps) if defined_zps else None,
        full_ap=None if full is None else 100.0 * full,
        undefined_zones=undefined,
    )


def evaluate_zones(
    ds: Dataset,
    dets: DetectionSet,
    partition: Partition,
    cfg: EvalConfig | None = None,
    workers: int = 1,
) -> ZoneReport:
    """Evaluate every zone of a partition plus the whole image.

    Zones with no ground truth in any category get an undefined ZP; they are
    reported in ``undefined_zones`` and excluded from the variance.
    ``workers`` is accepted for compatibility and ignored.
    """
    cfg = cfg or EvalConfig()
    geometry = (
        (img.id, *_image_geometry(img, ds.gts_by_image[img.id], dets.for_image(img.id),
                                  partition, cfg))
        for img in ds.images
    )
    return _evaluate(ds, geometry, gt_zone_indices(ds, partition).tolist(), partition, cfg)


SCALE_STEPS = (4, 8, 16, 32, 64, 128)
SCALE_CAP = 256


def scale_bins(r: int | None, cap: int = SCALE_CAP) -> list[tuple[float, float]]:
    """Area bins [(kr)^2, ((k+1)r)^2) up to cap^2, then a catch-all to infinity.

    r=None stands for the all-scales setting: a single [0, inf) bin.  The
    catch-all starts where the last finite bin ends, so the bins always cover
    [0, inf) even when r does not divide the cap.
    """
    if r is None:
        return [(0.0, math.inf)]
    bins = []
    k = 0
    while (k + 1) * r <= cap:
        bins.append((float((k * r) ** 2), float(((k + 1) * r) ** 2)))
        k += 1
    bins.append((bins[-1][1] if bins else 0.0, math.inf))
    return bins


@dataclass
class ScaleStudyReport:
    steps: tuple[int | None, ...]
    zone_ids: list[str]
    # per step: per-zone mean ZP over the bins where the zone has ground truth
    mean_zp: dict[int | None, list[float | None]]
    grand_mean: list[float | None]

    def to_json_dict(self) -> dict:
        return {
            "zone_ids": self.zone_ids,
            "per_scale_step": {
                "inf" if r is None else str(r): self.mean_zp[r] for r in self.steps
            },
            "grand_mean": self.grand_mean,
        }


def scale_study(
    ds: Dataset,
    dets: DetectionSet,
    partition: Partition,
    cfg: EvalConfig | None = None,
    steps: tuple[int | None, ...] = SCALE_STEPS + (None,),
    workers: int = 1,
) -> ScaleStudyReport:
    """Mean ZP per zone over object-scale bins, for each bin-width step.

    Each step r slices ground truth by box area into scale_bins(r); every bin
    is evaluated separately and a zone's mean is taken over the bins where it
    has a defined ZP.  The grand mean averages the per-step means.

    Each bin's report equals ``evaluate_zones`` with that bin as
    ``scale_range``.  The zone geometry (cap, buckets, counts) does not depend
    on the bin, so it is computed once; each bin only rebuilds its countable
    set and matches those pairs.  ``workers`` is accepted for compatibility
    and ignored.
    """
    cfg = cfg or EvalConfig()
    zone_ids = partition.zone_ids
    gt_zones = gt_zone_indices(ds, partition).tolist()
    geometry = [
        (img.id, *_image_geometry(img, ds.gts_by_image[img.id], dets.for_image(img.id),
                                  partition, cfg))
        for img in ds.images
    ]
    mean_zp: dict[int | None, list[float | None]] = {}
    for r in steps:
        sums = [0.0] * len(zone_ids)
        counts = [0] * len(zone_ids)
        for lo, hi in scale_bins(r):
            bin_cfg = replace(cfg, scale_range=(lo, hi))
            report = _evaluate(ds, geometry, gt_zones, partition, bin_cfg)
            for zi, z in enumerate(report.zones):
                if z.zp is not None:
                    sums[zi] += z.zp
                    counts[zi] += 1
        mean_zp[r] = [s / c if c else None for s, c in zip(sums, counts)]

    grand: list[float | None] = []
    for zi in range(len(zone_ids)):
        vals = [mean_zp[r][zi] for r in steps if mean_zp[r][zi] is not None]
        grand.append(sum(vals) / len(vals) if vals else None)
    return ScaleStudyReport(tuple(steps), zone_ids, mean_zp, grand)


def grid_heatmap(
    ds: Dataset,
    dets: DetectionSet,
    rows: int,
    cols: int,
    thresholds: tuple[float, ...] | None = None,
    cfg: EvalConfig | None = None,
) -> list[list[float | None]]:
    """ZP matrix over a rows x cols grid; None marks cells without ground truth."""
    base = cfg or EvalConfig()
    eff = base if thresholds is None else replace(base, iou_thresholds=tuple(thresholds))
    partition = build_partition(Grid(rows, cols))
    report = evaluate_zones(ds, dets, partition, eff)
    by_id = {z.zone_id: z.zp for z in report.zones}
    return [[by_id[f"g{r}_{c}"] for c in range(cols)] for r in range(rows)]


def write_heatmap_csv(matrix: list[list[float | None]], f) -> None:
    """Row-major CSV; undefined cells are left empty."""
    writer = csv.writer(f)
    for row in matrix:
        writer.writerow([_cell(v) for v in row])


def read_heatmap_csv(f) -> list[list[float | None]]:
    out = []
    for row in csv.reader(f):
        out.append([None if cell == "" else float(cell) for cell in row])
    return out
