"""Zone-restricted evaluation: ZP series, variance, scale studies, heatmaps.

Each zone is evaluated as a standalone sub-problem containing exactly the
ground truths and detections whose box centers fall in it, so the union of
all zones reproduces the full-image evaluation and the whole-image zone
reproduces AP bit-for-bit.

The whole image is one more zone, index ``n_zones``: every ground truth and
detection appears once in its zone and once in the whole image (``_Geometry``
gives the slots and rows).  The cap ranks a detection within its image, or
with ``cap_after_zone`` within its (image, zone), and a candidate pair is kept
when its detection and ground truth share a zone and the detection is under
the cap.  The same rule builds every zone.

One geometry pass per evaluation does everything that does not depend on the
scale range: the per-image cap, one ``Partition.assign`` call for all box
centers, and one blocked IoU pass over the same-image, same-category pairs
of the whole dataset (``_candidate_pairs``).  It keeps the candidate pairs
(IoU at or above the lowest threshold) as flat dataset-wide arrays.

Count, then match: a ground truth is countable when it is not crowd and its
area lies in the scale range, and ``_positives`` counts them per (range,
segment).  Only the pairs of (zone, category) segments holding a countable
ground truth go through the greedy pass (``matching.greedy_match``), which
handles every group of every image and every IoU threshold at once.  This is
exact: AP accumulation leaves every other segment out of the zone's mean (as
COCO's accumulate does).  AP then takes the rows of each segment in one
precomputed stable score order.

One evaluation pass (``_evaluate``) does this for a list of scale ranges at
once, with the range as one more part of the group key.  Each candidate pair
is expanded only into the ranges in which its segment is countable; such a
(range, pair) instance has its AP entry as its row, its place in the (range,
segment, -score) order of every countable segment's AP rows, and a (range,
slot) of its own.  One greedy pass with one ignore column then matches every
range, its results are already in AP order, and one ``average_precision``
call scores every (range, countable segment) curve.  ``evaluate_zones`` is
its one-range case; the scale study builds the geometry once, counts every
bin, and runs the bins that hold a countable ground truth through it, a
bounded block of bins per pass.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from . import matching
from .coco import Dataset, DetectionSet, box_centers, box_corners, corner_iou
from .matching import (
    EvalConfig,
    average_precision,
    greedy_match,
    mean_ap,
    pair_order,
    rank_within,
    threshold_aps,
)
from .zones import Grid, Partition, build_partition, grid_rows, spec_label


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
    full_ap: float | None  # percent

    @property
    def undefined_zones(self) -> list[str]:
        """Zones with no ground truth in any category, whose ZP is undefined."""
        return [z.zone_id for z in self.zones if z.zp is None]

    @property
    def zp_variance(self) -> float | None:
        """Variance (percent^2) of the defined ZPs; None when no zone has one."""
        defined = [z.zp for z in self.zones if z.zp is not None]
        return zp_variance(defined) if defined else None

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


def _percent(ap: float | None) -> float | None:
    return None if ap is None else 100.0 * ap


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


@dataclass
class _Geometry:
    """The scale-independent part of one evaluation, as flat arrays.

    The whole image is zone ``n_zones``.  Ground truths are indexed in image
    order; ground truth ``g`` fills slot ``g`` in its zone and slot
    ``n_gt + g`` in the whole image, and detection ``d`` fills row ``d`` in
    its zone and row ``n_dt + d`` in the whole image.  A segment is a (zone,
    category) pair, ``zone * n_categories + category``.  A candidate pair is
    kept when its row and slot share a zone and the row is under the cap.
    """

    n_zones: int
    n_categories: int
    gt_area: np.ndarray  # per ground truth
    gt_crowd: np.ndarray
    slot_seg: np.ndarray
    row_seg: np.ndarray
    row_area: np.ndarray  # box area of the row's detection
    pair_row: np.ndarray  # candidate pairs, in matching.pair_order
    pair_slot: np.ndarray
    pair_iou: np.ndarray
    pair_step: np.ndarray
    ap_rows: np.ndarray  # rows under the cap, by (segment, -score), ties in detection order
    ap_seg: np.ndarray
    ap_rank: np.ndarray  # per row: its place in its segment's run of ap_rows; -1 over the cap


def _candidate_pairs(
    dt_group: np.ndarray, dt_box: np.ndarray, gt_group: np.ndarray, gt_box: np.ndarray, min_iou: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(detection, ground truth, IoU) of the same-group pairs with IoU >= min_iou, by (detection, ground truth).

    A group is one (image, category), keyed ``image * n_categories +
    category``.  The ground truths are sorted by group once (stably), so each
    detection's group is one run of them, and the pairs are listed run by run
    in blocks of at most ``matching.BLOCK_ENTRIES // 4`` pairs (four corner
    entries each in the first test).  A block keeps the pairs that overlap in
    x, then those that overlap in y, and computes ``corner_iou`` on those
    alone.  Every other pair has IoU 0, and ``EvalConfig`` keeps every
    threshold above 0.
    """
    by_group = np.argsort(gt_group, kind="stable")
    sorted_group = gt_group[by_group]
    lo = np.searchsorted(sorted_group, dt_group, side="left")
    count = np.searchsorted(sorted_group, dt_group, side="right") - lo
    ends = np.cumsum(count)  # detection d owns pairs starts[d]:ends[d]
    starts = ends - count
    shift = lo - starts  # pair p of detection d is with sorted ground truth p + shift[d]
    dx0, dy0, dx1, dy1 = box_corners(dt_box)
    gx0, gy0, gx1, gy1 = (c[by_group] for c in box_corners(gt_box))
    found = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))]
    total, per_block = int(count.sum()), max(1, matching.BLOCK_ENTRIES // 4)
    for p0 in range(0, total, per_block):
        p1 = min(p0 + per_block, total)
        d0, d1 = int(np.searchsorted(ends, p0, side="right")), int(np.searchsorted(starts, p1))
        det = np.repeat(np.arange(d0, d1), np.minimum(ends[d0:d1], p1) - np.maximum(starts[d0:d1], p0))
        g = np.arange(p0, p1) + shift[det]
        k = np.flatnonzero(np.minimum(dx1[det], gx1[g]) - np.maximum(dx0[det], gx0[g]) > 0)
        det, g = det[k], g[k]
        k = np.flatnonzero(np.minimum(dy1[det], gy1[g]) - np.maximum(dy0[det], gy0[g]) > 0)
        det, g = det[k], g[k]
        iou = corner_iou((dx0[det], dy0[det], dx1[det], dy1[det]), (gx0[g], gy0[g], gx1[g], gy1[g]))
        k = np.flatnonzero(iou >= min_iou)
        found.append((det[k], by_group[g[k]], iou[k]))
    det, gt, iou = zip(*found)
    return np.concatenate(det), np.concatenate(gt), np.concatenate(iou)


def _geometry(ds: Dataset, dets: DetectionSet, partition: Partition, cfg: EvalConfig) -> _Geometry:
    """Cap, zone lookup and candidate pairs of every image; independent of ``cfg.scale_range``."""
    if dets.image_ids != ds.image_ids or dets.category_ids != ds.category_ids:
        raise ValueError("the detections were resolved against a dataset with other image or category ids")
    cap = cfg.max_dets_per_image
    n_zones, n_cat, n_img = len(partition.zones), len(ds.category_ids), len(ds.images)
    rank = np.arange(dets.total) - dets.starts[dets.image]  # rank by score within the image
    kept = slice(None) if cfg.cap_after_zone else rank < cap
    dt_img, dt_cat, dt_box, score = dets.image[kept], dets.category[kept], dets.box[kept], dets.score[kept]
    gt_box, gt_cat, n_gt, n_dt = ds.gt_box, ds.gt_category, len(ds.gt_box), len(dt_box)

    owner = np.concatenate([ds.gt_image, dt_img])
    zone = partition.assign(*box_centers(np.concatenate([gt_box, dt_box])), *ds.image_size[owner].T)
    gt_zone, dt_zone = zone[:n_gt], zone[n_gt:]

    slot_zone = np.concatenate([gt_zone, np.full(n_gt, n_zones)])
    row_zone = np.concatenate([dt_zone, np.full(n_dt, n_zones)])
    row_img = np.tile(dt_img, 2)
    # the cap ranks a row within its image, or within its (image, zone) after zoning
    row_rank = rank_within(row_img * (n_zones + 1) + row_zone) if cfg.cap_after_zone else np.tile(rank[kept], 2)
    under_cap = row_rank < cap

    det, gt, iou = _candidate_pairs(dt_img * n_cat + dt_cat, dt_box, ds.gt_image * n_cat + gt_cat, gt_box,
                                    cfg.iou_thresholds[0])
    pair_row, pair_slot, pair_iou = np.concatenate([det, n_dt + det]), np.concatenate([gt, n_gt + gt]), np.tile(iou, 2)
    keep = under_cap[pair_row] & (row_zone[pair_row] == slot_zone[pair_slot])
    pair_row, pair_slot, pair_iou = pair_row[keep], pair_slot[keep], pair_iou[keep]

    row_seg = row_zone * n_cat + np.tile(dt_cat, 2)
    order, pair_step = pair_order(pair_row, pair_slot, pair_iou, row_seg * n_img + row_img)
    # (segment, -score) order: every zone segment precedes every whole-image one, so each copy
    # of the detections is sorted by segment on its own, from one stable sort by -score.  The
    # segments go in the smallest integer type, as numpy sorts 8- and 16-bit keys by radix
    by_score = np.argsort(-score, kind="stable")
    seg_key = row_seg.astype(np.min_scalar_type((n_zones + 1) * n_cat))
    copies = [rows[under_cap[rows]] for rows in (by_score, n_dt + by_score)]
    ap_rows = np.concatenate([rows[np.argsort(seg_key[rows], kind="stable")] for rows in copies])
    ap_seg = row_seg[ap_rows]
    ap_rank = np.full(len(row_seg), -1)
    seg_rows = np.bincount(ap_seg, minlength=(n_zones + 1) * n_cat)
    ap_rank[ap_rows] = np.arange(len(ap_rows)) - (np.cumsum(seg_rows) - seg_rows)[ap_seg]
    return _Geometry(
        n_zones=n_zones,
        n_categories=n_cat,
        gt_area=ds.gt_area,
        gt_crowd=ds.gt_crowd,
        slot_seg=(slot_zone * n_cat + np.tile(gt_cat, 2)).astype(np.int32),
        row_seg=row_seg.astype(np.int32),
        row_area=np.tile(dt_box[:, 2] * dt_box[:, 3], 2),
        pair_row=pair_row[order].astype(np.int32),
        pair_slot=pair_slot[order].astype(np.int32),
        pair_iou=pair_iou[order],
        pair_step=pair_step.astype(np.int32),
        ap_rows=ap_rows.astype(np.int32),
        ap_seg=ap_seg.astype(np.int32),
        ap_rank=ap_rank.astype(np.int32),
    )


_Range = tuple[float, float] | None  # a scale range [lo, hi) in pixels^2; None for all scales


def _in_ranges(area: np.ndarray, ranges: list[_Range], b: np.ndarray) -> np.ndarray:
    """Whether each area lies in the scale range ``ranges[b]``, elementwise, as ``in_scale_range`` tests it."""
    whole = np.array([r is None for r in ranges], dtype=bool)
    lo, hi = (np.array([0.0 if r is None else r[i] for r in ranges], dtype=float) for i in (0, 1))
    return whole[b] | ((lo[b] <= area) & (area < hi[b]))


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, place) of each item when owner i holds ``counts[i]`` items, listed owner by owner."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


def _positives(geo: _Geometry, ranges: list[_Range]) -> tuple[np.ndarray, np.ndarray]:
    """The (range, segment)s holding a countable ground truth, and how many each holds.

    They are keyed ``range * n_segments + segment``, in increasing order.  A
    ground truth counts in its zone and in the whole image.  The ranges go
    in blocks of at most ``matching.BLOCK_ENTRIES`` (range, ground truth) flags.
    """
    n_seg, n_gt = (geo.n_zones + 1) * geo.n_categories, len(geo.gt_area)
    keys = [np.zeros(0, dtype=np.int64)]
    per_block = max(1, matching.BLOCK_ENTRIES // max(1, n_gt))
    for lo in range(0, len(ranges), per_block):
        block = ranges[lo : lo + per_block]
        b, g = np.nonzero(~geo.gt_crowd & _in_ranges(geo.gt_area, block, np.arange(len(block))[:, None]))
        first = (lo + b) * n_seg
        keys += [first + geo.slot_seg[g], first + geo.slot_seg[n_gt + g]]
    return np.unique(np.concatenate(keys), return_counts=True)


def _evaluate(
    geo: _Geometry, cfg: EvalConfig, ranges: list[_Range], keys: np.ndarray, n_pos: np.ndarray
) -> list[list[np.ndarray]]:
    """Match and accumulate AP under each scale range, given its ``_positives``.

    Returns, per range and per zone, with the whole image last, the
    (countable categories, T) AP array.  Each key is a curve, whose entries
    are its segment's AP rows, laid out in key order.  A greedy instance is
    a pair of a curve's segment; its row is its entry, and its slot is its
    (range, slot), numbered among those that some instance reaches.
    """
    n_seg, n_slots, n_ranges = (geo.n_zones + 1) * geo.n_categories, len(geo.slot_seg), len(ranges)
    key_range, key_seg = np.divmod(keys, n_seg)
    # entries, in (range, segment, -score) order
    seg_rows = np.bincount(geo.ap_seg, minlength=n_seg)
    size = seg_rows[key_seg]
    starts = np.cumsum(size) - size
    curve, place = _ragged(size)
    entry_row = geo.ap_rows[(np.cumsum(seg_rows) - seg_rows)[key_seg[curve]] + place]

    # instances, in (step, range, pair) order, which keeps each row's pairs in pair order
    pair_seg = geo.row_seg[geo.pair_row]
    by_seg = np.argsort(key_seg, kind="stable")
    per_seg = np.bincount(key_seg, minlength=n_seg)
    pair, place = _ragged(per_seg[pair_seg])
    key = by_seg[(np.cumsum(per_seg) - per_seg)[pair_seg[pair]] + place]
    order = np.argsort(geo.pair_step[pair].astype(np.int64) * n_ranges + key_range[key], kind="stable")
    pair, key = pair[order], key[order]
    # the (range, slot)s that some instance reaches, numbered in order
    slot_key = key_range[key] * n_slots + geo.pair_slot[pair]
    reached = np.zeros(n_ranges * n_slots, dtype=bool)
    reached[slot_key] = True
    slot_range, slot = np.divmod(np.flatnonzero(reached), n_slots)
    gt = slot % len(geo.gt_area)  # slot n_gt + g is ground truth g in the whole image
    slot_ignored = geo.gt_crowd[gt] | ~_in_ranges(geo.gt_area[gt], ranges, slot_range)
    tp, ignored = greedy_match(starts[key] + geo.ap_rank[geo.pair_row[pair]], (np.cumsum(reached) - 1)[slot_key],
                               geo.pair_iou[pair], geo.pair_step[pair], slot_ignored[:, None], len(entry_row),
                               cfg.iou_thresholds)
    tp, ignored = tp[:, 0], ignored[:, 0]
    # an unmatched detection outside the range is ignored too
    ignored |= ~tp & ~_in_ranges(geo.row_area[entry_row], ranges, key_range[curve])[:, None]
    aps = average_precision(np.ascontiguousarray(tp.T), np.ascontiguousarray(ignored.T), starts, n_pos,
                            cfg.recall_grid())

    # a zone's segments are one run of rows of aps, in category order
    firsts = np.arange(n_ranges)[:, None] * n_seg + np.arange(geo.n_zones + 2) * geo.n_categories
    return [[aps[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
            for bounds in np.searchsorted(keys, firsts).tolist()]


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
    geo = _geometry(ds, dets, partition, cfg)
    zone_aps = _evaluate(geo, cfg, [cfg.scale_range], *_positives(geo, [cfg.scale_range]))[0]
    gt_counts, det_counts = (np.bincount(seg // geo.n_categories, minlength=geo.n_zones + 1)[:-1].tolist()
                             for seg in (geo.slot_seg, geo.ap_seg))
    zones = [ZoneResult(zid, _percent(mean_ap(zaps)), [_percent(v) for v in threshold_aps(zaps)], n_gt, n_det,
                        partition.area_fraction(zid))
             for zid, zaps, n_gt, n_det in zip(partition.zone_ids, zone_aps, gt_counts, det_counts)]
    return ZoneReport(spec_label(partition.spec), cfg.iou_thresholds, zones, _percent(mean_ap(zone_aps[-1])))


SCALE_STEPS = (4, 8, 16, 32, 64, 128)
SCALE_CAP = 256
_MAX_SCALE_BINS = 1000  # the most bins one width may give, counted before any is built


def _squared_edge(edge, r, cap) -> float:
    """A bin edge squared, as a float; an overflow raises ValueError naming the width and the cap."""
    try:
        return float(edge ** 2)
    except OverflowError:
        raise ValueError(f"scale bin width {r} up to {cap}: a squared bin edge overflows") from None


def scale_bins(r: int | None, cap: int = SCALE_CAP) -> list[tuple[float, float]]:
    """Area bins [(kr)^2, ((k+1)r)^2) up to cap^2, then a catch-all to infinity.

    r=None stands for the all-scales setting: a single [0, inf) bin.  The
    catch-all starts where the last finite bin ends, so the bins always cover
    [0, inf) even when r does not divide the cap.  An r that is not finite
    and > 0, whose squared bin edges overflow, or that gives more than
    ``_MAX_SCALE_BINS`` bins raises ValueError before any bin is built.
    """
    if r is None:
        return [(0.0, math.inf)]
    if not 0 < r < math.inf:  # nan fails this too
        raise ValueError(f"scale bin width must be finite and positive, got {r}")
    edges = [0.0]
    if r <= cap:  # the first edge, so that an overflow is named before the count
        edges.append(_squared_edge(r, r, cap))
    # the loop's own test for one edge too many: k * r never falls as k grows, so this is the count
    if _MAX_SCALE_BINS * r <= cap:
        raise ValueError(f"scale bin width {r} up to {cap} gives more than {_MAX_SCALE_BINS} bins")
    while len(edges) * r <= cap:
        edges.append(_squared_edge(len(edges) * r, r, cap))
    return [*zip(edges, edges[1:]), (edges[-1], math.inf)]


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

    Each bin's ZPs equal those of ``evaluate_zones`` with that bin as
    ``scale_range``, bit for bit.  The geometry (cap, zones, candidate pairs
    and their IoU) does not depend on the bin, so it is computed once, and
    so are the positives of every (bin, segment).  A bin without a countable
    ground truth has no defined ZP and reaches neither kernel.  The others go
    through ``_evaluate`` in blocks bounded by ``matching.BLOCK_ENTRIES``,
    counting what each bin builds: its (bin, slot) flags, plus its live
    (bin, pair) instances, its (bin, AP row) entries and its curves, all
    times the thresholds.  Each block is one greedy pass and one AP call.
    The bins replace the scale range, so a ``cfg`` with ``scale_range`` set
    raises ValueError.
    ``workers`` is accepted for compatibility and ignored.
    """
    cfg = cfg or EvalConfig()
    if cfg.scale_range is not None:
        raise ValueError("scale_study sets the scale range per bin; cfg.scale_range must be None")
    bins = [(i, rng) for i, r in enumerate(steps) for rng in scale_bins(r)]
    geo = _geometry(ds, dets, partition, cfg)
    ranges = [rng for _, rng in bins]
    keys, n_pos = _positives(geo, ranges)
    n_seg = (geo.n_zones + 1) * geo.n_categories
    key_bin, key_seg = np.divmod(keys, n_seg)
    # what a bin builds: its slot flags, and its instances, AP entries and curves at every threshold
    work = np.bincount(geo.row_seg[geo.pair_row], minlength=n_seg) + np.bincount(geo.ap_seg, minlength=n_seg) + 1
    per_bin = np.bincount(key_bin, weights=work[key_seg], minlength=len(bins)).astype(np.int64)
    live = np.flatnonzero(per_bin)  # the bins with a countable ground truth
    size = len(geo.slot_seg) + len(cfg.iou_thresholds) * per_bin[live]
    ends = np.cumsum(size)
    bin_zps: list[list[float | None]] = [[None] * len(partition.zones)] * len(bins)  # per bin, per zone
    lo = 0
    while lo < len(live):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - size[lo] + matching.BLOCK_ENTRIES, side="right")))
        block = live[lo:hi]
        k0, k1 = np.searchsorted(key_bin, [block[0], block[-1] + 1])
        block_keys = np.searchsorted(block, key_bin[k0:k1]) * n_seg + key_seg[k0:k1]
        zone_aps = _evaluate(geo, cfg, [ranges[b] for b in block], block_keys, n_pos[k0:k1])
        for b, zaps in zip(block.tolist(), zone_aps):
            bin_zps[b] = [_percent(mean_ap(z)) for z in zaps[:-1]]
        lo = hi
    zps = [[z for (j, _), z in zip(bins, bin_zps) if j == i] for i in range(len(steps))]  # per step, per bin
    mean_zp = {r: [_mean(zone) for zone in zip(*zps[i])] for i, r in enumerate(steps)}
    grand = [_mean([mean_zp[r][zi] for r in steps]) for zi in range(len(partition.zones))]
    return ScaleStudyReport(tuple(steps), partition.zone_ids, mean_zp, grand)


def _mean(values) -> float | None:
    """Mean of the values that are not None, summed left to right; None if every value is.

    Not ``sum``, which compensates its rounding from Python 3.12 on.
    """
    defined, total = [v for v in values if v is not None], 0.0
    for v in defined:
        total += v
    return total / len(defined) if defined else None


def grid_heatmap(
    ds: Dataset, dets: DetectionSet, rows: int, cols: int, cfg: EvalConfig | None = None
) -> list[list[float | None]]:
    """ZP matrix over a rows x cols grid; None marks cells without ground truth."""
    partition = build_partition(Grid(rows, cols))
    return grid_rows(partition, [z.zp for z in evaluate_zones(ds, dets, partition, cfg).zones])


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
