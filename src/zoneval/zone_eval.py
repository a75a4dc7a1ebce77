"""Zone-restricted evaluation: ZP series, variance, scale studies, heatmaps.

Each zone is evaluated as a standalone sub-problem containing exactly the
ground truths and detections whose box centers fall in it, so the union of
all zones reproduces the full-image evaluation and the whole-image zone
reproduces AP bit-for-bit.

The whole image is one more zone, index ``n_zones``: every ground truth and
detection appears once in its zone and, when the whole image is reported,
once more in it (``_Geometry`` gives the slots and rows).  ``scale_study``
and ``grid_heatmap`` report zones only, so their geometry holds the zone
copy alone and they match and score nothing of the whole image; the two
copies share no row or slot, so the zone copy is the same either way.  The
cap ranks a detection within its image, or with ``cap_after_zone`` within
its (image, zone), and a candidate pair is kept when its detection and
ground truth share a zone and the detection is under the cap.  The same
rule builds every zone.

One geometry pass per evaluation does everything that does not depend on the
scale range: the per-image cap, one ``Partition.assign`` call for all box
centers, and one blocked IoU pass over the same-image, same-category pairs
of the whole dataset (``_candidate_pairs``).  It keeps the candidate pairs
(IoU at or above the lowest threshold) as flat dataset-wide arrays.

Count, match, then score: a ground truth is countable when it is not crowd
and its area lies in the scale range (``_countable``, the one statement of
the rule), and ``_zone_aps`` counts them per (range, segment).  Only the
pairs of (zone, category) segments holding a countable ground truth are
matched.  This is exact: AP accumulation leaves every other segment out of
the zone's mean (as COCO's accumulate does).

``_zone_aps``, the one step after the geometry, does this for a list of
scale ranges at once, the range being one more part of the group key, and
sends the ranges that hold a positive through ``_evaluate`` in
``matching.blocks``, a range building one ignore flag per slot plus T
entries per instance, AP entry and curve.  Each candidate pair is expanded
only into the ranges in which its segment is countable; such a (range,
pair) instance has its AP entry as its row and ``range * n_slots + slot``
as its slot, and one greedy pass (``matching.greedy_match``) with one
ignore flag per (range, slot), set where ``_countable`` is not, matches
every range, image and IoU threshold at once, in as many steps as the
deepest contention for a ground truth (``matching.pair_order``).  Its
match outcome (tp, ignored) is already in the (range, segment, -score)
order of the AP entries, taken from one precomputed stable score order, so
one ``average_precision`` call scores a block's curves.  The AP rows form one
table in (range, zone, category) order, each (range, zone) a row range of
it.  ``matching.table_mean_aps``, the one table reducer, reduces every
range at once, one reduction per table size, so no step of a report runs
numpy per zone.  ``evaluate_zones`` reduces through ``matching.table_means``,
which also gives each table's per-threshold figures; ``scale_study`` and
``grid_heatmap``, which report none, call ``table_mean_aps`` directly.
``evaluate_zones`` is the one-range case, ``scale_study`` the
one-range-per-bin case.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from . import matching
from .coco import Dataset, DetectionSet, box_centers, box_corners, corner_iou
from .errors import _numeric
from .matching import (
    EvalConfig,
    average_precision,
    greedy_match,
    pair_order,
    rank_within,
    table_mean_aps,
    table_means,
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
    mean = _sum(zps) / len(zps)
    return _sum((z - mean) ** 2 for z in zps) / len(zps)


def _sum(values) -> float:
    """Sum of floats, added left to right.

    Not builtin ``sum``, which compensates its rounding from Python 3.12 on,
    so that a report's bytes do not depend on the interpreter.
    """
    total = 0.0
    for v in values:
        total += v
    return total


@dataclass
class _Geometry:
    """The scale-independent part of one evaluation, as flat arrays.

    The whole image is zone ``n_zones``.  Ground truths are indexed in image
    order; ground truth ``g`` fills slot ``g`` in its zone and detection
    ``d`` row ``d``.  A geometry with the whole image also holds a second
    copy, in zone ``n_zones``: slot ``n_gt + g`` and row ``n_dt + d``.
    Without it, the whole-image segments are empty.  A segment is a (zone,
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
    seg_start: np.ndarray  # segment s holds ap_rows[seg_start[s]:seg_start[s + 1]]
    ap_rank: np.ndarray  # per row: its place in its segment's run of ap_rows; -1 over the cap


def _candidate_pairs(
    dt_group: np.ndarray, dt_box: np.ndarray, gt_group: np.ndarray, gt_box: np.ndarray, n_categories: int,
    min_iou: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(detection, ground truth, IoU) of the same-group pairs with IoU >= min_iou, by (detection, ground truth).

    A group is one (image, category), keyed ``image * n_categories +
    category``, and the detections come in image order.  The ground truths
    are sorted by group once (stably), so each detection's group is one run
    of them.  Each detection's run, its first sorted ground truth and its
    length, comes from one ``np.bincount`` of the ground-truth groups per
    run of whole images, cut by ``matching.blocks`` so that the run's image
    x category table stays within ``BLOCK_ENTRIES``.  The pairs are then
    listed in ``matching.blocks`` of whole detections, a detection building
    four corner entries per pair in the first test.  A block keeps the pairs
    that overlap in x, then those that overlap in y, and computes
    ``corner_iou`` on those alone.  Every other pair has IoU 0, and
    ``EvalConfig`` keeps every threshold above 0.
    """
    by_group = np.argsort(gt_group, kind="stable")
    sorted_group = gt_group[by_group]
    lo = np.zeros(len(dt_group), dtype=np.int64)
    count = np.zeros(len(dt_group), dtype=np.int64)
    n_images = int(dt_group[-1]) // n_categories + 1 if len(dt_group) else 0
    for i0, i1 in matching.blocks(np.full(n_images, n_categories)):
        k0, k1 = i0 * n_categories, i1 * n_categories
        # every key of an image lies below the first key of the next one, so the detections,
        # in image order, are split by these keys as a sorted array would be
        (d0, d1), (g0, g1) = np.searchsorted(dt_group, [k0, k1]), np.searchsorted(sorted_group, [k0, k1])
        table = np.bincount(sorted_group[g0:g1] - k0, minlength=k1 - k0)
        key = dt_group[d0:d1] - k0
        count[d0:d1] = table[key]
        lo[d0:d1] = (g0 + np.cumsum(table) - table)[key]
    starts = np.cumsum(count) - count  # detection d owns pairs starts[d]:starts[d] + count[d]
    shift = lo - starts  # pair p of detection d is with sorted ground truth p + shift[d]
    dx0, dy0, dx1, dy1 = box_corners(dt_box)
    gx0, gy0, gx1, gy1 = (c[by_group] for c in box_corners(gt_box))
    found = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))]
    for d0, d1 in matching.blocks(4 * count):
        det = np.repeat(np.arange(d0, d1), count[d0:d1])
        g = np.arange(starts[d0], starts[d0] + len(det)) + shift[det]
        k = np.flatnonzero(np.minimum(dx1[det], gx1[g]) - np.maximum(dx0[det], gx0[g]) > 0)
        det, g = det[k], g[k]
        k = np.flatnonzero(np.minimum(dy1[det], gy1[g]) - np.maximum(dy0[det], gy0[g]) > 0)
        det, g = det[k], g[k]
        iou = corner_iou((dx0[det], dy0[det], dx1[det], dy1[det]), (gx0[g], gy0[g], gx1[g], gy1[g]))
        k = np.flatnonzero(iou >= min_iou)
        if len(k):
            found.append((det[k], by_group[g[k]], iou[k]))
    det, gt, iou = zip(*found)
    return np.concatenate(det), np.concatenate(gt), np.concatenate(iou)


def _geometry(
    ds: Dataset, dets: DetectionSet, partition: Partition, cfg: EvalConfig, whole_image: bool = True
) -> _Geometry:
    """Cap, zone lookup and candidate pairs of every image; independent of ``cfg.scale_range``.

    Without ``whole_image`` the whole-image copy is left out: no slot, row,
    candidate pair or AP row of zone ``n_zones``.  The zone copy is the same
    either way, bit for bit, as the two copies share no row or slot.
    """
    if dets.image_ids != ds.image_ids or dets.category_ids != ds.category_ids:
        raise ValueError("the detections were resolved against a dataset with other image or category ids")
    cap = cfg.max_dets_per_image
    n_zones, n_cat = len(partition.zones), len(ds.category_ids)
    rank = np.arange(dets.total) - dets.starts[dets.image]  # rank by score within the image
    kept = slice(None) if cfg.cap_after_zone else rank < cap
    dt_img, dt_cat, dt_box, score = dets.image[kept], dets.category[kept], dets.box[kept], dets.score[kept]
    gt_box, gt_cat, n_gt, n_dt = ds.gt_box, ds.gt_category, len(ds.gt_box), len(dt_box)

    owner = np.concatenate([ds.gt_image, dt_img])
    zone = partition.assign(*box_centers(np.concatenate([gt_box, dt_box])), *ds.image_size[owner].T)
    gt_zone, dt_zone = zone[:n_gt], zone[n_gt:]

    # copy c of ground truth g is slot c * n_gt + g, of detection d row c * n_dt + d
    copies = 2 if whole_image else 1
    slot_zone = np.concatenate([gt_zone, np.full((copies - 1) * n_gt, n_zones)])
    row_zone = np.concatenate([dt_zone, np.full((copies - 1) * n_dt, n_zones)])
    row_img = np.tile(dt_img, copies)
    # the cap ranks a row within its image, or within its (image, zone) after zoning
    row_rank = rank_within(row_img * (n_zones + 1) + row_zone) if cfg.cap_after_zone else np.tile(rank[kept], copies)
    under_cap = row_rank < cap

    det, gt, iou = _candidate_pairs(dt_img * n_cat + dt_cat, dt_box, ds.gt_image * n_cat + gt_cat, gt_box, n_cat,
                                    cfg.iou_thresholds[0])
    pair_row = np.concatenate([c * n_dt + det for c in range(copies)])
    pair_slot = np.concatenate([c * n_gt + gt for c in range(copies)])
    pair_iou = np.tile(iou, copies)
    keep = under_cap[pair_row] & (row_zone[pair_row] == slot_zone[pair_slot])
    pair_row, pair_slot, pair_iou = pair_row[keep], pair_slot[keep], pair_iou[keep]

    row_seg = row_zone * n_cat + np.tile(dt_cat, copies)
    order, pair_step = pair_order(pair_row, pair_slot, pair_iou)
    # (segment, -score) order: every zone segment precedes every whole-image one, so each copy
    # of the detections is sorted by segment on its own, from one stable sort by -score.  The
    # segments go in the smallest integer type, as numpy sorts 8- and 16-bit keys by radix
    by_score = np.argsort(-score, kind="stable")
    seg_key = row_seg.astype(np.min_scalar_type((n_zones + 1) * n_cat))
    runs = [rows[under_cap[rows]] for rows in (c * n_dt + by_score for c in range(copies))]
    ap_rows = np.concatenate([rows[np.argsort(seg_key[rows], kind="stable")] for rows in runs])
    ap_seg = row_seg[ap_rows]
    seg_start = np.searchsorted(ap_seg, np.arange((n_zones + 1) * n_cat + 1))
    ap_rank = np.full(len(row_seg), -1)
    ap_rank[ap_rows] = np.arange(len(ap_rows)) - seg_start[ap_seg]
    return _Geometry(
        n_zones=n_zones,
        n_categories=n_cat,
        gt_area=ds.gt_area,
        gt_crowd=ds.gt_crowd,
        slot_seg=(slot_zone * n_cat + np.tile(gt_cat, copies)).astype(np.int32),
        row_seg=row_seg.astype(np.int32),
        row_area=np.tile(dt_box[:, 2] * dt_box[:, 3], copies),
        pair_row=pair_row[order].astype(np.int32),
        pair_slot=pair_slot[order].astype(np.int32),
        pair_iou=pair_iou[order],
        pair_step=pair_step.astype(np.int32),
        ap_rows=ap_rows.astype(np.int32),
        seg_start=seg_start,
        ap_rank=ap_rank.astype(np.int32),
    )


def _in_ranges(area: np.ndarray, ranges: list[tuple[float, float]], b: np.ndarray) -> np.ndarray:
    """Whether each area lies in the scale range [lo, hi) ``ranges[b]``, elementwise."""
    lo, hi = np.array(ranges, dtype=float).T
    return (lo[b] <= area) & (area < hi[b])


def _countable(geo: _Geometry, ranges: list[tuple[float, float]]) -> np.ndarray:
    """Whether each slot of ``geo`` counts under each scale range, as (ranges, slots) bools.

    A slot counts when its ground truth is not crowd and its area lies in
    the range.  Slot ``s`` is ground truth ``s % n_gt``: slot ``n_gt + g`` is
    ground truth ``g`` in the whole image.
    """
    gt = np.arange(len(geo.slot_seg)) % len(geo.gt_area)
    return ~geo.gt_crowd[gt] & _in_ranges(geo.gt_area[gt], ranges, np.arange(len(ranges))[:, None])


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, place) of each item when owner i holds ``counts[i]`` items, listed owner by owner."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


def _zone_aps(
    geo: _Geometry, cfg: EvalConfig, ranges: list[tuple[float, float] | None]
) -> tuple[np.ndarray, np.ndarray]:
    """The AP table of every scale range and zone, with the whole image last: (aps, cuts).

    Table ``k = range * (n_zones + 1) + zone``, the (countable categories, T)
    AP array of that (range, zone), is ``aps[cuts[k]:cuts[k + 1]]``.

    A range is [lo, hi) in pixels^2, None for [0, inf) (every area ``Dataset``
    accepts).  Positives are counted per (range, segment), keyed ``range *
    n_segments + segment``, one per slot that ``geo`` holds and
    ``_countable`` counts.  The ranges that hold one go through ``_evaluate``
    in ``matching.blocks``, a range building one ignore flag per slot (of
    which ``greedy_match`` keeps T matched flags) plus, per threshold, its
    live (range, pair) instances, (range, AP row) entries and curves, and
    each block's outcome is scored at once.  One search over the keys gives
    each (range, zone) its row range, a range without a positive getting
    empty tables.  Counting goes in blocks too, a range building one flag
    per slot.  A geometry without the whole image holds none of its slots,
    so every whole-image table is empty.
    """
    ranges = [(0.0, math.inf) if r is None else r for r in ranges]
    n_seg = (geo.n_zones + 1) * geo.n_categories
    keys = [np.zeros(0, dtype=np.int64)]
    for lo, hi in matching.blocks(np.full(len(ranges), len(geo.slot_seg))):
        b, slot = np.nonzero(_countable(geo, ranges[lo:hi]))
        keys.append((lo + b) * n_seg + geo.slot_seg[slot])
    keys, n_pos = np.unique(np.concatenate(keys), return_counts=True)
    key_range, key_seg = np.divmod(keys, n_seg)
    work = np.bincount(geo.row_seg[geo.pair_row], minlength=n_seg) + np.diff(geo.seg_start) + 1
    per_range = np.bincount(key_range, weights=work[key_seg], minlength=len(ranges)).astype(np.int64)
    live = np.flatnonzero(per_range)
    aps = [np.zeros((0, len(cfg.iou_thresholds)))]
    for lo, hi in matching.blocks(len(geo.slot_seg) + len(cfg.iou_thresholds) * per_range[live]):
        block = live[lo:hi]
        k0, k1 = np.searchsorted(key_range, [block[0], block[-1] + 1])
        block_keys = np.searchsorted(block, key_range[k0:k1]) * n_seg + key_seg[k0:k1]
        tp, ignored, starts = _evaluate(geo, cfg, [ranges[b] for b in block], block_keys)
        aps.append(average_precision(tp, ignored, starts, n_pos[k0:k1], cfg.recall_grid()))
    # one AP row per key; a (range, zone)'s segments are one run of them, in category order,
    # whose first key is (range * (n_zones + 1) + zone) * n_categories
    firsts = np.arange(len(ranges) * (geo.n_zones + 1) + 1) * geo.n_categories
    return np.concatenate(aps), np.searchsorted(keys, firsts)


def _evaluate(
    geo: _Geometry, cfg: EvalConfig, ranges: list[tuple[float, float]], keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Match every curve under its scale range; returns the match outcome (tp, ignored, starts).

    Each key is a curve, whose entries are its segment's AP rows, laid out in
    key order; ``starts`` holds each curve's first entry.  ``tp`` and
    ``ignored`` are C-contiguous (T, entries).  A greedy instance is a pair
    of a curve's segment; its row is its entry, and its slot is ``range *
    n_slots + slot``, ignored unless ``_countable`` counts that slot in that
    range.
    """
    n_seg = (geo.n_zones + 1) * geo.n_categories
    key_range, key_seg = np.divmod(keys, n_seg)
    # entries, in (range, segment, -score) order
    size = np.diff(geo.seg_start)[key_seg]
    starts = np.cumsum(size) - size
    curve, place = _ragged(size)
    entry_row = geo.ap_rows[geo.seg_start[key_seg[curve]] + place]

    # instances, in (step, range, pair) order, which keeps each row's pairs in pair order
    pair_seg = geo.row_seg[geo.pair_row]
    by_seg = np.argsort(key_seg, kind="stable")
    per_seg = np.bincount(key_seg, minlength=n_seg)
    pair, place = _ragged(per_seg[pair_seg])
    key = by_seg[(np.cumsum(per_seg) - per_seg)[pair_seg[pair]] + place]
    order = np.argsort(geo.pair_step[pair].astype(np.int64) * len(ranges) + key_range[key], kind="stable")
    pair, key = pair[order], key[order]
    tp, ignored = greedy_match(starts[key] + geo.ap_rank[geo.pair_row[pair]],
                               key_range[key] * len(geo.slot_seg) + geo.pair_slot[pair], geo.pair_iou[pair],
                               geo.pair_step[pair], ~_countable(geo, ranges).ravel(), len(entry_row),
                               cfg.iou_thresholds)
    # an unmatched detection outside the range is ignored too; a range of every area leaves none out
    inside = _in_ranges(geo.row_area[entry_row], ranges, key_range[curve])
    if not inside.all():
        ignored |= ~tp & ~inside[:, None]
    return np.ascontiguousarray(tp.T), np.ascontiguousarray(ignored.T), starts


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
    means, by_threshold = table_means(*_zone_aps(geo, cfg, [cfg.scale_range]))
    gt_counts = np.bincount(geo.slot_seg // geo.n_categories, minlength=geo.n_zones + 1)[:-1].tolist()
    det_counts = np.diff(geo.seg_start[np.arange(geo.n_zones + 1) * geo.n_categories]).tolist()
    zones = [ZoneResult(zid, _percent(ap), [_percent(v) for v in aps], n_gt, n_det, partition.area_fraction(zid))
             for zid, ap, aps, n_gt, n_det in zip(partition.zone_ids, means, by_threshold, gt_counts, det_counts)]
    return ZoneReport(spec_label(partition.spec), cfg.iou_thresholds, zones, _percent(means[-1]))


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
    [0, inf) even when r does not divide the cap.  An r that is not a
    number by the readers' rule (a bool, numpy's included, is not one) or not
    finite and > 0, whose squared bin edges overflow, or that gives more than
    ``_MAX_SCALE_BINS`` bins raises ValueError before any bin is built.
    """
    if r is None:
        return [(0.0, math.inf)]
    if not (_numeric((r,)) and 0 < r < math.inf):  # nan fails this too
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
    every bin is one range of one ``_zone_aps`` call.  The study reports no
    whole-image figure, so its geometry leaves the whole-image copy out and
    only the zone copies are matched and scored.  A bin without a countable
    ground truth has no defined ZP and reaches neither kernel.
    The bins replace the scale range, so a ``cfg`` with ``scale_range`` set
    raises ValueError, as does a step given twice or no step.
    ``workers`` is accepted for compatibility and ignored.
    """
    cfg = cfg or EvalConfig()
    if cfg.scale_range is not None:
        raise ValueError("scale_study sets the scale range per bin; cfg.scale_range must be None")
    # each step's own check first: a bool step would pass as a number in the set
    bins = [(i, rng) for i, r in enumerate(steps) for rng in scale_bins(r)]
    if len(set(steps)) < len(steps):  # a step's mean would count twice in the grand mean
        raise ValueError(f"scale_study steps must be distinct, got {tuple(steps)}")
    if not steps:  # every zone's grand mean would be None, as if no zone had ground truth
        raise ValueError("scale_study needs at least one step")
    bin_zps = _zone_zps(ds, dets, partition, cfg, [rng for _, rng in bins])
    zps = [[z for (j, _), z in zip(bins, bin_zps) if j == i] for i in range(len(steps))]  # per step, per bin
    mean_zp = {r: [_mean(zone) for zone in zip(*zps[i])] for i, r in enumerate(steps)}
    grand = [_mean([mean_zp[r][zi] for r in steps]) for zi in range(len(partition.zones))]
    return ScaleStudyReport(tuple(steps), partition.zone_ids, mean_zp, grand)


def _zone_zps(
    ds: Dataset, dets: DetectionSet, partition: Partition, cfg: EvalConfig, ranges: list[tuple[float, float] | None]
) -> list[list[float | None]]:
    """Per scale range, the ZP of every zone, from a geometry without the whole image."""
    geo = _geometry(ds, dets, partition, cfg, whole_image=False)
    means = table_mean_aps(*_zone_aps(geo, cfg, ranges))
    return [[_percent(ap) for ap in means[b : b + geo.n_zones]] for b in range(0, len(means), geo.n_zones + 1)]


def _mean(values) -> float | None:
    """Mean of the values that are not None, summed by ``_sum``; None if every value is."""
    defined = [v for v in values if v is not None]
    return _sum(defined) / len(defined) if defined else None


def grid_heatmap(
    ds: Dataset, dets: DetectionSet, rows: int, cols: int, cfg: EvalConfig | None = None
) -> list[list[float | None]]:
    """ZP matrix over a rows x cols grid; None marks cells without ground truth.

    The cells' ZPs are those of ``evaluate_zones``, bit for bit; the whole
    image, which the matrix does not show, is neither matched nor scored.
    """
    cfg = cfg or EvalConfig()
    partition = build_partition(Grid(rows, cols))
    [zps] = _zone_zps(ds, dets, partition, cfg, [cfg.scale_range])
    return grid_rows(partition, zps)


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
