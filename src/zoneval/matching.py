"""Greedy IoU matching and interpolated Average Precision, on flat arrays.

This is the metric kernel that zone evaluation restricts.  A group is one
image's detections and ground truths of one category (within one zone, or
the whole image).  Its detections are matched in descending score order,
each claiming the unmatched non-ignored ground truth of highest IoU at or
above the threshold; on equal IoU the later ground truth wins.  A detection
that only reaches an ignored ground truth is itself ignored, as is an
unmatched detection whose own box area falls outside the configured scale
range.  Every ground truth is matched at most once per threshold.

``greedy_match`` runs this rule for any number of groups, for B sets of
ignore flags and for every IoU threshold at once: a column axis of (B x
thresholds).  ``zone_eval`` passes one set and makes the scale range part of
the group instead.  Its input is the flat list of candidate
pairs (detection row, ground-truth slot, IoU) with IoU at or above the lowest
threshold.  It steps over detection rank, at most the per-image cap, and each
step decides the pairs of that rank in every group and every column with a
few array operations: a row's winner in a column is its free, reaching pair
of least ``pair index + n_pairs * ignored``, one ``minimum.reduceat``.  Rows
without a candidate pair never match, so they never enter the loop.

AP follows the conventional COCO recipe: cumulative TP/FP in global score
order, precision monotonized from the right, sampled at evenly spaced recall
points, averaged over categories (those with at least one countable ground
truth) and IoU thresholds.  ``average_precision`` computes it for many
(category, threshold) curves in one pass over flat arrays, with the same
floating-point operations per curve as a curve-by-curve loop, by scattering
each true positive into the (curve, recall point) cell its recall reaches.
Only true positives need a cell: a false positive has the recall of the last
true positive before it, so it lands in that one's cell with a lower
precision, and before a curve's first true positive precision is 0, which an
empty cell holds already.  One departure: the per-image cap keeps an image's
top detections over all its categories, where the COCO API's ``evaluateImg``
and ``accumulate`` apply ``maxDets`` per (image, category); the two agree
whenever no image holds more detections than the cap.

``mean_ap`` and ``threshold_aps`` reduce an (S, T) AP array to one figure
and to one figure per threshold.  The protocol rules that pick the groups,
the ignored ground truths and the candidate pairs live in ``zone_eval``,
the one driver of this kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))


@dataclass(frozen=True)
class EvalConfig:
    iou_thresholds: tuple[float, ...] = DEFAULT_IOU_THRESHOLDS
    recall_points: int = 101
    max_dets_per_image: int = 100
    scale_range: tuple[float, float] | None = None  # [lo, hi) in pixels^2
    cap_after_zone: bool = False

    def __post_init__(self) -> None:
        ts = self.iou_thresholds
        if not ts or any(not 0.0 < t <= 1.0 for t in ts):
            raise ValueError("iou thresholds must lie in (0, 1]")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("iou thresholds must be strictly increasing")
        if self.recall_points < 2:
            raise ValueError("recall_points must be >= 2")
        if self.max_dets_per_image < 1:
            raise ValueError("max_dets_per_image must be >= 1")
        if self.scale_range is not None and not self.scale_range[0] < self.scale_range[1]:
            raise ValueError("scale_range must satisfy lo < hi")

    def recall_grid(self) -> np.ndarray:
        # k/(R-1) by IEEE division, bit-identical to a scalar re-derivation
        return np.arange(self.recall_points) / (self.recall_points - 1)


def in_scale_range(area: np.ndarray, rng: tuple[float, float] | None) -> np.ndarray:
    """Whether each area lies in the half-open scale range [lo, hi); all True for None."""
    if rng is None:
        return np.ones(np.shape(area), dtype=bool)
    return (rng[0] <= area) & (area < rng[1])


def rank_within(keys: np.ndarray) -> np.ndarray:
    """Rank of each element among the elements before it that share its key."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = sorted_keys[1:] != sorted_keys[:-1]
    pos = np.arange(len(keys))
    rank = np.empty(len(keys), dtype=np.int64)
    rank[order] = pos - np.maximum.accumulate(np.where(new, pos, 0))
    return rank


def pair_order(
    row: np.ndarray, slot: np.ndarray, iou: np.ndarray, row_group: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Order candidate pairs for ``greedy_match``: (permutation, step of each permuted pair).

    ``row_group[r]`` is the group of detection row ``r``; within a group, row
    ids must increase with detection rank.  A row's step is its rank among the
    rows of its group that have a pair.  Pairs are ordered by (step, row,
    -IoU, -slot), so each step and each row is one contiguous run.
    """
    rows = np.zeros(len(row_group), dtype=bool)
    rows[row] = True
    bearing = np.flatnonzero(rows)
    step_of = np.zeros(len(row_group), dtype=np.int64)
    step_of[bearing] = rank_within(row_group[bearing])
    step = step_of[row]
    order = np.lexsort((-slot, -iou, row, step))
    return order, step[order]


def greedy_match(
    row: np.ndarray,
    slot: np.ndarray,
    iou: np.ndarray,
    step: np.ndarray,
    slot_ignored: np.ndarray,
    n_rows: int,
    thresholds: tuple[float, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy matching of many groups under B ignore columns, at every IoU threshold.

    Pairs come in ``pair_order``.  A slot is one ground truth of one group, so
    matching in one group never touches another.  ``slot_ignored`` is
    (slots, B): column b flags the slots ignored in the b-th matching (a scale
    bin, say), and the thresholds tile across the B columns.  Returns (tp,
    ignored), both (n_rows, B, T): whether each row matched a non-ignored and
    an ignored ground truth in each column at each threshold.

    Per row, column and threshold the winner is the free pair, among those
    whose IoU reaches the threshold, of least key ``pair index + n_pairs *
    ignored``: non-ignored pairs first, then in pair order (-IoU, -slot),
    which is COCO's greedy rule.  Rows of one step belong to different
    groups, so a step resolves all of them, in every column, at once.
    """
    b_count, t_count = slot_ignored.shape[1], len(thresholds)
    tp = np.zeros((n_rows, b_count, t_count), dtype=bool)
    ign = np.zeros((n_rows, b_count, t_count), dtype=bool)
    n = len(row)
    if n == 0:
        return tp, ign
    key = np.arange(n)[:, None] + n * slot_ignored[slot]  # (pairs, B)
    reaches = iou[:, None] >= np.asarray(thresholds)[None, :]
    matched = np.zeros((len(slot_ignored), b_count, t_count), dtype=bool)

    new_row = np.ones(n, dtype=bool)
    new_row[1:] = row[1:] != row[:-1]
    row_start = np.flatnonzero(new_row)
    step_start = np.searchsorted(step[row_start], np.arange(step[-1] + 2))
    bounds = np.append(row_start, n)
    none = 2 * n
    for s in range(len(step_start) - 1):
        r0, r1 = step_start[s], step_start[s + 1]
        a, b = bounds[r0], bounds[r1]
        free = reaches[a:b, None, :] & ~matched[slot[a:b]]
        cand = np.where(free, key[a:b, :, None], none)
        first = np.minimum.reduceat(cand, row_start[r0:r1] - a, axis=0)
        hit_row, hit_b, hit_t = np.nonzero(first < none)
        k = first[hit_row, hit_b, hit_t]
        hit_ign = k >= n
        p = k - n * hit_ign
        matched[slot[p], hit_b, hit_t] = True
        tp[row[p], hit_b, hit_t] = ~hit_ign
        ign[row[p], hit_b, hit_t] = hit_ign
    return tp, ign


# bound on the entries of every blocked pass: the AP kernel's (threshold, row)
# entries and (curve, recall point) cells; scale_study's blocks of bins, each
# bin counting its (bin, slot) flags plus its live (bin, pair) instances,
# (bin, AP row) entries and curves times the thresholds; the (range, ground
# truth) flags that count positives; and zone_eval's candidate pairs, four
# corner entries a pair.  An AP block goes over it only when one curve alone
# holds more entries, and a scale_study block when one bin does
BLOCK_ENTRIES = 1 << 16


def average_precision(
    tp: np.ndarray,
    ignored: np.ndarray,
    starts: np.ndarray,
    n_pos: np.ndarray,
    recall_grid: np.ndarray,
) -> np.ndarray:
    """Interpolated AP of S segments at T thresholds, as an (S, T) array.

    ``tp`` and ``ignored`` are (T, N): N detections laid out as S segments
    beginning at ``starts`` (the first at 0), each in descending score order
    (stable), so one sort serves every threshold.  ``n_pos`` is each
    segment's positive ground-truth count, all > 0, and ``recall_grid`` rises
    from 0, as ``EvalConfig.recall_grid`` does.  Ignored rows are dropped
    after the sort.  Each (threshold, segment) curve gets the arithmetic of a
    standalone computation: cumulative counts, recall and precision,
    precision monotonized from the right, sampled at the first recall >= each
    grid point (0 past the end), and averaged.  An entry's cell is (curve,
    last grid point <= its recall); a cell's best precision (0 if it has
    none), maximized from the right along its curve, is that grid point's
    sample.  In C order, curve ``t * S + s`` is the flat range from ``t * N +
    starts[s]`` to the next curve's start, and one loop takes blocks of whole
    curves: at most ``BLOCK_ENTRIES // R`` curves and ``BLOCK_ENTRIES``
    entries, unless one curve alone holds more.

    Each cell's best precision is that of a true positive, so only true
    positives are placed.  A false positive shares the recall, and so the
    cell, of the last true positive before it in its curve, with the same
    true-positive count over a larger rank: a precision no higher.  Before the
    first true positive, recall and precision are 0, an empty cell's value.
    A true positive's rank among its curve's kept entries comes from one
    running count of the kept entries per block, so the result is the same
    bits as placing every entry.
    """
    t_count, n = tp.shape
    s_count, r_count = len(starts), len(recall_grid)
    tp, ignored = tp.ravel(), ignored.ravel()
    # bounds[c]:bounds[c + 1] are curve c's entries
    bounds = np.append((np.arange(t_count)[:, None] * n + starts).ravel(), t_count * n)
    out, c0, per_block = np.empty(t_count * s_count), 0, max(1, BLOCK_ENTRIES // r_count)
    while c0 < len(out):
        fits = int(np.searchsorted(bounds, bounds[c0] + BLOCK_ENTRIES, side="right")) - 1
        c1 = max(c0 + 1, min(c0 + per_block, fits))  # whole curves, at least one
        a, b = bounds[c0], bounds[c1]
        kept = ~ignored[a:b]
        # before[i]: kept entries ahead of entry a + i
        before = np.zeros(b - a + 1, dtype=np.int64)
        np.cumsum(kept, out=before[1:])
        # true positives in (curve, score) order: one run per curve
        idx = np.flatnonzero(tp[a:b] & kept)
        run = np.searchsorted(bounds[c0 : c1 + 1], a + idx, side="right") - 1
        k = len(run)
        new = np.ones(k, dtype=bool)
        new[1:] = run[1:] != run[:-1]
        tp_cum = np.arange(1, k + 1) - np.maximum.accumulate(np.where(new, np.arange(k), 0))
        recall = tp_cum / n_pos[(c0 + run) % s_count]
        precision = tp_cum / (before[idx + 1] - before[bounds[c0 + run] - a])
        # cells rise along the entries; recall >= grid[0] == 0 keeps each in its run
        cell = run * r_count + np.searchsorted(recall_grid, recall, side="right") - 1
        new[1:] = cell[1:] != cell[:-1]
        sampled = np.zeros((c1 - c0, r_count))
        sampled.flat[cell[new]] = np.maximum.reduceat(precision, np.flatnonzero(new))
        sampled = np.maximum.accumulate(sampled[:, ::-1], axis=1)
        # summed left to right, in the order a single curve's samples are
        out[c0:c1] = np.ascontiguousarray(sampled[:, ::-1]).mean(axis=1)
        c0 = c1
    return np.ascontiguousarray(out.reshape(t_count, s_count).T)


def mean_ap(aps: np.ndarray) -> float | None:
    """Mean of a (categories, T) AP array over all its entries; None if it has no rows.

    The entries are summed in (category, threshold) order.
    """
    return float(aps.mean()) if len(aps) else None


def threshold_aps(aps: np.ndarray) -> list[float | None]:
    """Mean of a (categories, T) AP array over categories, one value per IoU threshold."""
    if not len(aps):
        return [None] * aps.shape[1]
    return np.ascontiguousarray(aps.T).mean(axis=1).tolist()

