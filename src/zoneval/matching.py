"""Greedy IoU matching and interpolated Average Precision, on flat arrays.

This is the metric kernel that zone evaluation restricts.  A group is one
image's detections and ground truths of one category (within one zone, or
the whole image).  Its detections are matched in descending score order,
each claiming the unmatched non-ignored ground truth of highest IoU at or
above the threshold; on equal IoU the later ground truth wins.  A detection
that only reaches an ignored ground truth is itself ignored, as is an
unmatched detection whose own box area falls outside the configured scale
range.  Every ground truth is matched at most once per threshold.

``greedy_match`` runs this rule for any number of groups and every IoU
threshold at once.  Its input is the flat list of candidate pairs (detection
row, ground-truth slot, IoU) with IoU at or above the lowest threshold.  It
steps over detection rank, at most the per-image cap, and each step decides
the pairs of that rank in every group and at every threshold with a few
array operations.  Rows without a candidate pair never match, so they never
enter the loop.

AP follows the conventional COCO recipe: cumulative TP/FP in global score
order, precision monotonized from the right, sampled at evenly spaced recall
points, averaged over categories (those with at least one countable ground
truth) and IoU thresholds.  ``average_precision`` computes it for many
(category, threshold) curves in one pass over flat arrays, with the same
floating-point operations per curve as a curve-by-curve loop.

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
    """Greedy matching of many groups at every IoU threshold.

    Pairs come in ``pair_order``.  A slot is one ground truth of one group, so
    matching in one group never touches another; ``slot_ignored`` flags the
    ignored slots.  Returns (tp, ignored), both (n_rows, T): whether each row
    matched a non-ignored and an ignored ground truth at each threshold.

    Per row and threshold the winner is the first pair in (non-ignored first,
    -IoU, -slot) order whose IoU reaches the threshold and whose slot is still
    free, which is COCO's greedy rule.  Rows of one step belong to different
    groups, so a step resolves all of them at once.
    """
    t_count = len(thresholds)
    tp = np.zeros((n_rows, t_count), dtype=bool)
    ign = np.zeros((n_rows, t_count), dtype=bool)
    if len(row) == 0:
        return tp, ign
    # within a row, non-ignored pairs first; the (-IoU, -slot) order is kept
    new_row = np.ones(len(row), dtype=bool)
    new_row[1:] = row[1:] != row[:-1]
    run = np.cumsum(new_row) - 1
    order = np.argsort(2 * run + slot_ignored[slot], kind="stable")
    row, slot, iou, step = row[order], slot[order], iou[order], step[order]
    pair_ign = slot_ignored[slot]
    reaches = iou[:, None] >= np.asarray(thresholds)[None, :]
    matched = np.zeros((len(slot_ignored), t_count), dtype=bool)

    row_start = np.flatnonzero(new_row)  # rows stay contiguous after the reorder
    step_start = np.searchsorted(step[row_start], np.arange(step[-1] + 2))
    bounds = np.append(row_start, len(row))
    none = len(row)
    for s in range(len(step_start) - 1):
        r0, r1 = step_start[s], step_start[s + 1]
        a, b = bounds[r0], bounds[r1]
        free = reaches[a:b] & ~matched[slot[a:b]]
        cand = np.where(free, np.arange(a, b)[:, None], none)
        first = np.minimum.reduceat(cand, row_start[r0:r1] - a, axis=0)
        hit_row, hit_t = np.nonzero(first < none)
        p = first[hit_row, hit_t]
        matched[slot[p], hit_t] = True
        tp[row[p], hit_t] = ~pair_ign[p]
        ign[row[p], hit_t] = pair_ign[p]
    return tp, ign


# bounds on the temporaries of average_precision: kept entries per pass and
# curves sampled per block (each sample row holds len(recall_grid) values)
_AP_ENTRIES = 1 << 16
_AP_CURVES = 512


def average_precision(
    tp: np.ndarray,
    ignored: np.ndarray,
    starts: np.ndarray,
    n_pos: np.ndarray,
    recall_grid: np.ndarray,
) -> np.ndarray:
    """Interpolated AP of S segments at T thresholds, as an (S, T) array.

    ``tp`` and ``ignored`` are (T, N): N detections laid out as S segments
    beginning at ``starts``, each in descending score order (stable), so one
    sort serves every threshold.  ``n_pos`` is each segment's positive
    ground-truth count, all > 0, and ``recall_grid`` rises from 0, as
    ``EvalConfig.recall_grid`` does.  Ignored rows are dropped after the sort.
    Each (threshold, segment) curve gets the arithmetic of a standalone
    computation: cumulative counts, recall and precision, precision
    monotonized from the right, sampled at the first recall >= each grid
    point (0 past the end), and averaged.
    """
    t_count, n = tp.shape
    s_count, r_count = len(starts), len(recall_grid)
    seg_of = np.repeat(np.arange(s_count), np.diff(np.append(starts, n)))
    out = np.empty(t_count * s_count)
    per_pass = max(1, _AP_ENTRIES // max(n, 1))
    for t0 in range(0, t_count, per_pass):
        t1 = min(t0 + per_pass, t_count)
        # kept entries in (threshold, segment, score) order: one run per curve
        t_idx, col = np.nonzero(~ignored[t0:t1])
        run = (t0 + t_idx) * s_count + seg_of[col]
        hit = tp[t0 + t_idx, col]
        k = len(run)
        new = np.ones(k, dtype=bool)
        new[1:] = run[1:] != run[:-1]
        first = np.maximum.accumulate(np.where(new, np.arange(k), 0))
        tp_cum = np.cumsum(hit)
        tp_cum -= tp_cum[first] - hit[first]
        recall = tp_cum / n_pos[seg_of[col]]
        precision = tp_cum / (np.arange(k) - first + 1)
        # the first entry with recall >= grid[j] is the first whose key exceeds
        # run * (R + 1) + j, where key = run * (R + 1) + #(grid points <= recall)
        key = run * (r_count + 1) + np.searchsorted(recall_grid, recall, side="right")
        for lo in range(t0 * s_count, t1 * s_count, _AP_CURVES):
            runs = np.arange(lo, min(lo + _AP_CURVES, t1 * s_count))
            at = np.searchsorted(key, (runs[:, None] * (r_count + 1) + np.arange(r_count)).ravel(),
                                 side="right")
            # grid[j] samples the largest precision from at[j] to the end of its
            # run: the maximum, from the right, of the blocks between samples.
            # A run's last block ends where the next run's first sample starts.
            stop = np.searchsorted(key, (runs[-1] + 1) * (r_count + 1))
            # precision >= 0, so an appended 0 closes the last block harmlessly
            block = np.maximum.reduceat(np.append(precision[at[0] : stop], 0.0), at - at[0])
            block[:-1][at[1:] == at[:-1]] = 0.0  # empty blocks
            sampled = np.maximum.accumulate(block.reshape(len(runs), r_count)[:, ::-1], axis=1)
            # summed left to right, in the order a single curve's samples are
            out[lo : lo + len(runs)] = np.ascontiguousarray(sampled[:, ::-1]).mean(axis=1)
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

