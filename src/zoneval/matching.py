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
threshold at once; ``zone_eval`` makes the scale range part of the group.
Its input is the flat list of candidate pairs (detection row, ground-truth
slot, IoU) with IoU at or above the lowest threshold.  It steps over
detection rank, at most the per-image cap, and each step decides the pairs
of that rank in every group and at every threshold with a few array
operations: a row's winner at a threshold is its free, reaching pair of
least ``pair index + n_pairs * ignored``, one ``minimum.reduceat``.  Rows
without a candidate pair never match, so they never enter the loop.

AP follows the conventional COCO recipe: cumulative TP/FP in global score
order, precision monotonized from the right, sampled at evenly spaced recall
points, averaged over categories (those with at least one countable ground
truth) and IoU thresholds.  ``average_precision`` computes it for many
(category, threshold) curves in one pass over flat arrays, with the same
floating-point operations per curve as a curve-by-curve loop, from the recall
points each curve reaches: the last grid point at or below a true positive's
recall.  Only true positives reach a point: a false positive has the recall
of the last true positive before it, so it would reach that one's point with
a lower precision, and before a curve's first true positive precision is 0.
A reached point's best precision, maximized over the later points of its
curve, is the sample of every grid point back to the curve's point before it;
the grid points past its last point sample 0.  So a curve costs what it
reaches, not the grid, until its samples are averaged.  One departure: the
per-image cap keeps an image's top detections over all its categories, where
the COCO API's ``evaluateImg`` and ``accumulate`` apply ``maxDets`` per
(image, category); the two agree whenever no image holds more detections
than the cap.

``mean_ap`` and ``threshold_aps`` reduce an (S, T) AP array to one figure
and to one figure per threshold.  The protocol rules that pick the groups,
the ignored ground truths and the candidate pairs live in ``zone_eval``,
the one driver of this kernel.
"""

from __future__ import annotations

import numbers
import operator
from collections.abc import Iterator
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
        if not _numbers(ts):
            raise ValueError(f"iou thresholds must be a tuple of numbers, got {ts!r}")
        if not ts or any(not 0.0 < t <= 1.0 for t in ts):
            raise ValueError("iou thresholds must lie in (0, 1]")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("iou thresholds must be strictly increasing")
        if _integer(self.recall_points, "recall_points") < 2:
            raise ValueError("recall_points must be >= 2")
        if _integer(self.max_dets_per_image, "max_dets_per_image") < 1:
            raise ValueError("max_dets_per_image must be >= 1")
        rng = self.scale_range
        if rng is not None and not (_numbers(rng) and len(rng) == 2):
            raise ValueError(f"scale_range must be a (lo, hi) tuple of numbers, got {rng!r}")
        if rng is not None and not rng[0] < rng[1]:
            raise ValueError("scale_range must satisfy lo < hi")

    def recall_grid(self) -> np.ndarray:
        # k/(R-1) by IEEE division, bit-identical to a scalar re-derivation
        return np.arange(self.recall_points) / (self.recall_points - 1)


def _numbers(x) -> bool:
    """Whether x is a tuple (or list) of real numbers; a bool is not one here."""
    return isinstance(x, (tuple, list)) and all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in x)


def _integer(x, name: str) -> int:
    """x as an int, for an integer (numpy's too) that is not a bool; anything else raises ValueError."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {x!r}")


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
    matching in one group never touches another.  ``slot_ignored`` flags
    each slot.  Returns (tp, ignored), both (n_rows, T): whether each row
    matched a non-ignored and an ignored ground truth at each threshold.

    Per row and threshold the winner is the free pair, among those whose IoU
    reaches the threshold, of least key ``pair index + n_pairs * ignored``:
    non-ignored pairs first, then in pair order (-IoU, -slot), which is
    COCO's greedy rule.  Rows of one step belong to different groups, so a
    step resolves all of them, at every threshold, at once.
    """
    tp = np.zeros((n_rows, len(thresholds)), dtype=bool)
    ign = np.zeros((n_rows, len(thresholds)), dtype=bool)
    n = len(row)
    if n == 0:
        return tp, ign
    key = np.arange(n) + n * slot_ignored[slot]
    reaches = iou[:, None] >= np.asarray(thresholds)[None, :]
    matched = np.zeros((len(slot_ignored), len(thresholds)), dtype=bool)

    new_row = np.ones(n, dtype=bool)
    new_row[1:] = row[1:] != row[:-1]
    row_start = np.flatnonzero(new_row)
    step_start = np.searchsorted(step[row_start], np.arange(step[-1] + 2))
    bounds = np.append(row_start, n)
    none = 2 * n
    for s in range(len(step_start) - 1):
        r0, r1 = step_start[s], step_start[s + 1]
        a, b = bounds[r0], bounds[r1]
        free = reaches[a:b] & ~matched[slot[a:b]]
        cand = np.where(free, key[a:b, None], none)
        first = np.minimum.reduceat(cand, row_start[r0:r1] - a, axis=0)
        hit_row, hit_t = np.nonzero(first < none)
        k = first[hit_row, hit_t]
        hit_ign = k >= n
        p = k - n * hit_ign
        matched[slot[p], hit_t] = True
        tp[row[p], hit_t] = ~hit_ign
        ign[row[p], hit_t] = hit_ign
    return tp, ign


# bound on the entries that one block of a blocked pass builds (see ``blocks``)
BLOCK_ENTRIES = 1 << 16


def blocks(sizes: np.ndarray) -> Iterator[tuple[int, int]]:
    """Cut items of the given sizes (>= 0) into consecutive runs ``lo:hi`` of whole items.

    Each run is as long as it can be while its sizes sum to at most
    ``BLOCK_ENTRIES``; an item larger than that is a run alone.
    """
    ends = np.cumsum(sizes, dtype=np.int64)
    lo = 0
    while lo < len(ends):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - sizes[lo] + BLOCK_ENTRIES, side="right")))
        yield lo, hi
        lo = hi


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
    grid point (0 past the end), and averaged.  In C order, curve ``t * S +
    s`` is the flat range from ``t * N + starts[s]`` to the next curve's
    start, and one loop takes ``blocks`` of whole curves, each curve building
    its entries and its R samples.

    An entry reaches the point (curve, last grid point <= its recall).  Each
    reached point keeps its best precision, that of a true positive, so only
    true positives are placed.  A false positive shares the recall, and so
    the point, of the last true positive before it in its curve, with the
    same true-positive count over a larger rank: a precision no higher.
    Before the first true positive, recall and precision are 0.  A true
    positive's rank among its curve's kept entries comes from one running
    count of the kept entries per block.  The maximum over each point and the
    later points of its curve is a doubling scan over the reached points
    alone, at most ceil(log2 R) steps, each masked at the curve boundaries.
    That value is the sample of the point's grid point and of those back to
    the curve's previous point; the grid points after a curve's last point
    sample 0.  One ``np.repeat`` lays the samples out as a (curves, R) block
    in grid order, and its rows are averaged as a single curve's samples are,
    so the result is the same bits as sampling every entry's curve in full.
    """
    t_count, n = tp.shape
    s_count, r_count = len(starts), len(recall_grid)
    tp, ignored = tp.ravel(), ignored.ravel()
    # bounds[c]:bounds[c + 1] are curve c's entries
    bounds = np.append((np.arange(t_count)[:, None] * n + starts).ravel(), t_count * n)
    out = np.empty(t_count * s_count)
    for c0, c1 in blocks(np.diff(bounds) + r_count):  # a curve builds its entries and its R samples
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
        # reached points, rising: (curve, grid point) as a cell, the curve, the best precision
        point, owner = cell[new], run[new]
        value = np.maximum.reduceat(precision, np.flatnonzero(new))
        # maximum over each point and the later points of its curve: a doubling scan,
        # masked where it would cross into the next curve (every precision is > 0)
        step = 1
        while step < len(value):
            same = owner[step:] == owner[:-step]
            if not same.any():
                break
            np.maximum(value[:-step], np.where(same, value[step:], 0.0), out=value[:-step])
            step *= 2
        # the samples as runs in cell order: each point's value, back to its curve's
        # point before it, and after each curve's points a run of 0 to its last cell;
        # edge is the last cell of each run
        last = np.arange(1, c1 - c0 + 1) * r_count - 1
        edge = np.empty(len(point) + c1 - c0, dtype=np.int64)
        fill = np.zeros(len(edge))
        at = np.arange(len(point)) + owner
        edge[at], fill[at] = point, value
        edge[np.searchsorted(point, last, side="right") + np.arange(c1 - c0)] = last
        # the (curves, R) samples, summed left to right as a single curve's are; a
        # temporary, freed before the next block allocates its own
        out[c0:c1] = np.repeat(fill, np.diff(edge, prepend=-1)).reshape(c1 - c0, r_count).mean(axis=1)
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

