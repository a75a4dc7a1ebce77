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
slot, IoU) with IoU at or above the lowest threshold.  The greedy order
matters only between rows that reach a common slot, so ``pair_order``
gives each row its conflict level (0 for a row that no earlier row
contends with, else one more than the highest level of those that do), and
the loop steps over levels, not ranks: as many steps as the deepest chain
of contention, not the per-image cap.  Each step decides its rows in every
group and at every threshold with a few array operations: a row's winner at
a threshold is its free, reaching pair of least ``pair index + n_pairs *
ignored``, one ``minimum.reduceat``.  Rows without a candidate pair never
match, so they never enter the loop.

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
reaches, not the grid, until its samples are averaged, and a curve that no
true positive reaches scores 0.0 without any samples.  One departure: the
per-image cap keeps an image's top detections over all its categories, where
the COCO API's ``evaluateImg`` and ``accumulate`` apply ``maxDets`` per
(image, category); the two agree whenever no image holds more detections
than the cap.

``mean_ap`` reduces an (S, T) AP array to one figure.  ``table_mean_aps``
is the one reducer of many such tables, stacked as the row ranges of one
array: each table's ``mean_ap``, with the same bits, from one reduction per
table size.  ``table_means`` adds one figure per threshold by calling it
once more on the threshold-major copy of the array, where threshold t of a
table is a contiguous run.  The protocol
rules that pick the groups, the ignored ground truths and the candidate
pairs live in ``zone_eval``, the one driver of this kernel.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import _flag, _integer, _numeric, _real

DEFAULT_IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))


@dataclass(frozen=True)
class EvalConfig:
    iou_thresholds: tuple[float, ...] = DEFAULT_IOU_THRESHOLDS
    recall_points: int = 101
    max_dets_per_image: int = 100
    scale_range: tuple[float, float] | None = None  # [lo, hi) in pixels^2
    cap_after_zone: bool = False

    def __post_init__(self) -> None:
        # numbers by the readers' rule, the flag by ``_flag``'s; the thresholds and the scale range
        # are kept as the Python floats they stand for, so that equal configs write equal reports
        ts = self.iou_thresholds
        if not (isinstance(ts, (tuple, list)) and _numeric(ts)):
            raise ValueError(f"iou thresholds must be a tuple of numbers, got {ts!r}")
        if not ts or any(not 0.0 < t <= 1.0 for t in ts):
            raise ValueError("iou thresholds must lie in (0, 1]")
        ts = tuple(map(float, ts))
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("iou thresholds must be strictly increasing")
        if _integer(self.recall_points, "recall_points") < 2:
            raise ValueError("recall_points must be >= 2")
        if _integer(self.max_dets_per_image, "max_dets_per_image") < 1:
            raise ValueError("max_dets_per_image must be >= 1")
        rng = self.scale_range
        if rng is not None:
            if not (isinstance(rng, (tuple, list)) and len(rng) == 2 and _numeric(rng)):
                raise ValueError(f"scale_range must be a (lo, hi) tuple of numbers, got {rng!r}")
            rng = (_real(rng[0], "scale_range lo"), _real(rng[1], "scale_range hi"))
            if not rng[0] < rng[1]:
                raise ValueError("scale_range must satisfy lo < hi")
        object.__setattr__(self, "iou_thresholds", ts)
        object.__setattr__(self, "scale_range", rng)
        object.__setattr__(self, "cap_after_zone", _flag(self.cap_after_zone, "cap_after_zone"))

    def recall_grid(self) -> np.ndarray:
        # k/(R-1) by IEEE division, bit-identical to a scalar re-derivation
        return np.arange(self.recall_points) / (self.recall_points - 1)


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


def pair_order(row: np.ndarray, slot: np.ndarray, iou: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order candidate pairs for ``greedy_match``: (permutation, step of each permuted pair).

    Within a group, row ids must increase with detection rank, and a slot
    belongs to one group, so the rows before a row that reach one of its
    slots are the earlier rows of its group that contend with it.
    ``zone_eval`` passes AP entry numbers as row ids; they increase with
    rank within a group, as a group's entries lie in one segment's run, in
    descending score order with ties in rank order.  A row's
    step is its conflict level: 0 when no earlier row reaches any of its
    slots, else one more than the highest level of such a row.  Pairs are
    ordered by (step, row, -IoU, -slot), so each step and each row is one
    contiguous run.

    Levels rise along the rows of a slot, so only the edges that join two
    consecutive rows on one slot count.  The rows that hold a pair are
    numbered in order first, so the level arrays have one entry per such
    row, however sparse the row ids.  The levels come out in rounds: a row
    gets the round's level once all its in-edges are relaxed, and an edge
    is relaxed once, in the round that its earlier row gets its level.
    """
    rows, node = np.unique(row, return_inverse=True)
    by_slot = np.lexsort((node, slot))
    slot_sorted, node_sorted = slot[by_slot], node[by_slot]
    edge = np.flatnonzero(slot_sorted[1:] == slot_sorted[:-1])
    src, dst = node_sorted[edge], node_sorted[edge + 1]
    n_rows = len(rows)
    waiting = np.bincount(dst, minlength=n_rows)  # in-edges not yet relaxed, per node
    out_count = np.bincount(src, minlength=n_rows)
    out_start = np.cumsum(out_count) - out_count
    dst = dst[np.argsort(src, kind="stable")]  # the edges leaving node i: out_start[i]:+out_count[i]
    level = np.zeros(n_rows, dtype=np.int64)
    done = np.flatnonzero(waiting == 0)
    depth = 0
    while len(done):
        level[done] = depth
        count = out_count[done]
        first = np.repeat(out_start[done] - (np.cumsum(count) - count), count)
        reached, relaxed = np.unique(dst[first + np.arange(len(first))], return_counts=True)
        waiting[reached] -= relaxed
        done = reached[waiting[reached] == 0]
        depth += 1
    step = level[node]
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
    COCO's greedy rule.  The loop goes over conflict levels, each cut into
    ``blocks`` of whole rows, a row building its pairs at every threshold.
    This is exact: two rows of one level share no slot, and every earlier
    row that shares a slot with a row sits on a lower level, so each slot
    sees its rows in rank order, and a block resolves its rows at once.
    """
    t_count = len(thresholds)
    tp = np.zeros((n_rows, t_count), dtype=bool)
    ign = np.zeros((n_rows, t_count), dtype=bool)
    n = len(row)
    if n == 0:
        return tp, ign
    key = np.arange(n) + n * slot_ignored[slot]
    thresholds = np.asarray(thresholds)
    matched = np.zeros((len(slot_ignored), t_count), dtype=bool)

    new_row = np.ones(n, dtype=bool)
    new_row[1:] = row[1:] != row[:-1]
    row_start = np.flatnonzero(new_row)
    bounds = np.append(row_start, n)
    level_start = np.searchsorted(step[row_start], np.arange(step[-1] + 2))
    none = 2 * n
    for lv in range(len(level_start) - 1):
        r0, r1 = level_start[lv], level_start[lv + 1]
        for lo, hi in blocks(np.diff(bounds[r0 : r1 + 1]) * t_count):
            a, b = bounds[r0 + lo], bounds[r0 + hi]
            free = (iou[a:b, None] >= thresholds) & ~matched[slot[a:b]]
            cand = np.where(free, key[a:b, None], none)
            first = np.minimum.reduceat(cand, row_start[r0 + lo : r0 + hi] - a, axis=0)
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
    start, and one loop takes ``blocks`` of whole curves by their entries.

    An entry reaches the point (curve, last grid point <= its recall).  Each
    reached point keeps its best precision, that of a true positive, so only
    true positives are placed.  A false positive shares the recall, and so
    the point, of the last true positive before it in its curve, with the
    same true-positive count over a larger rank: a precision no higher.
    Before the first true positive, recall and precision are 0, so a curve
    without a true positive samples 0 at every grid point and scores 0.0.
    A true positive's rank among its curve's kept entries is its place in
    the curve less the ignored entries before it there, counted in the
    block's list of ignored entries.  The maximum over each point and the
    later points of its curve is a doubling scan over the reached points
    alone, at most ceil(log2 R) steps, each masked at the curve boundaries.
    That value is the sample of the point's grid point and of those back to
    the curve's previous point; the grid points after a curve's last point
    sample 0.  Only the curves that a true positive reaches get samples: in
    ``blocks`` of whole curves, one ``np.repeat`` lays them out as a
    (curves, R) block in grid order, and its rows are averaged as a single
    curve's samples are, so the result is the same bits as sampling every
    curve in full.
    """
    t_count, n = tp.shape
    s_count, r_count = len(starts), len(recall_grid)
    tp, ignored = tp.ravel(), ignored.ravel()
    # bounds[c]:bounds[c + 1] are curve c's entries
    bounds = np.append((np.arange(t_count)[:, None] * n + starts).ravel(), t_count * n)
    out = np.zeros(t_count * s_count)
    for c0, c1 in blocks(np.diff(bounds)):
        a, b = bounds[c0], bounds[c1]
        owner, grid_at, value = _reached_points(tp[a:b], ignored[a:b], bounds[c0 : c1 + 1] - a,
                                                n_pos[np.arange(c0, c1) % s_count], recall_grid)
        # the reached curves, each with its first point
        lead = np.ones(len(owner), dtype=bool)
        lead[1:] = owner[1:] != owner[:-1]
        lead = np.append(np.flatnonzero(lead), len(owner))
        for lo, hi in blocks(np.full(len(lead) - 1, r_count)):
            p0, p1 = lead[lo], lead[hi]
            # the samples as runs in cell order, a cell being (curve, grid point) of this
            # block: each point's value, back to its curve's point before it, and after each
            # curve's points a run of 0 to its last cell; edge is the last cell of each run
            curve = np.repeat(np.arange(hi - lo), np.diff(lead[lo : hi + 1]))
            cell = curve * r_count + grid_at[p0:p1]
            last = np.arange(1, hi - lo + 1) * r_count - 1
            edge = np.empty(p1 - p0 + hi - lo, dtype=np.int64)
            fill = np.zeros(len(edge))
            at = np.arange(p1 - p0) + curve
            edge[at], fill[at] = cell, value[p0:p1]
            edge[np.searchsorted(cell, last, side="right") + np.arange(hi - lo)] = last
            # the (curves, R) samples, summed left to right as a single curve's are; a
            # temporary, freed before the next block allocates its own
            means = np.repeat(fill, np.diff(edge, prepend=-1)).reshape(hi - lo, r_count).mean(axis=1)
            out[c0 + owner[lead[lo:hi]]] = means
    return np.ascontiguousarray(out.reshape(t_count, s_count).T)


def _reached_points(
    tp: np.ndarray, ignored: np.ndarray, bounds: np.ndarray, n_pos: np.ndarray, recall_grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The points that the true positives of some curves reach: (curve, grid point, sample), rising.

    Curve ``c`` holds entries ``bounds[c]:bounds[c + 1]`` of the flat ``tp``
    and ``ignored`` and has ``n_pos[c]`` positives.  A point's sample is the
    best precision at it and at the later points of its curve.
    """
    # true positives in (curve, score) order: one run per curve
    idx = np.flatnonzero(tp & ~ignored)
    run = np.searchsorted(bounds, idx, side="right") - 1
    k = len(run)
    new = np.ones(k, dtype=bool)
    new[1:] = run[1:] != run[:-1]
    tp_cum = np.arange(1, k + 1) - np.maximum.accumulate(np.where(new, np.arange(k), 0))
    # a true positive's rank among its curve's kept entries: its place in the curve,
    # less the ignored entries of the curve before it
    skipped = np.flatnonzero(ignored)
    first = bounds[run]
    kept = idx + 1 - first - (np.searchsorted(skipped, idx) - np.searchsorted(skipped, first))
    recall = tp_cum / n_pos[run]
    precision = tp_cum / kept
    # grid points rise along a run; recall >= grid[0] == 0 gives each a point
    grid_at = np.searchsorted(recall_grid, recall, side="right") - 1
    new[1:] |= grid_at[1:] != grid_at[:-1]
    owner, grid_at = run[new], grid_at[new]
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
    return owner, grid_at, value


def mean_ap(aps: np.ndarray) -> float | None:
    """Mean of a (categories, T) AP array over all its entries; None if it has no rows.

    The entries are summed in (category, threshold) order.
    """
    return float(aps.mean()) if len(aps) else None


def table_mean_aps(aps: np.ndarray, cuts: np.ndarray) -> list[float | None]:
    """The ``mean_ap`` of each table ``aps[cuts[k]:cuts[k + 1]]`` of a (rows, T) AP array; None for an empty one.

    The m tables of one size c are gathered into one (m, c * T) stack, each
    row a table's entries in (category, threshold) order, and reduced by one
    ``.mean``.  numpy sums a contiguous run of one length with the same
    pairwise tree, so each figure has the bits of ``mean_ap``.
    """
    size = np.diff(cuts)
    out = np.zeros(len(size))
    by_size = np.argsort(size, kind="stable")
    sizes, first = np.unique(size[by_size], return_index=True)
    for c, lo, hi in zip(sizes.tolist(), first.tolist(), [*first[1:].tolist(), len(size)]):
        if c:
            tables = by_size[lo:hi]
            out[tables] = aps[cuts[tables][:, None] + np.arange(c)].reshape(hi - lo, -1).mean(axis=1)
    means = out.tolist()
    for k in np.flatnonzero(size == 0).tolist():
        means[k] = None
    return means


def table_means(aps: np.ndarray, cuts: np.ndarray) -> tuple[list[float | None], list[list[float | None]]]:
    """Per table ``aps[cuts[k]:cuts[k + 1]]`` of a (rows, T) AP array: its ``mean_ap`` and its per-threshold means.

    The tables must tile ``aps`` (``cuts[0] == 0``, ``cuts[-1] == len(aps)``),
    as ``zone_eval._zone_aps``'s do.  Then threshold t of the K tables is K
    consecutive runs of the threshold-major copy of ``aps``, ``t * rows``
    past the tables' own cuts, and ``table_mean_aps`` reduces all T * K runs
    as one-column tables: each figure is the mean of a contiguous run of one
    threshold column.  An empty table gives None and T Nones.
    """
    rows, t_count = aps.shape
    n = len(cuts) - 1
    runs = np.append((np.arange(t_count)[:, None] * rows + cuts[:-1]).ravel(), t_count * rows)
    by_threshold = table_mean_aps(np.ascontiguousarray(aps.T).reshape(-1, 1), runs)
    return table_mean_aps(aps, cuts), [by_threshold[k::n] for k in range(n)]
