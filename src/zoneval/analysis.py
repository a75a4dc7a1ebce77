"""Correlation statistics, center-count heatmaps, and pattern-distance aggregation.

Feature vectors for the pattern distance are external input (JSON lines, one
record per line); this module only aggregates them.  The extractor that
produced them is out of scope: any per-object embedding of fixed dimension
works, tagged with its train/test split and in/out zone.  Each line goes
through the COCO decoder and record parser, so a malformed one raises
``IngestError`` naming the file and the line.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coco import Dataset, _decode_json, _id, _parse_record, _read_text
from .errors import IngestError, UndefinedStatisticError
from .zone_eval import scale_bins
from .zones import Grid, build_partition, grid_rows, gt_zone_counts


def pearson(x: list[float], y: list[float]) -> float:
    """Product-moment correlation of two equal-length samples."""
    if len(x) != len(y) or len(x) < 2:
        raise ValueError("pearson needs two samples of equal length >= 2")
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    xd = xa - xa.mean()
    yd = ya - ya.mean()
    sx = float(np.sqrt((xd * xd).mean()))
    sy = float(np.sqrt((yd * yd).mean()))
    if sx == 0.0 or sy == 0.0:
        raise UndefinedStatisticError("pearson undefined for zero-variance input")
    return float((xd * yd).mean() / (sx * sy))


def _average_ranks(values: list[float]) -> list[float]:
    """Fractional ranks starting at 1; tied values share the average rank."""
    a = np.asarray(values, dtype=float)
    s = np.sort(a)
    # a tie run holds sorted positions lo .. hi - 1, whose 1-based ranks average (lo + hi + 1) / 2
    return ((np.searchsorted(s, a, "left") + np.searchsorted(s, a, "right") + 1) / 2).tolist()


def spearman(x: list[float], y: list[float]) -> float:
    """Rank correlation: pearson over average-tie ranks."""
    if len(x) != len(y) or len(x) < 2:
        raise ValueError("spearman needs two samples of equal length >= 2")
    return pearson(_average_ranks(list(x)), _average_ranks(list(y)))


def center_counts(ds: Dataset, rows: int, cols: int) -> np.ndarray:
    """Ground-truth center counts per cell of a rows x cols grid.

    Uses the same half-open grid cells as the zone partitions, so the counts
    line up with grid_heatmap output.
    """
    partition = build_partition(Grid(rows, cols))
    return np.array(grid_rows(partition, gt_zone_counts(ds, partition)))


@dataclass
class CorrelationCurve:
    iou_thresholds: tuple[float, ...]
    pcc: tuple[float | None, ...]
    scc: tuple[float | None, ...]

    def write_csv(self, f) -> None:
        f.write("iou,pcc,scc\n")
        for t, p, s in zip(self.iou_thresholds, self.pcc, self.scc):
            pc = "" if p is None else repr(p)
            sc = "" if s is None else repr(s)
            f.write(f"{t:g},{pc},{sc}\n")


def correlate_zp_distribution(
    heatmaps: dict[float, list[list[float | None]]], counts: np.ndarray
) -> CorrelationCurve:
    """Correlate per-cell ZP with per-cell object counts, per IoU threshold.

    Cells with undefined ZP are dropped pairwise.  A threshold whose defined
    ZPs have zero variance (or whose counts do) gets None for that entry.
    """
    thresholds = tuple(sorted(heatmaps))
    flat_counts = [float(v) for row in np.asarray(counts) for v in row]
    pccs: list[float | None] = []
    sccs: list[float | None] = []
    for t in thresholds:
        matrix = heatmaps[t]
        flat_zp = [v for row in matrix for v in row]
        if len(flat_zp) != len(flat_counts):
            raise ValueError("heatmap and count matrix shapes differ")
        pairs = [(z, c) for z, c in zip(flat_zp, flat_counts) if z is not None]
        if len(pairs) < 2:
            raise UndefinedStatisticError(
                f"fewer than 2 defined cells at threshold {t:g}"
            )
        zs, cs = map(list, zip(*pairs))
        for stat, out in ((pearson, pccs), (spearman, sccs)):
            try:
                out.append(stat(zs, cs))
            except UndefinedStatisticError:
                out.append(None)
    return CorrelationCurve(thresholds, tuple(pccs), tuple(sccs))


@dataclass(frozen=True)
class FeatureRecord:
    split: str  # "train" | "test"
    zone_tag: str  # "in" | "out"
    category_id: int
    scale: float  # object area in pixels^2
    vector: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.split not in ("train", "test"):
            raise IngestError(f"bad split {self.split!r}")
        if self.zone_tag not in ("in", "out"):
            raise IngestError(f"bad zone_tag {self.zone_tag!r}")
        if not 0 < self.scale < math.inf:
            raise IngestError(f"scale (object area) must be finite and positive, got {self.scale}")
        if not (self.vector and all(map(math.isfinite, self.vector))):
            raise IngestError("vector must be a non-empty list of finite numbers")


def _feature_record(rec: dict) -> FeatureRecord:
    return FeatureRecord(
        split=rec["split"],
        zone_tag=rec["zone_tag"],
        category_id=_id(rec["category_id"]),
        scale=float(rec["area"]),
        vector=tuple(float(v) for v in rec["vector"]),
    )


def load_feature_records(path: str | Path) -> list[FeatureRecord]:
    """Read JSON-lines feature records: {split, zone_tag, category_id, area, vector}."""
    records = []
    for ln, line in enumerate(_read_text(path).split("\n"), start=1):
        if line.strip():
            rec = _decode_json(line, f"{path}:{ln}")
            records.append(_parse_record(rec, f"{path}:{ln}: feature record", _feature_record))
    if records and len({len(r.vector) for r in records}) != 1:
        raise IngestError(f"{path}: feature vectors must share one dimension")
    return records


def pattern_distance(
    records: list[FeatureRecord],
    side_a: tuple[str, str],
    side_b: tuple[str, str],
    bin_count: int = 9,
    bin_width: float = 32.0,
) -> float:
    """Mean per-dimension gap between feature centers of two (split, zone) sides.

    Records are grouped by (scale bin, category); for every group populated on
    both sides the per-dimension means are compared by absolute difference.
    The normalizer counts only the included (bin, category, dimension) terms,
    which reduces to the full bin*category*dimension product when every group
    is populated.
    """
    if bin_count < 1 or not 0 < bin_width < math.inf:  # an infinite width never ends the bin list
        raise ValueError("bin_count must be >= 1 and bin_width finite and positive")
    # K-1 finite bins of width r, then a catch-all
    lows = [lo for lo, _ in scale_bins(bin_width, cap=(bin_count - 1) * bin_width)]

    def side_groups(split: str, tag: str) -> dict[tuple[int, int], list[FeatureRecord]]:
        groups: dict[tuple[int, int], list[FeatureRecord]] = {}
        for rec in records:
            if rec.split == split and rec.zone_tag == tag:
                key = (bisect_right(lows, rec.scale) - 1, rec.category_id)
                groups.setdefault(key, []).append(rec)
        return groups

    ga = side_groups(*side_a)
    gb = side_groups(*side_b)
    if not ga or not gb:
        raise ValueError("both sides need at least one record")

    shared = sorted(set(ga) & set(gb))
    if not shared:
        raise ValueError("no (scale bin, category) group populated on both sides")

    total = 0.0
    terms = 0
    with np.errstate(over="ignore"):  # an overflow leaves inf, rejected below
        for key in shared:
            mean_a = np.mean([r.vector for r in ga[key]], axis=0)
            mean_b = np.mean([r.vector for r in gb[key]], axis=0)
            total += float(np.abs(mean_a - mean_b).sum())
            terms += mean_a.shape[0]
    if not math.isfinite(total):
        raise ValueError("pattern distance overflows: feature values too large")
    return total / terms
