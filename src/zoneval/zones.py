"""Zone partitions of normalized image space.

A partition is an ordered list of named zones, each a union of half-open
rectangles in [0, 1)^2.  Half-open bounds resolve boundary ties: a point on a
shared edge belongs to exactly one zone.  Annular zones are stored as a frame
decomposition (at most 4 disjoint rectangles), which keeps areas exactly
computable.

Zone areas are computed with rational arithmetic at build time, so e.g. the
innermost ring of a 5-ring partition has area fraction exactly 0.04 and the
border union exactly 0.96.

Every partition has one edge table, built once: the sorted unique x and y
edges of all rectangles, with 0 and 1 added, cut the unit square into cells,
and each half-open rectangle covers whole cells.  Building it counts the
rectangles over every cell, so an overlap or a gap is a ``PartitionError``
for every spec, built-in or custom.  ``Partition.assign`` then finds the zone
of every point, clamped into its image, with two binary searches; it is the
one center-to-zone function, and ``zone_of_clamped`` is its one-point form.
``Zone.contains`` is the same half-open test written out, elementwise over
scalars or numpy arrays, for callers that ask about one zone and for checks
independent of the table.

One builder numbers grid cells row-major (``g{r}_{c}``); ``strip-x:N`` is the
1 x N grid (``x{k}``), ``strip-y:N`` the N x 1 grid (``y{k}``).  ``grid_rows``
turns a grid's per-zone values into rows, so no other module knows the layout.

A custom-zones file goes through the COCO reader and record parser
(``IngestError`` names the file and the zone record); an empty zone or a
rectangle outside the unit square is a ``PartitionError``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .coco import Dataset, ImageInfo, _parse_records, _read_json, box_centers
from .errors import IngestError, PartitionError

_FRAC = Fraction


@dataclass(frozen=True)
class Annular:
    n: int


@dataclass(frozen=True)
class StripX:
    n: int


@dataclass(frozen=True)
class StripY:
    n: int


@dataclass(frozen=True)
class Grid:
    rows: int
    cols: int


@dataclass(frozen=True)
class Custom:
    # tuple of (name, ((x0, y0, x1, y1), ...)) in normalized coordinates
    zones: tuple


ZoneSpec = Annular | StripX | StripY | Grid | Custom


@dataclass(frozen=True)
class Rect:
    """Half-open rectangle [x0, x1) x [y0, y1) in normalized coordinates."""

    x0: float
    y0: float
    x1: float
    y1: float

    @property
    def is_empty(self) -> bool:
        return self.x1 <= self.x0 or self.y1 <= self.y0


class Zone:
    """Named union of non-overlapping rectangles with an exact area."""

    def __init__(self, zone_id: str, rects: list[Rect], area_exact: Fraction) -> None:
        self.id = zone_id
        self.rects = [r for r in rects if not r.is_empty]
        self.area_exact = area_exact
        self.area_fraction = float(area_exact)

    def contains(self, u, v):
        """Whether the zone holds each normalized point; elementwise over scalars or arrays."""
        inside = False
        for r in self.rects:
            inside = inside | ((r.x0 <= u) & (u < r.x1) & (r.y0 <= v) & (v < r.y1))
        return inside

    def __repr__(self) -> str:  # pragma: no cover
        return f"Zone({self.id!r}, area={self.area_fraction:.6f})"


def _frame_rects(a: Fraction, b: Fraction) -> list[Rect]:
    """Decompose the frame [a,1-a)^2 \\ [b,1-b)^2 into disjoint rectangles.

    a < b <= 1/2. When b >= 1/2 the inner square is empty and the top/bottom
    strips alone tile the whole outer square.
    """
    a_, b_ = float(a), float(b)
    ca, cb = float(1 - a), float(1 - b)
    rects = [
        Rect(a_, a_, ca, b_),   # top strip
        Rect(a_, cb, ca, ca),   # bottom strip
        Rect(a_, b_, b_, cb),   # left strip
        Rect(cb, b_, ca, cb),   # right strip
    ]
    return [r for r in rects if not r.is_empty]


def normalize_points(xs, ys, width, height) -> tuple[np.ndarray, np.ndarray]:
    """Clamp pixel points into the image, scale them to [0, 1] and nudge 1 inward to [0, 1)."""
    below_one = np.nextafter(1.0, 0.0)
    u = np.minimum(np.minimum(np.maximum(xs, 0.0), width) / width, below_one)
    v = np.minimum(np.minimum(np.maximum(ys, 0.0), height) / height, below_one)
    return u, v


class Partition:
    """Ordered disjoint cover of [0, 1)^2, checked when built. Immutable after build."""

    def __init__(self, spec: ZoneSpec, zones: list[Zone]) -> None:
        self.spec = spec
        self.zones = zones
        self.zones_by_id = {z.id: z for z in zones}
        if len(self.zones_by_id) != len(zones):
            raise PartitionError("duplicate zone id in partition")
        self.area_fractions = np.array([z.area_fraction for z in zones], dtype=float)
        self.area_fractions.setflags(write=False)
        owner = [k for k, z in enumerate(zones) for _ in z.rects]
        bounds = np.array([(r.x0, r.x1, r.y0, r.y1) for z in zones for r in z.rects]).reshape(-1, 4)
        # sorted sets, not np.union1d, which imports numpy.ma on first use
        self._xs = np.array(sorted({0.0, 1.0, *bounds[:, :2].ravel().tolist()}))
        self._ys = np.array(sorted({0.0, 1.0, *bounds[:, 2:].ravel().tolist()}))
        # the last row and column start at edge 1, outside every zone, and stay -1;
        # they also catch points below the first edge (index -1)
        self._cells = np.full((len(self._xs), len(self._ys)), -1, dtype=np.int32)
        cover = np.zeros(self._cells.shape, dtype=np.int32)
        xi = np.searchsorted(self._xs, bounds[:, :2]).tolist()
        yj = np.searchsorted(self._ys, bounds[:, 2:]).tolist()
        for k, (i0, i1), (j0, j1) in zip(owner, xi, yj):
            self._cells[i0:i1, j0:j1] = k
            cover[i0:i1, j0:j1] += 1
        # the zones tile [0, 1)^2 iff every cell inside it is covered exactly once
        for bad, what in ((cover[:-1, :-1] > 1, "overlap"), (cover[:-1, :-1] == 0, "leave a gap")):
            if bad.any():
                i, j = np.argwhere(bad)[0]
                u, v = (self._xs[i] + self._xs[i + 1]) / 2, (self._ys[j] + self._ys[j + 1]) / 2
                raise PartitionError(f"zones {what} near ({u:.4f}, {v:.4f})")

    @property
    def zone_ids(self) -> list[str]:
        return [z.id for z in self.zones]

    def assign(self, xs, ys, width, height) -> np.ndarray:
        """Index into ``zones`` of each pixel point, clamped into its image (vectorized).

        Clamping puts boxes that overflow the image edge in exactly one (border)
        zone, so zone counts partition the data.  Width and height may be
        scalars or per-point arrays.
        """
        u, v = normalize_points(np.asarray(xs, float), np.asarray(ys, float), width, height)
        i = np.searchsorted(self._xs, u, side="right") - 1
        j = np.searchsorted(self._ys, v, side="right") - 1
        idx = self._cells[i, j]
        if (idx < 0).any():  # unreachable for finite points of a valid partition; NaN lands here
            bad = np.argmax(idx < 0)
            raise PartitionError(f"no zone contains normalized point ({u[bad]}, {v[bad]})")
        return idx

    def zone_of_clamped(self, point: tuple[float, float], img: ImageInfo) -> str:
        """Zone id of one pixel point, clamped into its image: the one-point form of ``assign``."""
        return self.zones[self.assign([point[0]], [point[1]], img.width, img.height)[0]].id

    def area_fraction(self, zone_id: str) -> float:
        if zone_id not in self.zones_by_id:
            raise PartitionError(f"unknown zone id {zone_id!r}")
        return self.zones_by_id[zone_id].area_fraction


def gt_zone_counts(ds: Dataset, partition: Partition) -> np.ndarray:
    """Number of ground-truth box centers per zone, clamped into their images."""
    zone = partition.assign(*box_centers(ds.gt_box), *ds.image_size[ds.gt_image].T)
    return np.bincount(zone, minlength=len(partition.zones))


def _build_annular(n: int) -> list[Zone]:
    zones = []
    for i in range(n):
        a = _FRAC(i, 2 * n)
        b = _FRAC(i + 1, 2 * n)
        rects = _frame_rects(a, b)
        outer = (1 - 2 * a) ** 2
        inner = (1 - 2 * b) ** 2 if b < _FRAC(1, 2) else _FRAC(0)
        zones.append(Zone(f"z{i},{i + 1}", rects, outer - inner))
    return zones


def _build_grid(rows: int, cols: int, cell_id: str) -> list[Zone]:
    """Row-major rows x cols cells; the strips are the 1 x N and N x 1 grids."""
    zones = []
    for r in range(rows):
        y0, y1 = float(_FRAC(r, rows)), float(_FRAC(r + 1, rows))
        for c in range(cols):
            x0, x1 = float(_FRAC(c, cols)), float(_FRAC(c + 1, cols))
            zones.append(Zone(cell_id.format(r=r, c=c), [Rect(x0, y0, x1, y1)], _FRAC(1, rows * cols)))
    return zones


def grid_rows(partition: Partition, values) -> list:
    """Per-zone values of a ``grid:RxC`` partition as its R rows of C cells."""
    rows, cols = partition.spec.rows, partition.spec.cols
    return [values[r * cols : (r + 1) * cols] for r in range(rows)]


def _build_custom(spec: Custom) -> list[Zone]:
    zones = []
    for name, rects in spec.zones:
        if not rects:
            raise PartitionError(f"zone {name!r} has no rectangles")
        rect_objs = []
        area = _FRAC(0)
        for x0, y0, x1, y1 in rects:
            if not (0.0 <= x0 < x1 <= 1.0 and 0.0 <= y0 < y1 <= 1.0):
                raise PartitionError(f"zone {name!r}: rectangle {(x0, y0, x1, y1)} not normalized")
            rect_objs.append(Rect(float(x0), float(y0), float(x1), float(y1)))
            area += (_FRAC(float(x1)) - _FRAC(float(x0))) * (_FRAC(float(y1)) - _FRAC(float(y0)))
        zones.append(Zone(str(name), rect_objs, area))
    return zones


def build_partition(spec: ZoneSpec) -> Partition:
    """Build a partition from a spec; ``Partition`` checks that its zones tile the image."""
    if isinstance(spec, Annular):
        if spec.n < 1:
            raise PartitionError("annular partition needs n >= 1")
        zones = _build_annular(spec.n)
    elif isinstance(spec, (StripX, StripY)):
        if spec.n < 1:
            raise PartitionError("strip partition needs n >= 1")
        rows, cols, cell_id = (1, spec.n, "x{c}") if isinstance(spec, StripX) else (spec.n, 1, "y{r}")
        zones = _build_grid(rows, cols, cell_id)
    elif isinstance(spec, Grid):
        if spec.rows < 1 or spec.cols < 1:
            raise PartitionError("grid partition needs rows, cols >= 1")
        zones = _build_grid(spec.rows, spec.cols, "g{r}_{c}")
    elif isinstance(spec, Custom):
        if not spec.zones:
            raise PartitionError("custom partition has no zones")
        zones = _build_custom(spec)
    else:
        raise PartitionError(f"unknown zone spec {spec!r}")
    return Partition(spec, zones)


# (kind, CLI syntax, label template) of every spec but Custom
_SPEC_FORMS = (
    (Annular, r"annular:(\d+)", "annular:{0.n}"),
    (StripX, r"strip-x:(\d+)", "strip-x:{0.n}"),
    (StripY, r"strip-y:(\d+)", "strip-y:{0.n}"),
    (Grid, r"grid:(\d+)x(\d+)", "grid:{0.rows}x{0.cols}"),
)


def spec_label(spec: ZoneSpec) -> str:
    """Stable CLI-style label for a spec, used in report metadata."""
    if isinstance(spec, Custom):
        return f"custom:{len(spec.zones)} zones"
    for kind, _, label in _SPEC_FORMS:
        if isinstance(spec, kind):
            return label.format(spec)
    raise PartitionError(f"unknown zone spec {spec!r}")


def parse_zone_spec(text: str) -> ZoneSpec:
    """Parse the CLI partition syntax.

    Accepted forms: ``annular:5``, ``strip-x:5``, ``strip-y:5``,
    ``grid:11x11``, ``custom:@zones.json``.
    """
    for kind, pattern, _ in _SPEC_FORMS:
        m = re.fullmatch(pattern, text)
        if m:
            return kind(*map(int, m.groups()))
    m = re.fullmatch(r"custom:@(.+)", text)
    if m:
        return load_custom_spec(m.group(1))
    raise PartitionError(f"cannot parse partition spec {text!r}")


def _zone_record(rec: dict) -> tuple[str, tuple]:
    name, rects = str(rec["name"]), tuple(tuple(map(float, r)) for r in rec["rects"])
    for r in rects:
        if len(r) != 4:
            raise IngestError(
                f"zone {name!r} has a rectangle of {len(r)} numbers, expected 4 (x0, y0, x1, y1)"
            )
    return name, rects


def load_custom_spec(path: str | Path) -> Custom:
    """Read a custom-zones JSON file: list of {name, rects: [[x0,y0,x1,y1], ...]}."""
    return Custom(tuple(_parse_records(_read_json(path), f"{path}: zone", _zone_record)))
