"""Zone partitions of normalized image space.

A partition is an ordered list of named zones, each a union of half-open
rectangles in [0, 1)^2.  Half-open bounds resolve boundary ties: a point on a
shared edge belongs to exactly one zone.  An annular zone is a frame of four
strips (top, bottom, left, right); the strips of the innermost ring may be
empty.

Every zone is made by one rule from the exact ``Fraction`` corners of its
rectangles: its rectangles are the floats of those corners, and its exact
area is the sum of the rectangles' exact areas (an empty strip adds exactly
0).  So the innermost ring of a 5-ring partition has area fraction exactly
0.04 and the border union exactly 0.96.

Every partition has one edge table, built once: the sorted unique x and y
edges of all rectangles, with 0 and 1 added, cut the unit square into cells,
and each half-open rectangle covers whole cells.  Building it counts the
rectangles over every cell, so an overlap or a gap is a ``PartitionError``
for every spec, built-in or custom.  ``Partition.assign`` then finds the zone
of every point, clamped into its image; it is the one center-to-zone
function, and ``zone_of_clamped`` is its one-point form.  Next to each axis's
edges a bucket table cuts [0, 1) into 2^12 equal buckets and holds, per
bucket, the index of the last edge at or below its start: a point's bucket
is ``floor(u * 2^12)``, exact since scaling by a power of two is, and one
comparison with the edge after that one finds its cell.  Only the points
of a bucket that holds more than one edge take a binary search.  A NaN
coordinate or size has a bucket of its own, past edge 1, where no zone is,
so it raises ``PartitionError``.
``Zone.contains`` is the same half-open test written out, elementwise over
scalars or numpy arrays, for callers that ask about one zone and for checks
independent of the table.

One builder numbers grid cells row-major (``g{r}_{c}``); ``strip-x:N`` is the
1 x N grid (``x{k}``), ``strip-y:N`` the N x 1 grid (``y{k}``).  ``grid_rows``
turns a grid's per-zone values into rows, so no other module knows the layout.

There is one partition per spec: ``build_partition`` keeps the partitions
of the ``PARTITION_CACHE`` specs most recently asked for, keyed by value, so a caller that
builds ``grid:11x11`` and then calls ``analysis.center_counts`` or
``zone_eval.grid_heatmap`` on an 11 x 11 grid builds it once.  The key is
the spec with plain int counts (a bool or non-integral count is a
``PartitionError``) and custom zones as nested tuples.  A shared partition
must not change, so a ``Partition`` and its ``Zone``s are read-only; each
partition builds its zone ids once, as a tuple.

A custom-zones file goes through the COCO reader and record parser
(``IngestError`` names the file and the zone record); an empty zone or a
rectangle outside the unit square is a ``PartitionError``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .coco import Dataset, ImageInfo, _columns, _number, _read_json, box_centers
from .errors import IngestError, PartitionError, _integer


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


@dataclass(frozen=True, eq=False)
class Zone:
    """Named union of non-overlapping rectangles with an exact area; read-only, like its partition.

    ``rects`` keeps the non-empty rectangles, as a tuple.
    """

    id: str
    rects: tuple[Rect, ...]
    area_exact: Fraction
    area_fraction: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rects", tuple(r for r in self.rects if not r.is_empty))
        object.__setattr__(self, "area_fraction", float(self.area_exact))

    def contains(self, u, v):
        """Whether the zone holds each normalized point; elementwise over scalars or arrays."""
        inside = False
        for r in self.rects:
            inside = inside | ((r.x0 <= u) & (u < r.x1) & (r.y0 <= v) & (v < r.y1))
        return inside

    def __repr__(self) -> str:  # pragma: no cover
        return f"Zone({self.id!r}, area={self.area_fraction:.6f})"


# a partition's bucket tables cut each axis of [0, 1) into this many equal buckets (a power of two)
BUCKETS = 1 << 12


def _bucket_table(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(first, after, crowded): the lookup table of ``edges``, which rise from 0 to 1.

    ``first`` holds, per bucket of [0, 1) and then one for NaN, the index of
    the last edge at or below the bucket's start (edge 1 for NaN);
    ``after`` is the edges followed by +inf.  ``crowded`` flags the buckets
    that hold more than one edge inside them, None when no bucket does.
    """
    start = np.arange(BUCKETS + 1) / BUCKETS
    first = (np.searchsorted(edges, start, side="right") - 1).astype(np.int32)
    crowded = np.append(np.searchsorted(edges, start[1:], side="left") - first[:-1] > 2, False)
    after = np.append(edges, np.inf)
    for table in (first, after, crowded):
        table.setflags(write=False)
    return first, after, crowded if crowded.any() else None


def _lookup(buckets: tuple, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(edges, u, side="right") - 1`` for u in [0, 1) or NaN, from the edges' bucket table."""
    first, after, crowded = buckets
    # fmin sends NaN to the NaN bucket; the cast truncates, which is floor for u >= 0
    bucket = np.fmin(u * BUCKETS, BUCKETS).astype(np.intp)
    i = first[bucket]
    i = np.asarray(i + (u >= after[i + 1]))
    if crowded is not None:
        hit = crowded[bucket]
        i[hit] = np.searchsorted(after, u[hit], side="right") - 1
    return i


def normalize_points(xs, ys, width, height) -> tuple[np.ndarray, np.ndarray]:
    """Clamp pixel points into the image, scale them to [0, 1] and nudge 1 inward to [0, 1)."""
    below_one = np.nextafter(1.0, 0.0)
    u = np.minimum(np.minimum(np.maximum(xs, 0.0), width) / width, below_one)
    v = np.minimum(np.minimum(np.maximum(ys, 0.0), height) / height, below_one)
    return u, v


class Partition:
    """Ordered disjoint cover of [0, 1)^2, checked when built.

    Read-only, since ``build_partition`` shares one partition per spec: its
    spec, zones, zone index and area fractions are properties with no setter.
    """

    def __init__(self, spec: ZoneSpec, zones: list[Zone]) -> None:
        self._spec = spec
        self._zones = zones = tuple(zones)
        self._zone_ids = tuple(z.id for z in zones)
        self._zones_by_id = MappingProxyType(dict(zip(self._zone_ids, zones)))
        if len(self._zones_by_id) != len(zones):
            raise PartitionError("duplicate zone id in partition")
        self._area_fractions = np.array([z.area_fraction for z in zones], dtype=float)
        self._area_fractions.setflags(write=False)
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
        for table in (self._xs, self._ys, self._cells):  # callers cache lookups per partition
            table.setflags(write=False)
        self._x_buckets, self._y_buckets = _bucket_table(self._xs), _bucket_table(self._ys)
        # the zones tile [0, 1)^2 iff every cell inside it is covered exactly once
        for bad, what in ((cover[:-1, :-1] > 1, "overlap"), (cover[:-1, :-1] == 0, "leave a gap")):
            if bad.any():
                i, j = np.argwhere(bad)[0]
                u, v = (self._xs[i] + self._xs[i + 1]) / 2, (self._ys[j] + self._ys[j + 1]) / 2
                raise PartitionError(f"zones {what} near ({u:.4f}, {v:.4f})")

    @property
    def spec(self) -> ZoneSpec:
        return self._spec

    @property
    def zones(self) -> tuple[Zone, ...]:
        """The zones in index order, the order of the edge table ``assign`` reads."""
        return self._zones

    @property
    def zone_ids(self) -> list[str]:
        """The zone ids in index order, as a new list."""
        return list(self._zone_ids)

    @property
    def zones_by_id(self) -> MappingProxyType:
        """The zones by id, as a read-only mapping."""
        return self._zones_by_id

    @property
    def area_fractions(self) -> np.ndarray:
        """Each zone's exact area as a float, in index order: a read-only array."""
        return self._area_fractions

    def assign(self, xs, ys, width, height) -> np.ndarray:
        """Index into ``zones`` of each pixel point, clamped into its image (vectorized).

        Clamping puts boxes that overflow the image edge in exactly one (border)
        zone, so zone counts partition the data.  Width and height may be
        scalars or per-point arrays.
        """
        u, v = normalize_points(np.asarray(xs, float), np.asarray(ys, float), width, height)
        idx = self._cells[_lookup(self._x_buckets, u), _lookup(self._y_buckets, v)]
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


def _zone(zone_id: str, corners) -> Zone:
    """The zone whose rectangles have the exact ``Fraction`` corners (x0, y0, x1, y1)."""
    rects = [Rect(float(x0), float(y0), float(x1), float(y1)) for x0, y0, x1, y1 in corners]
    return Zone(zone_id, rects, sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in corners))


def _rings(spec: Annular) -> list[Zone]:
    """Ring i is the frame [a, 1-a)^2 minus [b, 1-b)^2, with a = i/2n and b = (i+1)/2n.

    The innermost ring has b = 1/2, so its left and right strips are empty.
    """
    if spec.n < 1:
        raise PartitionError("annular partition needs n >= 1")
    edges = [Fraction(i, 2 * spec.n) for i in range(spec.n + 1)]
    zones = []
    for i, (a, b) in enumerate(zip(edges, edges[1:])):
        ca, cb = 1 - a, 1 - b
        # strips: top, bottom, left, right
        zones.append(_zone(f"z{i},{i + 1}", [(a, a, ca, b), (a, cb, ca, ca), (a, b, b, cb), (cb, b, ca, cb)]))
    return zones


def _grid(rows: int, cols: int, cell_id: str, need: str) -> list[Zone]:
    """Row-major rows x cols cells; the strips are the 1 x N and N x 1 grids."""
    if rows < 1 or cols < 1:
        raise PartitionError(need)
    ys = [Fraction(r, rows) for r in range(rows + 1)]
    xs = [Fraction(c, cols) for c in range(cols + 1)]
    return [_zone(cell_id.format(r=r, c=c), [(xs[c], ys[r], xs[c + 1], ys[r + 1])])
            for r in range(rows) for c in range(cols)]


def grid_rows(partition: Partition, values) -> list:
    """Per-zone values of a ``grid:RxC`` partition as its R rows of C cells."""
    rows, cols = partition.spec.rows, partition.spec.cols
    return [values[r * cols : (r + 1) * cols] for r in range(rows)]


def _custom(spec: Custom) -> list[Zone]:
    if not spec.zones:
        raise PartitionError("custom partition has no zones")
    zones = []
    for name, rects in spec.zones:
        if not rects:
            raise PartitionError(f"zone {name!r} has no rectangles")
        for x0, y0, x1, y1 in rects:
            if not (0.0 <= x0 < x1 <= 1.0 and 0.0 <= y0 < y1 <= 1.0):
                raise PartitionError(f"zone {name!r}: rectangle {(x0, y0, x1, y1)} not normalized")
        zones.append(_zone(str(name), [tuple(Fraction(float(v)) for v in r) for r in rects]))
    return zones


# the one list of spec kinds: kind -> (CLI pattern, reader of each pattern group, label, builder)
_KINDS = {
    Annular: (r"annular:(\d+)", int, lambda s: f"annular:{s.n}", _rings),
    StripX: (r"strip-x:(\d+)", int, lambda s: f"strip-x:{s.n}",
             lambda s: _grid(1, s.n, "x{c}", "strip partition needs n >= 1")),
    StripY: (r"strip-y:(\d+)", int, lambda s: f"strip-y:{s.n}",
             lambda s: _grid(s.n, 1, "y{r}", "strip partition needs n >= 1")),
    Grid: (r"grid:(\d+)x(\d+)", int, lambda s: f"grid:{s.rows}x{s.cols}",
           lambda s: _grid(s.rows, s.cols, "g{r}_{c}", "grid partition needs rows, cols >= 1")),
    Custom: (r"custom:@(.+)", lambda path: load_custom_spec(path).zones,
             lambda s: f"custom:{len(s.zones)} zones", _custom),
}


def _kind(spec: ZoneSpec) -> tuple:
    """The ``_KINDS`` row of a spec."""
    if type(spec) not in _KINDS:
        raise PartitionError(f"unknown zone spec {spec!r}")
    return _KINDS[type(spec)]


# ``build_partition`` keeps the partitions of at most this many specs, the most recently used:
# a few, since a partition of many zones holds that many zone objects and its edge table
PARTITION_CACHE = 8


def build_partition(spec: ZoneSpec) -> Partition:
    """The partition of a spec; ``Partition`` checks that its zones tile the image.

    Equal specs share one read-only partition, from a cache of at most
    ``PARTITION_CACHE`` partitions keyed by the spec's value (``_plain``).  A
    spec that fails raises again on every call: only built partitions are kept.
    """
    return _partition(_plain(spec))


@lru_cache(maxsize=PARTITION_CACHE)
def _partition(spec: ZoneSpec) -> Partition:
    *_, build = _kind(spec)
    return Partition(spec, build(spec))


def _plain(spec: ZoneSpec) -> ZoneSpec:
    """The spec as its partition holds it and the cache keys it: counts as ints, custom zones as nested tuples.

    A count is an integer by ``errors._integer``'s rule (numpy's too), never
    a bool, so ``Annular(True)``, which equals ``Annular(1)``, cannot take its
    partition or label; anything else is one ``PartitionError``.  A custom
    zone's name is its id, ``str(name)``, so a name of 1 and of True differ.
    """
    _kind(spec)
    if isinstance(spec, Custom):
        return Custom(tuple((str(name), tuple(map(tuple, rects)) if rects else ()) for name, rects in spec.zones))
    try:
        return type(spec)(*(_integer(getattr(spec, f.name), f"{type(spec).__name__}.{f.name}") for f in fields(spec)))
    except ValueError as e:
        raise PartitionError(str(e)) from None


def spec_label(spec: ZoneSpec) -> str:
    """Stable CLI-style label for a spec, used in report metadata."""
    _, _, label, _ = _kind(spec)
    return label(spec)


def parse_zone_spec(text: str) -> ZoneSpec:
    """Parse the CLI partition syntax.

    Accepted forms: ``annular:5``, ``strip-x:5``, ``strip-y:5``,
    ``grid:11x11``, ``custom:@zones.json``.
    """
    for kind, (pattern, read, _, _) in _KINDS.items():
        m = re.fullmatch(pattern, text)
        if m:
            return kind(*map(read, m.groups()))
    raise PartitionError(f"cannot parse partition spec {text!r}")


def _spec_file(text: str) -> str | None:
    """The zones file that the partition spec ``text`` reads (``custom:@FILE``), or None."""
    m = re.fullmatch(_KINDS[Custom][0], text)
    return m[1] if m else None


def _zone_record(rec: dict) -> tuple[str, tuple]:
    name, rects = str(rec["name"]), tuple(tuple(_number(v, "corner") for v in r) for r in rec["rects"])
    for r in rects:
        if len(r) != 4:
            raise IngestError(
                f"zone {name!r} has a rectangle of {len(r)} numbers, expected 4 (x0, y0, x1, y1)"
            )
    return name, rects


def load_custom_spec(path: str | Path) -> Custom:
    """Read a custom-zones JSON file: list of {name, rects: [[x0,y0,x1,y1], ...]}."""
    return Custom(tuple(_columns(_read_json(path), f"{path}: zone", lambda records: list(map(_zone_record, records)))))
