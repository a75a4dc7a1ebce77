import dataclasses
import gc
import json
import math
import typing
import weakref
from fractions import Fraction

import numpy as np
import pytest

from zoneval.coco import ImageInfo
from zoneval.errors import PartitionError
from zoneval.zones import (
    BUCKETS,
    PARTITION_CACHE,
    Annular,
    Custom,
    Grid,
    StripX,
    StripY,
    Partition,
    Rect,
    Zone,
    ZoneSpec,
    _KINDS,
    _spec_file,
    build_partition,
    load_custom_spec,
    normalize_points,
    parse_zone_spec,
    spec_label,
)

BUILTIN_SPECS = [
    Annular(1),
    Annular(5),
    Annular(50),
    StripX(5),
    StripY(5),
    Grid(3, 3),
    Grid(11, 11),
    Grid(2, 7),
]


def _probes(edges: set[float]) -> np.ndarray:
    """Every edge, its two neighbouring floats, and two values outside [0, 1]."""
    near = {math.nextafter(e, d) for e in edges for d in (-math.inf, math.inf)}
    return np.array(sorted(edges | near | {-0.3, 1.7}))


class TestAnnularRect:
    """The rectangles of the built ``annular:5`` rings."""

    @staticmethod
    def rects(zone_id):
        return build_partition(Annular(5)).zones_by_id[zone_id].rects

    def bounds(self, zone_id):
        rects = self.rects(zone_id)
        return (min(r.x0 for r in rects), min(r.y0 for r in rects),
                max(r.x1 for r in rects), max(r.y1 for r in rects))

    def test_outermost_is_whole_image(self):
        assert self.bounds("z0,1") == (0.0, 0.0, 1.0, 1.0)

    def test_innermost_bound_is_empty(self):
        # the innermost ring has no hole: its rectangles tile its whole square
        rects = self.rects("z4,5")
        assert sum((r.x1 - r.x0) * (r.y1 - r.y0) for r in rects) == pytest.approx(0.2 * 0.2)

    def test_interior_rect(self):
        assert self.bounds("z4,5") == (0.4, 0.4, 0.6, 0.6)


class TestBuildPartition:
    def test_annular_five_zones(self):
        p = build_partition(Annular(5))
        assert p.zone_ids == ["z0,1", "z1,2", "z2,3", "z3,4", "z4,5"]
        # outermost frame: [0,1)^2 minus [0.1,0.9)^2
        outer = p.zones_by_id["z0,1"]
        assert not outer.contains(0.5, 0.5)
        assert outer.contains(0.05, 0.5)
        assert outer.contains(0.0, 0.0)
        assert float(outer.area_exact) == pytest.approx(1 - 0.8**2)

    @pytest.mark.parametrize("spec", BUILTIN_SPECS, ids=spec_label)
    def test_edge_table_is_read_only(self, spec):
        # callers cache lookups per partition object, so its table cannot change under them
        p = build_partition(spec)
        for table in (p._xs, p._ys, p._cells):
            with pytest.raises(ValueError, match="read-only"):
                table.flat[0] = 0
        assert p.area_fractions.flags.writeable is False

    def test_grid_1x1_is_whole_image(self):
        p = build_partition(Grid(1, 1))
        assert p.zone_ids == ["g0_0"]
        assert p.area_fraction("g0_0") == 1.0

    def test_stripx_uniform_split(self):
        p = build_partition(StripX(5))
        assert p.zone_ids == [f"x{k}" for k in range(5)]
        assert all(p.area_fraction(z) == 0.2 for z in p.zone_ids)

    @pytest.mark.parametrize("n", range(1, 61))
    def test_strips_are_one_row_or_column_grids(self, n):
        # the same cells as the grid, cell for cell; only the ids differ
        def cells(spec):
            return [([(r.x0, r.y0, r.x1, r.y1) for r in z.rects], z.area_exact, z.area_fraction)
                    for z in build_partition(spec).zones]

        assert cells(StripX(n)) == cells(Grid(1, n))
        assert cells(StripY(n)) == cells(Grid(n, 1))
        assert build_partition(StripX(n)).zone_ids == [f"x{k}" for k in range(n)]
        assert build_partition(StripY(n)).zone_ids == [f"y{k}" for k in range(n)]

    def test_invalid_counts(self):
        with pytest.raises(PartitionError):
            build_partition(Annular(0))
        with pytest.raises(PartitionError):
            build_partition(Grid(0, 3))

    def test_custom_overlap_detected(self):
        spec = Custom(
            (
                ("a", ((0.0, 0.0, 0.6, 1.0),)),
                ("b", ((0.5, 0.0, 1.0, 1.0),)),
            )
        )
        with pytest.raises(PartitionError, match="overlap"):
            build_partition(spec)

    def test_custom_gap_detected(self):
        spec = Custom(
            (
                ("a", ((0.0, 0.0, 0.4, 1.0),)),
                ("b", ((0.5, 0.0, 1.0, 1.0),)),
            )
        )
        with pytest.raises(PartitionError, match="gap"):
            build_partition(spec)

    @pytest.mark.parametrize("left_x1,right_x0,what", [(0.5, 0.5004, "leave a gap"),
                                                       (0.5004, 0.5, "overlap")])
    def test_custom_thin_seam_detected(self, left_x1, right_x0, what):
        # a seam 0.0004 wide, which a 1000 x 1000 sampling grid steps over
        spec = Custom((
            ("a", ((0.0, 0.0, left_x1, 1.0),)),
            ("b", ((right_x0, 0.0, 1.0, 1.0),)),
        ))
        with pytest.raises(PartitionError, match=rf"{what} near \(0\.5002, 0\.5000\)"):
            build_partition(spec)

    @pytest.mark.parametrize("right_x0,what", [(0.5, "overlap"), (0.7, "leave a gap")])
    def test_builtin_spec_is_checked_too(self, right_x0, what):
        # two strips that do not tile the image, labelled with a built-in spec
        zones = [Zone("x0", [Rect(0.0, 0.0, 0.6, 1.0)], Fraction(3, 5)),
                 Zone("x1", [Rect(right_x0, 0.0, 1.0, 1.0)], Fraction(2, 5))]
        with pytest.raises(PartitionError, match=f"zones {what} near"):
            Partition(StripX(2), zones)

    def test_custom_zone_without_rectangles(self):
        spec = Custom((("a", ((0.0, 0.0, 1.0, 1.0),)), ("b", ())))
        with pytest.raises(PartitionError, match="zone 'b' has no rectangles"):
            build_partition(spec)

    def test_custom_valid(self):
        spec = Custom(
            (
                ("left", ((0.0, 0.0, 0.5, 1.0),)),
                ("right", ((0.5, 0.0, 1.0, 1.0),)),
            )
        )
        p = build_partition(spec)
        assert p.zone_ids == ["left", "right"]
        assert p.area_fraction("left") == 0.5


class TestSharedPartitions:
    """``build_partition`` returns one read-only partition per equal spec, from a bounded cache."""

    def test_equal_specs_share_one_partition(self):
        assert build_partition(parse_zone_spec("grid:11x11")) is build_partition(Grid(11, 11))
        assert build_partition(Annular(5)) is build_partition(Annular(5))
        assert build_partition(Grid(3, 4)) is not build_partition(Grid(4, 3))

    def test_numpy_counts_are_read_as_ints(self):
        p = build_partition(StripX(np.int64(3)))
        assert p is build_partition(StripX(3))
        assert spec_label(p.spec) == "strip-x:3" and type(p.spec.n) is int
        assert build_partition(Grid(np.int32(2), np.uint8(5))).spec == Grid(2, 5)

    @pytest.mark.parametrize("spec", [Annular(True), StripX(False), StripY(True), Grid(True, 3), Grid(3, True),
                                      Annular(2.0), StripX(np.float64(3.0)), Grid(3, 1.5), Annular("3"),
                                      Annular(None)], ids=repr)
    def test_counts_are_integers_not_bools(self, spec):
        with pytest.raises(PartitionError, match="must be an integer"):
            build_partition(spec)

    def test_a_bool_count_does_not_take_an_int_counts_partition(self):
        one = build_partition(Annular(1))
        with pytest.raises(PartitionError):
            build_partition(Annular(True))
        assert build_partition(Annular(1)) is one and spec_label(one.spec) == "annular:1"

    def test_custom_zones_as_lists_build_and_share(self):
        lists = Custom([["left", [[0.0, 0.0, 0.5, 1.0]]], ["right", [[0.5, 0.0, 1.0, 1.0]]]])
        tuples = Custom((("left", ((0.0, 0.0, 0.5, 1.0),)), ("right", ((0.5, 0.0, 1.0, 1.0),))))
        p = build_partition(lists)
        assert p is build_partition(tuples)
        assert p.zone_ids == ["left", "right"] and p.spec == tuples

    def test_custom_zone_names_are_their_ids(self):
        def zones(name):
            return Custom(((name, ((0.0, 0.0, 0.5, 1.0),)), ("right", ((0.5, 0.0, 1.0, 1.0),))))

        # 1 == True, but the zone ids are str(name)
        assert build_partition(zones(1)).zone_ids == ["1", "right"]
        assert build_partition(zones(True)).zone_ids == ["True", "right"]

    def test_the_cache_is_bounded(self):
        first = weakref.ref(build_partition(Grid(97, 1)))
        for k in range(PARTITION_CACHE):
            build_partition(Grid(97, k + 2))
        gc.collect()
        assert first() is None

    def test_a_failing_spec_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(PartitionError, match="n >= 1"):
                build_partition(Annular(0))


class TestReadOnly:
    def test_partition_fields_cannot_be_set(self):
        p = build_partition(StripX(3))
        for name, value in (("spec", Annular(5)), ("zones", ()), ("zone_ids", []), ("zones_by_id", {}),
                            ("area_fractions", np.zeros(3))):
            with pytest.raises(AttributeError):
                setattr(p, name, value)
        assert spec_label(p.spec) == "strip-x:3"

    def test_zone_index_cannot_be_changed(self):
        p = build_partition(StripX(3))
        with pytest.raises(TypeError):
            p.zones_by_id["x0"] = p.zones[2]
        with pytest.raises(TypeError):
            del p.zones_by_id["x0"]
        assert p.area_fraction("x0") == pytest.approx(1 / 3) and p.zones_by_id["x0"] is p.zones[0]

    def test_zone_ids_are_a_new_list(self):
        p = build_partition(StripX(3))
        p.zone_ids.append("x3")
        assert p.zone_ids == ["x0", "x1", "x2"]

    def test_zone_fields_cannot_be_set(self):
        zone = build_partition(StripX(3)).zones[0]
        assert isinstance(zone.rects, tuple)
        for name, value in (("id", "x2"), ("rects", []), ("area_fraction", 0.5), ("area_exact", Fraction(1, 2))):
            with pytest.raises(AttributeError):
                setattr(zone, name, value)
            with pytest.raises(AttributeError):
                delattr(zone, name)
        assert (zone.id, zone.area_fraction) == ("x0", float(Fraction(1, 3)))

    def test_zones_keep_identity_equality(self):
        a, b = (Zone("a", [Rect(0.0, 0.0, 1.0, 1.0)], Fraction(1)) for _ in range(2))
        assert a != b and a == a and len({a, b}) == 2
        assert a.rects == (Rect(0.0, 0.0, 1.0, 1.0),)


class TestZoneOf:
    def test_image_center_is_innermost_ring(self, square_image):
        p = build_partition(Annular(5))
        assert p.zone_of_clamped((300, 300), square_image) == "z4,5"

    def test_origin_is_outermost_ring(self, square_image):
        p = build_partition(Annular(5))
        assert p.zone_of_clamped((0, 0), square_image) == "z0,1"

    def test_second_ring(self, square_image):
        # x/W = 0.15 sits in [0.1, 0.2); y central
        p = build_partition(Annular(5))
        assert p.zone_of_clamped((0.15 * 600, 0.5 * 600), square_image) == "z1,2"

    def test_right_bottom_edge_gets_a_zone(self, square_image):
        p = build_partition(Grid(11, 11))
        assert p.zone_of_clamped((600, 600), square_image) == "g10_10"

    def test_nan_point_raises(self, square_image):
        p = build_partition(Annular(5))
        with pytest.raises(PartitionError, match="no zone contains"):
            p.zone_of_clamped((math.nan, 10), square_image)

    def test_clamped_variant_accepts_overflow(self, square_image):
        p = build_partition(Annular(5))
        assert p.zone_of_clamped((650, 300), square_image) == "z0,1"

    def test_aspect_ratio_invariance(self):
        # membership depends only on (x/W, y/H)
        p = build_partition(Annular(5))
        wide = ImageInfo(id=1, width=1000, height=10)
        tall = ImageInfo(id=2, width=10, height=1000)
        for u, v in [(0.05, 0.5), (0.15, 0.15), (0.45, 0.55), (0.31, 0.87)]:
            assert p.zone_of_clamped((u * 1000, v * 10), wide) == p.zone_of_clamped((u * 10, v * 1000), tall)

    def test_boundary_determinism(self, square_image):
        # a point exactly on the shared 0.2 boundary belongs to the zone whose
        # half-open interval claims it, run after run
        p = build_partition(StripX(5))
        hits = {p.zone_of_clamped((0.2 * 600, 300), square_image) for _ in range(5)}
        assert hits == {"x1"}

    def test_internal_float_boundary_is_half_open(self):
        # u exactly equal to the shared 1/3 boundary float lands in the
        # right-hand cell of a 3-wide grid
        p = build_partition(Grid(1, 3))
        img = ImageInfo(id=1, width=3.0, height=3.0)
        assert p.zone_of_clamped((1.0, 1.5), img) == "g0_1"
        assert p.zone_of_clamped((2.0, 1.5), img) == "g0_2"
        assert p.zone_of_clamped((0.999, 1.5), img) == "g0_0"


class TestAreas:
    def test_annular5_innermost(self):
        p = build_partition(Annular(5))
        assert p.area_fraction("z4,5") == 0.04

    def test_annular5_border_union(self):
        p = build_partition(Annular(5))
        border = sum((p.zones_by_id[f"z{i},{i + 1}"].area_exact for i in range(4)))
        assert float(border) == 0.96

    def test_grid_cell_area(self):
        p = build_partition(Grid(11, 11))
        assert p.area_fraction("g3_7") == pytest.approx(1 / 121, abs=0)

    def test_unknown_zone_id(self):
        p = build_partition(Grid(2, 2))
        with pytest.raises(PartitionError):
            p.area_fraction("nope")

    @pytest.mark.parametrize("spec", BUILTIN_SPECS, ids=spec_label)
    def test_areas_sum_to_one(self, spec):
        p = build_partition(spec)
        assert sum(z.area_exact for z in p.zones) == 1
        assert abs(sum(z.area_fraction for z in p.zones) - 1.0) < 1e-12


class TestCoverage:
    @pytest.mark.parametrize("spec", BUILTIN_SPECS, ids=spec_label)
    def test_exactly_one_zone_per_point(self, spec):
        # 997 x 991 sample grid, coprime with every partition count used here
        p = build_partition(spec)
        us = (np.arange(997) + 0.5) / 997
        vs = (np.arange(991) + 0.5) / 991
        uu, vv = np.meshgrid(us, vs)
        counts = sum(z.contains(uu, vv) for z in p.zones)
        assert (counts == 1).all()

    def test_scalar_lookup_agrees_with_vectorized(self):
        custom = Custom((
            ("left", ((0.0, 0.0, 0.3, 1.0),)),
            ("middle", ((0.3, 0.0, 0.7, 0.45), (0.3, 0.55, 0.7, 1.0))),
            ("right", ((0.7, 0.0, 1.0, 1.0), (0.3, 0.45, 0.7, 0.55))),
        ))
        rng = np.random.default_rng(0)
        for spec in BUILTIN_SPECS + [StripX(7), StripY(3), custom]:
            p = build_partition(spec)
            rects = [r for z in p.zones for r in z.rects]
            pu = _probes({e for r in rects for e in (r.x0, r.x1)})
            pv = _probes({e for r in rects for e in (r.y0, r.y1)})
            # every probe of each axis against random probes of the other, then
            # random points, some of them outside the image
            us = np.concatenate([pu, rng.choice(pu, len(pv)), rng.uniform(-0.2, 1.2, 300)])
            vs = np.concatenate([rng.choice(pv, len(pu)), pv, rng.uniform(-0.2, 1.2, 300)])
            for width, height in [(1.0, 1.0), (640.0, 480.0), (427.0, 640.0)]:
                img = ImageInfo(id=1, width=width, height=height)
                xs, ys = us * width, vs * height
                got = p.assign(xs, ys, width, height)
                assert got.dtype == np.int32
                # one array call of Zone.contains per zone, on the normalized probes
                inside = np.array([z.contains(*normalize_points(xs, ys, width, height))
                                   for z in p.zones])
                assert (inside.sum(axis=0) == 1).all()
                assert (inside.argmax(axis=0) == got).all()
                for x, y, k in zip(xs.tolist(), ys.tolist(), got.tolist()):
                    assert p.zone_of_clamped((x, y), img) == p.zones[k].id
                    u = min(min(max(x, 0.0), width) / width, math.nextafter(1.0, 0.0))
                    v = min(min(max(y, 0.0), height) / height, math.nextafter(1.0, 0.0))
                    assert [z.contains(u, v) for z in p.zones].count(True) == 1
                    assert p.zones[k].contains(u, v)

    @pytest.mark.parametrize("seed", range(3))
    def test_crowded_buckets(self, seed):
        # the cells of strips whose x edges hold bucket starts (3/4096, 1/2), one edge just below
        # one of them and two edges inside one bucket, and whose y edges hold 1/4 and four edges
        # inside one bucket; every point is tested against Zone.contains
        rng = np.random.default_rng(seed)
        xe = [0.0, 2.5 / BUCKETS, 3 / BUCKETS, 0.5, *(0.5 + (rng.choice(999, 2, replace=False) + 1) / (1000 * BUCKETS)),
              1.0]
        b = int(rng.integers(1, BUCKETS // 4)) / BUCKETS
        ye = [0.0, b, *(b + np.sort(rng.random(4)) / BUCKETS), 0.25, 0.7, 1.0]
        xe, ye = sorted(set(map(float, xe))), sorted(set(map(float, ye)))
        p = build_partition(Custom(tuple((f"c{i}_{j}", ((x0, y0, x1, y1),))
                                         for i, (x0, x1) in enumerate(zip(xe, xe[1:]))
                                         for j, (y0, y1) in enumerate(zip(ye, ye[1:])))))
        assert p._x_buckets[2] is not None and p._y_buckets[2] is not None
        pu, pv = _probes(set(xe)), _probes(set(ye))
        us = np.concatenate([pu, rng.choice(pu, len(pv)), rng.random(200) * 2 - 0.5])
        vs = np.concatenate([rng.choice(pv, len(pu)), pv, rng.random(200) * 2 - 0.5])
        for width, height in [(1.0, 1.0), (640.0, 480.0),
                              (rng.choice([1.0, 640.0, 427.0], len(us)), rng.choice([1.0, 480.0, 333.0], len(us)))]:
            xs, ys = us * width, vs * height
            got = p.assign(xs, ys, width, height)
            inside = np.array([z.contains(*normalize_points(xs, ys, width, height)) for z in p.zones])
            assert (inside.sum(axis=0) == 1).all()
            assert (inside.argmax(axis=0) == got).all()
            if np.ndim(width) == 0:  # points in any shape, one point alone too
                assert (p.assign(xs[None, :], ys[None, :], width, height) == got[None, :]).all()
                assert [p.assign(x, y, width, height) for x, y in zip(xs[:50], ys[:50])] == got[:50].tolist()
        for args in [([math.nan], [0.5], 1.0, 1.0), ([0.5], [math.nan], 1.0, 1.0), ([0.5], [0.5], math.nan, 1.0),
                     ([0.5, 0.5], [0.5, 0.5], 1.0, [1.0, math.nan])]:
            with pytest.raises(PartitionError, match="no zone contains"):
                p.assign(*args)

    def test_assign_takes_per_point_image_sizes(self):
        p = build_partition(Grid(2, 2))
        got = p.assign([10.0, 10.0, 700.0], [10.0, 90.0, -5.0], [100.0, 20.0, 640.0], 100.0)
        assert [p.zones[k].id for k in got] == ["g0_0", "g1_1", "g0_1"]
        assert p.assign([], [], 10.0, 10.0).shape == (0,)

    def test_assign_reports_points_no_zone_contains(self):
        p = build_partition(Annular(5))
        with pytest.raises(PartitionError):
            p.assign([1.0], [1.0], math.nan, 10.0)


class TestSpecParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("annular:5", Annular(5)),
            ("strip-x:5", StripX(5)),
            ("strip-y:3", StripY(3)),
            ("grid:11x11", Grid(11, 11)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_zone_spec(text) == expected

    def test_label_round_trip(self):
        for text in ["annular:5", "strip-x:5", "strip-y:3", "grid:11x11"]:
            assert spec_label(parse_zone_spec(text)) == text

    def test_parse_garbage(self):
        with pytest.raises(PartitionError):
            parse_zone_spec("rings:five")

    def test_custom_file(self, tmp_path):
        zones = [
            {"name": "left", "rects": [[0.0, 0.0, 0.5, 1.0]]},
            {"name": "right", "rects": [[0.5, 0.0, 1.0, 1.0]]},
        ]
        path = tmp_path / "zones.json"
        path.write_text(json.dumps(zones))
        spec = load_custom_spec(path)
        assert [name for name, _ in spec.zones] == ["left", "right"]
        parsed = parse_zone_spec(f"custom:@{path}")
        assert parsed == spec

    def test_every_spec_kind_has_one_row(self):
        assert set(typing.get_args(ZoneSpec)) == set(_KINDS)

    @pytest.mark.parametrize("kind", [k for k in typing.get_args(ZoneSpec) if k is not Custom])
    def test_builtin_label_parses_back(self, kind):
        spec = kind(*range(3, 3 + len(dataclasses.fields(kind))))
        assert parse_zone_spec(spec_label(spec)) == spec

    def test_custom_label_counts_zones(self):
        spec = Custom((("a", ((0.0, 0.0, 0.5, 1.0),)), ("b", ((0.5, 0.0, 1.0, 1.0),))))
        assert spec_label(spec) == "custom:2 zones"

    @pytest.mark.parametrize("text,path", [("custom:@z.json", "z.json"), ("custom:@", None),
                                           ("annular:5", None), ("grid:3x3", None)])
    def test_zones_file_of_spec(self, text, path):
        assert _spec_file(text) == path

    def test_degenerate_innermost_ring_matches_solid_square(self):
        # z^{n-1,n} equals the full centered square when the inner bound is empty
        p = build_partition(Annular(5))
        inner = p.zones_by_id["z4,5"]
        assert inner.contains(0.5, 0.5)
        assert inner.contains(0.41, 0.59)
        assert not inner.contains(0.39, 0.5)
        assert math.isclose(float(inner.area_exact), 0.2**2)
