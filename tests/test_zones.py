import json
import math
from fractions import Fraction

import numpy as np
import pytest

from zoneval.coco import ImageInfo
from zoneval.errors import OutsideImageError, PartitionError
from zoneval.zones import (
    Annular,
    Custom,
    Grid,
    StripX,
    StripY,
    Partition,
    Rect,
    Zone,
    annular_rect,
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
    def test_outermost_is_whole_image(self):
        r = annular_rect(0, 5)
        assert (r.x0, r.y0, r.x1, r.y1) == (0.0, 0.0, 1.0, 1.0)

    def test_innermost_bound_is_empty(self):
        assert annular_rect(5, 5).is_empty

    def test_interior_rect(self):
        r = annular_rect(4, 5)
        assert (r.x0, r.x1) == (0.4, 0.6)
        assert (r.y0, r.y1) == (0.4, 0.6)

    def test_index_out_of_range(self):
        with pytest.raises(PartitionError):
            annular_rect(6, 5)


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


class TestZoneOf:
    def test_image_center_is_innermost_ring(self, square_image):
        p = build_partition(Annular(5))
        assert p.zone_of((300, 300), square_image) == "z4,5"

    def test_origin_is_outermost_ring(self, square_image):
        p = build_partition(Annular(5))
        assert p.zone_of((0, 0), square_image) == "z0,1"

    def test_second_ring(self, square_image):
        # x/W = 0.15 sits in [0.1, 0.2); y central
        p = build_partition(Annular(5))
        assert p.zone_of((0.15 * 600, 0.5 * 600), square_image) == "z1,2"

    def test_right_bottom_edge_gets_a_zone(self, square_image):
        p = build_partition(Grid(11, 11))
        assert p.zone_of((600, 600), square_image) == "g10_10"

    def test_outside_image_raises(self, square_image):
        p = build_partition(Annular(5))
        with pytest.raises(OutsideImageError):
            p.zone_of((601, 10), square_image)

    def test_clamped_variant_accepts_overflow(self, square_image):
        p = build_partition(Annular(5))
        assert p.zone_of_clamped((650, 300), square_image) == "z0,1"

    def test_aspect_ratio_invariance(self):
        # membership depends only on (x/W, y/H)
        p = build_partition(Annular(5))
        wide = ImageInfo(id=1, width=1000, height=10)
        tall = ImageInfo(id=2, width=10, height=1000)
        for u, v in [(0.05, 0.5), (0.15, 0.15), (0.45, 0.55), (0.31, 0.87)]:
            assert p.zone_of((u * 1000, v * 10), wide) == p.zone_of((u * 10, v * 1000), tall)

    def test_boundary_determinism(self, square_image):
        # a point exactly on the shared 0.2 boundary belongs to the zone whose
        # half-open interval claims it, run after run
        p = build_partition(StripX(5))
        hits = {p.zone_of((0.2 * 600, 300), square_image) for _ in range(5)}
        assert hits == {"x1"}

    def test_internal_float_boundary_is_half_open(self):
        # u exactly equal to the shared 1/3 boundary float lands in the
        # right-hand cell of a 3-wide grid
        p = build_partition(Grid(1, 3))
        img = ImageInfo(id=1, width=3.0, height=3.0)
        assert p.zone_of((1.0, 1.5), img) == "g0_1"
        assert p.zone_of((2.0, 1.5), img) == "g0_2"
        assert p.zone_of((0.999, 1.5), img) == "g0_0"


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

    def test_degenerate_innermost_ring_matches_solid_square(self):
        # z^{n-1,n} equals the full centered square when the inner bound is empty
        p = build_partition(Annular(5))
        inner = p.zones_by_id["z4,5"]
        assert inner.contains(0.5, 0.5)
        assert inner.contains(0.41, 0.59)
        assert not inner.contains(0.39, 0.5)
        assert math.isclose(float(inner.area_exact), 0.2**2)
