"""Command-line surface: reproducible evaluation runs with machine-readable reports.

Exit codes: 0 success, 1 input error, 2 evaluation undefined (no ground truth
anywhere).  All outputs are deterministic: the same inputs and flags produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

from . import analysis, synth
from .coco import _id, _parse_record, _parse_records, _read_json, load_detections, load_ground_truth
from .equilibrium import (AssignConfig, anchor_grid, beta_assign, check_beta, object_density, sela_assign,
                          supervision_density)
from .errors import IngestError, PartitionError, UndefinedStatisticError
from .matching import DEFAULT_IOU_THRESHOLDS, EvalConfig
from .zone_eval import evaluate_zones, read_heatmap_csv, write_heatmap_csv
from .zones import Grid, build_partition, grid_rows, parse_zone_spec

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_UNDEFINED = 2


def _parse_thresholds(text: str) -> tuple[float, ...]:
    """Parse '0.5:0.95:0.05' (start:stop:step) or a comma list '0.5,0.75'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"bad threshold range {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise argparse.ArgumentTypeError("threshold step must be positive")
        if stop < start:
            raise argparse.ArgumentTypeError(f"threshold range {text!r} ends below its start")
        n = int(round((stop - start) / step)) + 1
        return tuple(round(start + i * step, 10) for i in range(n))
    return tuple(float(p) for p in text.split(","))


def _parse_anchor_grid(text: str) -> tuple[int, int]:
    """Parse 'COLSxROWS', the anchor lattice of ``sela``."""
    try:
        cols, rows = map(int, text.split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected COLSxROWS, got {text!r}") from None
    return cols, rows


def _parse_scale_range(text: str) -> tuple[float, float] | None:
    """Parse 'LO:HI' in pixels^2; HI 'inf' or empty means no upper bound."""
    if not text:
        return None
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    lo, hi = parts
    try:
        return float(lo), math.inf if hi == "" else float(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad scale range {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_INPUT_ERROR, since 2 means "evaluation undefined"."""

    def error(self, message: str):
        self.exit(EXIT_INPUT_ERROR, f"error: {message}\n")


def _add_eval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--iou", type=_parse_thresholds, default=DEFAULT_IOU_THRESHOLDS,
                   metavar="LO:HI:STEP", help="IoU thresholds (default 0.5:0.95:0.05)")
    p.add_argument("--max-dets", type=int, default=100, help="per-image detection cap")
    p.add_argument("--recall-points", type=int, default=101, help="recall sampling points")
    p.add_argument("--scale-range", type=_parse_scale_range, default=None, metavar="LO:HI",
                   help="only score objects with area in [LO, HI) pixels^2")
    p.add_argument("--cap-after-zone", action="store_true",
                   help="apply the per-image cap after zone filtering instead of before")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility and ignored")


def _eval_config(args: argparse.Namespace) -> EvalConfig:
    return EvalConfig(
        iou_thresholds=tuple(args.iou),
        recall_points=args.recall_points,
        max_dets_per_image=args.max_dets,
        scale_range=args.scale_range,
        cap_after_zone=args.cap_after_zone,
    )


def _write_text(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _csv_text(rows) -> str:
    """Rows as CSV text, quoted where a field holds a comma (annular zone ids do)."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _fmt(v: float | None) -> str:
    return "-" if v is None else f"{v:.1f}"


def cmd_eval(args: argparse.Namespace) -> int:
    ds = load_ground_truth(args.gt)
    dets = load_detections(args.dt, ds)
    partition = build_partition(parse_zone_spec(args.partition))
    cfg = _eval_config(args)
    base = Path(args.heatmap) if args.heatmap else None
    if base:
        if not isinstance(partition.spec, Grid):
            raise PartitionError("--heatmap requires a grid partition")
        ts = cfg.iou_thresholds
        for a, b in zip(ts, ts[1:]):
            if (path := _threshold_path(base, a)) == _threshold_path(base, b):
                raise ValueError(f"--iou thresholds {a:g} and {b:g} would share the heatmap file {path}")

    report = evaluate_zones(ds, dets, partition, cfg)
    for zid in report.undefined_zones:
        print(f"warning: zone {zid} has no ground truth; ZP undefined", file=sys.stderr)

    # summary table in the usual column order: AP, variance, then one ZP per zone
    ids = [z.zone_id for z in report.zones]
    widths = [max(len(s), 6) for s in ids]
    header = f"{'AP':>6} {'Var.':>7} " + " ".join(f"{s:>{w}}" for s, w in zip(ids, widths))
    values = f"{_fmt(report.full_ap):>6} {_fmt(report.zp_variance):>7} " + " ".join(
        f"{_fmt(z.zp):>{w}}" for z, w in zip(report.zones, widths)
    )
    print(header)
    print(values)

    if args.format == "json":
        _write_text(args.out, report.to_json())
    else:
        buf = io.StringIO()
        report.write_csv(buf)
        _write_text(args.out, buf.getvalue())

    if base:
        # the mean ZP, then one file per threshold
        series = [(base, [z.zp for z in report.zones])] + [
            (_threshold_path(base, t), [z.zp_by_threshold[ti] for z in report.zones])
            for ti, t in enumerate(cfg.iou_thresholds)
        ]
        for path, values in series:
            with open(path, "w", newline="") as f:
                write_heatmap_csv(grid_rows(partition, values), f)

    return EXIT_UNDEFINED if report.full_ap is None else EXIT_OK


def _threshold_path(base: Path, t: float) -> Path:
    return base.with_name(f"{base.stem}_t{t:.2f}{base.suffix or '.csv'}")


def cmd_density(args: argparse.Namespace) -> int:
    ds = load_ground_truth(args.gt)
    partition = build_partition(parse_zone_spec(args.partition))
    report = object_density(ds, partition, absolute=args.absolute_area)
    if args.format == "json":
        payload = {
            "partition": args.partition,
            "absolute_area": args.absolute_area,
            "zones": [
                {"id": z.zone_id, "count": z.count, "area": z.area, "density": z.density}
                for z in report.zones
            ],
        }
        _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        rows = [("zone", "count", "area", "density")]
        rows += [(z.zone_id, z.count, repr(z.area), repr(z.density)) for z in report.zones]
        _write_text(args.out, _csv_text(rows))
    return EXIT_OK


def cmd_sela(args: argparse.Namespace) -> int:
    ds = load_ground_truth(args.gt)
    partition = build_partition(parse_zone_spec(args.partition))
    cols, rows = args.anchor_grid
    # the assignment rule is checked once, so an image-less file fails like any other
    if args.beta is not None:
        if args.beta_zone is None:
            raise PartitionError("--beta requires --beta-zone")
        zone = partition.zones_by_id.get(args.beta_zone)
        if zone is None:
            raise PartitionError(f"--beta-zone {args.beta_zone!r} not in partition")
        check_beta(args.alpha_pos, args.beta)
    else:
        rule = AssignConfig(t=args.t, gamma=args.gamma)

    rows_out = []
    for img in ds.images:
        anchors = anchor_grid(img, cols, rows, box_size=args.anchor_size)
        gts = ds.gts_by_image[img.id]
        if args.beta is not None:
            result = beta_assign(anchors, gts, args.alpha_pos, args.beta, zone, img)
        else:
            result = sela_assign(anchors, gts, rule, img)
        density = supervision_density(result, partition, img)
        for z in density.zones:
            rows_out.append((img.id, z.zone_id, z.count, z.density))

    totals: dict[str, int] = {zid: 0 for zid in partition.zone_ids}
    for _, zid, count, _ in rows_out:
        totals[zid] += count
    if args.format == "json":
        payload = {
            "per_image": [
                {"image_id": i, "zone": z, "positives": c, "density": d}
                for i, z, c, d in rows_out
            ],
            "totals": totals,
        }
        _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        rows = [("image_id", "zone", "positives", "density")]
        rows += [(i, z, c, repr(d)) for i, z, c, d in rows_out]
        rows += [("total", zid, totals[zid], "") for zid in partition.zone_ids]
        _write_text(args.out, _csv_text(rows))
    return EXIT_OK


def _read_heatmap(path: Path) -> list[list[float | None]]:
    """One per-threshold heatmap CSV; an empty, ragged or non-finite one raises IngestError."""
    try:
        with open(path, newline="") as f:
            matrix = read_heatmap_csv(f)
    except ValueError as e:
        raise IngestError(f"{path}: {e}") from e
    if not matrix or not matrix[0]:
        raise IngestError(f"{path}: empty heatmap")
    if any(len(row) != len(matrix[0]) for row in matrix):
        raise IngestError(f"{path}: heatmap rows differ in length")
    if not all(math.isfinite(v) for row in matrix for v in row if v is not None):
        raise IngestError(f"{path}: heatmap cells must be finite or empty")
    return matrix


def cmd_correlate(args: argparse.Namespace) -> int:
    ds = load_ground_truth(args.gt)
    base = Path(args.heatmap)
    thresholds = tuple(args.iou)
    heatmaps = {}
    for t in thresholds:
        path = _threshold_path(base, t)
        if not path.exists():
            raise IngestError(f"missing per-threshold heatmap {path}")
        heatmaps[t] = _read_heatmap(path)
    shape = {(len(m), len(m[0])) for m in heatmaps.values()}
    if len(shape) != 1:
        raise IngestError("per-threshold heatmaps disagree on shape")
    rows, cols = next(iter(shape))
    counts = analysis.center_counts(ds, rows, cols)
    curve = analysis.correlate_zp_distribution(heatmaps, counts)

    buf = io.StringIO()
    curve.write_csv(buf)
    _write_text(args.out, buf.getvalue())
    return EXIT_OK


def cmd_pattern_distance(args: argparse.Namespace) -> int:
    records = analysis.load_feature_records(args.features)
    side_a = tuple(args.side_a.split(":"))
    side_b = tuple(args.side_b.split(":"))
    if len(side_a) != 2 or len(side_b) != 2:
        raise IngestError("sides must look like 'test:in' (split:zone)")
    value = analysis.pattern_distance(
        records, side_a, side_b, bin_count=args.bins, bin_width=args.bin_width
    )
    payload = {
        "side_a": args.side_a,
        "side_b": args.side_b,
        "bins": args.bins,
        "bin_width": args.bin_width,
        "distance": value,
    }
    _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _zone_quality(rec: dict) -> synth.ZoneQuality:
    return synth.ZoneQuality(
        recall=float(rec["recall"]),
        fp_per_tp=float(rec.get("fp_per_tp", 0.0)),
        loc_jitter=float(rec.get("loc_jitter", 0.0)),
    )


def cmd_synth_sudoku(args: argparse.Namespace) -> int:
    meta = _read_json(args.objects)
    records = meta.get("objects") if isinstance(meta, dict) else meta
    objects = tuple(_parse_records(records, f"{args.objects}: object",
                                   lambda rec: (_id(rec["source_id"]), _id(rec["category_id"]))))
    cfg = synth.SudokuConfig(objects=objects, canvas=args.canvas, object_size=args.size)
    ds, manifest = synth.sudoku_layout(cfg)
    Path(args.out_gt).write_text(json.dumps(ds.to_coco_dict(), indent=2, sort_keys=True) + "\n")
    if args.out_manifest:
        Path(args.out_manifest).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"{len(ds.ground_truths)} objects on {len(ds.images)} canvases -> {args.out_gt}")
    return EXIT_OK


def cmd_synth_bench(args: argparse.Namespace) -> int:
    partition = build_partition(parse_zone_spec(args.partition))
    if args.profile:
        raw = _read_json(args.profile)
        if not isinstance(raw, dict):
            raise IngestError(f"{args.profile}: quality profile must be a JSON object")
        zones = {
            zid: _parse_record(q, f"{args.profile}: zone {zid!r}", _zone_quality)
            for zid, q in raw.items()
        }
        profile = synth.QualityProfile(zones, rng_seed=args.seed)
    else:
        profile = synth.graded_profile(partition, rng_seed=args.seed)
    ds, dets, expected = synth.synthetic_benchmark(
        n_images=args.images,
        n_objects=args.objects,
        center_bias=args.center_bias,
        profile=profile,
        partition=partition,
    )
    Path(args.out_gt).write_text(json.dumps(ds.to_coco_dict(), indent=2, sort_keys=True) + "\n")
    Path(args.out_dt).write_text(json.dumps(dets.to_coco_list(), indent=2, sort_keys=True) + "\n")
    if args.out_expected:
        Path(args.out_expected).write_text(expected.to_json())
    print(
        f"{len(ds.ground_truths)} objects, {dets.total} detections on "
        f"{len(ds.images)} images -> {args.out_gt}, {args.out_dt}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zone-eval",
        description="Zone-by-zone evaluation of object-detection results",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="zone-restricted AP evaluation")
    p.add_argument("--gt", required=True, help="COCO annotation JSON")
    p.add_argument("--dt", required=True, help="COCO results JSON")
    p.add_argument("--partition", default="annular:5", help="zone partition spec")
    p.add_argument("--out", default=None, help="report file (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--heatmap", default=None,
                   help="also write ZP heatmap CSVs (grid partitions only)")
    _add_eval_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("density", help="object density per zone")
    p.add_argument("--gt", required=True)
    p.add_argument("--partition", default="annular:50")
    p.add_argument("--absolute-area", action="store_true",
                   help="divide by pixel area instead of image fraction")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("sela", help="simulate label assignment over an anchor grid")
    p.add_argument("--gt", required=True)
    p.add_argument("--partition", default="annular:5")
    p.add_argument("--anchor-grid", type=_parse_anchor_grid, default="8x8", metavar="COLSxROWS")
    p.add_argument("--anchor-size", type=float, default=None, help="anchor box side, pixels")
    p.add_argument("--t", type=float, default=0.5, help="positive IoU threshold")
    p.add_argument("--gamma", type=float, default=0.0, help="spatial relaxation strength")
    p.add_argument("--beta", type=float, default=None,
                   help="use the beta variant: raise the threshold inside --beta-zone")
    p.add_argument("--beta-zone", default=None, help="zone id penalized by --beta")
    p.add_argument("--alpha-pos", type=float, default=0.5, help="beta variant base threshold")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(func=cmd_sela)

    p = sub.add_parser("correlate", help="correlate a grid heatmap run with object counts")
    p.add_argument("--gt", required=True)
    p.add_argument("--heatmap", required=True,
                   help="heatmap base path from a prior eval --heatmap run")
    p.add_argument("--iou", type=_parse_thresholds, default=DEFAULT_IOU_THRESHOLDS)
    p.add_argument("--out", default=None, help="curve CSV (default stdout)")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("pattern-distance", help="feature-center distance between two sides")
    p.add_argument("--features", required=True, help="JSON-lines feature records")
    p.add_argument("--side-a", default="test:in", metavar="SPLIT:ZONE")
    p.add_argument("--side-b", default="test:out", metavar="SPLIT:ZONE")
    p.add_argument("--bins", type=int, default=9, help="scale bin count")
    p.add_argument("--bin-width", type=float, default=32.0, help="scale bin width, pixels")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pattern_distance)

    p = sub.add_parser("synth", help="synthetic dataset generators")
    synth_sub = p.add_subparsers(dest="synth_command", required=True)

    q = synth_sub.add_parser("sudoku", help="3x3 regular layout annotations")
    q.add_argument("--objects", required=True, help="JSON list of {source_id, category_id}")
    q.add_argument("--canvas", type=float, default=600.0)
    q.add_argument("--size", type=float, default=128.0, help="placed object side, pixels")
    q.add_argument("--out-gt", required=True)
    q.add_argument("--out-manifest", default=None)
    q.set_defaults(func=cmd_synth_sudoku)

    q = synth_sub.add_parser("bench", help="per-zone-quality benchmark")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--images", type=int, default=200)
    q.add_argument("--objects", type=int, default=2000)
    q.add_argument("--center-bias", type=float, default=0.0)
    q.add_argument("--partition", default="annular:5")
    q.add_argument("--profile", default=None,
                   help="JSON {zone_id: {recall, fp_per_tp, loc_jitter}}; default graded")
    q.add_argument("--out-gt", required=True)
    q.add_argument("--out-dt", required=True)
    q.add_argument("--out-expected", default=None)
    q.set_defaults(func=cmd_synth_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UndefinedStatisticError as e:
        print(f"undefined: {e}", file=sys.stderr)
        return EXIT_UNDEFINED
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
