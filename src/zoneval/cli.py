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
import os
import stat
import sys
from pathlib import Path

from . import analysis, synth
from .coco import _id, _number, _parse_record, _parse_records, _read_json, load_detections, load_ground_truth
from .equilibrium import (AssignConfig, anchor_grid, beta_assign, check_anchor_grid, check_beta, object_density,
                          sela_assign, supervision_density)
from .errors import IngestError, PartitionError, UndefinedStatisticError
from .matching import DEFAULT_IOU_THRESHOLDS, EvalConfig
from .zone_eval import _MAX_SCALE_BINS, evaluate_zones, read_heatmap_csv, write_heatmap_csv
from .zones import Grid, _spec_file, build_partition, grid_rows, parse_zone_spec

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_UNDEFINED = 2
_MAX_THRESHOLDS = 1000  # the most thresholds an --iou range may expand to
_MAX_RECALL_POINTS = 10_001  # the most --recall-points: a recall step of 1e-4


def _parse_thresholds(text: str) -> tuple[float, ...]:
    """Parse '0.5:0.95:0.05' (start:stop:step) or a comma list '0.5,0.75'."""
    is_range = ":" in text
    values = [float(p) for p in text.split(":" if is_range else ",")]
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"thresholds {text!r} must be finite")
    if not is_range:
        return tuple(values)
    if len(values) != 3:
        raise argparse.ArgumentTypeError(f"bad threshold range {text!r}")
    start, stop, step = values
    if step <= 0:
        raise argparse.ArgumentTypeError("threshold step must be positive")
    if stop < start:
        raise argparse.ArgumentTypeError(f"threshold range {text!r} ends below its start")
    span = (stop - start) / step
    # counted before anything is expanded: a tiny step gives a finite but huge count
    if not math.isfinite(span) or round(span) + 1 > _MAX_THRESHOLDS:
        raise argparse.ArgumentTypeError(f"threshold range {text!r} holds more than {_MAX_THRESHOLDS} thresholds")
    return tuple(round(start + i * step, 10) for i in range(round(span) + 1))


def _at_most(bound: int, what: str):
    """An argparse type: an int no greater than ``bound``, checked before anything is built from it."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value > bound:
            raise argparse.ArgumentTypeError(f"{value} {what} are more than {bound}")
        return value

    return parse


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
    p.add_argument("--recall-points", type=_at_most(_MAX_RECALL_POINTS, "recall points"), default=101,
                   help=f"recall sampling points, at most {_MAX_RECALL_POINTS}")
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


def _zones_file(spec: str) -> list[tuple[str, str | None]]:
    """The zones file a ``custom:@FILE`` partition spec reads, as a (flag, path) input; None for other specs."""
    return [("--partition", _spec_file(spec))]


def _check_outputs(outputs, inputs) -> None:
    """Before any work, reject an output that is also an input or another output, or cannot be written.

    Both are (flag, path) pairs; a path of None (stdout, or an optional file not asked for) is skipped."""
    outputs = [(flag, path) for flag, path in outputs if path]
    named = outputs + [(flag, path) for flag, path in inputs if path]
    real = [os.path.realpath(path) for _, path in named]  # Path.resolve raises on a symlink loop before 3.13
    for i, (flag, path) in enumerate(outputs):
        other = next((f for j, (f, _) in enumerate(named) if j != i and real[j] == real[i]), None)
        if other:
            raise ValueError(f"{flag} {path} is also a {other} file")
        why = _unwritable(Path(path))
        if why:
            raise OSError(f"{flag} {path}: {why}")


def _unwritable(path: Path) -> str | None:
    """Why no file can be written at ``path``, or None if one can."""
    try:
        mode = path.stat().st_mode
    except FileNotFoundError:
        mode = None
    except OSError as e:  # a symlink loop, or a folder that cannot be searched
        return e.strerror or str(e)
    if mode is not None and stat.S_ISDIR(mode):
        return "is a directory"
    # a dangling link is written at its target
    folder = Path(os.path.realpath(path)).parent if path.is_symlink() else path.parent
    if not folder.is_dir():
        return f"directory {folder} does not exist"
    return None if os.access(path if mode is not None else folder, os.W_OK) else "permission denied"


def _write_outputs(texts) -> None:
    """Write each (destination, text): stdout, a path passed by _check_outputs, or None for a file not asked for."""
    for dest, text in texts:
        if dest is sys.stdout:
            dest.write(text)
        elif dest:
            Path(dest).write_text(text, newline="")


def _text(write) -> str:
    """What ``write(f)`` writes to a text file."""
    buf = io.StringIO()
    write(buf)
    return buf.getvalue()


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(rows) -> str:
    """Rows as CSV text, quoted where a field holds a comma (annular zone ids do)."""
    return _text(lambda f: csv.writer(f).writerows(rows))


def _threshold_paths(base: Path, thresholds) -> list[Path]:
    """The per-threshold heatmap files of a ``--heatmap`` base, one per threshold."""
    paths: dict[Path, float] = {}
    for t in thresholds:
        path = base.with_name(f"{base.stem}_t{t:.2f}{base.suffix or '.csv'}")
        if path in paths:
            raise ValueError(f"--iou thresholds {paths[path]:g} and {t:g} would share the heatmap file {path}")
        paths[path] = t
    return list(paths)


def _fmt(v: float | None) -> str:
    return "-" if v is None else f"{v:.1f}"


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _eval_config(args)
    # the mean-ZP heatmap, then one file per threshold
    heatmaps = [Path(args.heatmap), *_threshold_paths(Path(args.heatmap), cfg.iou_thresholds)] if args.heatmap else []
    _check_outputs([("--out", args.out), *(("--heatmap", path) for path in heatmaps)],
                   [("--gt", args.gt), ("--dt", args.dt), *_zones_file(args.partition)])
    partition = build_partition(parse_zone_spec(args.partition))
    if heatmaps and not isinstance(partition.spec, Grid):
        raise PartitionError("--heatmap requires a grid partition")
    ds = load_ground_truth(args.gt)
    dets = load_detections(args.dt, ds)

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

    series = [[z.zp for z in report.zones], *zip(*(z.zp_by_threshold for z in report.zones))]
    _write_outputs([(args.out or sys.stdout, report.to_json() if args.format == "json" else _text(report.write_csv)),
                    *((path, _text(lambda f: write_heatmap_csv(grid_rows(partition, values), f)))
                      for path, values in zip(heatmaps, series))])
    return EXIT_UNDEFINED if report.full_ap is None else EXIT_OK


def cmd_density(args: argparse.Namespace) -> int:
    _check_outputs([("--out", args.out)], [("--gt", args.gt), *_zones_file(args.partition)])
    ds = load_ground_truth(args.gt)
    partition = build_partition(parse_zone_spec(args.partition))
    report = object_density(ds, partition, absolute=args.absolute_area)
    if args.format == "json":
        zones = [{"id": z.zone_id, "count": z.count, "area": z.area, "density": z.density} for z in report.zones]
        text = _json_text({"partition": args.partition, "absolute_area": args.absolute_area, "zones": zones})
    else:
        rows = [("zone", "count", "area", "density")]
        rows += [(z.zone_id, z.count, repr(z.area), repr(z.density)) for z in report.zones]
        text = _csv_text(rows)
    _write_outputs([(args.out or sys.stdout, text)])
    return EXIT_OK


def cmd_sela(args: argparse.Namespace) -> int:
    _check_outputs([("--out", args.out)], [("--gt", args.gt), *_zones_file(args.partition)])
    ds = load_ground_truth(args.gt)
    partition = build_partition(parse_zone_spec(args.partition))
    cols, rows = args.anchor_grid
    # the anchors and the flags of both rules are checked once, whichever rule runs,
    # so an image-less file fails like any other
    check_anchor_grid(cols, rows, args.anchor_size)
    if (args.beta is None) != (args.beta_zone is None):
        raise PartitionError("--beta-zone requires --beta" if args.beta is None else "--beta requires --beta-zone")
    zone = partition.zones_by_id.get(args.beta_zone)
    if args.beta_zone is not None and zone is None:
        raise PartitionError(f"--beta-zone {args.beta_zone!r} not in partition")
    check_beta(args.alpha_pos, 0.0 if args.beta is None else args.beta)
    rule = AssignConfig(t=args.t, gamma=args.gamma)

    rows_out = []
    for k, img in enumerate(ds.images):
        anchors = anchor_grid(img, cols, rows, box_size=args.anchor_size)
        gts = ds.gt_box[ds.gt_starts[k]:ds.gt_starts[k + 1]]
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
        per_image = [{"image_id": i, "zone": z, "positives": c, "density": d} for i, z, c, d in rows_out]
        text = _json_text({"per_image": per_image, "totals": totals})
    else:
        rows = [("image_id", "zone", "positives", "density")]
        rows += [(i, z, c, repr(d)) for i, z, c, d in rows_out]
        rows += [("total", zid, totals[zid], "") for zid in partition.zone_ids]
        text = _csv_text(rows)
    _write_outputs([(args.out or sys.stdout, text)])
    return EXIT_OK


def _read_heatmap(path: Path) -> list[list[float | None]]:
    """One per-threshold heatmap CSV; a missing, empty, ragged or non-finite one raises IngestError."""
    if not path.exists():
        raise IngestError(f"missing per-threshold heatmap {path}")
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
    paths = _threshold_paths(Path(args.heatmap), args.iou)
    _check_outputs([("--out", args.out)], [("--gt", args.gt), *(("per-threshold --heatmap", p) for p in paths)])
    ds = load_ground_truth(args.gt)
    heatmaps = {t: _read_heatmap(path) for t, path in zip(args.iou, paths)}
    shape = {(len(m), len(m[0])) for m in heatmaps.values()}
    if len(shape) != 1:
        raise IngestError("per-threshold heatmaps disagree on shape")
    rows, cols = next(iter(shape))
    counts = analysis.center_counts(ds, rows, cols)
    curve = analysis.correlate_zp_distribution(heatmaps, counts)
    _write_outputs([(args.out or sys.stdout, _text(curve.write_csv))])
    return EXIT_OK


def cmd_pattern_distance(args: argparse.Namespace) -> int:
    _check_outputs([("--out", args.out)], [("--features", args.features)])
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
    _write_outputs([(args.out or sys.stdout, _json_text(payload))])
    return EXIT_OK


def _zone_quality(rec: dict) -> synth.ZoneQuality:
    return synth.ZoneQuality(
        recall=_number(rec["recall"], "recall"),
        fp_per_tp=_number(rec.get("fp_per_tp", 0.0), "fp_per_tp"),
        loc_jitter=_number(rec.get("loc_jitter", 0.0), "loc_jitter"),
    )


def cmd_synth_sudoku(args: argparse.Namespace) -> int:
    _check_outputs([("--out-gt", args.out_gt), ("--out-manifest", args.out_manifest)], [("--objects", args.objects)])
    meta = _read_json(args.objects)
    records = meta.get("objects") if isinstance(meta, dict) else meta
    objects = tuple(_parse_records(records, f"{args.objects}: object",
                                   lambda rec: (_id(rec["source_id"]), _id(rec["category_id"]))))
    cfg = synth.SudokuConfig(objects=objects, canvas=args.canvas, object_size=args.size)
    ds, manifest = synth.sudoku_layout(cfg)
    _write_outputs([(args.out_gt, _json_text(ds.to_coco_dict())), (args.out_manifest, _json_text(manifest))])
    print(f"{len(ds.gt_id)} objects on {len(ds.images)} canvases -> {args.out_gt}")
    return EXIT_OK


def cmd_synth_bench(args: argparse.Namespace) -> int:
    _check_outputs([("--out-gt", args.out_gt), ("--out-dt", args.out_dt), ("--out-expected", args.out_expected)],
                   [("--profile", args.profile), *_zones_file(args.partition)])
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
    _write_outputs([(args.out_gt, _json_text(ds.to_coco_dict())), (args.out_dt, _json_text(dets.to_coco_list())),
                    (args.out_expected, expected.to_json())])
    print(
        f"{len(ds.gt_id)} objects, {dets.total} detections on "
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
    p.add_argument("--bins", type=_at_most(_MAX_SCALE_BINS, "scale bins"), default=9,
                   help=f"scale bin count, at most {_MAX_SCALE_BINS}")
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
    except MemoryError as e:  # e.g. the edge table of a partition with too many zones
        print(f"error: out of memory: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
