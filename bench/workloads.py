"""One repetition of a benchmark workload, run in a fresh process by run.py.

The process calls zoneval through its public library API, the same calls that
``zone-eval eval`` and the analysis commands make, writes the outputs, and
prints one JSON line: the monotonic-clock times at which set-up and the last
output ended, the peak resident set, the operations attempted and failed, a
digest of the outputs and, with ``--check``, the result of every output
check.  With ``--trace`` the public functions are wrapped by ``tracing.Tracer``
and the line carries the per-layer metrics instead.

An operation is one call into the public API; the checks of its output run
after the timed region has ended.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import zoneval  # noqa: E402
from zoneval import analysis, coco, equilibrium, oracle, zone_eval, zones  # noqa: E402
from zoneval.matching import EvalConfig  # noqa: E402

# crowd_grid11 analysis settings: the eval grid, the density rings and the
# SELA anchor lattice (cols x rows, box side) with its positive-IoU rule
GRID = "grid:11x11"
RINGS = "annular:50"
ANCHORS = (12, 12, 64.0)
SELA_T = 0.5
SELA_GAMMAS = (0.0, 0.3)
ORACLE_INSTANCES = 3


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has reaped (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Run:
    """Counts operations and marks the end of set-up and of the timed region."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.t_setup = None
        self.t_end = None
        self.rss_mb = None
        self.ingest_rss_mb = None
        self.outputs: list[Path] = []

    def op(self, fn, *args, **kwargs):
        self.attempted += 1
        return fn(*args, **kwargs)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def load(self, data: Path, meta: dict):
        ds = self.op(coco.load_ground_truth, data / "gt.json")
        dets = self.op(coco.load_detections, data / "dt.json", ds)
        self.ingest_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if self.tracer:
            self.tracer.count("coco.records", meta["n_annotations"] + meta["n_detections"])
        return ds, dets

    def partition(self, spec: str):
        return self.op(zones.build_partition, zones.parse_zone_spec(spec))

    def write(self, path: Path, text: str) -> None:
        path.write_text(text)
        self.outputs.append(path)

    def setup_done(self) -> None:
        self.t_setup = time.monotonic()

    def done(self) -> None:
        self.t_end = time.monotonic()
        self.rss_mb = peak_rss_mb()
        if self.tracer:
            # the checks that follow are not part of the traced workload
            self.tracer.enabled = False

    def digest(self) -> str:
        h = hashlib.sha256()
        for path in sorted(self.outputs):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        return h.hexdigest()


# ---------------------------------------------------------------- workloads


def coco_annular5(run: Run, data: Path, out: Path, meta: dict, workers: int = 1) -> dict:
    ds, dets = run.load(data, meta)
    partition = run.partition("annular:5")
    run.setup_done()
    cfg = EvalConfig()
    report = run.op(zone_eval.evaluate_zones, ds, dets, partition, cfg, workers=workers)
    with run.span("zone_eval.report"):
        run.op(run.write, out / "report.json", report.to_json())
    run.done()
    return {"ds": ds, "dets": dets, "partition": partition, "cfg": cfg, "report": report}


def coco_annular5_w2(run: Run, data: Path, out: Path, meta: dict) -> dict:
    return coco_annular5(run, data, out, meta, workers=2)


def heatmap_matrices(report, rows: int, cols: int, n_thr: int):
    """Mean and per-threshold ZP matrices, as ``zone-eval eval --heatmap`` builds them."""
    cell = [[report.zones[r * cols + c] for c in range(cols)] for r in range(rows)]
    mean = [[z.zp for z in row] for row in cell]
    per_t = [[[z.zp_by_threshold[ti] for z in row] for row in cell] for ti in range(n_thr)]
    return mean, per_t


def _csv(matrix) -> str:
    buf = io.StringIO()
    zone_eval.write_heatmap_csv(matrix, buf)
    return buf.getvalue()


def crowd_grid11(run: Run, data: Path, out: Path, meta: dict) -> dict:
    ds, dets = run.load(data, meta)
    grid = run.partition(GRID)
    rings = run.partition(RINGS)
    run.setup_done()
    cfg = EvalConfig()
    rows, cols = reference.parse_spec(GRID)[1]
    report = run.op(zone_eval.evaluate_zones, ds, dets, grid, cfg, workers=1)
    with run.span("zone_eval.report"):
        run.op(run.write, out / "report.json", report.to_json())
        mean, per_t = heatmap_matrices(report, rows, cols, len(cfg.iou_thresholds))
        run.write(out / "heatmap.csv", _csv(mean))
        for t, matrix in zip(cfg.iou_thresholds, per_t):
            run.write(out / f"heatmap_t{t:.2f}.csv", _csv(matrix))
    heatmaps = dict(zip(cfg.iou_thresholds, per_t))
    counts = run.op(analysis.center_counts, ds, rows, cols)
    curve = run.op(analysis.correlate_zp_distribution, heatmaps, counts)
    density = run.op(equilibrium.object_density, ds, rings)
    a_cols, a_rows, a_size = ANCHORS
    sela = {g: [] for g in SELA_GAMMAS}
    for img in ds.images:
        anchors = run.op(equilibrium.anchor_grid, img, a_cols, a_rows, a_size)
        gts = ds.gts_by_image[img.id]
        for gamma in SELA_GAMMAS:
            result = run.op(equilibrium.sela_assign, anchors, gts,
                            equilibrium.AssignConfig(t=SELA_T, gamma=gamma), img)
            supervision = run.op(equilibrium.supervision_density, result, grid, img)
            sela[gamma].append((img, result, supervision))
    run.write(out / "correlation.csv",
              "".join(f"{t:g},{p!r},{s!r}\n" for t, p, s in zip(curve.iou_thresholds, curve.pcc, curve.scc)))
    run.write(out / "density.csv",
              "".join(f"{z.zone_id},{z.count},{z.density!r}\n" for z in density.zones))
    totals = {str(g): [sum(s.zones[k].count for _, _, s in sela[g]) for k in range(len(grid.zones))]
              for g in SELA_GAMMAS}
    run.write(out / "sela.json", json.dumps(totals, sort_keys=True) + "\n")
    run.done()
    return {"ds": ds, "dets": dets, "partition": grid, "cfg": cfg, "report": report,
            "counts": counts, "curve": curve, "density": density, "sela": sela}


def scale_study_annular5(run: Run, data: Path, out: Path, meta: dict) -> dict:
    ds, dets = run.load(data, meta)
    partition = run.partition("annular:5")
    run.setup_done()
    cfg = EvalConfig()
    study = run.op(zone_eval.scale_study, ds, dets, partition, cfg, workers=1)
    with run.span("zone_eval.report"):
        run.op(run.write, out / "scale_study.json",
               json.dumps(study.to_json_dict(), indent=2, sort_keys=True) + "\n")
    run.done()
    return {"ds": ds, "dets": dets, "partition": partition, "cfg": cfg, "study": study}


WORKLOADS = {
    "coco_annular5": coco_annular5,
    "coco_annular5_w2": coco_annular5_w2,
    "crowd_grid11": crowd_grid11,
    "scale_study_annular5": scale_study_annular5,
}


# ---------------------------------------------------------------- checks


def check_zone_counts(inputs: reference.Inputs, spec: str, report) -> list[str]:
    ids = reference.zone_ids(spec)
    gt, dt = inputs.zone_counts(spec)
    problems = []
    if [z.zone_id for z in report.zones] != ids:
        return [f"{spec}: zone ids differ from the reference"]
    for k, z in enumerate(report.zones):
        if (z.gt_count, z.det_count) != (gt[k], dt[k]):
            problems.append(f"{spec} zone {z.zone_id}: counts {(z.gt_count, z.det_count)} "
                            f"!= reference {(int(gt[k]), int(dt[k]))}")
    n_capped = int(reference.capped(inputs.dt_image, inputs.dt_scores).sum())
    if sum(z.gt_count for z in report.zones) != inputs.gt_image.size:
        problems.append(f"{spec}: ground-truth counts do not sum to the total")
    if sum(z.det_count for z in report.zones) != n_capped:
        problems.append(f"{spec}: detection counts do not sum to the capped total")
    return problems


def _same(zp: float | None, ap: float | None) -> bool:
    if zp is None or ap is None:
        return zp is None and ap is None
    return abs(zp / 100.0 - ap) <= 1e-12


def _instance(images: list[dict], categories: list[dict], anns: list[dict], dets: list[dict]):
    ds = coco.Dataset.from_coco_dict({"images": images, "categories": categories,
                                      "annotations": anns})
    return ds, coco.DetectionSet.from_coco_list(dets, ds)


def check_oracle(inputs: reference.Inputs, spec: str, partition, cfg, seed: int) -> list[str]:
    """Every zone's ZP and the full AP of small cut instances against ap_oracle."""
    gt, dt = inputs.gt, inputs.dt
    rng = np.random.default_rng([7, seed])
    problems = []
    for inst in range(ORACLE_INSTANCES):
        n_img = min(oracle.MAX_IMAGES, len(gt["images"]))
        chosen = sorted(rng.choice(len(gt["images"]), n_img, replace=False))
        images = [gt["images"][i] for i in chosen]
        ids = {im["id"] for im in images}
        anns = [a for a in gt["annotations"] if a["image_id"] in ids]
        dets = []
        for image_id in sorted(ids):
            own = [d for d in dt if d["image_id"] == image_id]
            pick = sorted(rng.choice(len(own), min(len(own), oracle.MAX_DETS_PER_IMAGE), replace=False))
            dets += [own[i] for i in pick]
        ds, dset = _instance(images, gt["categories"], anns, dets)
        report = zone_eval.evaluate_zones(ds, dset, partition, cfg, workers=1)
        if not _same(report.full_ap, oracle.ap_oracle(ds, dset, cfg)):
            problems.append(f"{spec} instance {inst}: full AP {report.full_ap} != oracle")
        sub = reference.Inputs({"images": images, "annotations": anns,
                                "categories": gt["categories"]}, dets)
        gz, dz = sub.gt_zones(spec), sub.dt_zones(spec)
        for k, z in enumerate(report.zones):
            zds, zdets = _instance(images, gt["categories"], [a for a, g in zip(anns, gz) if g == k],
                                   [d for d, g in zip(dets, dz) if g == k])
            if not _same(z.zp, oracle.ap_oracle(zds, zdets, cfg)):
                problems.append(f"{spec} instance {inst} zone {z.zone_id}: ZP {z.zp} != oracle")
    return problems


def check_coco(res: dict, inputs: reference.Inputs, meta: dict, out: Path, workers: int) -> list[str]:
    problems = check_zone_counts(inputs, "annular:5", res["report"])
    problems += check_oracle(inputs, "annular:5", res["partition"], res["cfg"], meta["seed"])
    if workers > 1:
        single = zone_eval.evaluate_zones(res["ds"], res["dets"], res["partition"], res["cfg"], workers=1)
        if single.to_json().encode() != (out / "report.json").read_bytes():
            problems.append(f"workers={workers} report differs from the workers=1 report")
    return problems


def check_crowd(res: dict, inputs: reference.Inputs, meta: dict, out: Path) -> list[str]:
    report, cfg = res["report"], res["cfg"]
    rows, cols = reference.parse_spec(GRID)[1]
    problems = check_zone_counts(inputs, GRID, report)
    problems += check_oracle(inputs, GRID, res["partition"], cfg, meta["seed"])

    for name, ti in [("heatmap.csv", None)] + [(f"heatmap_t{t:.2f}.csv", i)
                                               for i, t in enumerate(cfg.iou_thresholds)]:
        with open(out / name, newline="") as f:
            matrix = zone_eval.read_heatmap_csv(f)
        want = [[report.zones[r * cols + c].zp if ti is None else
                 report.zones[r * cols + c].zp_by_threshold[ti] for c in range(cols)]
                for r in range(rows)]
        if matrix != want:
            problems.append(f"{name}: cells differ from the report's ZPs")

    gt_grid = np.bincount(inputs.gt_zones(GRID), minlength=rows * cols).reshape(rows, cols)
    if not np.array_equal(np.asarray(res["counts"]), gt_grid):
        problems.append("center_counts differs from the reference counts")
    gt_rings = np.bincount(inputs.gt_zones(RINGS), minlength=len(reference.zone_ids(RINGS)))
    if res["density"].counts() != gt_rings.tolist():
        problems.append("object_density counts differ from the reference counts")
    curve = res["curve"]
    for v in list(curve.pcc) + list(curve.scc):
        if v is not None and not -1.0 <= v <= 1.0:
            problems.append(f"correlation {v} outside [-1, 1]")

    plain = {img: result for img, result, _ in res["sela"][0.0]}
    for gamma, per_image in res["sela"].items():
        for img, result, supervision in per_image:
            if sum(supervision.counts()) != len(result.positive_anchor_indices()):
                problems.append(f"image {img.id} gamma {gamma}: supervision counts != positives")
            if gamma == 0.0:
                boxes = np.array([[a.box.x, a.box.y, a.box.w, a.box.h] for a in result.anchors])
                gt_boxes = inputs.gt_boxes[inputs.gt_image == img.id]
                hit = reference.iou(boxes, gt_boxes) >= SELA_T
                want = {gi: tuple(np.flatnonzero(hit[:, gi]).tolist()) for gi in range(gt_boxes.shape[0])}
                if result.positives != want:
                    problems.append(f"image {img.id}: SELA positives at gamma 0 != IoU >= {SELA_T}")
            else:
                base = plain[img].positives
                if any(not set(base[gi]) <= set(idx) for gi, idx in result.positives.items()):
                    problems.append(f"image {img.id}: gamma {gamma} positives miss gamma-0 positives")
    return problems


def check_scale(res: dict) -> list[str]:
    study = res["study"]
    plain = zone_eval.evaluate_zones(res["ds"], res["dets"], res["partition"], res["cfg"], workers=1)
    problems = []
    if study.mean_zp[None] != [z.zp for z in plain.zones]:
        problems.append("scale_study all-scales step differs from plain evaluate_zones")
    for step, means in list(study.mean_zp.items()) + [("grand", study.grand_mean)]:
        if any(m is not None and not 0.0 <= m <= 100.0 for m in means):
            problems.append(f"scale_study step {step}: a mean ZP lies outside [0, 100]")
    return problems


def run_checks(workload: str, res: dict, data: Path, meta: dict, out: Path) -> list[str]:
    inputs = reference.Inputs(json.loads((data / "gt.json").read_text()),
                              json.loads((data / "dt.json").read_text()))
    if workload.startswith("coco_annular5"):
        return check_coco(res, inputs, meta, out, workers=2 if workload.endswith("_w2") else 1)
    if workload == "crowd_grid11":
        return check_crowd(res, inputs, meta, out)
    return check_scale(res)


# ---------------------------------------------------------------- main


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--check", action="store_true")
    args = p.parse_args()

    tracer = None
    missing: list[str] = []
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        missing = tracer.install()
    meta = json.loads((args.data / "meta.json").read_text())
    args.out.mkdir(parents=True, exist_ok=True)
    run = Run(tracer)
    result: dict = {"failed": 0}
    try:
        res = WORKLOADS[args.workload](run, args.data, args.out, meta)
    except Exception as e:  # a failing API call is a failed operation, reported, not raised
        result.update(failed=1, error=f"{type(e).__name__}: {e}")
        res = None
    result.update(attempted=run.attempted, t_setup=run.t_setup, t_end=run.t_end,
                  peak_rss_mb=run.rss_mb, n_detections=meta["n_detections"])
    if res is not None:
        result["digest"] = run.digest()
        if args.check:
            result["problems"] = run_checks(args.workload, res, args.data, meta, args.out)
    if tracer:
        result["problems"] = result.get("problems", []) + tracer.validate()
        result["layers"] = dict(tracer.metrics(), **{"coco.rss_mb": run.ingest_rss_mb})
        result["untraced"] = missing  # targets the package no longer has
    result["zoneval"] = zoneval.__file__
    print(json.dumps(result))


if __name__ == "__main__":
    main()
