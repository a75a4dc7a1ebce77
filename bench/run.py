"""Benchmark of zoneval, end to end and per layer, on four seeded workloads.

    python3 bench/run.py --workload coco_annular5 --seed 1 --seconds 20 --trace 0

Inputs are generated once per seed into ``.bench_data/`` (outside the timed
region).  Then fresh processes (``workloads.py``) repeat the workload.  The first
repetition warms the caches and checks every output; it is not timed.  At least
three timed repetitions follow, as many whole ones as fit in ``--seconds``, and
each must write outputs byte-identical to the first.

The host's CPUs change speed by up to 1.5x several times a second, each on its
own.  So while a repetition runs, this process times a fixed probe loop, in
CPU time, on the CPUs the repetition may use, and every time of the repetition
is scaled to a reference CPU on which the probe takes ``PROBE_NOMINAL_S``: by
the probe's speed-up to the power ``PROBE_EXPONENT``.  The raw times go to
standard error.  The last line of standard output is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
repetitions.  With ``--trace 1`` the repetitions run traced and the metrics
are the per-layer ones: medians for times, scaled like the end-to-end ones,
and counts that must repeat exactly.
A summary per repetition goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

DATA = ROOT / ".bench_data"
MIN_REPS = 3  # timed repetitions, after the untimed first one
DEADLINE_S = 140.0  # no repetition starts later, so a run ends well within 180 s
# workloads whose process pool runs on every CPU; the others are pinned to one
POOLED = {"coco_annular5_w2"}
CPUS = sorted(os.sched_getaffinity(0))
PROBE_LOOPS = 15_000
PROBE_NOMINAL_S = 0.001  # CPU time of one probe on the reference CPU
# the workloads slow down by the probe's slowdown to about this power: the
# slope of log wall time over log probe time was 1.3 to 1.8 on each workload
PROBE_EXPONENT = 1.6
PROBE_GAP_S = 0.02

END_TO_END = {"wall_s": "s", "setup_s": "s", "dets_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "coco.load_gt_s": "s", "coco.load_dt_s": "s", "coco.build_s": "s",
    "coco.records": "count", "coco.rss_mb": "MB",
    "zones.assign_s": "s", "zones.assign_calls": "count",
    "matching.match_s": "s", "matching.match_calls": "count", "matching.iou_pairs": "count",
    "matching.ap_s": "s", "matching.ap_matrix_calls": "count",
    "zone_eval.evaluate_s": "s", "zone_eval.evaluate_calls": "count",
    "zone_eval.self_s": "s", "zone_eval.report_s": "s",
    "analysis.correlate_s": "s",
    "equilibrium.density_s": "s", "equilibrium.sela_s": "s", "equilibrium.iou_pairs": "count",
}


def probe() -> float:
    """CPU time of a fixed interpreter loop: the speed of the CPU it ran on."""
    t = time.thread_time()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return time.thread_time() - t


def run_rep(args, data: Path, out: Path, check: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--data", str(data), "--out", str(out)]
    cmd += ["--trace"] * args.trace + ["--check"] * check
    cpus = CPUS if args.workload in POOLED else CPUS[-1:]
    out.mkdir(parents=True, exist_ok=True)
    samples: list[tuple[float, float]] = []
    with open(out / "rep.stdout", "w+") as fout, open(out / "rep.stderr", "w+") as ferr:
        os.sched_setaffinity(0, cpus)  # inherited by the repetition and its pool
        proc = None
        try:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=fout, stderr=ferr, start_new_session=True)
            # probe the repetition's CPUs in turn, sharing them with it, until it exits
            k = 0
            while proc.poll() is None:
                if time.monotonic() > deadline:
                    sys.exit(f"error: {args.workload} repetition did not finish in time")
                os.sched_setaffinity(0, [cpus[k % len(cpus)]])
                k += 1
                samples.append((time.monotonic(), probe()))
                time.sleep(PROBE_GAP_S)
        finally:
            os.sched_setaffinity(0, CPUS)
            if proc is not None and proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)  # the pool workers too
                proc.wait()
        fout.seek(0)
        ferr.seek(0)
        stdout, stderr = fout.read(), ferr.read()
    if proc.returncode != 0 or not stdout.strip():
        sys.stderr.write(stderr)
        sys.exit(f"error: {args.workload} repetition exited with code {proc.returncode}")
    rep = json.loads(stdout.strip().splitlines()[-1])
    if rep["t_end"] is not None:
        during = [p for t, p in samples if t <= rep["t_end"]] or [p for _, p in samples] or [probe()]
        speed = (PROBE_NOMINAL_S / statistics.mean(during)) ** PROBE_EXPONENT
        rep["speed"] = speed
        rep["raw_wall_s"] = rep["t_end"] - t_spawn
        rep["raw_setup_s"] = rep["t_setup"] - t_spawn
        rep["wall_s"] = rep["raw_wall_s"] * speed
        rep["setup_s"] = rep["raw_setup_s"] * speed
        rep["dets_per_s"] = rep["n_detections"] / (rep["wall_s"] - rep["setup_s"])
    return rep


def summarize(reps: list[dict], trace: bool) -> tuple[bool, dict]:
    """Correctness over every repetition; metrics over the timed ones."""
    done = [r for r in reps[1:] if r["t_end"] is not None]
    if not done:
        sys.exit("error: no timed repetition completed: "
                 + next((r["error"] for r in reps if "error" in r), "?"))
    correct = not any(r.get("problems") for r in reps)
    correct &= len({r["digest"] for r in reps if r["t_end"] is not None}) == 1
    correct &= all(Path(r["zoneval"]).resolve().is_relative_to(ROOT / "src") for r in reps)
    if not trace:
        return correct, {name: {"value": statistics.median(r[name] for r in done), "unit": unit}
                         for name, unit in END_TO_END.items()}
    metrics = {}
    for name, unit in PER_LAYER.items():
        values = [r["layers"][name] for r in done]
        if unit == "count":
            correct &= len(set(values)) == 1
            value = values[0]
        elif unit == "s":
            value = statistics.median(v * r["speed"] for v, r in zip(values, done))
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    return correct, metrics


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(gen.WORKLOAD_INPUTS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs exercise every check in a few seconds")
    args = p.parse_args()
    if not (ROOT / "src" / "zoneval" / "__init__.py").is_file():
        sys.exit(f"error: no zoneval sources under {ROOT / 'src'}")

    started = time.monotonic()
    kind = gen.WORKLOAD_INPUTS[args.workload]
    data = DATA / f"{kind}-{args.size}-s{args.seed}"
    gen.ensure_inputs(kind, args.size, args.seed, data)
    out = DATA / "out" / f"{args.workload}-{args.size}-s{args.seed}"

    reps: list[dict] = []
    measured = 0.0  # when the first timed repetition started
    while True:
        if reps and time.monotonic() - started > DEADLINE_S:
            break
        timed = len(reps) - 1
        if timed == 0:
            measured = time.monotonic()
        elif timed >= MIN_REPS:
            # start another while it is expected to end within --seconds
            elapsed = time.monotonic() - measured
            if elapsed + elapsed / timed > args.seconds:
                break
        rep = run_rep(args, data, out, check=not reps, deadline=started + DEADLINE_S + 30.0)
        reps.append(rep)
        shown = {k: round(rep[k], 4) for k in ("raw_wall_s", "raw_setup_s", *END_TO_END) if k in rep}
        print(f"rep {len(reps)}{' (untimed)' if len(reps) == 1 else ''}: {shown} "
              f"problems={rep.get('problems', [])} error={rep.get('error')} "
              f"untraced={rep.get('untraced', [])}", file=sys.stderr)

    correct, metrics = summarize(reps, bool(args.trace))
    if args.trace:
        print("traced wall_s median: "
              f"{statistics.median(r['wall_s'] for r in reps[1:] if 'wall_s' in r):.4f}", file=sys.stderr)
    for name in ("raw_wall_s", "raw_setup_s"):
        values = [r[name] for r in reps[1:] if name in r]
        if values:
            print(f"{name} median: {statistics.median(values):.4f}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
