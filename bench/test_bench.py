"""Tests of the benchmark itself: ``python3 -m pytest bench -q``."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import reference  # noqa: E402
from zoneval.coco import ImageInfo  # noqa: E402
from zoneval.zones import build_partition, parse_zone_spec  # noqa: E402

SPECS = ["annular:1", "annular:5", "annular:50", "grid:11x11", "grid:3x7"]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("kind", sorted(gen.SIZES))
def test_generator_is_deterministic_per_seed(kind, tmp_path):
    a = gen.ensure_inputs(kind, "tiny", 5, tmp_path / "a")
    b = gen.ensure_inputs(kind, "tiny", 5, tmp_path / "b")
    assert a == b
    for name in ("gt.json", "dt.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert gen.generate(kind, "tiny", 6) != gen.generate(kind, "tiny", 5)


def test_generator_keeps_the_amount_of_work_per_seed():
    for kind in gen.SIZES:
        sizes = {(len(gt["annotations"]), len(dt)) for gt, dt in
                 (gen.generate(kind, "tiny", s) for s in (1, 2, 3))}
        assert len(sizes) == 1


def _edges(spec: str) -> list[float]:
    kind, args = reference.parse_spec(spec)
    if kind == "grid":
        return sorted({float(Fraction(k, n)) for n in args for k in range(n + 1)})
    n = args[0]
    return sorted({float(Fraction(i, 2 * n)) for i in range(n + 1)}
                  | {float(1 - Fraction(i, 2 * n)) for i in range(n + 1)})


def _probe_values(spec: str) -> list[float]:
    """Normalized coordinates on every edge, one ulp either side, and outside [0, 1]."""
    vals = set()
    for e in _edges(spec):
        vals |= {e, math.nextafter(e, -math.inf), math.nextafter(e, math.inf)}
    return sorted(vals | {-0.3, -1e-12, 1.0 + 1e-12, 1.7})


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("size", [(1.0, 1.0), (640.0, 480.0), (427.0, 640.0)])
def test_reference_zone_matches_partition_on_edges(spec, size):
    width, height = size
    partition = build_partition(parse_zone_spec(spec))
    assert partition.zone_ids == reference.zone_ids(spec)
    img = ImageInfo(id=1, width=width, height=height)
    vals = np.array(_probe_values(spec))
    rng = np.random.default_rng(0)
    us = np.concatenate([vals, rng.choice(vals, 3000)])
    vs = np.concatenate([rng.permutation(vals), rng.choice(vals, 3000)])
    xs, ys = us * width, vs * height
    got = reference.zone_index(spec, *reference.normalize(xs, ys, width, height))
    want = [partition.zone_ids.index(partition.zone_of_clamped((float(x), float(y)), img))
            for x, y in zip(xs, ys)]
    assert got.tolist() == want


def test_reference_cap_keeps_top_scores_in_file_order():
    image = np.array([1, 1, 1, 2, 1, 2])
    score = np.array([0.5, 0.9, 0.5, 0.1, 0.5, 0.1])
    assert reference.capped(image, score, cap=2).tolist() == [True, True, False, True, False, True]


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(gen.WORKLOAD_INPUTS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_tiny_and_passes_its_checks(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    specs = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in specs} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_names_known_workloads():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(gen.WORKLOAD_INPUTS)
