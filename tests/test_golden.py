"""Byte-identity of reports against frozen golden files.

The files under ``tests/data/golden/`` are the ``evaluate_zones`` reports
(``ZoneReport.to_json()``) and one ``scale_study`` report (``ScaleStudyReport.to_json_dict()``
as indented JSON, the form the benchmark writes; no ``zone-eval`` command runs a
scale study) of ``datagen.random_multiclass_benchmark`` inputs, as produced by the
tuple-list matcher that preceded the array kernel.
The ``sela_*`` files are the CSV and JSON outputs of ``zone-eval sela`` on the
frozen ground truth ``sela_gt.json``, for a gamma run and a ``--beta`` run, as
produced by the per-anchor-object assignment that preceded the array-backed one.
The ``synth_*`` files are the outputs of two ``zone-eval synth bench`` runs (the
graded profile at bias 0, and the custom profile ``synth_profile.json`` with
localization jitter and false positives at bias 5) and of one ``zone-eval synth
sudoku`` run on ``synth_sudoku_objects.json``, as produced by the generators that
built one object per box before they wrote COCO records.
``zones.json`` is the geometry of built partitions: for each zone its id, its
float rectangle corners as ``float.hex``, ``area_exact`` as ``p/q`` and
``area_fraction``, as built by the per-kind zone builders that preceded the
one zone-from-corners helper.
They were generated by running this file as a script from the repository root:

    PYTHONPATH=src:tests python tests/test_golden.py

Any change to the matching or AP arithmetic that moves a single bit of a
report, or to the zone builders that moves a single bit of a zone, fails here.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from zoneval import matching
from zoneval.cli import main
from zoneval.matching import EvalConfig
from zoneval.zone_eval import evaluate_zones, scale_study
from zoneval.zones import Custom, build_partition, parse_zone_spec, spec_label

from datagen import random_multiclass_benchmark

GOLDEN = Path(__file__).parent / "data" / "golden"
SPECS = ("annular:5", "grid:3x3", "strip-y:4")


def _zone_inputs():
    return random_multiclass_benchmark(20, gts_per_image=10, dets_per_image=30, seed=41)


def zone_report(spec: str, cap_after_zone: bool) -> str:
    ds, dets = _zone_inputs()
    cfg = EvalConfig(max_dets_per_image=20, cap_after_zone=cap_after_zone)
    return evaluate_zones(ds, dets, build_partition(parse_zone_spec(spec)), cfg).to_json()


def scale_report() -> str:
    ds, dets = random_multiclass_benchmark(8, gts_per_image=10, dets_per_image=25, seed=43)
    cfg = EvalConfig(max_dets_per_image=20)
    study = scale_study(ds, dets, build_partition(parse_zone_spec("annular:3")), cfg)
    return json.dumps(study.to_json_dict(), indent=2, sort_keys=True) + "\n"


def _name(spec: str, cap_after_zone: bool) -> str:
    return spec.replace(":", "_") + ("-cap_after_zone" if cap_after_zone else "") + ".json"


CASES = [(spec, cap) for spec in SPECS for cap in (False, True)]


@pytest.mark.parametrize("spec,cap_after_zone", CASES,
                         ids=[_name(s, c)[:-5] for s, c in CASES])
def test_zone_report_is_byte_identical(spec, cap_after_zone):
    want = (GOLDEN / _name(spec, cap_after_zone)).read_text()
    assert zone_report(spec, cap_after_zone) == want


def test_scale_study_is_byte_identical():
    assert scale_report() == (GOLDEN / "scale_study_annular_3.json").read_text()


REPORTS = {_name(s, c): (lambda s=s, c=c: zone_report(s, c)) for s, c in CASES}
REPORTS["scale_study_annular_3.json"] = scale_report


@pytest.mark.parametrize("name", REPORTS)
def test_report_is_byte_identical_one_entry_per_block(name, monkeypatch):
    # every blocked pass of the AP kernel and of the scale study cut to one entry
    monkeypatch.setattr(matching, "BLOCK_ENTRIES", 1)
    assert REPORTS[name]() == (GOLDEN / name).read_text()


ZONE_SPECS = ("annular:1", "annular:2", "annular:3", "annular:5", "annular:10", "annular:50",
              "grid:1x1", "grid:3x3", "grid:11x11", "grid:7x13", "strip-x:7", "strip-y:9")
# edges that are not dyadic, and one zone of two rectangles
CUSTOM_ZONES = Custom((("left", ((0.0, 0.0, 0.3, 1.0),)),
                       ("right", ((0.3, 0.0, 1.0, 0.6), (0.3, 0.6, 1.0, 1.0)))))


def zones_doc() -> str:
    """Every zone of ``ZONE_SPECS`` and ``CUSTOM_ZONES``: id, rectangles, exact and float area."""
    specs = []
    for spec in (*map(parse_zone_spec, ZONE_SPECS), CUSTOM_ZONES):
        zones = [json.dumps({"id": z.id,
                             "rects": [[float.hex(v) for v in (r.x0, r.y0, r.x1, r.y1)] for r in z.rects],
                             "area_exact": f"{z.area_exact.numerator}/{z.area_exact.denominator}",
                             "area_fraction": z.area_fraction})
                 for z in build_partition(spec).zones]
        specs.append(f" {json.dumps(spec_label(spec))}: [\n  " + ",\n  ".join(zones) + "\n ]")
    return "{\n" + ",\n".join(specs) + "\n}\n"  # one zone a line


def test_zone_geometry_is_exact():
    assert zones_doc() == (GOLDEN / "zones.json").read_text()


SELA_GT = GOLDEN / "sela_gt.json"
SELA_RUNS = {
    "gamma": ["--partition", "annular:3", "--anchor-grid", "16x12", "--anchor-size", "48",
              "--t", "0.3", "--gamma", "0.25"],
    "beta": ["--partition", "grid:3x2", "--anchor-grid", "9x7",
             "--alpha-pos", "0.15", "--beta", "0.15", "--beta-zone", "g1_1"],
}
SELA_CASES = [(run, fmt) for run in SELA_RUNS for fmt in ("csv", "json")]


def sela_gt_doc() -> dict:
    """Three images of unlike sizes (one empty), boxes of 10 to 150 px, some over the border."""
    rng = np.random.default_rng(17)
    images = [{"id": 3, "width": 640, "height": 480}, {"id": 1, "width": 333, "height": 250},
              {"id": 2, "width": 100, "height": 100}]
    annotations = []
    for img, n in zip(images[:2], (9, 6)):
        for _ in range(n):
            w, h = rng.uniform(10, 150, 2).round(1).tolist()
            x = round(float(rng.uniform(-0.1 * w, img["width"] - 0.9 * w)), 1)
            y = round(float(rng.uniform(-0.1 * h, img["height"] - 0.9 * h)), 1)
            annotations.append({"id": 100 - len(annotations), "image_id": img["id"], "category_id": 1,
                                "bbox": [x, y, w, h], "area": round(w * h, 2)})
    return {"images": images, "annotations": annotations, "categories": [{"id": 1, "name": "c"}]}


def sela_output(run: str, fmt: str, out: Path) -> bytes:
    assert main(["sela", "--gt", str(SELA_GT), *SELA_RUNS[run], "--format", fmt, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("run,fmt", SELA_CASES, ids=[f"sela_{r}.{f}" for r, f in SELA_CASES])
def test_sela_output_is_byte_identical(run, fmt, tmp_path):
    want = (GOLDEN / f"sela_{run}.{fmt}").read_bytes()
    assert sela_output(run, fmt, tmp_path / f"out.{fmt}") == want


SYNTH_PROFILE = GOLDEN / "synth_profile.json"
SUDOKU_OBJECTS = GOLDEN / "synth_sudoku_objects.json"
# each run: its arguments but the outputs, and the files it writes
SYNTH_RUNS = {
    "bench_graded": (["bench", "--seed", "3", "--images", "4", "--objects", "40", "--partition", "annular:3"],
                     ("gt", "dt", "expected")),
    "bench_custom": (["bench", "--seed", "5", "--images", "3", "--objects", "36", "--center-bias", "5",
                      "--partition", "annular:2", "--profile", str(SYNTH_PROFILE)], ("gt", "dt", "expected")),
    "sudoku": (["sudoku", "--objects", str(SUDOKU_OBJECTS), "--canvas", "450", "--size", "100"],
               ("gt", "manifest")),
}


def synth_profile_doc() -> dict:
    return {"z0,1": {"recall": 0.6, "fp_per_tp": 1.5, "loc_jitter": 4.0},
            "z1,2": {"recall": 0.9, "fp_per_tp": 0.5, "loc_jitter": 2.5}}


def sudoku_objects_doc() -> list:
    return [{"source_id": 100 + 7 * k, "category_id": 1 + k % 3} for k in range(14)]


def synth_outputs(run: str, out_dir: Path) -> dict[str, bytes]:
    """The files of one ``zone-eval synth`` run, written into ``out_dir`` as ``synth_<run>_<output>.json``."""
    args, outputs = SYNTH_RUNS[run]
    paths = {o: out_dir / f"synth_{run}_{o}.json" for o in outputs}
    flags = [v for o, path in paths.items() for v in (f"--out-{o}", str(path))]
    assert main(["synth", *args, *flags]) == 0
    return {o: path.read_bytes() for o, path in paths.items()}


@pytest.mark.parametrize("run", SYNTH_RUNS, ids=[f"synth_{r}" for r in SYNTH_RUNS])
def test_synth_output_is_byte_identical(run, tmp_path):
    got = synth_outputs(run, tmp_path)
    for output, text in got.items():
        assert text == (GOLDEN / f"synth_{run}_{output}.json").read_bytes(), output


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for spec, cap in CASES:
        (GOLDEN / _name(spec, cap)).write_text(zone_report(spec, cap))
    (GOLDEN / "scale_study_annular_3.json").write_text(scale_report())
    (GOLDEN / "zones.json").write_text(zones_doc())
    SELA_GT.write_text(json.dumps(sela_gt_doc(), indent=1) + "\n")
    for run, fmt in SELA_CASES:
        sela_output(run, fmt, GOLDEN / f"sela_{run}.{fmt}")
    SYNTH_PROFILE.write_text(json.dumps(synth_profile_doc(), indent=1) + "\n")
    SUDOKU_OBJECTS.write_text(json.dumps(sudoku_objects_doc(), indent=1) + "\n")
    for run in SYNTH_RUNS:
        synth_outputs(run, GOLDEN)
