"""Byte-identity of reports against frozen golden files.

The files under ``tests/data/golden/`` are the ``evaluate_zones`` reports
(``ZoneReport.to_json()``) and one ``scale_study`` report (the JSON that
``zone-eval`` and the benchmark write) of ``datagen.random_multiclass_benchmark``
inputs, as produced by the tuple-list matcher that preceded the array kernel.
They were generated by running this file as a script from the repository root:

    PYTHONPATH=src:tests python tests/test_golden.py

Any change to the matching or AP arithmetic that moves a single bit of a
report fails here.
"""

import json
from pathlib import Path

import pytest

from zoneval.matching import EvalConfig
from zoneval.zone_eval import evaluate_zones, scale_study
from zoneval.zones import build_partition, parse_zone_spec

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


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for spec, cap in CASES:
        (GOLDEN / _name(spec, cap)).write_text(zone_report(spec, cap))
    (GOLDEN / "scale_study_annular_3.json").write_text(scale_report())
