"""numpy is the only runtime dependency: every absolute import in the package is stdlib or numpy.

And the evaluation path loads no numpy submodule on first use: some numpy
functions (``np.unique``, ``np.union1d``) import ``numpy.ma`` when first
called, which costs a fresh process tens of milliseconds inside its first
evaluation.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zoneval
from conftest import write_coco_dt, write_coco_gt
from datagen import random_multiclass_benchmark

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "zoneval").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_numpy(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0]
    outside = {m for m in modules if m.split(".")[0] not in sys.stdlib_module_names | {"numpy"}}
    assert not outside, f"{path.name} imports {sorted(outside)}"


def test_sources_found():
    assert len(SOURCES) > 5


EVALUATION_PATH = """
import sys
from pathlib import Path

from zoneval import EvalConfig, build_partition, evaluate_zones, grid_heatmap, load_detections, load_ground_truth
from zoneval import parse_zone_spec, scale_study

def loaded():
    return {m for m in sys.modules if m == "numpy" or m.startswith("numpy.")}

before = loaded()
d = Path(sys.argv[1])
ds = load_ground_truth(d / "gt.json")
dets = load_detections(d / "dt.json", ds)
p = build_partition(parse_zone_spec("annular:3"))
for after in (False, True):
    evaluate_zones(ds, dets, p, EvalConfig(max_dets_per_image=10, cap_after_zone=after)).to_json()
scale_study(ds, dets, p, steps=(64, None))
grid_heatmap(ds, dets, 3, 3)
print(" ".join(sorted(loaded() - before)))
"""


def test_evaluation_path_imports_no_numpy_submodule(tmp_path):
    ds, dets = random_multiclass_benchmark(6, gts_per_image=8, dets_per_image=20, seed=3)
    write_coco_gt(tmp_path / "gt.json", ds)
    write_coco_dt(tmp_path / "dt.json", dets)
    src = str(Path(zoneval.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", EVALUATION_PATH, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []
