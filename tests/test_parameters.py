"""Library parameters follow the readers' number rule: a bool or a non-number is a ValueError that names them.

A number is an int, a float, or a numpy integer or floating, never a bool
(``errors._numeric``); a count is an integer by ``errors._integer``; a flag
is a Python or numpy bool (``errors._flag``).  Each case below was accepted
with a wrong meaning (True as 1, 'no' as on), passed its range check, or
failed later with a ``TypeError``.
"""

from fractions import Fraction

import numpy as np
import pytest

from zoneval.analysis import pattern_distance
from zoneval.coco import Category, Dataset, ImageInfo
from zoneval.equilibrium import AssignConfig, anchor_grid, check_beta, object_density, se_loss_weight, spatial_weight
from zoneval.matching import EvalConfig
from zoneval.synth import QualityProfile, SudokuConfig, ZoneQuality, synthetic_benchmark
from zoneval.zones import Annular, build_partition

IMG = ImageInfo(1, 600.0, 600.0)
XY = (np.array([10.0]), np.array([20.0]))
OBJECTS = ((1, 1),)
DS = Dataset([IMG], [Category(1, "c")], [])


def _bench(n_images=2, n_objects=4, center_bias=0.0):
    p = build_partition(Annular(2))
    profile = QualityProfile({zid: ZoneQuality(recall=1.0) for zid in p.zone_ids})
    return synthetic_benchmark(n_images, n_objects, center_bias, profile, p)


CASES = [
    ("box_size", lambda v: anchor_grid(IMG, 3, 3, v), [True, np.True_, "8", Fraction(8)]),
    ("t", lambda v: AssignConfig(t=v), [True, "0.5"]),
    ("gamma", lambda v: AssignConfig(t=0.5, gamma=v), [True, False]),
    ("alpha_pos", lambda v: check_beta(v, 0.0), [True, "0.5"]),
    ("beta", lambda v: check_beta(0.5, v), [False, np.False_]),
    ("width", lambda v: spatial_weight(*XY, v, 600.0), [True, "600"]),
    ("height", lambda v: spatial_weight(*XY, 600.0, v), [True, Fraction(600)]),
    ("gamma", lambda v: se_loss_weight(*XY, 600.0, 600.0, gamma=v), [True, "0.2"]),
    ("canvas", lambda v: SudokuConfig(OBJECTS, canvas=v), [True, "600"]),
    ("object_size", lambda v: SudokuConfig(OBJECTS, object_size=v), [True]),
    ("recall", lambda v: ZoneQuality(recall=v), [True, False, "1"]),
    ("fp_per_tp", lambda v: ZoneQuality(recall=1.0, fp_per_tp=v), [True]),
    ("loc_jitter", lambda v: ZoneQuality(recall=1.0, loc_jitter=v), [True]),
    ("n_images", lambda v: _bench(n_images=v), [True, 2.5, 2.0, "2"]),
    ("n_objects", lambda v: _bench(n_objects=v), [True, 4.5, np.float64(4.0)]),
    ("center_bias", lambda v: _bench(center_bias=v), [True, "1"]),
    ("bin_count", lambda v: pattern_distance([], ("train", "in"), ("test", "in"), bin_count=v), [True, 2.5, 9.0]),
    ("bin_width", lambda v: pattern_distance([], ("train", "in"), ("test", "in"), bin_width=v), [True, "32"]),
    ("cap_after_zone", lambda v: EvalConfig(cap_after_zone=v), ["no", "", 1, 0, None]),
    ("absolute", lambda v: object_density(DS, build_partition(Annular(2)), absolute=v), ["no", 1, 0.0]),
]


@pytest.mark.parametrize("name,call,value", [(name, call, v) for name, call, values in CASES for v in values],
                         ids=lambda x: x if isinstance(x, str) else None)
def test_rejected_by_name(name, call, value):
    with pytest.raises(ValueError, match=f"^{name} must be (a number|an integer|a bool), got "):
        call(value)


def test_numpy_numbers_are_numbers():
    # the rule's other side: numpy's numbers stand for the Python ones
    assert anchor_grid(IMG, 3, 3, np.float64(8.0)).boxes.tolist() == anchor_grid(IMG, 3, 3, 8.0).boxes.tolist()
    assert AssignConfig(t=np.float32(0.5), gamma=np.int64(0)) == AssignConfig(t=0.5, gamma=0.0)
    assert ZoneQuality(recall=np.float64(0.5)) == ZoneQuality(recall=0.5)
    assert SudokuConfig(OBJECTS, canvas=np.int64(600)) == SudokuConfig(OBJECTS, canvas=600.0)
    assert spatial_weight(*XY, np.int64(600), np.float32(600.0)).tolist() == spatial_weight(*XY, 600.0, 600.0).tolist()
    assert _bench(n_images=np.int64(2))[0].to_coco_dict() == _bench()[0].to_coco_dict()


def test_numpy_bools_are_flags():
    # and numpy's bools stand for Python's, stored as them
    cfg = EvalConfig(cap_after_zone=np.True_)
    assert cfg == EvalConfig(cap_after_zone=True) and cfg.cap_after_zone is True
    assert EvalConfig(cap_after_zone=np.False_).cap_after_zone is False
    p = build_partition(Annular(2))
    assert object_density(DS, p, absolute=np.True_) == object_density(DS, p, absolute=True)
    assert object_density(DS, p, absolute=np.True_).absolute is True
