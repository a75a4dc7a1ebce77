"""Exception types and the number rules, shared across the package.

``_numeric`` is the one type rule for a number, of the readers and of every
library parameter: an int, a float, or a numpy integer or floating, never a
bool.  ``_real`` and ``_integer`` apply it to one parameter, and ``_flag``
is the rule for a boolean parameter: a bool, Python's or numpy's, alone.
"""

import operator

import numpy as np


class IngestError(ValueError):
    """Malformed or inconsistent input file: COCO JSON, custom zones, feature records, synth inputs."""


class PartitionError(ValueError):
    """Invalid zone specification, or a zone id that does not exist."""


class OutsideImageError(ValueError):
    """A point handed to a geometric operation lies outside the image domain."""


class UndefinedStatisticError(ValueError):
    """A statistic has no defined value on the given input (e.g. zero variance)."""


_NUMBER = (int, float, np.integer, np.floating)  # less bool: true and false are not numbers


def _numeric(values) -> bool:
    """Whether every value is a number: a JSON number, or a numpy one from the API; not a string, not true or false.

    Asked once per type of value.
    """
    return all(issubclass(t, _NUMBER) and t is not bool for t in set(map(type, values)))


def _real(x, name: str) -> float:
    """x as a float, for a number by ``_numeric``'s rule that a float holds; anything else raises ValueError."""
    if _numeric((x,)):
        try:
            return float(x)
        except OverflowError:  # an int past the float range
            pass
    raise ValueError(f"{name} must be a number, got {x!r}")


def _integer(x, name: str) -> int:
    """x as an int, for an integer (numpy's too) that is not a bool; anything else raises ValueError."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {x!r}")


def _flag(x, name: str) -> bool:
    """x as a bool, for a Python or numpy bool; anything else (0, 1 and 'no' too) raises ValueError."""
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    raise ValueError(f"{name} must be a bool, got {x!r}")
