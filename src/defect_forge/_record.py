"""The rule for frozen records that hold arrays: each array is copied in and stored
read-only, so nothing changes a record after its constructor checked it, and records
compare field by field, arrays by value with NaN equal to NaN.  A number field that a
text format holds is finite, as its parser requires."""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np

from .errors import ValidationError


def readonly(values, dtype=float) -> np.ndarray:
    """np.array(values, dtype): always a copy, so the caller's array stays theirs, and read-only."""
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def fields_equal(a, b):
    """__eq__ of a record: every dataclass field equal, arrays by value; NotImplemented for another type."""
    if type(b) is not type(a):
        return NotImplemented
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if not (np.array_equal(x, y, equal_nan=True) if isinstance(x, np.ndarray) else x == y):
            return False
    return True


def require_finite(record, *names: str) -> None:
    """ValidationError for the first named field of record that holds a non-finite number; None passes."""
    for name in names:
        value = getattr(record, name)
        if value is not None and not math.isfinite(value):
            raise ValidationError(f"non-finite value in {name}: '{value}'")
