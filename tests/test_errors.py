"""The one rule of each setting: every row of `errors._SETTINGS` refuses
what no rule accepts and accepts its boundary, through `_check_settings`."""
from __future__ import annotations

import math
import re

import numpy as np
import pytest

from qvuln.errors import _SETTINGS, DataError, _check_settings

FLAG = "be true or false"
# each rule's words: (values it accepts, its boundary among them; values
# it refuses besides "x", None, [] and, for a numeric rule, True).  Only
# Python numbers are numbers, as JSON records them; numpy's float64 is a
# float, and its other scalars are refused.  A row of a new rule fails
# here until its rule has an entry
CASES = {
    "be a positive integer": ([1, 10**12], [0, -1, 1.0, np.int64(1)]),
    "be an integer >= 0": ([0, 2**64], [-1, 0.0, np.int64(0)]),
    "lie in (0, 1)": ([math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0), np.float64(0.5)],
                      [0.0, 1.0, 0, math.nan, np.float32(0.5)]),
    "be a finite number >= 0": ([0.0, 0, 10**400, np.float64(1e-3)],
                                [-math.ulp(0.0), math.inf, math.nan, "0.1", np.float32(0.0)]),
    FLAG: ([False, True], [0, 1, "true", np.bool_(True)]),
}


@pytest.mark.parametrize("name", sorted(_SETTINGS))
def test_each_rule_refuses_the_wrong_type_and_accepts_its_boundary(name):
    rule = _SETTINGS[name][1]
    accepted, refused = CASES[rule]
    for value in accepted:
        _check_settings({name: value})
    for value in [*refused, "x", None, [], *([] if rule == FLAG else [True])]:
        message = re.escape(f"{name!r} must {rule}, got {value!r}")
        with pytest.raises(DataError, match=message):
            _check_settings({name: value})
    # an absent name is refused, with the caller's prefix
    with pytest.raises(DataError, match=re.escape(f"ckpt: {name!r} must {rule}, got None")):
        _check_settings({}, (name,), "ckpt: ")
