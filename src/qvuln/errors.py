"""The package's two error classes, one per failing exit code:
`DataError` for any refused input, a checkpoint included (exit 2), and
`DivergenceError` for a run that diverged (exit 3).  And the one rule of
every size, rate and flag setting: `_SETTINGS` maps each name to its test
and its error words, and `_check_settings` checks the names a caller gives
it.  Training settings, command-line sizes, encoded splits and a
checkpoint's record all go through it; this module imports none of the
package's others."""
from __future__ import annotations

import math


class DataError(ValueError):
    """A refused input: a bad CSV row, vector file, split, setting or
    checkpoint.  The command line exits 2 on it."""


class DivergenceError(RuntimeError):
    """A training run's loss or final values became non-finite.  The
    command line exits 3 on it."""


# the values JSON records: Python ints and floats (numpy's float64 is a
# float); JSON's true and false are Python bools, an int subclass, and no number
def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_POSITIVE_INTEGER = (lambda v: _integer(v) and v >= 1, "be a positive integer")
_FLAG = (lambda v: isinstance(v, bool), "be true or false")

# name: (test, what the value must do); NaN fails every comparison
_SETTINGS = {
    **dict.fromkeys(("epochs", "batch_size", "hidden", "d_basic", "d_in", "max_len",
                     "max_vocab", "n_points", "window", "trials"), _POSITIVE_INTEGER),
    "seed": (lambda v: _integer(v) and v >= 0, "be an integer >= 0"),
    "threshold": (lambda v: _number(v) and 0 < v < 1, "lie in (0, 1)"),
    "lr": (lambda v: _number(v) and 0 <= v < math.inf, "be a finite number >= 0"),
    "sigma_hidden": _FLAG,
    "embedding_trainable": _FLAG,
}


def _check_settings(settings: dict, names=None, prefix: str = "") -> None:
    """Raises DataError, its message led by `prefix`, on the first of `names`
    (all of `settings` by default) whose value breaks its rule; an absent
    name reads as None, which no rule accepts."""
    for name in settings if names is None else names:
        accepts, rule = _SETTINGS[name]
        value = settings.get(name)
        if not accepts(value):
            raise DataError(f"{prefix}{name!r} must {rule}, got {value!r}")
