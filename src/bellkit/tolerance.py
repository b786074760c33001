"""The numerical policy: every tolerance in the package, and the checks through which values come in.

Each verdict bellkit prints is a comparison at one of these slacks, so they live in one
place and no function takes its own tolerance argument.  Values are checked as Python
floats, each sum added left to right, so that only an array's construction needs numpy.
"""

from __future__ import annotations

import math

from .errors import InvalidInputError

ROUNDOFF = 1e-12  # absolute, on O(1) numbers: far above what a few dozen double operations leave
PROBABILITY_SLACK = 1e-9  # probability units and unit norms: input error repaired rather than rejected
BOUND_SLACK = 1e-9  # units of S and correlators: a value this close to a bound counts as on it
AMPLITUDE_SLACK = 1e-6  # norm of typed amplitudes, which a command line carries to ~7 digits


def flat_values(values, shape: tuple[int, ...], what: str, kind: type = float) -> list:
    """``values`` of ``shape`` as a flat list of Python ``kind`` numbers; numpy reads all but nested lists of them."""
    flat = [values]
    for size in shape:
        if not all(type(v) in (list, tuple) and len(v) == size for v in flat):
            break
        flat = [x for v in flat for x in v]
    else:
        if all(type(x) is kind for x in flat):
            return flat
    import numpy as np
    a = np.asarray(values, dtype=kind)
    if a.shape != shape:
        raise InvalidInputError(f"{what} must have shape {shape}, got {a.shape}")
    return a.ravel().tolist()


def read_only_array(values: list, shape: tuple[int, ...] = (-1,)):
    """A read-only array of the Python numbers ``values``, in ``shape``."""
    import numpy as np
    a = np.array(values).reshape(shape)
    a.setflags(write=False)
    return a


def probabilities(v: list[float], what: str) -> list[float]:
    """The floats ``v`` as a distribution: finite, >= -slack, mass 1 within slack; clipped at 0, renormalised."""
    if not v:
        raise InvalidInputError(f"{what} is empty")
    # added left to right from 0.0: math.fsum raises on inf - inf, and the builtin sum compensates from Python 3.12;
    # only a sum that is not finite calls for the entrywise check (an overflowing one is refused below)
    total, low = 0.0, min(v)
    for x in v:
        total += x
    if not math.isfinite(total) and not all(map(math.isfinite, v)):
        raise InvalidInputError(f"{what} has non-finite entries")
    if low < -PROBABILITY_SLACK:
        raise InvalidInputError(f"{what} entry {low:.3e} below -{PROBABILITY_SLACK:g}")
    if abs(total - 1.0) > PROBABILITY_SLACK:
        raise InvalidInputError(f"{what} sums to {total:.12g}, not 1 within {PROBABILITY_SLACK:g}")
    # entries clipped at 0, where -0.0 becomes +0.0: a clipped negative entry changes the sum,
    # and the sign of a zero changes no bit of it
    if low < 0.0:
        total = 0.0
        for x in v:
            total += x if x > 0.0 else 0.0
    return [x / total if x > 0.0 else 0.0 for x in v]


def probability_vector(values, what: str):
    """``values`` as a distribution by ``probabilities``: a read-only array of the input's shape."""
    import numpy as np
    p = np.asarray(values, dtype=float)
    return read_only_array(probabilities(p.ravel().tolist(), what), p.shape)
