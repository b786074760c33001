"""The numerical policy: every tolerance in the package, and the checks through which values come in.

Each verdict bellkit prints is a comparison at one of these slacks, so they live in one
place and no function takes its own tolerance argument.  Values are checked as Python
floats, in numpy's order of operations, so that only an array's construction needs numpy.
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


def pairwise_sum(v: list[float], lo: int = 0, n: int | None = None) -> float:
    """The sum of the floats ``v[lo:lo + n]`` in the order in which numpy's ``sum`` adds contiguous doubles.

    Over 128 terms split after half, rounded down to a multiple of 8; of at most 128, 8 running sums r_j of every
    8th term give 0.0 + ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and the rest is added left to right.
    """
    n = len(v) if n is None else n
    if n > 128:
        half = n // 2 - n // 2 % 8
        return pairwise_sum(v, lo, half) + pairwise_sum(v, lo + half, n - half)
    end, total = lo + n - n % 8, 0.0
    if n >= 8:
        r0, r1, r2, r3, r4, r5, r6, r7 = v[lo:lo + 8]
        for i in range(lo + 8, end, 8):
            a0, a1, a2, a3, a4, a5, a6, a7 = v[i:i + 8]
            r0, r1, r2, r3, r4, r5, r6, r7 = r0 + a0, r1 + a1, r2 + a2, r3 + a3, r4 + a4, r5 + a5, r6 + a6, r7 + a7
        total += ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for x in v[end:lo + n]:
        total += x
    return total


def probabilities(v: list[float], what: str) -> list[float]:
    """The floats ``v`` as a distribution: finite, >= -slack, mass 1 within slack; clipped at 0, renormalised."""
    if not v:
        raise InvalidInputError(f"{what} is empty")
    # only a sum that is not finite calls for the entrywise check (an overflowing one is refused below)
    total, low = pairwise_sum(v), min(v)
    if not math.isfinite(total) and not all(map(math.isfinite, v)):
        raise InvalidInputError(f"{what} has non-finite entries")
    if low < -PROBABILITY_SLACK:
        raise InvalidInputError(f"{what} entry {low:.3e} below -{PROBABILITY_SLACK:g}")
    if abs(total - 1.0) > PROBABILITY_SLACK:
        raise InvalidInputError(f"{what} sums to {total:.12g}, not 1 within {PROBABILITY_SLACK:g}")
    # entries clipped at 0, where -0.0 becomes +0.0 as numpy's clip(0.0, None) makes it: a clipped
    # negative entry changes the sum, and the sign of a zero changes no bit of it
    if low < 0.0:
        total = pairwise_sum([x if x > 0.0 else 0.0 for x in v])
    return [x / total if x > 0.0 else 0.0 for x in v]


def probability_vector(values, what: str):
    """``values`` as a distribution by ``probabilities``: a read-only array of the input's shape."""
    import numpy as np
    p = np.asarray(values, dtype=float)
    return read_only_array(probabilities(p.ravel().tolist(), what), p.shape)
