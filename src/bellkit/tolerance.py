"""The numerical policy: every tolerance in the package and the probability-vector check.

Each verdict bellkit prints is a comparison at one of these slacks, so they
live in one place and no function takes its own tolerance argument.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError

ROUNDOFF = 1e-12  # absolute, on O(1) numbers: far above what a few dozen double operations leave
PROBABILITY_SLACK = 1e-9  # probability units and unit norms: input error repaired rather than rejected
BOUND_SLACK = 1e-9  # units of S and correlators: a value this close to a bound counts as on it
AMPLITUDE_SLACK = 1e-6  # norm of typed amplitudes, which a command line carries to ~7 digits


def probability_vector(values, what: str) -> np.ndarray:
    """``values`` as a distribution: finite, each entry >= -slack, mass 1 within slack.

    Entries are clipped at 0 and renormalised to unit mass; the result is a
    read-only array of the input's shape.  ``what`` names the input in errors.
    """
    p = np.asarray(values, dtype=float)
    if p.size == 0:
        raise InvalidInputError(f"{what} is empty")
    # an inf or NaN entry makes the sum inf or NaN, so only a sum that is not
    # finite calls for the entrywise check; finite entries whose sum overflows are
    # refused below as a mass far from 1 (both without a numpy warning)
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(p.sum())
    if not math.isfinite(total) and not np.isfinite(p).all():
        raise InvalidInputError(f"{what} has non-finite entries")
    if p.min() < -PROBABILITY_SLACK:
        raise InvalidInputError(f"{what} entry {p.min():.3e} below -{PROBABILITY_SLACK:g}")
    if abs(total - 1.0) > PROBABILITY_SLACK:
        raise InvalidInputError(f"{what} sums to {total:.12g}, not 1 within {PROBABILITY_SLACK:g}")
    p = p.clip(0.0, None)
    p /= p.sum()
    p.setflags(write=False)
    return p
