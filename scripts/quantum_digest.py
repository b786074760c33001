"""Print one SHA-256 digest of the quantum layer's products on fixed inputs.

The states (the singlet, the four basis states and 0.6|00> + 0.8|11>) and the
directions (normalised with ``math.sqrt``) are the same bytes on every CPU, so
the digest changes only if ``quantum_behavior``, ``chsh_variants`` or ``sweep``
computes differently.  Run it under several OpenBLAS kernels and compare the
lines; they must be equal:

    PYTHONPATH=src OPENBLAS_CORETYPE=Prescott python scripts/quantum_digest.py
"""

import hashlib
import math

import numpy as np

from bellkit import TwoQubitState, UnitVector3, basis_state, chsh_variants, quantum_behavior, singlet, sweep


def direction(rng: np.random.Generator) -> UnitVector3:
    """A seeded direction, normalised on Python floats (``np.linalg.norm``'s last bit depends on the kernel)."""
    x, y, z = rng.standard_normal(3).tolist()
    norm = math.sqrt(x * x + y * y + z * z)
    return UnitVector3(x / norm, y / norm, z / norm)


def digest() -> str:
    rng = np.random.default_rng(26)
    states = [singlet(), *(basis_state(i) for i in range(4)),
              TwoQubitState(np.array([0.6, 0.0, 0.0, 0.8], dtype=complex))]
    h = hashlib.sha256()
    for psi in states:
        for _ in range(100):
            h.update(quantum_behavior(psi, tuple(direction(rng) for _ in range(4))).table.tobytes())
        h.update(sweep(psi, steps=361).tobytes())
    for e in rng.uniform(-1.0, 1.0, size=(20_000, 4)):
        h.update(chsh_variants(e).tobytes())
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
