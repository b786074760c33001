"""Print one SHA-256 digest of the quantum layer's products and of the model's exact S on fixed inputs.

The states (the singlet, the four basis states and 0.6|00> + 0.8|11>) and the
directions (normalised with ``math.sqrt``) are the same bytes on every CPU, so
the first part of the digest changes only if ``quantum_behavior``,
``chsh_variants`` or ``sweep`` computes differently.  The digest also covers
100 generic states from ``random_pure_state``: their (a, b, T), the optimum
of ``seesaw_maximize`` (best S and its four directions) and a 361-row
``sweep``; and the amplitudes that ``TwoQubitState.from_amplitudes`` stores
for 500 state specs typed to 7 decimals, 500 ``random_pure_state`` draws, and
``exact_chsh`` for 300 random networks with random setting priors.  Each
state is normalised once on Python floats, so no numpy kernel, BLAS kernel or
CPU feature enters the amplitudes.  Run it under several OpenBLAS kernels, or
with numpy's CPU dispatch switched off, and compare the lines; they must be
equal:

    PYTHONPATH=src OPENBLAS_CORETYPE=Prescott python scripts/quantum_digest.py
"""

import hashlib
import math

import numpy as np

from bellkit import (NetworkSpec, TwoQubitState, UnitVector3, basis_state, chsh_variants, exact_chsh,
                     quantum_behavior, random_model, random_pure_state, seesaw_maximize, singlet, sweep)


def direction(rng: np.random.Generator) -> UnitVector3:
    """A seeded direction, normalised on Python floats (``np.linalg.norm``'s last bit depends on the kernel)."""
    x, y, z = rng.standard_normal(3).tolist()
    norm = math.sqrt(x * x + y * y + z * z)
    return UnitVector3(x / norm, y / norm, z / norm)


def typed_amplitudes(rng: np.random.Generator) -> np.ndarray:
    """4 amplitudes as a user types them: a seeded unit vector of 8 reals, each cut to 7 decimals."""
    v = rng.standard_normal(8).tolist()
    norm_sq = 0.0  # left to right: the builtin sum compensates from Python 3.12
    for x in v:
        norm_sq += x * x
    norm = math.sqrt(norm_sq)
    re_im = [float(f"{x / norm:.7f}") for x in v]
    return np.array([complex(re_im[2 * i], re_im[2 * i + 1]) for i in range(4)])


def digest() -> str:
    rng = np.random.default_rng(26)
    states = [singlet(), *(basis_state(i) for i in range(4)),
              TwoQubitState(np.array([0.6, 0.0, 0.0, 0.8], dtype=complex))]
    h = hashlib.sha256()
    for psi in states:
        for _ in range(100):
            h.update(quantum_behavior(psi, tuple(direction(rng) for _ in range(4))).table.tobytes())
        h.update(sweep(psi, steps=361).tobytes())
    for _ in range(100):
        psi = random_pure_state(rng)
        for arr in psi.correlations:
            h.update(arr.tobytes())
        result = seesaw_maximize(psi, seed=0)
        directions = [c for w in result.settings.as_tuple() for c in (w.x, w.y, w.z)]
        h.update(np.array([result.best_s, *directions]).tobytes())
        h.update(sweep(psi, steps=361).tobytes())
    for e in rng.uniform(-1.0, 1.0, size=(20_000, 4)):
        h.update(chsh_variants(e).tobytes())
    for _ in range(500):
        h.update(TwoQubitState.from_amplitudes(typed_amplitudes(rng)).amp.tobytes())
        h.update(random_pure_state(rng).amp.tobytes())
    for _ in range(300):
        pa, pb = rng.uniform(0.05, 0.95, 2).tolist()
        spec = NetworkSpec(model=random_model(rng), setting_prior_a=np.array([pa, 1.0 - pa]),
                           setting_prior_b=np.array([pb, 1.0 - pb]))
        h.update(np.float64(exact_chsh(spec)).tobytes())
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
