"""Complex linear algebra for two-level and bipartite two-level systems.

Basis order for the bipartite system is fixed as |00>, |01>, |10>, |11> with
the left tensor factor belonging to Alice.  All operations are pure functions
over immutable values; everything is plain double-precision arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .behavior import Behavior, behavior_from_correlators
from .errors import InternalConsistencyError, InvalidInputError
from .tolerance import AMPLITUDE_SLACK, BOUND_SLACK, PROBABILITY_SLACK, ROUNDOFF

# sigma_x, sigma_y, sigma_z
_PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


@dataclass(frozen=True)
class UnitVector3:
    """A direction in R^3, renormalized on construction.

    Norm deviations up to PROBABILITY_SLACK (accumulated float error) are
    corrected silently; larger deviations are rejected.
    """

    x: float
    y: float
    z: float

    def __post_init__(self):
        v = (float(self.x), float(self.y), float(self.z))
        if not all(math.isfinite(c) for c in v):
            raise InvalidInputError(f"direction has non-finite components: {v}")
        norm = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
        if abs(norm - 1.0) > PROBABILITY_SLACK:
            raise InvalidInputError(f"direction norm {norm:.12g} deviates from 1 beyond {PROBABILITY_SLACK:g}")
        object.__setattr__(self, "x", v[0] / norm)
        object.__setattr__(self, "y", v[1] / norm)
        object.__setattr__(self, "z", v[2] / norm)

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "UnitVector3":
        """Build from an arbitrary nonzero vector, normalizing first."""
        norm = math.sqrt(x * x + y * y + z * z)
        if not 0.0 < norm < math.inf:
            raise InvalidInputError("cannot normalize a zero or non-finite vector")
        return cls(x / norm, y / norm, z / norm)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def dot(self, other: "UnitVector3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """Pure state of two qubits: 4 amplitudes over |00>, |01>, |10>, |11>."""

    amp: np.ndarray

    def __post_init__(self):
        amp = _amplitudes(self.amp)
        norm_sq = float(np.sum(np.abs(amp) ** 2))
        if abs(norm_sq - 1.0) > ROUNDOFF:
            raise InvalidInputError(f"state norm^2 = {norm_sq:.12g} deviates from 1 beyond {ROUNDOFF:g}")
        amp = amp / math.sqrt(norm_sq)
        amp.setflags(write=False)
        object.__setattr__(self, "amp", amp)

    @classmethod
    def from_amplitudes(cls, amp) -> "TwoQubitState":
        """Build from possibly-unnormalized amplitudes, rejecting beyond AMPLITUDE_SLACK."""
        a = _amplitudes(amp)
        with np.errstate(over="ignore"):  # an overflowing norm is inf, refused just below
            norm = float(np.linalg.norm(a))
        if abs(norm - 1.0) > AMPLITUDE_SLACK:
            raise InvalidInputError(f"amplitude norm {norm:.12g} deviates from 1 beyond {AMPLITUDE_SLACK:g}")
        return cls(a / norm)


def _amplitudes(amp) -> np.ndarray:
    """``amp`` as 4 complex amplitudes, checked finite before any arithmetic on them."""
    a = np.asarray(amp, dtype=complex)
    if a.shape != (4,):
        raise InvalidInputError(f"state needs 4 amplitudes, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("state amplitudes contain non-finite values")
    return a


def singlet() -> TwoQubitState:
    """The two-qubit singlet (|01> - |10>)/sqrt(2)."""
    s = 1.0 / math.sqrt(2.0)
    return TwoQubitState(np.array([0.0, s, -s, 0.0], dtype=complex))


def basis_state(index: int) -> TwoQubitState:
    """Computational basis state |00>, |01>, |10>, or |11> by index 0..3."""
    if index not in (0, 1, 2, 3):
        raise InvalidInputError(f"basis index must be 0..3, got {index}")
    amp = np.zeros(4, dtype=complex)
    amp[index] = 1.0
    return TwoQubitState(amp)


def random_pure_state(rng: np.random.Generator) -> TwoQubitState:
    """Haar-ish random pure state: normalized complex Gaussian amplitudes."""
    amp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return TwoQubitState(amp / np.linalg.norm(amp))


def random_unit_vector(rng: np.random.Generator) -> UnitVector3:
    """Uniformly distributed direction on the sphere."""
    while True:
        v = rng.standard_normal(3)
        n = np.linalg.norm(v)
        if n > ROUNDOFF:
            return UnitVector3(*(v / n))


def _bloch_and_tensor(psi: TwoQubitState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local Bloch vectors and correlation tensor (a, b, T) of a pure state.

    a[i] = <sigma_i (x) 1>, b[j] = <1 (x) sigma_j>, T[i, j] = <sigma_i (x) sigma_j>.
    With the amplitudes as a 2x2 matrix m (Alice's index first), sigma_i (x) 1
    maps m to sigma_i m and 1 (x) sigma_j maps it to m sigma_j^T.  a and b are
    the overlaps of psi with these vectors, and T[i, j] is the overlap of
    Alice's i-th vector with Bob's j-th, since both Paulis are Hermitian.
    """
    m = psi.amp.reshape(2, 2)
    alice = (_PAULIS @ m).reshape(3, 4)
    bob = (m @ _PAULIS.transpose(0, 2, 1)).reshape(3, 4)
    bra = psi.amp.conj()
    a, b, t = alice @ bra, bob @ bra, alice.conj() @ bob.T
    imag = max(np.max(np.abs(a.imag)), np.max(np.abs(b.imag)), np.max(np.abs(t.imag)))
    if imag > BOUND_SLACK:
        raise InternalConsistencyError(f"expectation has imaginary part {imag:.3e}")
    return a.real, b.real, t.real


def correlation(psi: TwoQubitState, u: UnitVector3, v: UnitVector3) -> float:
    """<psi| (u.sigma) (x) (v.sigma) |psi> = u^T T v, the expected product of outcomes."""
    val = float(u.as_array() @ correlation_matrix(psi) @ v.as_array())
    # expectation of a +/-1 observable product; clamp float overshoot
    return min(1.0, max(-1.0, val))


def quantum_behavior(
    psi: TwoQubitState,
    settings: tuple[UnitVector3, UnitVector3, UnitVector3, UnitVector3],
) -> Behavior:
    """Outcome table P(A,B|x,y) from projective spin measurements.

    ``settings`` is (Alice's u, u', Bob's v, v'); with U and V the matrices of
    Alice's and Bob's directions, the correlators are U T V^T and the outcome
    means U a and V b.
    """
    a, b, t = _bloch_and_tensor(psi)
    dirs = np.array([w.as_array() for w in settings])
    alice, bob = dirs[:2], dirs[2:]
    return behavior_from_correlators(alice @ t @ bob.T, alice @ a, bob @ b)


def correlation_matrix(psi: TwoQubitState) -> np.ndarray:
    """3x3 matrix T with T[i, j] = <psi| sigma_i (x) sigma_j |psi>.

    Satisfies correlation(psi, u, v) = u^T T v for all unit u, v.
    """
    return _bloch_and_tensor(psi)[2]
