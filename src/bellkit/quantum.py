"""Complex linear algebra for two-level and bipartite two-level systems.

Basis order for the bipartite system is fixed as |00>, |01>, |10>, |11> with
the left tensor factor belonging to Alice.  All operations are pure functions
over immutable values; everything is plain double-precision arithmetic.

The products after a state's (a, b, T), used by ``quantum_behavior``,
``chsh_of_settings`` and ``sweep``, run in one written order (``alice_rows``),
so their bytes do not depend on the CPU, and every amplitude norm is the one
BLAS-free ``_norm_sq``; building (a, b, T) stays on BLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .behavior import Behavior, _table_from_means
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
        x, y, z = float(self.x), float(self.y), float(self.z)
        norm = math.sqrt(x * x + y * y + z * z)
        # a non-finite component makes the norm inf or NaN, and a NaN norm fails the comparison,
        # so only a refused norm calls for the componentwise check (finite components can overflow it)
        if not abs(norm - 1.0) <= PROBABILITY_SLACK:
            if not all(map(math.isfinite, (x, y, z))):
                raise InvalidInputError(f"direction has non-finite components: {(x, y, z)}")
            raise InvalidInputError(f"direction norm {norm:.12g} deviates from 1 beyond {PROBABILITY_SLACK:g}")
        # object.__setattr__ keeps the attributes inline: touching __dict__ would give each vector a dict
        object.__setattr__(self, "x", x / norm)
        object.__setattr__(self, "y", y / norm)
        object.__setattr__(self, "z", z / norm)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """Pure state of two qubits: 4 amplitudes over |00>, |01>, |10>, |11>."""

    amp: np.ndarray

    def __post_init__(self):
        amp = _amplitudes(self.amp)
        norm_sq = _norm_sq(amp)
        if abs(norm_sq - 1.0) > ROUNDOFF:
            raise InvalidInputError(f"state norm^2 = {norm_sq:.12g} deviates from 1 beyond {ROUNDOFF:g}")
        amp = amp / math.sqrt(norm_sq)
        amp.setflags(write=False)
        object.__setattr__(self, "amp", amp)

    @classmethod
    def from_amplitudes(cls, amp) -> "TwoQubitState":
        """Build from possibly-unnormalized amplitudes, rejecting beyond AMPLITUDE_SLACK."""
        a = _amplitudes(amp)
        norm = math.sqrt(_norm_sq(a))
        if abs(norm - 1.0) > AMPLITUDE_SLACK:
            raise InvalidInputError(f"amplitude norm {norm:.12g} deviates from 1 beyond {AMPLITUDE_SLACK:g}")
        return cls(a / norm)

    @cached_property
    def correlations(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Local Bloch vectors and correlation tensor (a, b, T), computed on first use; read-only.

        a[i] = <sigma_i (x) 1>, b[j] = <1 (x) sigma_j>, T[i, j] = <sigma_i (x) sigma_j>.
        With the amplitudes as a 2x2 matrix m (Alice's index first), sigma_i (x) 1
        maps m to sigma_i m and 1 (x) sigma_j maps it to m sigma_j^T.  a and b are
        the overlaps of the state with these vectors, and T[i, j] is the overlap
        of Alice's i-th vector with Bob's j-th, since both Paulis are Hermitian.
        """
        m = self.amp.reshape(2, 2)
        alice = (_PAULIS @ m).reshape(3, 4)
        bob = (m @ _PAULIS.transpose(0, 2, 1)).reshape(3, 4)
        bra = self.amp.conj()
        a, b, t = alice @ bra, bob @ bra, alice.conj() @ bob.T
        imag = max(abs(a.imag).max(), abs(b.imag).max(), abs(t.imag).max())
        if imag > BOUND_SLACK:
            raise InternalConsistencyError(f"expectation has imaginary part {imag:.3e}")
        real = a.real, b.real, t.real
        for arr in real:
            arr.setflags(write=False)
        return real


def _amplitudes(amp) -> np.ndarray:
    """``amp`` as 4 complex amplitudes, checked finite before any arithmetic on them."""
    a = np.asarray(amp, dtype=complex)
    if a.shape != (4,):
        raise InvalidInputError(f"state needs 4 amplitudes, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("state amplitudes contain non-finite values")
    return a


def _norm_sq(amp: np.ndarray) -> float:
    """The squared norm of ``amp``, elementwise and summed by numpy, without BLAS; inf when it overflows."""
    with np.errstate(over="ignore"):  # an overflowing norm is inf, refused by the callers
        return float(np.sum(np.abs(amp) ** 2))


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
    return TwoQubitState(amp / math.sqrt(_norm_sq(amp)))


def alice_rows(t: np.ndarray, u: UnitVector3, up: UnitVector3) -> list[tuple[float, float, float]]:
    """The two rows (p, q, r) of U T, for U the matrix of Alice's directions u and u'.

    Here and in the other products of this module, each dot product is added
    left to right to +0.0, as a BLAS kernel without fused multiply-adds adds
    it, on Python floats (plain loops: a comprehension costs a call per use).
    """
    (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = t.tolist()
    rows = []
    for w in (u, up):
        x, y, z = w.x, w.y, w.z
        rows.append((0.0 + x * t00 + y * t10 + z * t20, 0.0 + x * t01 + y * t11 + z * t21,
                     0.0 + x * t02 + y * t12 + z * t22))
    return rows


def setting_correlators(t: np.ndarray, settings: tuple[UnitVector3, ...]) -> list[list[float]]:
    """U T V^T as [[E(a,b), E(a,b')], [E(a',b), E(a',b')]] for the directions (u, u', v, v'): (U T) first."""
    u, up, v, vp = settings
    vx, vy, vz, wx, wy, wz = v.x, v.y, v.z, vp.x, vp.y, vp.z
    e = []
    for p, q, r in alice_rows(t, u, up):
        e.append([0.0 + p * vx + q * vy + r * vz, 0.0 + p * wx + q * wy + r * wz])
    return e


def quantum_behavior(
    psi: TwoQubitState,
    settings: tuple[UnitVector3, UnitVector3, UnitVector3, UnitVector3],
) -> Behavior:
    """Outcome table P(A,B|x,y) from projective spin measurements.

    ``settings`` is (Alice's u, u', Bob's v, v'); with U and V the matrices of
    Alice's and Bob's directions, the correlators are U T V^T and the outcome
    means U a and V b, all in ``alice_rows``' order.
    """
    a, b, t = psi.correlations
    u, up, v, vp = settings
    (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
    ma = [0.0 + u.x * a0 + u.y * a1 + u.z * a2, 0.0 + up.x * a0 + up.y * a1 + up.z * a2]
    mb = [0.0 + v.x * b0 + v.y * b1 + v.z * b2, 0.0 + vp.x * b0 + vp.y * b1 + vp.z * b2]
    return Behavior._of(_table_from_means(setting_correlators(t, settings), ma, mb))


def correlation_matrix(psi: TwoQubitState) -> np.ndarray:
    """3x3 matrix T with T[i, j] = <psi| sigma_i (x) sigma_j |psi>, read-only and shared with ``psi``.

    The expected product of outcomes along unit directions u and v is u^T T v.
    """
    return psi.correlations[2]
