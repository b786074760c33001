"""Complex linear algebra for two-level and bipartite two-level systems.

Basis order for the bipartite system is fixed as |00>, |01>, |10>, |11> with
the left tensor factor belonging to Alice.  All operations are pure functions
over immutable values; everything is plain double-precision arithmetic.

A state's (a, b, T) is built from its 4 amplitudes on Python complex numbers,
and the products after it, used by ``quantum_behavior``, ``chsh_of_settings``
and ``sweep``, run on Python floats, each in one written order
(``_bloch_and_tensor``, ``alice_rows``); with the one amplitude norm
``_norm_sq``, no step calls BLAS, so the bytes do not depend on the BLAS kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .behavior import Behavior, _memo, _table_from_means
from .errors import InternalConsistencyError, InvalidInputError
from .tolerance import AMPLITUDE_SLACK, BOUND_SLACK, PROBABILITY_SLACK, ROUNDOFF

# the identity, sigma_x, sigma_y and sigma_z, each as two rows of Python complex numbers
_SIGMAS = (((1 + 0j, 0j), (0j, 1 + 0j)), ((0j, 1 + 0j), (1 + 0j, 0j)), ((0j, -1j), (1j, 0j)),
           ((1 + 0j, 0j), (0j, -1 + 0j)))


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
        # every product reads these floats, and the public arrays are built from them on first use
        object.__setattr__(self, "_bloch_and_tensor", _bloch_and_tensor(amp))

    @classmethod
    def from_amplitudes(cls, amp) -> "TwoQubitState":
        """Build from possibly-unnormalized amplitudes, rejecting beyond AMPLITUDE_SLACK."""
        a = _amplitudes(amp)
        norm = math.sqrt(_norm_sq(a))
        if abs(norm - 1.0) > AMPLITUDE_SLACK:
            raise InvalidInputError(f"amplitude norm {norm:.12g} deviates from 1 beyond {AMPLITUDE_SLACK:g}")
        return cls(a / norm)

    @_memo
    def correlations(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Local Bloch vectors and correlation tensor (a, b, T) as read-only arrays, built on first use.

        The values of ``_bloch_and_tensor``, as views of one array.
        """
        a, b, t = self._bloch_and_tensor
        values = np.array([*a, *b, *t])
        values.setflags(write=False)
        return values[:3], values[3:6], values[6:].reshape(3, 3)


def _bloch_and_tensor(amp: np.ndarray) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    """(a, b, T) of the amplitudes ``amp`` as tuples of Python floats, T's 9 entries row by row.

    a[i] = <sigma_i (x) 1>, b[j] = <1 (x) sigma_j>, T[i, j] = <sigma_i (x) sigma_j>.
    With c0 and c1 the columns of the amplitudes as a 2x2 matrix (Alice's
    index first), each operator s of ``_SIGMAS`` on Alice's qubit gives the
    Hermitian K[k, l] = <c_k| s |c_l>, and <s (x) sigma_j> = tr(sigma_j K^T):
    K00 + K11 for the identity, and 2 Re K01, 2 Im K01 and K00 - K11 for
    sigma_x, sigma_y and sigma_z.  The identity's row is (1, b), sigma_i's
    is (a[i], T[i]).  Each product is written out and summed left to right.
    """
    m00, m01, m10, m11 = amp.tolist()
    c00, c01, c10, c11 = m00.conjugate(), m01.conjugate(), m10.conjugate(), m11.conjugate()
    rows, imag = [], 0.0
    for (s00, s01), (s10, s11) in _SIGMAS:
        # K00 = <c0| s c0>, K01 = <c0| s c1> and K11 = <c1| s c1>; K00 and K11 are real for a Hermitian s
        k00 = c00 * (s00 * m00 + s01 * m10) + c10 * (s10 * m00 + s11 * m10)
        sc0, sc1 = s00 * m01 + s01 * m11, s10 * m01 + s11 * m11
        k01, k11 = c00 * sc0 + c10 * sc1, c01 * sc0 + c11 * sc1
        imag = max(imag, abs(k00.imag), abs(k11.imag))
        k00, k11 = k00.real, k11.real
        rows.append((k00 + k11, 2.0 * k01.real, 2.0 * k01.imag, k00 - k11))
    if imag > BOUND_SLACK:
        raise InternalConsistencyError(f"expectation has imaginary part {imag:.3e}")
    (_, b0, b1, b2), (a0, t00, t01, t02), (a1, t10, t11, t12), (a2, t20, t21, t22) = rows
    return (a0, a1, a2), (b0, b1, b2), (t00, t01, t02, t10, t11, t12, t20, t21, t22)


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


def alice_rows(t: tuple[float, ...], u: UnitVector3, up: UnitVector3) -> list[tuple[float, float, float]]:
    """The two rows (p, q, r) of U T, for T's 9 entries row by row and U the matrix of Alice's directions u and u'.

    Here and in the other products after (a, b, T), each dot product is added
    left to right to +0.0, as a BLAS kernel without fused multiply-adds adds
    it, on Python floats (plain loops: a comprehension costs a call per use).
    """
    t00, t01, t02, t10, t11, t12, t20, t21, t22 = t
    rows = []
    for w in (u, up):
        x, y, z = w.x, w.y, w.z
        rows.append((0.0 + x * t00 + y * t10 + z * t20, 0.0 + x * t01 + y * t11 + z * t21,
                     0.0 + x * t02 + y * t12 + z * t22))
    return rows


def setting_correlators(t: tuple[float, ...], settings: tuple[UnitVector3, ...]) -> list[list[float]]:
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
    (a0, a1, a2), (b0, b1, b2), t = psi._bloch_and_tensor
    u, up, v, vp = settings
    ma = [0.0 + u.x * a0 + u.y * a1 + u.z * a2, 0.0 + up.x * a0 + up.y * a1 + up.z * a2]
    mb = [0.0 + v.x * b0 + v.y * b1 + v.z * b2, 0.0 + vp.x * b0 + vp.y * b1 + vp.z * b2]
    return Behavior._of(_table_from_means(setting_correlators(t, settings), ma, mb))


def correlation_matrix(psi: TwoQubitState) -> np.ndarray:
    """3x3 matrix T with T[i, j] = <psi| sigma_i (x) sigma_j |psi>, read-only and shared with ``psi``.

    The expected product of outcomes along unit directions u and v is u^T T v.
    """
    return psi.correlations[2]
