"""Complex linear algebra for two-level and bipartite two-level systems.

Basis order for the bipartite system is fixed as |00>, |01>, |10>, |11> with
the left tensor factor belonging to Alice.  All operations are pure functions
over immutable values; everything is plain double-precision arithmetic.

A state's amplitudes are normalised once, on Python complex numbers: each
part times 1/norm, the norm the square root of re^2 + im^2 added left to right
(``_sum_of_squares``, ``_normalised``).  Its (a, b, T) and the products after
it, used by ``quantum_behavior``, ``chsh_of_settings`` and ``sweep``, run on
Python floats, each in one written order (``_bloch_and_tensor``,
``alice_rows``).  No step calls numpy or BLAS, so the bytes depend on neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .behavior import Behavior, _array_memo, _memo, _table_from_means
from .errors import InternalConsistencyError, InvalidInputError
from .tolerance import AMPLITUDE_SLACK, BOUND_SLACK, PROBABILITY_SLACK, ROUNDOFF, flat_values, read_only_array

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
        import numpy as np
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True, eq=False, init=False, repr=False)
class TwoQubitState:
    """Pure state of two qubits: 4 amplitudes over |00>, |01>, |10>, |11>, kept as Python complex numbers."""

    amp = _array_memo("_amp")

    def __init__(self, amp):
        amp = _amplitudes(amp)
        norm_sq = _sum_of_squares(amp)
        if abs(norm_sq - 1.0) > ROUNDOFF:
            raise InvalidInputError(f"state norm^2 = {norm_sq:.12g} deviates from 1 beyond {ROUNDOFF:g}")
        self._store(_normalised(amp, math.sqrt(norm_sq)))

    @classmethod
    def _of(cls, amp: list[complex]) -> TwoQubitState:
        """The state of 4 normalised amplitudes ``amp``, Python complex numbers, stored as they are."""
        psi = object.__new__(cls)
        psi._store(amp)
        return psi

    def _store(self, amp: list[complex]) -> None:
        self.__dict__.update(_amp=amp, _bloch_and_tensor=_bloch_and_tensor(amp))

    @classmethod
    def from_amplitudes(cls, amp) -> TwoQubitState:
        """Build from amplitudes within AMPLITUDE_SLACK of unit norm, normalised."""
        a = _amplitudes(amp)
        norm = math.sqrt(_sum_of_squares(a))
        if abs(norm - 1.0) > AMPLITUDE_SLACK:
            raise InvalidInputError(f"amplitude norm {norm:.12g} deviates from 1 beyond {AMPLITUDE_SLACK:g}")
        return cls._of(_normalised(a, norm))

    @_memo
    def correlations(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Local Bloch vectors and correlation tensor (a, b, T) as read-only arrays, built on first use.

        The values of ``_bloch_and_tensor``, as views of one array.
        """
        a, b, t = self._bloch_and_tensor
        values = read_only_array([*a, *b, *t])
        return values[:3], values[3:6], values[6:].reshape(3, 3)


def _bloch_and_tensor(amp: list[complex]) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    """(a, b, T) of the amplitudes ``amp`` as tuples of Python floats, T's 9 entries row by row.

    a[i] = <sigma_i (x) 1>, b[j] = <1 (x) sigma_j>, T[i, j] = <sigma_i (x) sigma_j>.
    With c0 and c1 the columns of the amplitudes as a 2x2 matrix (Alice's
    index first), each operator s of ``_SIGMAS`` on Alice's qubit gives the
    Hermitian K[k, l] = <c_k| s |c_l>, and <s (x) sigma_j> = tr(sigma_j K^T):
    K00 + K11 for the identity, and 2 Re K01, 2 Im K01 and K00 - K11 for
    sigma_x, sigma_y and sigma_z.  The identity's row is (1, b), sigma_i's
    is (a[i], T[i]).  Each product is written out and summed left to right.
    """
    m00, m01, m10, m11 = amp
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


def _amplitudes(amp) -> list[complex]:
    """``amp`` as 4 Python complex amplitudes, checked finite before any arithmetic on them."""
    a = flat_values(amp, (4,), "state amplitudes", complex)
    if not all(math.isfinite(c.real) and math.isfinite(c.imag) for c in a):
        raise InvalidInputError("state amplitudes contain non-finite values")
    return a


def _sum_of_squares(amp: list[complex]) -> float:
    """The squared norm of ``amp``, re^2 + im^2 of each amplitude added left to right to 0.0; inf when it overflows."""
    total = 0.0
    for c in amp:
        total += c.real * c.real + c.imag * c.imag
    return total


def _normalised(amp: list[complex], norm: float) -> list[complex]:
    """``amp`` / ``norm``, each part times 1/norm (a complex product would set the sign of some zeros)."""
    scale = 1.0 / norm
    return [complex(c.real * scale, c.imag * scale) for c in amp]


def singlet() -> TwoQubitState:
    """The two-qubit singlet (|01> - |10>)/sqrt(2)."""
    s = math.sqrt(0.5)  # 1/sqrt(2) correctly rounded: stored as it is
    return TwoQubitState._of([0j, complex(s), complex(-s), 0j])


def basis_state(index: int) -> TwoQubitState:
    """Computational basis state |00>, |01>, |10>, or |11> by index 0..3."""
    if index not in (0, 1, 2, 3):
        raise InvalidInputError(f"basis index must be 0..3, got {index}")
    return TwoQubitState._of([1 + 0j if i == index else 0j for i in range(4)])


def random_pure_state(rng: np.random.Generator) -> TwoQubitState:
    """Haar-ish random pure state: normalized complex Gaussian amplitudes."""
    amp = (rng.standard_normal(4) + 1j * rng.standard_normal(4)).tolist()
    return TwoQubitState._of(_normalised(amp, math.sqrt(_sum_of_squares(amp))))


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
