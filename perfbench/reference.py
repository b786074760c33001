"""Numpy-only reference for the benchmark's inputs and output checks.

Nothing here imports bellkit: every expected value is computed from the
amplitudes, settings or model parameters the benchmark generated, so a check
passes only when bellkit agrees with an independent derivation.

A two-qubit pure state enters through its local Bloch vectors ``a``, ``b``
and its correlation tensor ``T`` (T[i, j] = <sigma_i x sigma_j>).  The
outcome table for directions (u_x, v_y) is
P(A, B | x, y) = (1 + A u_x.a + B v_y.b + AB u_x^T T v_y) / 4, and the
largest CHSH value over all directions is 2 sqrt(s1^2 + s2^2) with s1 >= s2
the two leading singular values of T (Horodecki, Horodecki & Horodecki,
Phys. Lett. A 200, 340 (1995)).
"""

from __future__ import annotations

import math

import numpy as np

# Agreement demanded between bellkit and the reference; bellkit's own
# tolerance for bound verdicts and normalization is the same 1e-9.
TOL = 1e-9
# An LP decomposition may miss each table entry by the solver's feasibility
# tolerance (1e-9); its recomposition is held to ten times that.
LP_RECOMPOSE_TOL = 1e-8

OUTCOMES = np.array([1.0, -1.0])
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
CSV_HEADER = "lambda,x,y,A,B"
SETTINGS_A = ("a", "a'")
SETTINGS_B = ("b", "b'")


# -- states ------------------------------------------------------------------

def random_state(rng: np.random.Generator) -> np.ndarray:
    """Normalized complex Gaussian amplitudes over |00>, |01>, |10>, |11>."""
    amp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return amp / np.linalg.norm(amp)


def singlet() -> np.ndarray:
    r = 1.0 / math.sqrt(2.0)
    return np.array([0.0, r, -r, 0.0], dtype=complex)


def product_state() -> np.ndarray:
    alice = np.array([math.cos(0.3), math.sin(0.3)], dtype=complex)
    bob = np.array([math.cos(0.7), complex(math.cos(0.2), math.sin(0.2)) * math.sin(0.7)])
    return np.kron(alice, bob)


def partially_entangled_state() -> np.ndarray:
    """cos(pi/8)|00> + sin(pi/8)|11>."""
    return np.array([math.cos(math.pi / 8), 0.0, 0.0, math.sin(math.pi / 8)], dtype=complex)


def state_spec(amp: np.ndarray) -> str:
    """The CLI's 8-real state argument (re, im per amplitude), exact in repr."""
    return ",".join(repr(float(v)) for c in amp for v in (c.real, c.imag))


def random_direction(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def bloch_and_tensor(amp: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, T) of a pure state; Alice holds the left tensor factor."""
    m = np.asarray(amp, dtype=complex).reshape(2, 2)
    a = np.einsum("ab,iac,cb->i", m.conj(), PAULI, m).real
    b = np.einsum("ab,jbd,ad->j", m.conj(), PAULI, m).real
    t = np.einsum("ab,iac,jbd,cd->ij", m.conj(), PAULI, PAULI, m).real
    return a, b, t


def analytic_max(t: np.ndarray) -> float:
    s = np.linalg.svd(t, compute_uv=False)
    return 2.0 * math.sqrt(s[0] ** 2 + s[1] ** 2)


def optimal_settings(t: np.ndarray) -> tuple[np.ndarray, ...]:
    """Directions (u, u', v, v') at which S reaches +analytic_max(t)."""
    left, s, right_t = np.linalg.svd(t)
    phi = math.atan2(s[1], s[0])
    v1, v2 = right_t[0], right_t[1]
    v = math.cos(phi) * v1 + math.sin(phi) * v2
    v_prime = math.cos(phi) * v1 - math.sin(phi) * v2
    return left[:, 0], left[:, 1], v, v_prime


def chsh_of(t: np.ndarray, u, u_prime, v, v_prime) -> float:
    return float(u @ t @ (v + v_prime) + u_prime @ t @ (v - v_prime))


def behavior_table(amp: np.ndarray, settings) -> np.ndarray:
    """P[x, y, A, B] for directions (u, u', v, v'); outcome index 0 is +1."""
    a, b, t = bloch_and_tensor(amp)
    alice, bob = settings[:2], settings[2:]
    table = np.empty((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            ea, eb = alice[x] @ a, bob[y] @ b
            eab = alice[x] @ t @ bob[y]
            table[x, y] = (1.0 + np.outer(OUTCOMES * ea, np.ones(2))
                           + np.outer(np.ones(2), OUTCOMES * eb)
                           + np.outer(OUTCOMES, OUTCOMES) * eab) / 4.0
    return table


def table_correlators(table: np.ndarray) -> np.ndarray:
    """(E(a,b), E(a,b'), E(a',b), E(a',b')) of an outcome table."""
    return np.einsum("xyij,i,j->xy", table, OUTCOMES, OUTCOMES).reshape(4)


def chsh(e) -> float:
    return float(e[0] + e[1] + e[2] - e[3])


def max_chsh_variant(e) -> float:
    """Largest of the 8 signed CHSH combinations (one sign flipped, both overall signs)."""
    e = np.asarray(e, dtype=float)
    values = []
    for flip in range(4):
        signs = np.ones(4)
        signs[flip] = -1.0
        values.extend((signs @ e, -(signs @ e)))
    return float(max(values))


def sweep_rows(t: np.ndarray, steps: int, start: float = 0.0, end: float = 360.0):
    """(theta, S) as Bob's maximal-violation pair rotates about z; Alice fixed on x, y."""
    r = 1.0 / math.sqrt(2.0)
    u, u_prime = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    v0, v0_prime = np.array([r, r, 0.0]), np.array([r, -r, 0.0])
    rows = []
    for i in range(steps):
        theta = start + (end - start) * i / (steps - 1)
        c, s = math.cos(math.radians(theta)), math.sin(math.radians(theta))
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        rows.append((theta, chsh_of(t, u, u_prime, rot @ v0, rot @ v0_prime)))
    return rows


# -- models and networks -----------------------------------------------------

def random_model(rng: np.random.Generator, n_lambda: int) -> dict:
    """Dirichlet(1) prior and uniform response probabilities over ``n_lambda`` values."""
    return {"prior": rng.dirichlet(np.ones(n_lambda)),
            "pa": rng.uniform(0.0, 1.0, size=(n_lambda, 2)),
            "pb": rng.uniform(0.0, 1.0, size=(n_lambda, 2))}


def deterministic_mixture(rng: np.random.Generator) -> dict:
    """All 16 deterministic strategies under a Dirichlet(1) prior."""
    signs = np.array([[(k >> bit) & 1 for bit in (3, 2, 1, 0)] for k in range(16)], dtype=float)
    plus = 1.0 - signs  # bit 0 means outcome +1 with certainty
    return {"prior": rng.dirichlet(np.ones(16)), "pa": plus[:, :2], "pb": plus[:, 2:]}


def model_json(model: dict, prior_a=None, prior_b=None) -> dict:
    entries = [{"label": f"l{k}", "prob": float(p),
                "pA_plus": {"a": float(model["pa"][k, 0]), "a'": float(model["pa"][k, 1])},
                "pB_plus": {"b": float(model["pb"][k, 0]), "b'": float(model["pb"][k, 1])}}
               for k, p in enumerate(model["prior"])]
    data = {"lambda": entries}
    if prior_a is not None:
        data["settingPriorA"] = {"a": float(prior_a), "a'": 1.0 - float(prior_a)}
    if prior_b is not None:
        data["settingPriorB"] = {"b": float(prior_b), "b'": 1.0 - float(prior_b)}
    return data


def model_from_json(data: dict) -> dict:
    entries = data["lambda"]
    return {"prior": np.array([e["prob"] for e in entries]),
            "pa": np.array([[e["pA_plus"]["a"], e["pA_plus"]["a'"]] for e in entries]),
            "pb": np.array([[e["pB_plus"]["b"], e["pB_plus"]["b'"]] for e in entries])}


def model_correlators(model: dict) -> np.ndarray:
    """E(x, y) = sum_k P(k) abar(x, k) bbar(y, k), independent of setting priors."""
    prior = model["prior"] / model["prior"].sum()
    abar, bbar = 2.0 * model["pa"] - 1.0, 2.0 * model["pb"] - 1.0
    return np.einsum("k,kx,ky->xy", prior, abar, bbar).reshape(4)


def deterministic_strategy_chsh(a: int, a_prime: int, b: int, b_prime: int) -> int:
    return a * b + a * b_prime + a_prime * b - a_prime * b_prime
