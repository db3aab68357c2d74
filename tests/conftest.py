import numpy as np
import pytest

from simplexflow import HamiltonianSpec, PhasePoint, hamiltonian_vector_field
from simplexflow.diagnostics import random_hermitian

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def spec_kinds(n, rng):
    """One spec of each kind at dimension n: a pure Hermitian kernel, the
    kernel with conjugate linear terms, and the kernel with either nonlinear
    catalog tag.  Returned as (label, spec) pairs."""
    kernel = random_hermitian(n, rng)
    bra = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return [
        ("pure", HamiltonianSpec(kernel=kernel)),
        ("linear", HamiltonianSpec(kernel=kernel, linear_bra=bra, linear_ket=np.conj(bra))),
        ("sum_rho_squared", HamiltonianSpec(kernel=kernel, nonlinear="sum_rho_squared",
                                            nonlinear_strength=0.7)),
        ("quartic_psi", HamiltonianSpec(kernel=kernel, nonlinear="quartic_psi", nonlinear_strength=1.3)),
    ]


def spec_field(spec):
    """The flow field of ``spec`` as a function of the 2n coordinates (rho, pi)."""
    return lambda x: np.concatenate(hamiltonian_vector_field(spec, PhasePoint(*np.split(x, 2))))


def lie_derivative(field_fn, tensor_fn, x, fd_step: float = 1e-4, *, richardson: bool = True) -> np.ndarray:
    """Lie derivative of a covariant 2-tensor along a vector field, by finite differences.

    (L_V T)_ab = V^c d_c T_ab + T_cb d_a V^c + T_ac d_b V^c, with every
    derivative taken by central differences.  With ``richardson`` the h and
    h/2 evaluations are combined to cancel the quadratic truncation term.
    Costs 4 (2n) tensor and field evaluations and a dense (2n)^3 array, so it
    serves as the reference oracle for the closed forms at small n.
    """
    if not (1e-6 <= fd_step <= 1e-3):
        raise ValueError(f"fd_step must lie in [1e-6, 1e-3], got {fd_step:g}")
    x = np.asarray(x, dtype=float)

    def single(h: float) -> np.ndarray:
        m = x.size
        T = np.asarray(tensor_fn(x), dtype=float)
        V = np.asarray(field_fn(x), dtype=float)
        dT = np.empty((m, m, m))
        dV = np.empty((m, m))
        for c in range(m):
            e = np.zeros(m)
            e[c] = h
            dT[c] = (np.asarray(tensor_fn(x + e)) - np.asarray(tensor_fn(x - e))) / (2.0 * h)
            dV[c] = (np.asarray(field_fn(x + e)) - np.asarray(field_fn(x - e))) / (2.0 * h)
        return np.tensordot(V, dT, axes=1) + dV @ T + T @ dV.T

    if richardson:
        return (4.0 * single(0.5 * fd_step) - single(fd_step)) / 3.0
    return single(fd_step)


def psi_tensors(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constant chart tensors (G, Omega, J), blocks ordered (psi, i conj(psi)).

    G = -i [[0, I], [I, 0]], Omega = [[0, I], [-I, 0]] (the same pattern as in
    real coordinates: the chart is a canonical transformation), and
    J = diag(i I, -i I) with J J = -identity exactly.
    """
    eye = np.eye(n)
    zero = np.zeros((n, n))
    G = -1j * np.block([[zero, eye], [eye, zero]])
    omega = np.block([[zero, eye], [-eye, zero]])
    J = np.block([[1j * eye, zero], [zero, -1j * eye]])
    return G, omega, J


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
