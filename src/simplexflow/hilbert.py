"""Complex chart, inner product, and exact unitary propagation.

States live in the chart psi_i = sqrt(rho_i) exp(i pi_i).  The inner product
is the standard sum conj(psi_i) phi_i, which the constant chart tensors
(G + i Omega)/2 reproduce; Hermitian kernels propagate states by the
matrix exponential exp(-i K tau), evaluated through the eigendecomposition so
the accuracy is uniform in tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .flows import (
    PHASE_FLOOR,
    TWO_PI,
    HamiltonianSpec,
    HermitianOperator,
    PhasePoint,
    poisson_bracket,
)
from .geometry import NORM_TOL, readonly


@dataclass(frozen=True)
class ComplexState:
    """A point in complex coordinates."""

    psi: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.psi, dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            raise DimensionError(f"psi must be a nonempty 1-d array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("psi has non-finite entries")
        if float(np.sum(np.abs(arr) ** 2)) == 0.0:
            raise ValueError("psi must have positive total weight")
        object.__setattr__(self, "psi", readonly(arr, dtype=complex))

    @property
    def n(self) -> int:
        return self.psi.size

    @property
    def rho_total(self) -> float:
        """Total weight sum |psi_i|^2."""
        return float(np.sum(np.abs(self.psi) ** 2))

    @property
    def is_normalized(self) -> bool:
        return abs(self.rho_total - 1.0) <= NORM_TOL


def to_complex(X: PhasePoint) -> ComplexState:
    """Chart map psi_i = sqrt(rho_i) exp(i pi_i); zero rows map to 0."""
    return ComplexState(np.sqrt(X.rho) * np.exp(1j * np.asarray(X.pi)))


def from_complex(state: ComplexState) -> tuple[PhasePoint, np.ndarray]:
    """Inverse chart: rho_i = |psi_i|^2 (the Born rule), pi_i = arg(psi_i) in
    [0, 2 pi).

    Components with |psi_i| < PHASE_FLOOR have no meaningful phase; they get
    pi_i = 0 and are marked True in the returned flag array.
    """
    psi = state.psi
    amplitude = np.abs(psi)
    rho = amplitude**2
    undefined = amplitude < PHASE_FLOOR
    pi = np.where(undefined, 0.0, np.mod(np.angle(psi), TWO_PI))
    return PhasePoint(rho, pi), readonly(undefined, dtype=bool)


def psi_tensors(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constant chart tensors (G, Omega, J), blocks ordered (psi, i conj(psi)).

    G = -i [[0, I], [I, 0]], Omega = [[0, I], [-I, 0]] (the same pattern as in
    real coordinates: the chart is a canonical transformation), and
    J = diag(i I, -i I) with J J = -identity exactly.
    """
    if n < 1:
        raise DimensionError(f"n must be >= 1, got {n}")
    eye = np.eye(n)
    zero = np.zeros((n, n))
    G = -1j * np.block([[zero, eye], [eye, zero]])
    omega = np.block([[zero, eye], [-eye, zero]])
    J = np.block([[1j * eye, zero], [zero, -1j * eye]])
    return readonly(G, dtype=complex), readonly(omega), readonly(J, dtype=complex)


def inner_product(psi: ComplexState, phi: ComplexState) -> complex:
    """<psi|phi> = sum conj(psi_i) phi_i, anti-linear in the first argument.

    Equal to the chart tensors (G + i Omega)/2 contracted with the coordinate
    pairs (psi, i conj(psi)) and (phi, i conj(phi)).
    """
    if psi.n != phi.n:
        raise DimensionError(f"states have dimensions {psi.n} and {phi.n}")
    return complex(np.vdot(psi.psi, phi.psi))


def propagate_unitary(K: HermitianOperator, psi0: ComplexState, tau: float) -> ComplexState:
    """exp(-i K tau) psi0 via the Hermitian eigendecomposition of K.

    Norm preserving and compositional: U(a) U(b) = U(a + b).  The
    decomposition is cached on K, so repeated calls with one operator share it.
    """
    if K.n != psi0.n:
        raise DimensionError(f"operator dimension {K.n} does not match state dimension {psi0.n}")
    w, V = K.eigh
    phases = np.exp(-1j * w * float(tau))
    return ComplexState(V @ (phases * (V.conj().T @ psi0.psi)))


def commutator_identity_check(
    U: HermitianOperator, V: HermitianOperator, psi: ComplexState
) -> tuple[float, float]:
    """Both sides of {U~, V~} = -i <psi|[U, V]|psi> at psi.

    The left side is the Poisson bracket of the induced bilinear Hamiltonians
    at the real-coordinate image of psi; the right side is real because the
    commutator of Hermitian operators is anti-Hermitian.  The two agree
    identically, so the difference is pure rounding.
    """
    point, _ = from_complex(psi)
    lhs = poisson_bracket(
        HamiltonianSpec(kernel=U.matrix), HamiltonianSpec(kernel=V.matrix), point
    )
    comm = U.matrix @ V.matrix - V.matrix @ U.matrix
    rhs = float((-1j * np.vdot(psi.psi, comm @ psi.psi)).real)
    return lhs, rhs


def superposition(c1: complex, psi1: ComplexState, c2: complex, psi2: ComplexState) -> ComplexState:
    """c1 psi1 + c2 psi2.

    The result carries its total weight in ``rho_total``; superposing
    normalized states generally leaves the normalized surface, so callers
    should inspect ``is_normalized`` before treating the result as a state on
    the simplex.
    """
    if psi1.n != psi2.n:
        raise DimensionError(f"states have dimensions {psi1.n} and {psi2.n}")
    return ComplexState(complex(c1) * psi1.psi + complex(c2) * psi2.psi)
