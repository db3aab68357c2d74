"""Complex chart, inner product, and exact unitary propagation.

States live in the chart psi_i = sqrt(rho_i) exp(i pi_i).  The inner product
is the standard sum conj(psi_i) phi_i, which the constant chart tensors
(G + i Omega)/2 reproduce; Hermitian kernels propagate states by the
matrix exponential exp(-i K tau), evaluated through the eigendecomposition so
the accuracy is uniform in tau.  The bracket identity
{U~, V~} = -i <psi|[U, V]|psi> compares the (rho, pi) Poisson bracket with
its right side 2 Im <U psi|V psi>, which needs no matrix product.
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
from .geometry import NORM_TOL, as_vector, readonly


@dataclass(frozen=True)
class ComplexState:
    """A point in complex coordinates."""

    psi: np.ndarray

    def __post_init__(self):
        arr = as_vector(self.psi, "psi", dtype=complex)
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
    U: HamiltonianSpec, V: HamiltonianSpec, psi: ComplexState
) -> tuple[float, float]:
    """Both sides of {U~, V~} = -i <psi|[U, V]|psi> at psi, for two
    pure-kernel Hamiltonians U~ = <psi|U|psi> and V~ = <psi|V|psi>.

    The left side is their Poisson bracket at the real-coordinate image of
    psi.  The right side is real because the commutator of Hermitian
    operators is anti-Hermitian: with z = <U psi|V psi> it is
    -i (z - conj(z)) = 2 Im z, two matrix-vector products with the kernels.
    The two agree identically, so the difference is pure rounding.
    """
    if not (U.is_pure_kernel and V.is_pure_kernel):
        raise ValueError("the commutator identity applies to pure-kernel Hamiltonians only")
    point, _ = from_complex(psi)
    lhs = poisson_bracket(U, V, point)
    rhs = 2.0 * float(np.vdot(U.kernel @ psi.psi, V.kernel @ psi.psi).imag)
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
