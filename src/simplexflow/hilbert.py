"""Complex chart, inner product, and exact unitary propagation.

States live in the chart psi_i = sqrt(rho_i) exp(i pi_i).  The inner product
is the standard sum conj(psi_i) phi_i, which the constant chart tensors
(G + i Omega)/2 reproduce; Hermitian kernels propagate states by the
matrix exponential exp(-i K tau), evaluated through the eigendecomposition so
the accuracy is uniform in tau.  The bracket identity
{U~, V~} = -i <psi|[U, V]|psi> reads U and V only through U psi and V psi,
so both its sides take O(n), and it is evaluated for a stack of states at
once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .flows import (
    PHASE_FLOOR,
    HamiltonianSpec,
    PhasePoint,
    _chart_gradient,
    _psi_from,
    _weights,
    _wrap,
)
from .geometry import NORM_TOL, _row_dot, as_rows, as_vector, readonly, require_interior


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
    return ComplexState(_psi_from(X.rho, X.pi))


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
    pi = np.where(undefined, 0.0, _wrap(np.angle(psi)))
    return PhasePoint(rho, pi), readonly(undefined, dtype=bool)


def inner_product(psi: ComplexState, phi: ComplexState) -> complex:
    """<psi|phi> = sum conj(psi_i) phi_i, anti-linear in the first argument.

    Equal to the chart tensors (G + i Omega)/2 contracted with the coordinate
    pairs (psi, i conj(psi)) and (phi, i conj(phi)).
    """
    if psi.n != phi.n:
        raise DimensionError(f"states have dimensions {psi.n} and {phi.n}")
    return complex(np.vdot(psi.psi, phi.psi))


def propagate_unitary(K: HamiltonianSpec, psi0: ComplexState, tau: float) -> ComplexState:
    """exp(-i K tau) psi0 for the psi-form K of a real-valued spec (else
    NotRealError), via ``K.eigh``; linear and nonlinear terms are not read.

    Norm preserving and compositional: U(a) U(b) = U(a + b).  The
    decomposition is cached on the spec, so its calls and its integrator share it.
    """
    K.require_valid_real()
    if K.n != psi0.n:
        raise DimensionError(f"operator dimension {K.n} does not match state dimension {psi0.n}")
    w, V = K.eigh
    phases = np.exp(-1j * w * float(tau))
    return ComplexState(V @ (phases * (V.conj().T @ psi0.psi)))


def commutator_identity_check(u_psi, v_psi, psi):
    """Both sides of {U~, V~} = -i <psi|[U, V]|psi> at psi for Hermitian U
    and V, given as their images ``u_psi`` = U psi and ``v_psi`` = V psi.

    ``psi`` holds complex rows (..., n), one state per row, and the images
    are rows of the same shape; the sides are arrays over the leading axes,
    floats for a single n-vector state.  The left side is the (rho, pi)
    Poisson bracket of U~ = <psi|U|psi> and V~ from the chart gradients of
    q = conj(psi) U psi, with rho = |psi|^2.  The right side is real because
    [U, V] is anti-Hermitian: with z = <U psi|V psi> it is
    -i (z - conj(z)) = 2 Im z.  The two agree identically, so the difference
    is pure rounding.  Requires the interior.
    """
    psi = as_rows(psi, "psi", dtype=complex)
    u_psi = as_rows(u_psi, "u_psi", psi.shape, dtype=complex)
    v_psi = as_rows(v_psi, "v_psi", psi.shape, dtype=complex)
    rho = _weights(psi)
    require_interior(rho)
    (dr_u, dp_u), (dr_v, dp_v) = (_chart_gradient(psi, rho, w) for w in (u_psi, v_psi))
    return _row_dot(dr_u, dp_v) - _row_dot(dp_u, dr_v), 2.0 * _row_dot(u_psi.conj(), v_psi).imag
