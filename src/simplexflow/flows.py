"""Hamiltonian functions and their flows on phase space.

A Hamiltonian is specified by a complex bilinear kernel acting through the
complex chart psi_i = sqrt(rho_i) exp(i pi_i), optional linear terms, a
constant, and an optional nonlinear perturbation from a small catalog.  The
value is evaluated from the spec as given.  Every derivative reads the
spec's psi-form (K, b, s), with dH/dconj(psi) = K psi + b + s |psi|^2 psi
for the real part H of the value: the gradient, the flow field and its
Jacobian follow from q = conj(psi) (K psi + b) + s rho^2 through the chart
rule, and the integrator steps dpsi/dtau = -i (K psi + b + s |psi|^2 psi)
directly, so no automatic differentiation is involved.

Flows are integrated with the implicit midpoint rule in the chart psi.  The
chart is canonical, so the step is symplectic in (rho, pi) as well; it conserves
sum(rho) = |psi|^2 and, without the nonlinear term, the energy exactly, and
rho_i = 0 is a regular point of it.  Momenta are circle-valued (each pi_i
matters only modulo 2 pi); values are stored as given and
`circle_difference` or `PhasePoint.wrapped_pi` reduce to a fundamental
domain when needed.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    NonFiniteError,
    NormalizationError,
    NotHermitianError,
    NotRealError,
)
from .geometry import NORM_TOL, as_square_matrix, as_vector, readonly, require_interior

TWO_PI = 2.0 * np.pi

#: Imaginary residue above which eval_hamiltonian raises NotRealError.  Looser
#: than the realness row's scenario.REALNESS_TOL: a kernel accepted within
#: HERMITIAN_TOL leaves up to about n * HERMITIAN_TOL / 2, which must not abort.
REAL_TOL = 1e-9

#: Elementwise tolerance for kernel Hermiticity and linear-term conjugacy.
HERMITIAN_TOL = 1e-12

#: Components with |psi_i| below this have no well-defined phase.
PHASE_FLOOR = 1e-15

NONLINEAR_TAGS = ("none", "sum_rho_squared", "quartic_psi")


def _wrap(angles) -> np.ndarray:
    """Angles reduced to [0, 2 pi).  np.mod rounds an angle just below zero
    up to 2 pi itself, which is mapped to 0."""
    wrapped = np.mod(angles, TWO_PI)
    return np.where(wrapped == TWO_PI, 0.0, wrapped)


def circle_difference(a, b) -> np.ndarray:
    """Componentwise a - b reduced to (-pi, pi]."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return np.pi - _wrap(np.pi - d)


@dataclass(frozen=True)
class PhasePoint:
    """A phase-space point (rho, pi).

    rho is componentwise nonnegative; interior operations additionally
    require rho_i >= EPS_FLOOR.  pi is circle-valued: each component is
    meaningful modulo 2 pi, and values are kept exactly as given so that
    momentum shifts compose without wrap artifacts.
    """

    rho: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        rho = as_vector(self.rho, "rho")
        pi = as_vector(self.pi, "pi")
        if rho.size != pi.size:
            raise DimensionError(f"rho has length {rho.size} but pi has length {pi.size}")
        if float(np.min(rho)) < 0.0:
            raise ValueError("rho must be componentwise nonnegative")
        object.__setattr__(self, "rho", readonly(rho))
        object.__setattr__(self, "pi", readonly(pi))

    @property
    def n(self) -> int:
        return self.rho.size

    @property
    def rho_total(self) -> float:
        return float(self.rho.sum())

    @property
    def is_normalized(self) -> bool:
        return abs(self.rho_total - 1.0) <= NORM_TOL

    @property
    def coordinates(self) -> np.ndarray:
        """The 2n vector (rho_1 .. rho_n, pi_1 .. pi_n)."""
        return np.concatenate([self.rho, self.pi])

    def wrapped_pi(self) -> np.ndarray:
        """pi reduced to [0, 2 pi)."""
        return _wrap(self.pi)


def _hermitian_deviation(m: np.ndarray) -> float:
    """Largest elementwise |m - m^H|, formed as |conj(m) - m^T| (the same
    moduli, transposed), which is several times faster."""
    return float(np.max(np.abs(m.conj() - m.T)))


@dataclass(frozen=True)
class HamiltonianSpec:
    """A Hamiltonian function on phase space.

    value(psi) = conj(psi) . kernel . psi + conj(psi) . linear_bra
                 + linear_ket . psi + constant + nonlinear(rho)

    The value is real at every point exactly when the kernel is Hermitian and
    linear_ket = conj(linear_bra); only such specs generate flows.  The
    nonlinear catalog holds two tags for one and the same gauge-invariant
    function: ``sum_rho_squared`` evaluates strength * sum(rho_i^2) from the
    real coordinates while ``quartic_psi`` evaluates strength * sum(|psi_i|^4)
    through the chart.  Either one is Hamiltonian but not metric preserving,
    which makes it the standard negative control.
    """

    kernel: np.ndarray
    linear_bra: np.ndarray | None = None
    linear_ket: np.ndarray | None = None
    constant: float = 0.0
    nonlinear: str = "none"
    nonlinear_strength: float = 1.0

    def __post_init__(self):
        kernel = as_square_matrix(self.kernel, "kernel")
        object.__setattr__(self, "kernel", readonly(kernel, dtype=complex))
        for name in ("linear_bra", "linear_ket"):
            vec = getattr(self, name)
            if vec is not None:
                vec = as_vector(vec, name, kernel.shape[0], dtype=complex)
                object.__setattr__(self, name, readonly(vec, dtype=complex))
        if self.nonlinear not in NONLINEAR_TAGS:
            raise ValueError(f"unknown nonlinear tag {self.nonlinear!r}, expected one of {NONLINEAR_TAGS}")
        if not np.isfinite(self.constant) or not np.isfinite(self.nonlinear_strength):
            raise ValueError("constant and nonlinear_strength must be finite")
        object.__setattr__(self, "constant", float(self.constant))
        object.__setattr__(self, "nonlinear_strength", float(self.nonlinear_strength))

    @property
    def n(self) -> int:
        """Dimension, the size of the kernel."""
        return self.kernel.shape[0]

    @property
    def is_pure_kernel(self) -> bool:
        """Whether the spec is a kernel plus at most a constant."""
        return self.linear_bra is None and self.linear_ket is None and self.nonlinear == "none"

    @cached_property
    def realness_deviations(self) -> tuple[float, float]:
        """Largest elementwise |kernel - kernel^H| and |linear_ket - conj(linear_bra)|.

        The value is real at every point when both vanish; a missing linear
        term counts as zero.
        """
        bra = 0.0 if self.linear_bra is None else self.linear_bra
        ket = 0.0 if self.linear_ket is None else self.linear_ket
        return _hermitian_deviation(self.kernel), float(np.max(np.abs(ket - np.conj(bra))))

    def is_valid_real(self) -> bool:
        """Whether the value is real for every point, within HERMITIAN_TOL."""
        return max(self.realness_deviations) <= HERMITIAN_TOL

    @cached_property
    def psi_form(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(K, b, s) with dH/dconj(psi) = K psi + b + s |psi|^2 psi for the real part H.

        K = (kernel + kernel^H)/2 is the n x n Hermitian part of the kernel
        (the kernel itself when it is exactly Hermitian), b = linear_bra/2 +
        conj(linear_ket)/2 is an n-vector, a missing linear term counting as
        zero, and s = 2 nonlinear_strength for either catalog tag (0 without one).
        """
        K = self.kernel
        if self.realness_deviations[0]:
            K = readonly(0.5 * (K + K.conj().T), dtype=complex)
        b = np.zeros(self.n, dtype=complex)
        if self.linear_bra is not None:
            b = b + 0.5 * self.linear_bra
        if self.linear_ket is not None:
            b = b + 0.5 * np.conj(self.linear_ket)
        b.setflags(write=False)
        s = 0.0 if self.nonlinear == "none" else 2.0 * self.nonlinear_strength
        return K, b, s

    @cached_property
    def hermitian_part(self) -> HermitianOperator:
        """K of the psi-form as a HermitianOperator, built once, so every
        user of the spec shares one eigendecomposition."""
        return HermitianOperator(self.psi_form[0])

    def _jacobian_at(self, X: PhasePoint) -> np.ndarray:
        """Read-only field Jacobian at X.  The spec keeps the one of its latest
        point (matched by identity) until that point is freed, so checks
        evaluated in turn at one point share it and no more than one is held."""
        point, jac = self.__dict__.get("_last_jacobian", (None, None))
        if point is None or point() is not X:
            jac = _field_jacobian(self, X.rho, X.pi)
            jac.setflags(write=False)
            memo = self.__dict__
            memo["_last_jacobian"] = (weakref.ref(X, lambda _: memo.pop("_last_jacobian", None)), jac)
        return jac

    def require_valid_real(self) -> None:
        if not self.is_valid_real():
            raise NotRealError(
                "Hamiltonian is not real-valued: the kernel must be Hermitian "
                "and linear_ket must equal conj(linear_bra)"
            )

    @classmethod
    def normalization(cls, n: int) -> "HamiltonianSpec":
        """The constraint function 1 - sum(rho); its flow shifts every
        momentum by the flow parameter and leaves rho fixed."""
        return cls(kernel=-np.eye(n, dtype=complex), constant=1.0)


@dataclass(frozen=True)
class HermitianOperator:
    """A complex square matrix equal to its conjugate transpose."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_square_matrix(self.matrix, "matrix")
        deviation = _hermitian_deviation(m)
        if deviation > HERMITIAN_TOL:
            raise NotHermitianError(f"matrix deviates from Hermitian by {deviation:.3e}")
        object.__setattr__(self, "matrix", readonly(m, dtype=complex))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues w and unitary eigenvectors V with matrix = V diag(w) V^H,
        computed once per operator."""
        w, V = np.linalg.eigh(self.matrix)
        return readonly(w), readonly(V, dtype=complex)


@dataclass(frozen=True)
class Trajectory:
    """Flow samples as arrays, one row per sample, with conservation diagnostics.

    ``psi`` holds the integrated states and ``rho`` = |psi|^2 is derived from
    it.  ``pi`` is continuous from the initial momenta: each row adds the
    phase increment of psi to the previous row, and a component with
    |psi_i| < PHASE_FLOOR keeps its last value.  ``sweeps`` counts the
    fixed-point sweeps of each step (zeros when omitted, and for affine steps).
    """

    parameter_values: np.ndarray  # (m,)
    psi: np.ndarray               # (m, n) complex
    pi: np.ndarray                # (m, n)
    norm_defects: np.ndarray      # |sum(rho) - 1| per sample
    energy_defects: np.ndarray    # |H(X_k) - H(X_0)| per sample
    sweeps: np.ndarray | None = None  # (m - 1,) int, per step

    def __post_init__(self):
        taus = as_vector(self.parameter_values, "parameter_values")
        psi = np.asarray(self.psi, dtype=complex)
        pi = np.asarray(self.pi, dtype=float)
        norms = as_vector(self.norm_defects, "norm_defects")
        energies = as_vector(self.energy_defects, "energy_defects")
        if psi.ndim != 2 or psi.shape != pi.shape:
            raise DimensionError(f"psi {psi.shape} and pi {pi.shape} must be equal (m, n) arrays")
        sweeps = np.zeros(taus.size - 1, dtype=int) if self.sweeps is None else np.asarray(self.sweeps)
        if not (psi.shape[0] == taus.size == norms.size == energies.size == sweeps.size + 1):
            raise DimensionError("trajectory fields have mismatched lengths")
        if taus.size > 1 and np.min(np.diff(taus)) <= 0.0:
            raise ValueError("parameter values must be strictly increasing")
        for name, values in (("psi", psi), ("pi", pi)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} has non-finite entries")
        object.__setattr__(self, "parameter_values", readonly(taus))
        object.__setattr__(self, "psi", readonly(psi, dtype=complex))
        object.__setattr__(self, "pi", readonly(pi))
        object.__setattr__(self, "norm_defects", readonly(norms))
        object.__setattr__(self, "energy_defects", readonly(energies))
        object.__setattr__(self, "sweeps", readonly(sweeps, dtype=int))

    def __len__(self) -> int:
        return self.parameter_values.size

    @property
    def n(self) -> int:
        return self.psi.shape[1]

    @cached_property
    def rho(self) -> np.ndarray:
        """|psi|^2 per sample, computed on first use."""
        rho = _weights(self.psi)
        rho.setflags(write=False)
        return rho

    def point(self, k: int) -> PhasePoint:
        """Sample k as a phase-space point."""
        return PhasePoint(self.rho[k], self.pi[k])


def _psi_from(rho: np.ndarray, pi: np.ndarray) -> np.ndarray:
    return np.sqrt(rho) * np.exp(1j * pi)


def _weights(psi: np.ndarray) -> np.ndarray:
    """|psi_i|^2 elementwise."""
    return psi.real**2 + psi.imag**2


def _check_dim(spec: HamiltonianSpec, n: int) -> None:
    if spec.n != n:
        raise DimensionError(f"spec has dimension {spec.n} but the point has dimension {n}")


def _values(spec: HamiltonianSpec, psi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Complex values of the Hamiltonian at the states along the last axis of
    ``psi``, with ``rho`` the matching weights."""
    value = spec.constant + np.sum(np.conj(psi) * (psi @ spec.kernel.T), axis=-1)
    if spec.linear_bra is not None:
        value += np.conj(psi) @ spec.linear_bra
    if spec.linear_ket is not None:
        value += psi @ spec.linear_ket
    if spec.nonlinear == "sum_rho_squared":
        value += spec.nonlinear_strength * np.sum(rho * rho, axis=-1)
    elif spec.nonlinear == "quartic_psi":
        dens = (np.conj(psi) * psi).real
        value += spec.nonlinear_strength * np.sum(dens * dens, axis=-1)
    return value


def _eval_complex(spec: HamiltonianSpec, rho: np.ndarray, pi: np.ndarray) -> complex:
    return complex(_values(spec, _psi_from(rho, pi), rho))


def _grad_arrays(spec: HamiltonianSpec, rho: np.ndarray, pi: np.ndarray):
    """(dH/drho, dH/dpi) = (Re q / rho, 2 Im q) of the real part H of the
    Hamiltonian, with q = conj(psi) (K psi + b) + s rho^2 from the psi-form.
    Requires the interior.
    """
    require_interior(rho)
    _check_dim(spec, rho.size)
    K, b, s = spec.psi_form
    psi = _psi_from(rho, pi)
    return _chart_gradient(psi, rho, K @ psi + b, s)


def _chart_gradient(psi: np.ndarray, rho: np.ndarray, f, s: float):
    """(Re q / rho, 2 Im q) for q = conj(psi) f + s rho^2, elementwise.  q is
    formed in real arithmetic, so a fused multiply-add cannot leave a rounding
    residue where the products cancel exactly."""
    re_q = psi.real * np.real(f) + psi.imag * np.imag(f) + s * rho * rho
    im_q = psi.real * np.imag(f) - psi.imag * np.real(f)
    return re_q / rho, 2.0 * im_q


def _field_arrays(spec: HamiltonianSpec, rho: np.ndarray, pi: np.ndarray):
    """Hamilton's equations: (drho/dtau, dpi/dtau) = (dH/dpi, -dH/drho)."""
    dr, dp = _grad_arrays(spec, rho, pi)
    return dp, -dr


def _field_jacobian(spec: HamiltonianSpec, rho: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Jacobian DV[a, b] = dV_a / dx_b of the flow field V = (2 Im q, -Re q / rho).

    With m_ab = conj(psi_a) K_ab psi_b and p = q - s rho^2, the chart rule
    dpsi/drho = psi / (2 rho), dpsi/dpi = i psi gives
    dq_a/drho_c = m_ac / (2 rho_c) + delta_ac (p_a / (2 rho_a) + 2 s rho_a) and
    dq_a/dpi_c = i m_ac - i delta_ac p_a.  Each block is the derivative of its
    own field component, not a block of one symmetric Hessian, so the
    symmetry the symplectic residual compares is measured, not assumed.
    Requires the interior.
    """
    require_interior(rho)
    _check_dim(spec, rho.size)
    K, b, s = spec.psi_form
    n = rho.size
    psi = _psi_from(rho, pi)
    diag = np.diag_indices(n)
    m = np.conj(psi)[:, None] * K * psi
    p = m.sum(axis=1) + np.conj(psi) * b
    q_rho = m * (0.5 / rho)
    q_rho[diag] += p * (0.5 / rho) + 2.0 * s * rho
    q_pi = 1j * m
    q_pi[diag] -= 1j * p
    dr_rho = q_rho.real / rho[:, None]  # d(Re q_a / rho_a) / drho_c
    dr_rho[diag] -= (p.real + s * rho * rho) / rho**2
    return np.block([[2.0 * q_rho.imag, 2.0 * q_pi.imag], [-dr_rho, -q_pi.real / rho[:, None]]])


def eval_hamiltonian(spec: HamiltonianSpec, X: PhasePoint) -> tuple[float, float]:
    """Value of the Hamiltonian at X as (real part, imaginary residue).

    The residue stays below 1e-12 for any real-valued spec; it exceeds the
    NotRealError threshold only for ill-formed specs such as a non-Hermitian
    kernel.
    """
    require_interior(X.rho)
    _check_dim(spec, X.n)
    value = _eval_complex(spec, X.rho, X.pi)
    residue = abs(value.imag)
    if residue > REAL_TOL:
        raise NotRealError(f"Hamiltonian value has imaginary residue {residue:.3e}")
    return float(value.real), float(residue)


def gradient(spec: HamiltonianSpec, X: PhasePoint) -> tuple[np.ndarray, np.ndarray]:
    """(dH/drho, dH/dpi) of the real part H of the Hamiltonian at X."""
    return _grad_arrays(spec, X.rho, X.pi)


def hamiltonian_vector_field(spec: HamiltonianSpec, X: PhasePoint) -> tuple[np.ndarray, np.ndarray]:
    """The flow field (drho/dtau, dpi/dtau) = (dH/dpi, -dH/drho) at X."""
    spec.require_valid_real()
    return _field_arrays(spec, X.rho, X.pi)


def bracket_from_gradients(grad_a, grad_b) -> float:
    """Poisson bracket contraction of two gradient pairs (dF/drho, dF/dpi)."""
    dra, dpa = grad_a
    drb, dpb = grad_b
    return float(np.dot(dra, dpb) - np.dot(dpa, drb))


def poisson_bracket(spec_a: HamiltonianSpec, spec_b: HamiltonianSpec, X: PhasePoint) -> float:
    """{A, B} = sum_i (dA/drho_i dB/dpi_i - dA/dpi_i dB/drho_i) at X."""
    spec_a.require_valid_real()
    spec_b.require_valid_real()
    return bracket_from_gradients(gradient(spec_a, X), gradient(spec_b, X))


def check_normalization_generator(spec: HamiltonianSpec, X: PhasePoint) -> float:
    """d|rho|/dtau along the flow, i.e. sum_i dH/dpi_i at X.

    Zero (to rounding) exactly for gauge-invariant specs: a pure Hermitian
    kernel, with or without the nonlinear catalog terms.
    """
    _, dp = _grad_arrays(spec, X.rho, X.pi)
    return float(dp.sum())


def _count(name: str, value) -> int:
    """``value`` as an int; ValueError unless it is an integer >= 1."""
    try:
        valid = int(value) == value and value >= 1
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


#: Weights of the quartic extrapolation 4 K_-1 - 6 K_-2 + 4 K_-3 - K_-4 of the
#: last four converged kicks, at a step k with k % 4 == j in row j.  The kicks
#: sit in a ring whose row r holds the latest step k' with k' % 4 == r.
_EXTRAPOLATION = np.array([
    [-1.0, 4.0, -6.0, 4.0],
    [4.0, -1.0, 4.0, -6.0],
    [-6.0, 4.0, -1.0, 4.0],
    [4.0, -6.0, 4.0, -1.0],
], dtype=complex)


def integrate_midpoint(
    spec: HamiltonianSpec,
    X0: PhasePoint,
    h: float,
    steps: int,
    *,
    tol: float = 1e-13,
    max_iter: int = 50,
) -> Trajectory:
    """Integrate the flow of ``spec`` from ``X0`` with the implicit midpoint rule in psi.

    In the chart the flow is dpsi/dtau = -i (K psi + b + g(psi)), with
    (K, b, s) the spec's psi-form and g(psi) = s |psi|^2 psi.  The step
    psi1 = psi0 + h f((psi0 + psi1)/2) then reads
    psi1 = M psi0 + c + B g((psi0 + psi1)/2) with the Cayley map
    M = (I + i h K/2)^-1 (I - i h K/2), B = -i h (I + i h K/2)^-1 and c = B b,
    formed from the eigendecomposition of K (``spec.hermitian_part``), which
    keeps M unitary to rounding.  Without a nonlinear term the step is that
    affine map.  With one, the kick B g(...) is solved by fixed-point
    iteration.  The first four steps start it from the explicit predictor,
    the kick at psi0; every later step starts from the quartic extrapolation
    4 K_-1 - 6 K_-2 + 4 K_-3 - K_-4 of the last four converged kicks, which
    usually leaves one sweep per step.  ConvergenceError is raised when an
    update is still above ``tol`` after ``max_iter`` sweeps, or at the first
    sweep whose update is not finite.  NonFiniteError is raised when the last
    sample time steps * h, the step coefficients, or the state or its defects
    at some step, overflow.
    rho_i = 0 is a regular point of the chart, so a flow passes through the
    simplex boundary.  Records the normalization defect |sum(rho) - 1| and
    the energy defect |H(X_k) - H(X_0)| at every sample, and the sweeps of
    every step.
    """
    spec.require_valid_real()
    if not np.isfinite(h) or h <= 0.0:
        raise ValueError(f"h must be positive and finite, got {h!r}")
    steps = _count("steps", steps)
    max_iter = _count("max_iter", max_iter)
    if not math.isfinite(tol) or tol < 0.0:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    if not math.isfinite(steps * h):
        raise NonFiniteError(f"midpoint sample times are not finite: {steps} steps of h = {h!r}")
    n = X0.n
    _check_dim(spec, n)
    _, b, s = spec.psi_form
    w, V = spec.hermitian_part.eigh
    # Overflow is caught below, as NonFiniteError or ConvergenceError.
    with np.errstate(over="ignore", invalid="ignore"):
        # In the eigenbasis of K, phi = V^H psi, M and B are the diagonals
        # `rotation` and `gain` and c is `shift`, so a step is elementwise and
        # the rounding of M does not accumulate along the trajectory the way a
        # dense matrix product's would.
        denom = 1.0 + 0.5j * h * w
        rotation = (1.0 - 0.5j * h * w) / denom
        gain = -1j * h / denom
        V_h = V.conj().T
        shift = gain * (V_h @ b)
        cubic_gain = s * gain
        if not np.isfinite(np.concatenate([rotation, gain, shift, cubic_gain])).all():
            raise NonFiniteError(f"midpoint step coefficients are not finite at h = {h!r}")

        psi0 = _psi_from(X0.rho, X0.pi)
        phi = np.empty((steps + 1, n), dtype=complex)
        phi[0] = V_h @ psi0
        sweeps = np.zeros(steps, dtype=int)
        if s:
            # Work vectors of the solve, and the ring of the last four kicks.
            z, update, psi_mid, cubic = np.empty((4, n), dtype=complex)
            weights, squares = np.empty((2, n))
            kicks = np.empty((4, n), dtype=complex)

            def kick(out, phi_mid):
                """out = B g(psi) in the eigenbasis, for psi = V phi_mid; out may be phi_mid."""
                np.dot(V, phi_mid, out=psi_mid)
                np.multiply(psi_mid.real, psi_mid.real, weights)
                np.multiply(psi_mid.imag, psi_mid.imag, squares)
                np.add(weights, squares, weights)
                np.multiply(weights, psi_mid, cubic)
                np.dot(V_h, cubic, out=out)
                np.multiply(cubic_gain, out, out)

        for k in range(steps):
            start, affine = phi[k], phi[k + 1]
            np.multiply(rotation, start, affine)
            np.add(affine, shift, affine)
            if not s:
                continue
            if k < 4:
                kick(z, start)
            else:
                np.dot(_EXTRAPOLATION[k % 4], kicks, out=z)
            np.add(affine, z, z)
            for sweep in range(1, max_iter + 1):
                np.add(start, z, update)
                np.multiply(0.5, update, update)
                kick(update, update)
                np.add(affine, update, update)
                np.subtract(update, z, psi_mid)
                delta = float(np.abs(psi_mid, weights).max())
                z, update = update, z
                if delta <= tol:
                    break
                if not math.isfinite(delta):
                    raise ConvergenceError(f"midpoint fixed point diverged at step {k + 1}")
            else:
                raise ConvergenceError(
                    f"midpoint fixed point missed tolerance {tol:g} after {max_iter} sweeps"
                    f" at step {k + 1}"
                )
            sweeps[k] = sweep
            np.subtract(z, affine, kicks[k % 4])
            np.copyto(affine, z)
        psi = phi @ V.T
        psi[0] = psi0
        rho = _weights(psi)
        energy = _values(spec, psi, rho).real
        norm_defects = np.abs(rho.sum(axis=1) - 1.0)
        energy_defects = np.abs(energy - energy[0])
    # A non-finite psi makes its norm defect non-finite too.
    finite = np.isfinite(norm_defects) & np.isfinite(energy_defects)
    if not finite.all():
        raise NonFiniteError(f"midpoint state is not finite at step {int(np.argmin(finite))}")
    return Trajectory(
        parameter_values=np.arange(steps + 1) * h,
        psi=psi,
        pi=_continuous_phase(psi, X0.pi),
        norm_defects=norm_defects,
        energy_defects=energy_defects,
        sweeps=sweeps,
    )


def _continuous_phase(psi: np.ndarray, pi0: np.ndarray) -> np.ndarray:
    """Momenta along the rows of ``psi``, continuous from ``pi0``.

    Each row is arg(psi) moved by a multiple of 2 pi to within pi of the row
    before; a component with |psi_i| < PHASE_FLOOR has no phase and keeps
    its last value.
    """
    phase = np.angle(psi)
    phase[0] = pi0
    # Row of the latest sample with a defined phase, per component; row 0
    # holds pi0, so it serves where no phase has been defined yet.
    rows = np.where(np.abs(psi) >= PHASE_FLOOR, np.arange(psi.shape[0])[:, None], 0)
    np.maximum.accumulate(rows, axis=0, out=rows)
    return np.unwrap(np.take_along_axis(phase, rows, axis=0), axis=0)


def gauge_canonicalize(X: PhasePoint) -> PhasePoint:
    """Pick the gauge representative with zero weighted momentum mean.

    Shifts pi by the constant sum(rho_i pi_i), the same mean the ray metric
    minimizer removes.  Idempotent; requires a normalized point.
    """
    if not X.is_normalized:
        raise NormalizationError(f"point must be normalized, sum(rho) = {X.rho_total!r}")
    mean = float(X.rho @ X.pi)
    if mean == 0.0:
        return X
    return PhasePoint(X.rho, X.pi - mean)
