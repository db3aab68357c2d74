"""Hamiltonian functions and their flows on phase space.

A Hamiltonian is specified by a complex bilinear kernel acting through the
complex chart psi_i = sqrt(rho_i) exp(i pi_i), optional linear terms, a
constant, and an optional nonlinear perturbation from a small catalog.  The
value is evaluated from the spec as given.  `_psi_field` reads the spec's psi-form
(K, b, s) for w = dH/dconj(psi) = K psi + b + s |psi|^2 psi, H the real part of the
value, and its two Wirtinger derivatives.  One chart transform, which reads no K, b
or s, makes the gradient, the flow field and its Jacobian of them; the integrator
steps dpsi/dtau = -i w directly.  No automatic differentiation is involved.

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

#: Largest (steps + 1) x n state entries that one integration may hold, a
#: clause of the step rule `_step_problems`, which `integrate_midpoint` and
#: the config (`integrator.steps` and each `convergence` rung) apply.  At 16
#: bytes per complex entry, one complex (steps + 1) x n array takes at most
#: 512 MiB.  An integration's peak RSS is about 7.5 such arrays (measured at
#: n = 128 for 2,000 to 16,000 steps), so about 3.8 GiB at the bound; the
#: largest benchmark run has 64,128 entries.
MAX_TRAJECTORY_ENTRIES = 2**25

#: Fixed-point update at which the nonlinear midpoint solve stops, and the
#: sweeps one step may take before ConvergenceError.
MIDPOINT_TOL = 1e-13
MIDPOINT_MAX_SWEEPS = 50


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
    which makes it the standard negative control.  The linear terms are
    read-only n-vectors, zeros when omitted.
    """

    kernel: np.ndarray
    linear_bra: np.ndarray = None
    linear_ket: np.ndarray = None
    constant: float = 0.0
    nonlinear: str = "none"
    nonlinear_strength: float = 1.0

    def __post_init__(self):
        kernel = as_square_matrix(self.kernel, "kernel")
        object.__setattr__(self, "kernel", readonly(kernel, dtype=complex))
        n = kernel.shape[0]
        for name in ("linear_bra", "linear_ket"):
            vec = getattr(self, name)
            vec = np.zeros(n) if vec is None else as_vector(vec, name, n, dtype=complex)
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
        """Whether the flow is exp(-i K tau): both linear terms and s are zero,
        so the spec is a kernel plus at most a constant."""
        return not (self.linear_bra.any() or self.linear_ket.any() or self.psi_form[2])

    @cached_property
    def realness_deviations(self) -> tuple[float, float]:
        """Largest elementwise |kernel - kernel^H| and |linear_ket - conj(linear_bra)|.

        The value is real at every point when both vanish.
        """
        return (_hermitian_deviation(self.kernel),
                float(np.max(np.abs(self.linear_ket - np.conj(self.linear_bra)))))

    def is_valid_real(self) -> bool:
        """Whether the value is real for every point, within HERMITIAN_TOL."""
        return max(self.realness_deviations) <= HERMITIAN_TOL

    @cached_property
    def psi_form(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(K, b, s) with dH/dconj(psi) = K psi + b + s |psi|^2 psi for the real part H.

        K = (kernel + kernel^H)/2 is the n x n Hermitian part of the kernel
        (the kernel itself when it is exactly Hermitian), b = linear_bra/2 +
        conj(linear_ket)/2 is an n-vector, and s = 2 nonlinear_strength for
        either catalog tag (0 without one).
        """
        K = self.kernel
        if self.realness_deviations[0]:
            K = readonly(0.5 * (K + K.conj().T), dtype=complex)
        b = readonly(0.5 * self.linear_bra + 0.5 * np.conj(self.linear_ket), dtype=complex)
        s = 0.0 if self.nonlinear == "none" else 2.0 * self.nonlinear_strength
        return K, b, s

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues w and unitary eigenvectors V with K = V diag(w) V^H for
        the K of the psi-form, computed once per spec, so the integrator and
        the unitary propagator share one decomposition."""
        w, V = np.linalg.eigh(self.psi_form[0])
        return readonly(w), readonly(V, dtype=complex)

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

    def require_unitary_flow(self) -> None:
        """The unitary oracle's requirement: NotHermitianError for a kernel not Hermitian within
        HERMITIAN_TOL, ValueError for a nonzero linear term or nonlinear strength."""
        deviation = self.realness_deviations[0]
        if deviation > HERMITIAN_TOL:
            raise NotHermitianError(f"matrix deviates from Hermitian by {deviation:.3e}")
        if not self.is_pure_kernel:
            raise ValueError("a HermitianOperator has no linear or nonlinear terms")

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


class HermitianOperator(HamiltonianSpec):
    """The pure-kernel spec of a Hermitian matrix, built as
    HermitianOperator(matrix); its flow is exp(-i matrix tau).  Construction
    raises the errors of `HamiltonianSpec.require_unitary_flow`."""

    def __post_init__(self):
        super().__post_init__()
        self.require_unitary_flow()


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
    value += np.conj(psi) @ spec.linear_bra
    value += psi @ spec.linear_ket
    if spec.nonlinear == "sum_rho_squared":
        value += spec.nonlinear_strength * np.sum(rho * rho, axis=-1)
    elif spec.nonlinear == "quartic_psi":
        dens = (np.conj(psi) * psi).real
        value += spec.nonlinear_strength * np.sum(dens * dens, axis=-1)
    return value


def _eval_complex(spec: HamiltonianSpec, rho: np.ndarray, pi: np.ndarray) -> complex:
    return complex(_values(spec, _psi_from(rho, pi), rho))


def _psi_field(spec: HamiltonianSpec, rho: np.ndarray, pi: np.ndarray):
    """(psi, w, K, 2 s rho, s psi^2) at the interior point (rho, pi): w = dH/dconj(psi) =
    K psi + b + s rho psi from the psi-form (K, b, s) and its Wirtinger derivatives
    dw/dpsi = K + diag(2 s rho) and dw/dconj(psi) = diag(s psi^2), the diagonals as n-vectors."""
    require_interior(rho)
    _check_dim(spec, rho.size)
    K, b, s = spec.psi_form
    psi = _psi_from(rho, pi)
    return psi, K @ psi + b + s * rho * psi, K, 2.0 * s * rho, s * psi * psi


def _grad_arrays(spec: HamiltonianSpec, rho: np.ndarray, pi: np.ndarray):
    """(dH/drho, dH/dpi) of the real part H of the Hamiltonian.  Requires the interior."""
    psi, w, *_ = _psi_field(spec, rho, pi)
    return _chart_gradient(psi, rho, w)


def _field_jacobian(spec: HamiltonianSpec, rho: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Jacobian of the flow field of ``spec`` at (rho, pi).  Requires the interior."""
    psi, *derivatives = _psi_field(spec, rho, pi)
    return _chart_jacobian(psi, rho, *derivatives)


def _chart_gradient(psi: np.ndarray, rho: np.ndarray, w):
    """(Re q / rho, 2 Im q), q = conj(psi) w: the chart gradient of a real H with dH/dconj(psi) = w.
    q is formed in real arithmetic, so a fused multiply-add leaves no residue where products cancel."""
    re_q = psi.real * w.real + psi.imag * w.imag
    im_q = psi.real * w.imag - psi.imag * w.real
    return re_q / rho, 2.0 * im_q


def _chart_jacobian(psi: np.ndarray, rho: np.ndarray, w, dw_dpsi, dpsi_diag, dconj_diag) -> np.ndarray:
    """Jacobian DV[a, c] = dV_a / dx_c of the field V = (2 Im q, -Re q / rho), q = conj(psi) w,
    for a psi-field w with dw/dpsi = dw_dpsi + diag(dpsi_diag) and dw/dconj(psi) = diag(dconj_diag).
    With m_ac = conj(psi_a) (dw/dpsi)_ac psi_c and e_a = q_a + conj(psi_a)^2 dconj_diag_a, the chart
    rule gives dq_a/drho_c = (m_ac + delta_ac e_a) / (2 rho_c) and dq_a/dpi_c = i (m_ac - delta_ac e_a).
    Each block differentiates its own field component, so the symplectic residual measures symmetry."""
    n, diag = rho.size, np.diag_indices(rho.size)
    conj_psi = np.conj(psi)
    q = conj_psi * w
    e = q + conj_psi * conj_psi * dconj_diag
    m = conj_psi[:, None] * dw_dpsi * psi
    m[diag] += dpsi_diag * _weights(psi)
    q_rho = m * (0.5 / rho)
    q_rho[diag] += e * (0.5 / rho)
    m[diag] -= e  # dq/dpi = i m, so Im dq/dpi = Re m and Re dq/dpi = -Im m
    jac = np.empty((2 * n, 2 * n))
    np.multiply(q_rho.imag, 2.0, out=jac[:n, :n])
    np.multiply(m.real, 2.0, out=jac[:n, n:])
    np.divide(q_rho.real, -rho[:, None], out=jac[n:, :n])
    jac[n:, :n][diag] += q.real / rho**2
    np.divide(m.imag, rho[:, None], out=jac[n:, n:])
    return jac


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
    dr, dp = _grad_arrays(spec, X.rho, X.pi)
    return dp, -dr


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


def _is_number(value) -> bool:
    """Whether ``value`` is a Python or NumPy int or float, not a bool, that is finite as a float."""
    try:
        return (isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an int too large for a float
        return False


def _steps_bound(n: int) -> str:
    """The largest step count that MAX_TRAJECTORY_ENTRIES allows at dimension n, in words."""
    return f"MAX_TRAJECTORY_ENTRIES / n - 1 = {MAX_TRAJECTORY_ENTRIES // n - 1} at n = {n}"


def _step_problems(h, steps, n: int) -> list[str]:
    """The broken clauses of the step rule, worded for the config, which prefixes `integrator.`:
    h is a finite number > 0, steps an integer >= 1, neither a bool (NumPy scalars are numbers),
    and (steps + 1) * n is at most MAX_TRAJECTORY_ENTRIES."""
    problems = []
    if not (_is_number(h) and h > 0):
        problems.append(f"h must be a positive number, got {h!r}")
    if not isinstance(steps, (int, np.integer)) or isinstance(steps, bool) or steps < 1:
        problems.append(f"steps must be an integer >= 1, got {steps!r}")
    elif (int(steps) + 1) * n > MAX_TRAJECTORY_ENTRIES:
        problems.append(f"steps must be at most {_steps_bound(n)}, got {steps!r}")
    return problems


#: Weights of the quartic extrapolation 4 K_-1 - 6 K_-2 + 4 K_-3 - K_-4 of the
#: last four converged kicks, at a step k with k % 4 == j in row j.  The kicks
#: sit in a ring whose row r holds the latest step k' with k' % 4 == r.
_EXTRAPOLATION = np.array([
    [-1.0, 4.0, -6.0, 4.0],
    [4.0, -1.0, 4.0, -6.0],
    [-6.0, 4.0, -1.0, 4.0],
    [4.0, -6.0, 4.0, -1.0],
], dtype=complex)


def integrate_midpoint(spec: HamiltonianSpec, X0: PhasePoint, h: float, steps: int) -> Trajectory:
    """Integrate the flow of ``spec`` from ``X0`` with the implicit midpoint rule in psi.

    In the chart the flow is dpsi/dtau = -i (K psi + b + g(psi)), with
    (K, b, s) the spec's psi-form and g(psi) = s |psi|^2 psi.  The step
    psi1 = psi0 + h f((psi0 + psi1)/2) then reads
    psi1 = M psi0 + c + B g((psi0 + psi1)/2) with the Cayley map
    M = (I + i h K/2)^-1 (I - i h K/2), B = -i h (I + i h K/2)^-1 and c = B b,
    formed from the eigendecomposition of K (``spec.eigh``), which
    keeps M unitary to rounding.  Without a nonlinear term the step is that
    affine map.  With one, the kick B g(...) is solved by fixed-point
    iteration.  The first four steps start it from the explicit predictor,
    the kick at psi0; every later step starts from the quartic extrapolation
    4 K_-1 - 6 K_-2 + 4 K_-3 - K_-4 of the last four converged kicks, which
    usually leaves one sweep per step.  ConvergenceError is raised when an
    update is still above MIDPOINT_TOL after MIDPOINT_MAX_SWEEPS sweeps, or at
    the first sweep whose update is not finite.  NonFiniteError is raised
    when the last sample time steps * h, the step coefficients, or the state
    or its defects at some step, overflow.  ValueError is raised, before
    anything is allocated, when h and steps break the step rule of
    `_step_problems`, with its words.
    rho_i = 0 is a regular point of the chart, so a flow passes through the
    simplex boundary.  Records the normalization defect |sum(rho) - 1| and
    the energy defect |H(X_k) - H(X_0)| at every sample, and the sweeps of
    every step.
    """
    spec.require_valid_real()
    n = X0.n
    _check_dim(spec, n)
    if problems := _step_problems(h, steps, n):
        raise ValueError("; ".join(problems))
    steps = int(steps)
    if not math.isfinite(steps * h):
        raise NonFiniteError(f"midpoint sample times are not finite: {steps} steps of h = {h!r}")
    _, b, s = spec.psi_form
    tol, max_sweeps = MIDPOINT_TOL, MIDPOINT_MAX_SWEEPS
    w, V = spec.eigh
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
            for sweep in range(1, max_sweeps + 1):
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
                    f"midpoint fixed point missed tolerance {tol:g} after {max_sweeps} sweeps"
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
