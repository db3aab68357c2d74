"""Numerical verification of structure preservation along flows.

Closed-form Lie derivatives of the phase-space metric and the symplectic
form measure whether a flow is Hamiltonian, Killing, both, or neither
(``scenario.classify_flow`` and the scenario checks read them); the
midpoint integrator is checked for second-order convergence against the
unitary propagator; and the ray metric is cross-checked against the
arccos-overlap distance and swept over metric-coefficient families.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NormalizationError, NotHermitianError, ParamError
from .flows import (
    HamiltonianSpec,
    PhasePoint,
    _field_arrays,
    _field_jacobian,
    integrate_midpoint,
)
from .geometry import (
    CANONICAL_PARAMS,
    MetricParams,
    _metric_blocks_derivative,
    as_vector,
    induced_metric_ts,
    phase_space_metric,
    symplectic_matrix,
)
from .hilbert import (
    ComplexState,
    HermitianOperator,
    from_complex,
    inner_product,
    propagate_unitary,
    to_complex,
)

#: Ceilings of convergence_study's rows: |observed order - 2| when an order
#: is fitted, the largest endpoint error when the flow is reproduced exactly.
CONVERGENCE_ORDER_TOL = 0.1
CONVERGENCE_EXACT_TOL = 1e-12

#: Limit of ray-metric / arccos-overlap^2 for B(1) = 1; measured by the
#: brute-force oracle in the test suite and frozen here as a regression value.
FS_RATIO_CONSTANT = 2.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool


@dataclass
class DiagnosticsReport:
    """Named checks with explicit tolerances, plus an optional convergence table."""

    scenario_id: str
    checks: list[CheckResult] = field(default_factory=list)
    convergence: list[dict] | None = None
    observed_order: float | None = None

    def add(self, name: str, residual: float, tolerance: float) -> CheckResult:
        result = CheckResult(name, float(residual), float(tolerance), bool(residual <= tolerance))
        self.checks.append(result)
        return result

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "checks": [
                {
                    "name": c.name,
                    "residual": float(c.residual),
                    "tolerance": float(c.tolerance),
                    "pass": bool(c.passed),
                }
                for c in self.checks
            ],
            "convergence": self.convergence,
            "observed_order": self.observed_order,
        }


def sample_interior_points(
    n: int,
    count: int = 8,
    *,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
    include_barycenter: bool = True,
    margin: float = 0.4,
) -> list[PhasePoint]:
    """Seeded interior sample points: the barycenter plus ``count`` draws.

    Each rho mixes a flat Dirichlet draw with the barycenter so every entry
    stays at least margin/n from the boundary, where the 1/rho tensor
    entries stay bounded.  Momenta are uniform on [0, 2 pi).
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    points = []
    if include_barycenter:
        points.append(PhasePoint(np.full(n, 1.0 / n), np.zeros(n)))
    for _ in range(count):
        rho = margin / n + (1.0 - margin) * rng.dirichlet(np.ones(n))
        pi = rng.uniform(0.0, 2.0 * np.pi, n)
        points.append(PhasePoint(rho, pi))
    return points


def random_hermitian(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random Hermitian matrix with Gaussian real and imaginary parts."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (a + a.conj().T)


def lie_derivative(field_fn, tensor_fn, x, fd_step: float = 1e-4, *, richardson: bool = True) -> np.ndarray:
    """Lie derivative of a covariant 2-tensor along a vector field, by finite differences.

    (L_V T)_ab = V^c d_c T_ab + T_cb d_a V^c + T_ac d_b V^c, with every
    derivative taken by central differences.  With ``richardson`` the h and
    h/2 evaluations are combined to cancel the quadratic truncation term.
    Costs 4 (2n) tensor and field evaluations and a dense (2n)^3 array, so it
    serves as the reference oracle for the closed forms below at small n.
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


def lie_derivative_metric(
    spec: HamiltonianSpec,
    X: PhasePoint,
    *,
    params: MetricParams = CANONICAL_PARAMS,
) -> np.ndarray:
    """Residual matrix L_V G = V.dG + DV^T G + G DV at X along the flow of ``spec``.

    Closed form: DV is the field Jacobian and V.dG the exact directional
    derivative of G = blockdiag(g, g^{-1}), so the residual is exact up to
    rounding at every n.  A Hermitian-kernel flow is Killing where
    B(|rho|) = 1.  For a |rho|-dependent B with B(1) = 1 that is only the
    normalized surface |rho| = 1, and off it the residual is of order one;
    for the constant B = 1 it holds everywhere.  The nonlinear catalog
    terms leave a mixed-block residual -4 rho_i delta_ij per unit strength.
    """
    n = X.n
    metric = phase_space_metric(X.rho, params)
    jac = _field_jacobian(spec, X.rho, X.pi)
    v_rho, _ = _field_arrays(spec, X.rho, X.pi)
    dg, dg_inv = _metric_blocks_derivative(X.rho, v_rho, params, metric.momentum_block)
    residual = jac.T @ metric.G + metric.G @ jac
    residual[:n, :n] += dg
    residual[n:, n:] += dg_inv
    return residual


def lie_derivative_symplectic(spec: HamiltonianSpec, X: PhasePoint) -> np.ndarray:
    """Residual matrix L_V Omega = DV^T Omega + Omega DV at X, in closed form.

    Zero up to rounding for every Hamiltonian flow, gauge-invariant or not,
    since the field is a symplectic gradient: the residual compares Hessian
    blocks that the field Jacobian assembles separately.
    """
    omega = symplectic_matrix(X.n).Omega
    jac = _field_jacobian(spec, X.rho, X.pi)
    return jac.T @ omega + omega @ jac


@dataclass(frozen=True)
class FsRatios:
    """Ray metric over squared arccos-overlap distance, per epsilon.

    For a non-gauge direction the sequence converges to a constant
    independent of the direction (FS_RATIO_CONSTANT for B(1) = 1); pure
    gauge directions produce a vanishing numerator and are flagged instead.
    """

    epsilons: tuple[float, ...]
    ratios: tuple[float, ...]
    gauge_null: bool

    @property
    def limit(self) -> float | None:
        return self.ratios[-1] if self.ratios else None

    @property
    def cauchy_residual(self) -> float:
        if len(self.ratios) < 2:
            return 0.0
        return abs(self.ratios[-1] - self.ratios[-2])


def fs_consistency(
    psi: ComplexState,
    drho,
    dpi,
    epsilons,
    *,
    params: MetricParams = CANONICAL_PARAMS,
) -> FsRatios:
    """Compare the ray metric with the squared arccos overlap distance.

    For each epsilon (evaluated in decreasing order) the ratio
    r = ray_metric(eps * displacement) / arccos(|<psi|phi(eps)>|)^2 is
    formed, phi(eps) being the displaced state; r converges as eps -> 0.
    Requires a normalized psi and a tangent drho (sum zero).
    """
    if not psi.is_normalized:
        raise NormalizationError(f"psi must be normalized, total weight {psi.rho_total!r}")
    point, _ = from_complex(psi)
    rho, pi = point.rho, point.pi
    drho = as_vector(drho, "drho", psi.n)
    dpi = as_vector(dpi, "dpi", psi.n)
    eps_sorted = tuple(sorted((float(e) for e in epsilons), reverse=True))
    if not eps_sorted or eps_sorted[-1] <= 0.0:
        raise ValueError("epsilons must be positive")
    base = induced_metric_ts(rho, drho, dpi, params)
    scale = float(drho @ drho + dpi @ dpi)
    if base <= 1e-13 * max(scale, 1e-30):
        return FsRatios(eps_sorted, (), True)
    ratios = []
    for eps in eps_sorted:
        numerator = induced_metric_ts(rho, eps * drho, eps * dpi, params)
        phi = to_complex(PhasePoint(rho + eps * drho, pi + eps * dpi))
        overlap = min(1.0, abs(inner_product(psi, phi)))
        angle = float(np.arccos(overlap))
        if angle == 0.0:
            return FsRatios(eps_sorted, (), True)
        ratios.append(numerator / angle**2)
    return FsRatios(eps_sorted, tuple(ratios), False)


#: Coefficient families sharing B(1) = 1 for the independence sweep.
DEFAULT_PARAM_FAMILIES = (
    MetricParams(),
    MetricParams(a_coeffs=(3.0,)),
    MetricParams(a_coeffs=(0.0, 0.0, 1.0), b_coeffs=(0.0, 1.0)),
    MetricParams(a_coeffs=(1.0, 1.0), b_coeffs=(0.0, 0.0, 1.0)),
    MetricParams(a_coeffs=(2.0, -1.0), b_coeffs=(0.5, 0.0, 0.5)),
    MetricParams(b_coeffs=(2.0, -1.0)),
)


def ab_independence_sweep(rho, drho, dpi, param_families=DEFAULT_PARAM_FAMILIES) -> float:
    """Max relative spread of the ray metric across coefficient families.

    Every family must satisfy B(1) = 1 (otherwise the comparison mixes unit
    conventions and is rejected with ParamError).
    """
    families = list(param_families)
    if not families:
        raise ParamError("at least one parameter family is required")
    for fam in families:
        b1 = fam.b_value(1.0)
        if abs(b1 - 1.0) > 1e-12:
            raise ParamError(f"family with B(1) = {b1:g} rejected; units are fixed by B(1) = 1")
    values = [induced_metric_ts(rho, drho, dpi, fam) for fam in families]
    lo, hi = min(values), max(values)
    denom = max(abs(v) for v in values)
    if denom == 0.0:
        return 0.0
    return float((hi - lo) / denom)


def convergence_study(spec: HamiltonianSpec, X0: PhasePoint, h_list, tau_total: float) -> DiagnosticsReport:
    """Endpoint error of the midpoint integrator against the unitary
    propagator for each step size, with the fitted observed order.

    The Hamiltonian must be a pure Hermitian kernel (a constant offset is
    allowed; it does not move the flow), since the oracle is exp(-i K tau).
    """
    if spec.kernel is None:
        raise NotHermitianError("a Hermitian kernel is required for the unitary oracle")
    if spec.linear_bra is not None or spec.linear_ket is not None or spec.nonlinear != "none":
        raise ValueError("the unitary oracle applies to pure-kernel Hamiltonians only")
    K = HermitianOperator(spec.kernel)
    psi0 = to_complex(X0)
    report = DiagnosticsReport(scenario_id="convergence_study")
    rows: list[dict] = []
    errors: list[float] = []
    step_sizes: list[float] = []
    previous = None
    for h in h_list:
        h = float(h)
        steps = max(1, int(round(tau_total / h)))
        trajectory = integrate_midpoint(spec, X0, h, steps)
        exact = propagate_unitary(K, psi0, steps * h)
        err = float(np.linalg.norm(trajectory.psi[-1] - exact.psi))
        row = {"h": h, "steps": steps, "endpoint_error": err}
        if previous is not None and err > 0.0:
            row["ratio"] = previous / err
        rows.append(row)
        errors.append(err)
        step_sizes.append(h)
        previous = err
    report.convergence = rows
    resolved = [(h, e) for h, e in zip(step_sizes, errors) if e > 1e-13]
    if len(resolved) >= 2:
        slope = np.polyfit(np.log([h for h, _ in resolved]), np.log([e for _, e in resolved]), 1)[0]
        report.observed_order = float(slope)
        report.add("convergence_order", abs(report.observed_order - 2.0), CONVERGENCE_ORDER_TOL)
    else:
        # Linear flows are reproduced exactly; there is no order to fit.
        report.observed_order = None
        report.add("convergence_exact", max(errors, default=0.0), CONVERGENCE_EXACT_TOL)
    return report
