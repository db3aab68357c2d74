"""Numerical verification of structure preservation along flows.

Closed-form Lie derivatives of the phase-space metric and the symplectic
form measure whether a flow is Hamiltonian, Killing, both, or neither
(``scenario.classify_flow`` and the scenario checks read them).  Their
products with Omega and G use the block structure of the two forms, and
checks evaluated in turn at one point share its field Jacobian.  The
midpoint integrator is checked for second-order convergence against the
unitary propagator; and the ray metric is cross-checked against the
Fubini-Study angle and swept over metric-coefficient families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, NormalizationError, NotHermitianError, ParamError
from .flows import (
    HERMITIAN_TOL,
    HamiltonianSpec,
    PhasePoint,
    _field_arrays,
    _psi_from,
    integrate_midpoint,
)
from .geometry import (
    CANONICAL_PARAMS,
    MetricParams,
    _metric_blocks_derivative,
    _metric_parts,
    _ray_lengths,
    _row_dot,
    _row_norm,
    _times_metric,
    _times_metric_inverse,
    as_vector,
    induced_metric_ts,
    phase_space_metric,
)
from .hilbert import (
    ComplexState,
    from_complex,
    propagate_unitary,
    to_complex,
)

#: Limit of ray metric / squared Fubini-Study angle for B(1) = 1; measured by the
#: brute-force oracle in the test suite and frozen here as a regression value.
FS_RATIO_CONSTANT = 2.0

#: A probe is a gauge direction when its ray metric is at most GAUGE_NULL_TOL
#: times max(|drho|^2 + |dpi|^2, GAUGE_NULL_SCALE).
GAUGE_NULL_TOL, GAUGE_NULL_SCALE = 1e-13, 1e-30

#: Largest |B(1) - 1| of a family in the independence sweep.
UNIT_TOL = 1e-12

#: Weight of the barycenter in a sampled rho: every entry is at least
#: SAMPLE_MARGIN / n.
SAMPLE_MARGIN = 0.4

#: Endpoint errors at or below this are rounding, left out of the order fit.
RESOLVED_ERROR_FLOOR = 1e-13


@dataclass(frozen=True)
class ConvergenceStudy:
    """Endpoint error per step size (the ``convergence`` rows), the fitted
    order, and the residual of the row that applies, keyed by its check row
    name: ``convergence.order`` when an order is fitted, else
    ``convergence.exact``."""

    convergence: list[dict]
    observed_order: float | None
    residuals: dict[str, float]


def sample_interior_points(
    n: int,
    count: int = 8,
    *,
    rng: np.random.Generator,
    include_barycenter: bool = True,
    margin: float = SAMPLE_MARGIN,
) -> list[PhasePoint]:
    """Seeded interior sample points: the barycenter plus ``count`` draws.

    Each rho mixes a flat Dirichlet draw with the barycenter so every entry
    stays at least margin/n from the boundary, where the 1/rho tensor
    entries stay bounded.  Momenta are uniform on [0, 2 pi).
    """
    points = []
    if include_barycenter:
        points.append(PhasePoint(np.full(n, 1.0 / n), np.zeros(n)))
    for _ in range(count):
        points.append(PhasePoint(*_interior_draw(n, rng, margin)))
    return points


def _interior_draw(n: int, rng: np.random.Generator, margin: float = SAMPLE_MARGIN) -> tuple[np.ndarray, np.ndarray]:
    """(rho, pi) of one `sample_interior_points` draw: the Dirichlet draw,
    then the uniform momenta."""
    rho = margin / n + (1.0 - margin) * rng.dirichlet(np.ones(n))
    return rho, rng.uniform(0.0, 2.0 * np.pi, n)


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian matrix with Gaussian real and imaginary parts: the
    Hermitian part (x + x^T)/2 + i (y - y^T)/2 of x + i y, x drawn first."""
    x = rng.standard_normal((n, n))
    y = rng.standard_normal((n, n))
    return 0.5 * (x + x.T) + 0.5j * (y - y.T)


def lie_derivative_metric(
    spec: HamiltonianSpec,
    X: PhasePoint,
    *,
    params: MetricParams = CANONICAL_PARAMS,
) -> np.ndarray:
    """Residual matrix L_V G = V.dG + DV^T G + G DV at X along the flow of ``spec``.

    Closed form: DV is the field Jacobian and V.dG the exact directional
    derivative of G = blockdiag(g, g^{-1}), so the residual is exact up to
    rounding at every n.  G is symmetric, so G DV = (DV^T G)^T, and DV^T G
    is formed block by block in O(n^2) by the products with g and g^{-1}
    in `geometry`.
    A Hermitian-kernel flow is Killing where B(|rho|) = 1.  For a
    |rho|-dependent B with B(1) = 1 that is only the normalized surface
    |rho| = 1, and off it the residual is of order one; for the constant
    B = 1 it holds everywhere.  The nonlinear catalog terms leave a
    mixed-block residual -4 rho_i delta_ij per unit strength.
    """
    n = X.n
    G = phase_space_metric(X.rho, params)
    parts = _metric_parts(X.rho, params)
    jac = spec._jacobian_at(X)
    v_rho, _ = _field_arrays(spec, X.rho, X.pi)
    dg, dg_inv = _metric_blocks_derivative(X.rho, v_rho, params, parts, G[n:, n:])
    S = np.hstack((_times_metric(jac[:n].T, parts), _times_metric_inverse(jac[n:].T, parts)))
    residual = S + S.T
    residual[:n, :n] += dg
    residual[n:, n:] += dg_inv
    return residual


def lie_derivative_symplectic(spec: HamiltonianSpec, X: PhasePoint) -> np.ndarray:
    """Residual matrix L_V Omega = DV^T Omega + Omega DV at X, in closed form.

    Zero up to rounding for every Hamiltonian flow, gauge-invariant or not,
    since the field is a symplectic gradient: the residual compares Hessian
    blocks that the field Jacobian assembles separately.  Omega =
    [[0, I], [-I, 0]] is a signed block permutation, so DV^T Omega =
    [-DV_pi^T, DV_rho^T] (DV_rho, DV_pi its row blocks) is a copy, and
    Omega DV is minus its transpose.
    """
    n = X.n
    jac = spec._jacobian_at(X)
    S = np.empty((2 * n, 2 * n))
    np.negative(jac[n:].T, out=S[:, :n])
    S[:, n:] = jac[:n].T
    return S - S.T


@dataclass(frozen=True)
class FsRatios:
    """Ray metric over the squared Fubini-Study angle, per epsilon.

    ``ratios`` holds the raw ratio r_k at each epsilon e_k.  It approaches
    its limit linearly in eps, so with three or more ratios ``limit`` and
    ``cauchy_residual`` read the linear extrapolations to eps -> 0 of
    consecutive pairs, (e_k r_{k+1} - e_{k+1} r_k) / (e_k - e_{k+1}): the
    limit is the last one and the residual the gap between the last two.
    With fewer ratios they read the raw ratios.  For a non-gauge direction
    the limit is independent of the direction (FS_RATIO_CONSTANT for
    B(1) = 1); pure gauge directions produce a vanishing numerator and are
    flagged instead.
    """

    epsilons: tuple[float, ...]
    ratios: tuple[float, ...]
    gauge_null: bool

    @property
    def _estimates(self) -> tuple[float, ...]:
        e, r = self.epsilons, self.ratios
        if len(r) < 3:
            return r
        return tuple((e[k] * r[k + 1] - e[k + 1] * r[k]) / (e[k] - e[k + 1]) for k in range(len(r) - 1))

    @property
    def limit(self) -> float | None:
        estimates = self._estimates
        return estimates[-1] if estimates else None

    @property
    def cauchy_residual(self) -> float:
        estimates = self._estimates
        if len(estimates) < 2:
            return 0.0
        return abs(estimates[-1] - estimates[-2])


def fs_consistency(
    psi: ComplexState,
    drho,
    dpi,
    epsilons,
    *,
    params: MetricParams = CANONICAL_PARAMS,
) -> FsRatios:
    """Compare the ray metric with the squared Fubini-Study angle.

    For each epsilon (evaluated in decreasing order) the ratio
    r = ray_metric(eps * displacement) / theta(eps)^2 is formed, phi(eps)
    being the displaced state and theta = arccos(|<psi|phi>|) its angle to
    psi.  theta is taken as the chord angle 2 arcsin(|e^{i alpha} psi - phi| / 2)
    with alpha = arg<psi|phi>, which equals it for unit states but keeps its
    digits where the overlap is within rounding of 1.  Requires a normalized
    psi, a tangent drho (sum zero) and distinct epsilons.

    The epsilons are evaluated together, one row each.  A displacement that
    `induced_metric_ts` or `PhasePoint` rejects raises their error.  Each of
    their rules that rejects a step rejects every larger one (the tangency
    rule up to the rounding of its sum), so they are called on the largest
    epsilon only.
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
    if len(set(eps_sorted)) != len(eps_sorted):
        raise ValueError("epsilons must be distinct")
    base = induced_metric_ts(rho, drho, dpi, params)
    scale = float(drho @ drho + dpi @ dpi)
    if base <= GAUGE_NULL_TOL * max(scale, GAUGE_NULL_SCALE):
        return FsRatios(eps_sorted, (), True)
    largest = eps_sorted[0]
    induced_metric_ts(rho, largest * drho, largest * dpi, params)
    PhasePoint(rho + largest * drho, pi + largest * dpi)
    eps = np.array(eps_sorted)[:, None]
    step_rho, step_pi = eps * drho, eps * dpi
    numerators = _ray_lengths(step_rho, step_pi, _metric_parts(rho, params))
    phi = _psi_from(rho + step_rho, pi + step_pi)
    aligned = np.exp(1j * np.angle(_row_dot(psi.psi.conj(), phi)))[:, None] * psi.psi
    angles = 2.0 * np.arcsin(0.5 * _row_norm(aligned - phi))
    if np.any(angles == 0.0):
        return FsRatios(eps_sorted, (), True)
    return FsRatios(eps_sorted, tuple((numerators / angles**2).tolist()), False)


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
        if abs(b1 - 1.0) > UNIT_TOL:
            raise ParamError(f"family with B(1) = {b1:g} rejected; units are fixed by B(1) = 1")
    values = [induced_metric_ts(rho, drho, dpi, fam) for fam in families]
    lo, hi = min(values), max(values)
    denom = max(abs(v) for v in values)
    if denom == 0.0:
        return 0.0
    return float((hi - lo) / denom)


def convergence_study(spec: HamiltonianSpec, X0: PhasePoint, h_list, tau_total: float) -> ConvergenceStudy:
    """Endpoint error of the midpoint integrator against the unitary
    propagator for each step size, with the fitted observed order.

    The Hamiltonian must be a pure Hermitian kernel (a constant offset is
    allowed; it does not move the flow), since the oracle is exp(-i K tau).
    NonFiniteError is raised when a step count tau_total / h overflows.
    """
    if spec.realness_deviations[0] > HERMITIAN_TOL:
        raise NotHermitianError("a Hermitian kernel is required for the unitary oracle")
    if not spec.is_pure_kernel:
        raise ValueError("the unitary oracle applies to pure-kernel Hamiltonians only")
    K = spec.hermitian_part
    psi0 = to_complex(X0)
    rows: list[dict] = []
    errors: list[float] = []
    step_sizes: list[float] = []
    previous = None
    for h in h_list:
        h = float(h)
        ratio = tau_total / h
        if not math.isfinite(ratio):
            raise NonFiniteError(f"convergence step count tau / h = {tau_total!r} / {h!r} is not finite")
        steps = max(1, int(round(ratio)))
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
    resolved = [(h, e) for h, e in zip(step_sizes, errors) if e > RESOLVED_ERROR_FLOOR]
    if len(resolved) >= 2:
        order = float(np.polyfit(np.log([h for h, _ in resolved]), np.log([e for _, e in resolved]), 1)[0])
        return ConvergenceStudy(rows, order, {"convergence.order": abs(order - 2.0)})
    # Linear flows are reproduced exactly; there is no order to fit.
    return ConvergenceStudy(rows, None, {"convergence.exact": max(errors, default=0.0)})
