"""Tensors on the phase space built over positive probability vectors.

The base space is the open cone of componentwise-positive vectors rho
(probability vectors when |rho| = sum(rho) = 1).  Attaching conjugate momenta
pi yields a 2n-dimensional phase space; every 2n-dimensional object here uses
the coordinate ordering (rho_1 .. rho_n, pi_1 .. pi_n).

At any interior point this module constructs, as read-only arrays,

* the information metric ``g`` on the base, with entries
  A(|rho|) n_i n_j + B(|rho|) / (2 rho_i) delta_ij, where n is the all-ones
  covector and A, B are polynomial functions of |rho|,
* the block-diagonal phase-space metric ``G`` = blockdiag(g, g^{-1}),
* the constant canonical symplectic form ``Omega``,
* the complex structure ``J`` = -G^{-1} Omega, a square root of -identity,
* squared displacement lengths: the plain quadratic form of G, and the
  gauge-minimized ray metric on normalized states, which is the Fubini-Study
  metric up to the unit convention B(1) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryError,
    DimensionError,
    NormalizationError,
    ParamError,
    SingularError,
)

#: Interior floor: tensor components carry 1/(2 rho_i) and diverge at faces.
EPS_FLOOR = 1e-10

#: Tolerance for "sums to one" and "sums to zero" style preconditions.
NORM_TOL = 1e-12


def readonly(values, dtype=float) -> np.ndarray:
    """Copy ``values`` into a write-protected array."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def as_vector(values, name: str = "vector", n: int | None = None, dtype=float) -> np.ndarray:
    """Coerce to a finite nonempty 1-d array of ``dtype``, optionally of fixed length."""
    arr = np.asarray(values, dtype=dtype)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionError(f"{name} must be a nonempty 1-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    if n is not None and arr.size != n:
        raise DimensionError(f"{name} has length {arr.size}, expected {n}")
    return arr


def require_interior(rho: np.ndarray) -> None:
    """Reject points whose coordinate tensors would blow up."""
    lowest = float(np.min(rho))
    if lowest < EPS_FLOOR:
        raise BoundaryError(
            f"rho has entries below the interior floor {EPS_FLOOR:g} (min entry {lowest:.3e})"
        )


def _polyval(coeffs: tuple[float, ...], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _polyslope(coeffs: tuple[float, ...], x: float) -> float:
    acc = 0.0
    for k in range(len(coeffs) - 1, 0, -1):
        acc = acc * x + k * coeffs[k]
    return acc


@dataclass(frozen=True)
class MetricParams:
    """Coefficient functions A and B of the information metric.

    Both are polynomials in s = |rho|, stored lowest order first.  B(1) must
    be positive; B(1) = 1 is the unit convention assumed by the ray metric
    regression constants.
    """

    a_coeffs: tuple[float, ...] = (0.0,)
    b_coeffs: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        a = tuple(float(c) for c in self.a_coeffs)
        b = tuple(float(c) for c in self.b_coeffs)
        if not a or not b:
            raise ParamError("a_coeffs and b_coeffs must be nonempty")
        if not all(np.isfinite(c) for c in a + b):
            raise ParamError("metric coefficients must be finite")
        object.__setattr__(self, "a_coeffs", a)
        object.__setattr__(self, "b_coeffs", b)
        if self.b_value(1.0) <= 0.0:
            raise ParamError(f"B(1) = {self.b_value(1.0):g} must be positive")

    def a_value(self, s: float) -> float:
        return _polyval(self.a_coeffs, float(s))

    def b_value(self, s: float) -> float:
        return _polyval(self.b_coeffs, float(s))


#: The flat choice A = 0, B = 1.
CANONICAL_PARAMS = MetricParams()


def _metric_blocks(rho: np.ndarray, params: MetricParams) -> tuple[np.ndarray, np.ndarray]:
    """(g, g^{-1}); the inverse uses the diagonal-plus-rank-one identity, so
    it is exact up to rounding and never calls a generic solver."""
    s = float(rho.sum())
    b = params.b_value(s)
    if b <= 0.0:
        raise ParamError(f"B(|rho|) = {b:g} is not positive at |rho| = {s:g}")
    a = params.a_value(s)
    g = np.diag(b / (2.0 * rho))
    if a != 0.0:
        g = g + a
    d_inv = 2.0 * rho / b
    g_inv = np.diag(d_inv)
    if a != 0.0:
        denom = 1.0 + a * float(d_inv.sum())
        if abs(denom) < 1e-12:
            raise SingularError(
                f"information metric is numerically singular (1 + A tr = {denom:.3e})"
            )
        g_inv = g_inv - (a / denom) * np.outer(d_inv, d_inv)
    return g, g_inv


def _metric_blocks_derivative(
    rho: np.ndarray, drho: np.ndarray, params: MetricParams, g_inv: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Directional derivatives (dg, d(g^{-1})) of `_metric_blocks` along drho.

    With s = |rho| and ds = sum(drho), dg = A'(s) ds n n^T +
    diag(B'(s) ds / (2 rho) - B(s) drho / (2 rho^2)), and
    d(g^{-1}) = -g^{-1} dg g^{-1}.
    """
    s = float(rho.sum())
    ds = float(drho.sum())
    dg = np.diag((_polyslope(params.b_coeffs, s) * ds - params.b_value(s) * drho / rho) / (2.0 * rho))
    dg += _polyslope(params.a_coeffs, s) * ds
    return dg, -g_inv @ dg @ g_inv


def info_metric(rho, params: MetricParams = CANONICAL_PARAMS) -> np.ndarray:
    """Evaluate the information metric at an interior point of the cone.

    g_ij = A(|rho|) n_i n_j + B(|rho|) / (2 rho_i) delta_ij.  For the
    canonical parameters the matrix is diag(1 / (2 rho_i)).

    Raises BoundaryError off the interior and ParamError when B(|rho|) <= 0.
    """
    rho = as_vector(rho, "rho")
    require_interior(rho)
    g, _ = _metric_blocks(rho, params)
    return readonly(g)


def phase_space_metric(rho, params: MetricParams = CANONICAL_PARAMS) -> np.ndarray:
    """Evaluate G = blockdiag(g, g^{-1}); the mixed rho-pi blocks vanish so
    the squared speed of a curve is invariant under flow reversal."""
    rho = as_vector(rho, "rho")
    require_interior(rho)
    g, g_inv = _metric_blocks(rho, params)
    n = rho.size
    G = np.zeros((2 * n, 2 * n))
    G[:n, :n] = g
    G[n:, n:] = g_inv
    return readonly(G)


def symplectic_matrix(n: int) -> np.ndarray:
    """The constant canonical form on a 2n-dimensional phase space."""
    if n < 1:
        raise DimensionError(f"n must be >= 1, got {n}")
    omega = np.zeros((2 * n, 2 * n))
    omega[:n, n:] = np.eye(n)
    omega[n:, :n] = -np.eye(n)
    return readonly(omega)


def symplectic_eval(u, v) -> float:
    """Omega(u, v) = sum_i (u_rho_i v_pi_i - u_pi_i v_rho_i)."""
    u = as_vector(u, "u")
    v = as_vector(v, "v")
    if u.size != v.size:
        raise DimensionError(f"tangent vectors have lengths {u.size} and {v.size}")
    if u.size % 2:
        raise DimensionError(f"tangent vectors must have even length, got {u.size}")
    n = u.size // 2
    return float(u[:n] @ v[n:] - u[n:] @ v[:n])


def complex_structure(rho, params: MetricParams = CANONICAL_PARAMS) -> np.ndarray:
    """J = -G^{-1} Omega, blockwise [[0, -g^{-1}], [g, 0]].

    The block assembly makes J J = -identity hold to rounding; for the
    canonical parameters the nonzero blocks are -diag(2 rho) and
    diag(1 / (2 rho)).
    """
    rho = as_vector(rho, "rho")
    require_interior(rho)
    g, g_inv = _metric_blocks(rho, params)
    n = rho.size
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -g_inv
    J[n:, :n] = g
    return readonly(J)


def embedding_length(drho, dpi, rho, params: MetricParams = CANONICAL_PARAMS) -> float:
    """Squared length g(drho, drho) + g^{-1}(dpi, dpi) of a displacement."""
    rho = as_vector(rho, "rho")
    require_interior(rho)
    drho = as_vector(drho, "drho", rho.size)
    dpi = as_vector(dpi, "dpi", rho.size)
    g, g_inv = _metric_blocks(rho, params)
    return float(drho @ g @ drho + dpi @ g_inv @ dpi)


def induced_metric_ts(rho, drho, dpi, params: MetricParams = CANONICAL_PARAMS) -> float:
    """Squared ray distance: min over nu of the embedding length of
    (drho, dpi + nu n).

    The target is quadratic in nu, so the minimizer is closed form,
    nu = -(n.g^{-1}.dpi) / (n.g^{-1}.n); on the normalized surface this is
    the weighted mean -sum(rho_i dpi_i).  The minimum vanishes on the pure
    gauge direction dpi = const and, once B(1) is fixed, does not depend on
    the A and B functions at all.

    Requires sum(rho) = 1 and sum(drho) = 0, both within 1e-12.
    """
    rho = as_vector(rho, "rho")
    require_interior(rho)
    drho = as_vector(drho, "drho", rho.size)
    dpi = as_vector(dpi, "dpi", rho.size)
    total = float(rho.sum())
    if abs(total - 1.0) > NORM_TOL:
        raise NormalizationError(f"rho must be normalized, |sum(rho) - 1| = {abs(total - 1.0):.3e}")
    drift = float(drho.sum())
    if abs(drift) > NORM_TOL:
        raise NormalizationError(f"drho must be tangent to the simplex, sum(drho) = {drift:.3e}")
    g, g_inv = _metric_blocks(rho, params)
    w = g_inv @ dpi
    gauge_weight = float(g_inv.sum())
    nu = -float(w.sum()) / gauge_weight
    shifted = dpi + nu
    return float(drho @ g @ drho + shifted @ g_inv @ shifted)
