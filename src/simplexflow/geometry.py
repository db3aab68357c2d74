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
    NonFiniteError,
    NormalizationError,
    ParamError,
    SingularError,
)

#: Interior floor: tensor components carry 1/(2 rho_i) and diverge at faces.
EPS_FLOOR = 1e-10

#: Tolerance for "sums to one" and "sums to zero" style preconditions.
NORM_TOL = 1e-12

#: Smallest |1 + A sum(d)| for which g is treated as invertible.
SINGULAR_TOL = 1e-12


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


def as_rows(values, name: str, shape: tuple[int, ...] | None = None, dtype=float) -> np.ndarray:
    """Coerce to a finite array of nonempty rows along the last axis,
    optionally of a fixed shape."""
    arr = np.asarray(values, dtype=dtype)
    if arr.ndim == 0 or arr.shape[-1] == 0:
        raise DimensionError(f"{name} must hold nonempty rows, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    if shape is not None and arr.shape != shape:
        raise DimensionError(f"{name} has shape {arr.shape}, expected {shape}")
    return arr


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_i x_i y_i along the last axis, row by row; rows broadcast and a
    single pair gives a scalar.  np.matmul takes each 1 x n by n x 1
    product through the dot routine of np.dot, so a row has the bits of its
    own 1-d product (np.vdot(x, y) is _row_dot(x.conj(), y)), which a
    matrix-vector product does not keep."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _row_norm(z: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each complex row along the last axis, with its bits."""
    return np.sqrt(_row_dot(z.real, z.real) + _row_dot(z.imag, z.imag))


def as_square_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite square 2-d complex array."""
    arr = np.asarray(values, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
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
        try:
            a = tuple(float(c) for c in self.a_coeffs)
            b = tuple(float(c) for c in self.b_coeffs)
        except OverflowError:  # an int too large for a float
            raise ParamError("metric coefficients must be finite") from None
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


def _metric_parts(rho: np.ndarray, params: MetricParams) -> tuple[np.ndarray, float, np.ndarray, float]:
    """(gamma, a, d, c) with g = diag(gamma) + a n n^T and, by the
    diagonal-plus-rank-one identity, g^{-1} = diag(d) - c d d^T, where
    c = a / (1 + a sum(d)) is 0 when a = 0.  Exact up to rounding, with no
    generic solver."""
    s = float(rho.sum())
    b = params.b_value(s)
    if b <= 0.0:
        raise ParamError(f"B(|rho|) = {b:g} is not positive at |rho| = {s:g}")
    a = params.a_value(s)
    d = 2.0 * rho / b
    denom = 1.0 + a * float(d.sum())
    if abs(denom) < SINGULAR_TOL:
        raise SingularError(f"information metric is numerically singular (1 + A tr = {denom:.3e})")
    return b / (2.0 * rho), a, d, a / denom


def _metric_blocks(parts) -> tuple[np.ndarray, np.ndarray]:
    """(g, g^{-1}) as dense matrices, from ``parts`` = `_metric_parts`."""
    gamma, a, d, c = parts
    return np.diag(gamma) + a, np.diag(d) - c * np.outer(d, d)


def _times_metric(m: np.ndarray, parts) -> np.ndarray:
    """m g in O(n^2) from ``parts`` = `_metric_parts`: the columns of m
    scaled by gamma, plus a times the row sums of m in every column, for
    g = diag(gamma) + a n n^T.  The rank-one term is skipped when a = 0."""
    gamma, a, _, _ = parts
    out = m * gamma
    if a != 0.0:
        out += a * m.sum(axis=1)[:, None]
    return out


def _times_metric_inverse(m: np.ndarray, parts) -> np.ndarray:
    """m g^{-1} in O(n^2) from ``parts`` = `_metric_parts`: the columns of m
    scaled by d, minus the outer product of c (m d) and d, for
    g^{-1} = diag(d) - c d d^T.  The rank-one term is skipped when c = 0."""
    _, _, d, c = parts
    out = m * d
    if c != 0.0:
        out -= np.outer(c * (m @ d), d)
    return out


def _metric_blocks_derivative(
    rho: np.ndarray, drho: np.ndarray, params: MetricParams, parts, g_inv: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Directional derivatives (dg, d(g^{-1})) of `_metric_blocks` along drho,
    given ``parts`` = `_metric_parts` and g^{-1} at rho.

    With s = |rho| and ds = sum(drho), dg = diag(delta) + alpha n n^T, where
    delta = (B'(s) ds - B(s) drho / rho) / (2 rho) and alpha = A'(s) ds, and
    d(g^{-1}) = -g^{-1} dg g^{-1}, formed in O(n^2): the diagonal part is
    `_times_metric_inverse` of g^{-1} diag(delta), a column scaling of
    g^{-1}, and the rank-one part is alpha (g^{-1} n)(g^{-1} n)^T.  Both
    rank-one parts are skipped when alpha = 0.
    """
    s = float(rho.sum())
    ds = float(drho.sum())
    delta = (_polyslope(params.b_coeffs, s) * ds - params.b_value(s) * drho / rho) / (2.0 * rho)
    alpha = _polyslope(params.a_coeffs, s) * ds
    dg = np.diag(delta)
    dg_inv = _times_metric_inverse(g_inv * -delta, parts)
    if alpha != 0.0:
        dg += alpha
        e = g_inv.sum(axis=1)
        dg_inv -= np.outer(alpha * e, e)
    return dg, dg_inv


def info_metric(rho, params: MetricParams = CANONICAL_PARAMS) -> np.ndarray:
    """Evaluate the information metric at an interior point of the cone.

    g_ij = A(|rho|) n_i n_j + B(|rho|) / (2 rho_i) delta_ij.  For the
    canonical parameters the matrix is diag(1 / (2 rho_i)).

    Raises BoundaryError off the interior and ParamError when B(|rho|) <= 0.
    """
    rho = as_vector(rho, "rho")
    require_interior(rho)
    g, _ = _metric_blocks(_metric_parts(rho, params))
    g.setflags(write=False)
    return g


def phase_space_metric(rho, params: MetricParams = CANONICAL_PARAMS) -> np.ndarray:
    """Evaluate G = blockdiag(g, g^{-1}); the mixed rho-pi blocks vanish so
    the squared speed of a curve is invariant under flow reversal."""
    rho = as_vector(rho, "rho")
    require_interior(rho)
    g, g_inv = _metric_blocks(_metric_parts(rho, params))
    n = rho.size
    G = np.zeros((2 * n, 2 * n))
    G[:n, :n] = g
    G[n:, n:] = g_inv
    G.setflags(write=False)
    return G


def symplectic_matrix(n: int) -> np.ndarray:
    """The constant canonical form on a 2n-dimensional phase space."""
    if n < 1:
        raise DimensionError(f"n must be >= 1, got {n}")
    omega = np.zeros((2 * n, 2 * n))
    omega[:n, n:] = np.eye(n)
    omega[n:, :n] = -np.eye(n)
    omega.setflags(write=False)
    return omega


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
    g, g_inv = _metric_blocks(_metric_parts(rho, params))
    n = rho.size
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -g_inv
    J[n:, :n] = g
    J.setflags(write=False)
    return J


def _complex_structure_defect(rho: np.ndarray, params: MetricParams) -> float:
    """max |J J + 1| for the J of `complex_structure`, which is never formed:
    J J + 1 = blockdiag(1 - g^{-1} g, 1 - g g^{-1}), and each block is taken
    with the opposite sign, as one O(n^2) product minus the identity.  The
    first is reduced to its max before the second is formed, so the two
    products are never held together."""
    require_interior(rho)
    parts = _metric_parts(rho, params)
    g, g_inv = _metric_blocks(parts)
    first = _times_metric(g_inv, parts)
    first.flat[:: rho.size + 1] -= 1.0
    worst = float(np.max(np.abs(first)))
    del first
    second = _times_metric_inverse(g, parts)
    second.flat[:: rho.size + 1] -= 1.0
    return max(worst, float(np.max(np.abs(second))))


def _embedding_lengths(drho: np.ndarray, dpi: np.ndarray, parts) -> np.ndarray:
    """Squared lengths g(drho, drho) + g^{-1}(dpi, dpi) of the displacement
    rows (drho, dpi), (..., n) each, in O(n) per row from the
    diagonal-plus-rank-one forms ``parts`` = `_metric_parts` of their base."""
    gamma, a, d, c = parts
    return (_row_dot(gamma, drho**2) + a * drho.sum(axis=-1) ** 2 + _row_dot(d, dpi**2)
            - c * _row_dot(d, dpi) ** 2)


def _ray_lengths(drho: np.ndarray, dpi: np.ndarray, parts) -> np.ndarray:
    """`_embedding_lengths` of the rows with each dpi shifted by its
    minimizing gauge nu = -(d.dpi) / sum(d) (see `induced_metric_ts`)."""
    d = parts[2]
    return _embedding_lengths(drho, dpi - (_row_dot(d, dpi) / d.sum())[..., None], parts)


def _finite_length(length) -> float:
    """A squared length as a float, or NonFiniteError where it overflowed."""
    length = float(length)
    if not np.isfinite(length):
        raise NonFiniteError(f"squared length of the displacement is not finite ({length!r})")
    return length


def embedding_length(drho, dpi, rho, params: MetricParams = CANONICAL_PARAMS) -> float:
    """Squared length g(drho, drho) + g^{-1}(dpi, dpi) of a displacement,
    in O(n) from the diagonal-plus-rank-one forms of `_metric_parts`;
    NonFiniteError where it overflows."""
    rho = as_vector(rho, "rho")
    require_interior(rho)
    drho = as_vector(drho, "drho", rho.size)
    dpi = as_vector(dpi, "dpi", rho.size)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_length(_embedding_lengths(drho, dpi, _metric_parts(rho, params)))


def _require_tangent(drift: float) -> None:
    """NormalizationError unless ``drift``, a sum(drho), is within NORM_TOL of zero."""
    if abs(drift) > NORM_TOL:
        raise NormalizationError(f"drho must be tangent to the simplex, sum(drho) = {drift:.3e}")


def induced_metric_ts(rho, drho, dpi, params: MetricParams = CANONICAL_PARAMS) -> float:
    """Squared ray distance: min over nu of the embedding length of
    (drho, dpi + nu n).

    The target is quadratic in nu, so the minimizer is closed form,
    nu = -(n.g^{-1}.dpi) / (n.g^{-1}.n), which for g^{-1} = diag(d) - c d d^T
    is the d-weighted mean -(d.dpi) / sum(d); on the normalized surface this
    is -sum(rho_i dpi_i).  The minimum vanishes on the pure gauge direction
    dpi = const and, once B(1) is fixed, does not depend on the A and B
    functions at all.  O(n), like `embedding_length`.

    Requires sum(rho) = 1 and sum(drho) = 0, both within NORM_TOL, and
    raises NonFiniteError where the squared length overflows.
    """
    rho = as_vector(rho, "rho")
    require_interior(rho)
    drho = as_vector(drho, "drho", rho.size)
    dpi = as_vector(dpi, "dpi", rho.size)
    total = float(rho.sum())
    if abs(total - 1.0) > NORM_TOL:
        raise NormalizationError(f"rho must be normalized, |sum(rho) - 1| = {abs(total - 1.0):.3e}")
    _require_tangent(float(drho.sum()))
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_length(_ray_lengths(drho, dpi, _metric_parts(rho, params)))
