import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from simplexflow import (
    CANONICAL_PARAMS,
    BoundaryError,
    DimensionError,
    MetricParams,
    NonFiniteError,
    NormalizationError,
    ParamError,
    SingularError,
    complex_structure,
    embedding_length,
    induced_metric_ts,
    info_metric,
    phase_space_metric,
    symplectic_eval,
    symplectic_matrix,
)
from simplexflow.diagnostics import DEFAULT_PARAM_FAMILIES, sample_interior_points
from simplexflow.geometry import _metric_blocks, _metric_parts, _times_metric, _times_metric_inverse

AB_FAMILIES = [
    MetricParams(),
    MetricParams(a_coeffs=(3.0,)),
    MetricParams(a_coeffs=(0.0, 0.0, 1.0), b_coeffs=(0.0, 1.0)),
    MetricParams(a_coeffs=(1.0, 1.0), b_coeffs=(0.0, 0.0, 1.0)),
    MetricParams(a_coeffs=(2.0, -1.0), b_coeffs=(0.5, 0.0, 0.5)),
]


def ray_metric_oracle(rho, drho, dpi, params=CANONICAL_PARAMS):
    """Independent route to the gauge-minimized squared length: sample the
    quadratic in nu at three points and take the exact parabola vertex."""
    dpi = np.asarray(dpi, dtype=float)

    def q(nu):
        return embedding_length(drho, dpi + nu, rho, params)

    q_minus, q_zero, q_plus = q(-1.0), q(0.0), q(1.0)
    a = 0.5 * (q_plus + q_minus - 2.0 * q_zero)
    b = 0.5 * (q_plus - q_minus)
    return q_zero - b * b / (4.0 * a)


class TestInfoMetric:
    def test_canonical_diag(self):
        assert_allclose(info_metric([0.5, 0.5]), np.eye(2), atol=1e-15)

    def test_general_params_by_hand(self):
        # A = 1, B = 2 at |rho| = 1: g_ij = 1 + (1/rho_i) delta_ij
        params = MetricParams(a_coeffs=(1.0,), b_coeffs=(2.0,))
        expected = np.array([[1.0 + 4.0, 1.0], [1.0, 1.0 + 4.0 / 3.0]])
        assert_allclose(info_metric([0.25, 0.75], params), expected, rtol=1e-14)

    def test_barycenter_symmetric(self):
        assert_allclose(info_metric([1 / 3, 1 / 3, 1 / 3]), np.diag([1.5, 1.5, 1.5]), atol=1e-15)

    def test_barycenter_permutation_invariant(self, rng):
        params = MetricParams(a_coeffs=(0.7, 0.3), b_coeffs=(0.4, 0.6))
        g = info_metric([0.25] * 4, params)
        for perm in itertools.permutations(range(4)):
            p = np.asarray(perm)
            assert_allclose(g[np.ix_(p, p)], g, atol=1e-15)

    def test_symmetry_random(self, rng):
        for _ in range(20):
            rho = rng.uniform(0.05, 1.0, size=5)
            params = MetricParams(a_coeffs=tuple(rng.uniform(0, 2, 2)),
                                  b_coeffs=(float(rng.uniform(0.5, 2)),))
            g = info_metric(rho, params)
            assert_allclose(g, g.T, atol=1e-15)
            assert np.all(np.linalg.eigvalsh(g) > 0)

    def test_boundary_rejected(self):
        with pytest.raises(BoundaryError):
            info_metric([1.0 - 1e-11, 1e-11])

    def test_bad_b_at_point(self):
        # B(s) = 2 - s is positive at s = 1 but negative at s = 3.
        params = MetricParams(b_coeffs=(2.0, -1.0))
        with pytest.raises(ParamError):
            info_metric([1.5, 1.5], params)

    def test_bad_b_at_unit(self):
        with pytest.raises(ParamError):
            MetricParams(b_coeffs=(0.0,))
        with pytest.raises(ParamError):
            MetricParams(b_coeffs=(-1.0,))

    def test_results_are_immutable(self):
        for result in (info_metric([0.4, 0.6]), phase_space_metric([0.4, 0.6]),
                       symplectic_matrix(2), complex_structure([0.4, 0.6])):
            with pytest.raises(ValueError):
                result[0, 0] = 5.0


class TestPhaseSpaceMetric:
    def test_identity_at_even_qubit(self):
        assert_allclose(phase_space_metric([0.5, 0.5]), np.eye(4), atol=1e-15)

    def test_canonical_blocks(self):
        G = phase_space_metric([0.25, 0.75])
        assert_allclose(np.diag(G), [2.0, 2.0 / 3.0, 0.5, 1.5], rtol=1e-14)
        n = 2
        assert_allclose(G[:n, n:], 0.0, atol=0)
        assert_allclose(G[n:, :n], 0.0, atol=0)

    def test_inverse_pair_identity(self, rng):
        for _ in range(20):
            rho = rng.uniform(0.05, 1.0, size=4)
            params = MetricParams(a_coeffs=(float(rng.uniform(0, 3)),),
                                  b_coeffs=(float(rng.uniform(0.5, 2)),))
            G = phase_space_metric(rho, params)
            prod = G[4:, 4:] @ G[:4, :4]
            assert_allclose(prod, np.eye(4), atol=1e-13)

    def test_blocks_match_info_metric(self):
        params = MetricParams(a_coeffs=(1.0, 0.5), b_coeffs=(0.25, 0.75))
        rho = [0.3, 0.2, 0.5]
        assert_allclose(phase_space_metric(rho, params)[:3, :3],
                        info_metric(rho, params), atol=1e-15)

    def test_singular_rank_one_rejected(self):
        # A = -0.7, B = 1 at |rho| = 1/1.4: the rank-one correction makes
        # 1 + A tr(D^{-1}) = 0 and g has no inverse.
        params = MetricParams(a_coeffs=(-0.7,))
        rho = np.full(2, 1.0 / 2.8)
        with pytest.raises(SingularError):
            phase_space_metric(rho, params)


class TestMetricProducts:
    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_blocks_equal_the_dense_formula(self, n, rng):
        # Skipping a zero rank-one term leaves every bit: x + 0.0 = x and x - 0.0 = x.
        for X in sample_interior_points(n, 2, rng=rng):
            for params in DEFAULT_PARAM_FAMILIES:
                gamma, a, d, c = parts = _metric_parts(X.rho, params)
                for block, dense in zip(_metric_blocks(parts), (np.diag(gamma) + a, np.diag(d) - c * np.outer(d, d))):
                    assert block.tobytes() == dense.tobytes(), params

    @pytest.mark.parametrize("n", [2, 8, 128])
    def test_products_match_the_dense_products(self, n, rng):
        # Bit-equal under the diagonal canonical metric, where every dense
        # sum has one nonzero term; rounding-level relative to the scale of
        # the product's terms otherwise.
        for X in sample_interior_points(n, 2, rng=rng):
            m = rng.standard_normal((n, n))
            for params in DEFAULT_PARAM_FAMILIES:
                parts = _metric_parts(X.rho, params)
                g, g_inv = _metric_blocks(parts)
                for product, block in ((_times_metric, g), (_times_metric_inverse, g_inv)):
                    dense = m @ block
                    fast = product(m, parts)
                    if params == CANONICAL_PARAMS:
                        assert np.array_equal(fast, dense), product.__name__
                    else:
                        scale = np.max(np.abs(m) @ np.abs(block))
                        assert np.max(np.abs(fast - dense)) <= 1e-12 * scale, (product.__name__, params)

    @pytest.mark.parametrize("n", [2, 8, 128])
    def test_lengths_match_the_dense_forms(self, n, rng):
        # embedding_length and induced_metric_ts read the diagonal-plus-rank-one
        # parts in O(n); the dense g and g^-1 give the same values to rounding
        # relative to the scale of the terms.
        for X in sample_interior_points(n, 2, rng=rng):
            drho = rng.standard_normal(n)
            drho -= drho.mean()
            dpi = rng.standard_normal(n)
            for params in DEFAULT_PARAM_FAMILIES:
                g, g_inv = _metric_blocks(_metric_parts(X.rho, params))
                shifted = dpi - (g_inv @ dpi).sum() / g_inv.sum()
                for fast, u in ((embedding_length(drho, dpi, X.rho, params), dpi),
                                (induced_metric_ts(X.rho, drho, dpi, params), shifted)):
                    dense = drho @ g @ drho + u @ g_inv @ u
                    scale = np.abs(drho) @ np.abs(g) @ np.abs(drho) + np.abs(u) @ np.abs(g_inv) @ np.abs(u)
                    assert abs(fast - dense) <= 1e-13 * scale, params


class TestSymplectic:
    def test_unit_pairing(self):
        u = np.array([1.0, 0.0, 0.0, 0.0])  # along rho_1
        v = np.array([0.0, 0.0, 1.0, 0.0])  # along pi_1
        assert symplectic_eval(u, v) == 1.0
        assert symplectic_eval(v, u) == -1.0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=6, max_size=6))
    def test_antisymmetry_on_diagonal(self, entries):
        u = np.asarray(entries)
        assert symplectic_eval(u, u) == 0.0

    def test_matches_matrix_form(self, rng):
        omega = symplectic_matrix(3)
        for _ in range(10):
            u, v = rng.standard_normal((2, 6))
            assert_allclose(symplectic_eval(u, v), u @ omega @ v, rtol=1e-13, atol=1e-13)

    def test_matrix_constant_antisymmetric(self):
        omega = symplectic_matrix(4)
        assert_allclose(omega, -omega.T, atol=0)
        assert set(np.unique(omega)) == {-1.0, 0.0, 1.0}

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            symplectic_eval([1.0, 0.0], [1.0, 0.0, 0.0, 0.0])
        with pytest.raises(DimensionError):
            symplectic_eval([1.0, 0.0, 0.0], [1.0, 0.0, 0.0])


class TestComplexStructure:
    def test_qubit_block_form(self):
        J = complex_structure([0.5, 0.5])
        expected = np.zeros((4, 4))
        expected[:2, 2:] = -np.eye(2)
        expected[2:, :2] = np.eye(2)
        assert_allclose(J, expected, atol=1e-15)

    def test_upper_right_block(self):
        J = complex_structure([0.25, 0.75])
        assert_allclose(J[:2, 2:], np.diag([-0.5, -1.5]), rtol=1e-14)

    def test_square_root_of_minus_identity(self, rng):
        for n in (2, 3, 5):
            for point in sample_interior_points(n, 10, rng=rng, margin=0.2):
                J = complex_structure(point.rho)
                assert np.max(np.abs(J @ J + np.eye(2 * n))) <= 1e-12

    def test_square_law_nonflat_params(self, rng):
        params = MetricParams(a_coeffs=(2.0,), b_coeffs=(0.5, 0.5))
        for point in sample_interior_points(3, 10, rng=rng):
            J = complex_structure(point.rho, params)
            assert np.max(np.abs(J @ J + np.eye(6))) <= 1e-12


class TestEmbeddingLength:
    def test_overflowing_squares_raise(self):
        # 0 * inf in the rank-one term would give nan, and the ray metric inf.
        with pytest.raises(NonFiniteError):
            embedding_length([1e-3, -1e-3], [1e300, 0.0], [0.5, 0.5])
        with pytest.raises(NonFiniteError):
            induced_metric_ts([0.5, 0.5], [1e-3, -1e-3], [1e300, 0.0])
        with pytest.raises(NonFiniteError):
            embedding_length([1e200, -1e200], [0.0, 0.0], [0.5, 0.5], MetricParams(a_coeffs=(3.0,)))

    def test_zero_displacement(self):
        assert embedding_length([0.0, 0.0], [0.0, 0.0], [0.4, 0.6]) == 0.0

    def test_hand_value(self):
        assert_allclose(embedding_length([0.1, -0.1], [0.0, 0.0], [0.5, 0.5]), 0.02, rtol=1e-14)

    def test_dominates_ray_metric(self, rng):
        for _ in range(30):
            rho = rng.dirichlet(np.ones(4)) * 0.8 + 0.05
            drho = rng.standard_normal(4)
            drho -= drho.mean()
            dpi = rng.standard_normal(4)
            full = embedding_length(drho, dpi, rho)
            ray = induced_metric_ts(rho, drho, dpi)
            assert full + 1e-12 >= ray


class TestInducedMetric:
    def test_pure_gauge_direction_is_null(self):
        rho = [0.2, 0.5, 0.3]
        value = induced_metric_ts(rho, [0.0, 0.0, 0.0], [0.7, 0.7, 0.7])
        assert abs(value) <= 1e-15

    def test_hand_value(self):
        eps = 1e-3
        value = induced_metric_ts([0.5, 0.5], [eps, -eps], [0.0, 0.0])
        assert_allclose(value, 2 * eps**2, rtol=1e-12)

    def test_closed_form_fs_expression(self, rng):
        # canonical value: sum drho^2/(2 rho) + 2 rho (dpi - <dpi>)^2
        for _ in range(20):
            rho = rng.dirichlet(np.ones(3)) * 0.8 + 0.05
            rho = rho / rho.sum()
            drho = rng.standard_normal(3)
            drho -= drho.mean()
            dpi = rng.standard_normal(3)
            mean = rho @ dpi
            expected = np.sum(drho**2 / (2 * rho) + 2 * rho * (dpi - mean) ** 2)
            assert_allclose(induced_metric_ts(rho, drho, dpi), expected, rtol=1e-12)

    def test_matches_vertex_oracle(self, rng):
        for params in AB_FAMILIES:
            rho = rng.dirichlet(np.ones(4))
            rho = 0.1 + 0.6 * rho
            rho = rho / rho.sum()
            drho = rng.standard_normal(4)
            drho -= drho.mean()
            dpi = rng.standard_normal(4)
            assert_allclose(
                induced_metric_ts(rho, drho, dpi, params),
                ray_metric_oracle(rho, drho, dpi, params),
                rtol=1e-10, atol=1e-13,
            )

    def test_params_independence(self):
        rho = np.array([0.5, 0.5])
        drho = np.array([1e-3, -1e-3])
        dpi = np.array([0.0, 0.0])
        reference = induced_metric_ts(rho, drho, dpi)
        shifted = induced_metric_ts(rho, drho, dpi, MetricParams(a_coeffs=(3.0,)))
        assert abs(shifted - reference) <= 1e-9 * abs(reference)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-10, 10))
    def test_gauge_shift_invariance(self, shift):
        rho = np.array([0.3, 0.45, 0.25])
        drho = np.array([0.02, -0.05, 0.03])
        dpi = np.array([0.4, -0.2, 1.0])
        base = induced_metric_ts(rho, drho, dpi)
        moved = induced_metric_ts(rho, drho, dpi + shift)
        assert abs(moved - base) <= 1e-12 * max(1.0, abs(base))

    def test_normalization_preconditions(self):
        with pytest.raises(NormalizationError):
            induced_metric_ts([0.5, 0.6], [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(NormalizationError):
            induced_metric_ts([0.5, 0.5], [0.1, 0.1], [0.0, 0.0])

    def test_boundary_precondition(self):
        with pytest.raises(BoundaryError):
            induced_metric_ts([1.0 - 1e-12, 1e-12], [0.0, 0.0], [0.0, 0.0])
