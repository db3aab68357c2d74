import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from simplexflow import (
    CANONICAL_PARAMS,
    BoundaryError,
    DEFAULT_PARAM_FAMILIES,
    FS_RATIO_CONSTANT,
    FsRatios,
    HamiltonianSpec,
    MetricParams,
    NonFiniteError,
    NormalizationError,
    ParamError,
    PhasePoint,
    SimplexFlowError,
    ab_independence_sweep,
    classify_flow,
    convergence_study,
    embedding_length,
    from_complex,
    fs_consistency,
    hamiltonian_vector_field,
    induced_metric_ts,
    inner_product,
    lie_derivative_metric,
    lie_derivative_symplectic,
    phase_space_metric,
    symplectic_matrix,
    to_complex,
)
from simplexflow.diagnostics import random_hermitian, sample_interior_points
from simplexflow.flows import _field_jacobian
from simplexflow.geometry import NORM_TOL, _metric_blocks, _metric_blocks_derivative, _metric_parts
from simplexflow.scenario import CONVERGENCE_EXACT_TOL, CONVERGENCE_ORDER_TOL

from conftest import SIGMA_X, SIGMA_Z, lie_derivative, spec_field, spec_kinds

CONTROL = HamiltonianSpec(kernel=np.zeros((2, 2)), nonlinear="sum_rho_squared")


def fs_ratio_oracle(rho, pi, drho, dpi, eps):
    """Brute-force route to the ray-metric / overlap-angle ratio.

    The numerator minimizes the embedding length over the gauge shift by a
    plain parabola vertex (never calling the closed-form ray metric), and the
    denominator is the arccos overlap of explicitly constructed states.
    """
    rho = np.asarray(rho, dtype=float)
    pi = np.asarray(pi, dtype=float)
    drho = np.asarray(drho, dtype=float)
    dpi = np.asarray(dpi, dtype=float)

    def q(nu):
        return embedding_length(eps * drho, eps * dpi + nu, rho)

    q_minus, q_zero, q_plus = q(-1.0), q(0.0), q(1.0)
    a = 0.5 * (q_plus + q_minus - 2.0 * q_zero)
    b = 0.5 * (q_plus - q_minus)
    numerator = q_zero - b * b / (4.0 * a)
    psi = np.sqrt(rho) * np.exp(1j * pi)
    phi = np.sqrt(rho + eps * drho) * np.exp(1j * (pi + eps * dpi))
    overlap = min(1.0, abs(np.vdot(psi, phi)))
    return numerator / np.arccos(overlap) ** 2


class TestLieDerivativeMetric:
    def test_hermitian_kernel_is_killing(self, rng):
        spec = HamiltonianSpec(kernel=SIGMA_X)
        for point in sample_interior_points(2, 5, rng=rng):
            assert np.max(np.abs(lie_derivative_metric(spec, point))) <= 1e-6

    def test_control_mixed_block_hand_value(self):
        # L_V G at the flow of sum(rho^2): mixed (rho_i, pi_i) entry -4 rho_i.
        X = PhasePoint([0.5, 0.5], [0.0, 0.0])
        residual = lie_derivative_metric(CONTROL, X)
        assert_allclose(residual[0, 2], -2.0, atol=1e-4)
        assert_allclose(residual[1, 3], -2.0, atol=1e-4)
        assert np.max(np.abs(residual)) >= 0.1

    def test_control_scales_with_strength(self):
        strong = HamiltonianSpec(kernel=np.zeros((2, 2)), nonlinear="sum_rho_squared",
                                 nonlinear_strength=2.5)
        X = PhasePoint([0.5, 0.5], [0.4, 1.0])
        assert_allclose(lie_derivative_metric(strong, X)[0, 2], -5.0, atol=1e-3)

    def test_constraint_flow_leaves_metric(self):
        X = PhasePoint([0.3, 0.7], [0.2, 1.1])
        residual = lie_derivative_metric(HamiltonianSpec.normalization(2), X)
        assert np.max(np.abs(residual)) <= 1e-10

    def test_fd_step_bounds(self):
        # The finite-difference oracle owns the step check; the closed forms have no step.
        x = PhasePoint([0.5, 0.5], [0.0, 0.0]).coordinates
        field = spec_field(CONTROL)
        with pytest.raises(ValueError):
            lie_derivative(field, lambda y: phase_space_metric(y[:2]), x, fd_step=1e-7)
        with pytest.raises(ValueError):
            lie_derivative(field, lambda y: symplectic_matrix(2), x, fd_step=1e-2)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_matches_finite_difference_oracle(self, n, rng):
        point = sample_interior_points(n, 1, rng=rng, include_barycenter=False)[0]
        for label, spec in spec_kinds(n, rng):
            field = spec_field(spec)
            for params in DEFAULT_PARAM_FAMILIES:
                exact = lie_derivative_metric(spec, point, params=params)
                oracle = lie_derivative(field, lambda y: phase_space_metric(y[:n], params),
                                        point.coordinates)
                assert np.max(np.abs(exact - oracle)) <= 1e-9, (label, params)

    @pytest.mark.parametrize("total", [0.7, 1.3])
    def test_killing_off_the_normalized_surface(self, total, rng):
        # Killing holds where B(|rho|) = 1: everywhere for the families with
        # constant B = 1, only on |rho| = 1 for the four with |rho|-dependent B.
        spec = HamiltonianSpec(kernel=random_hermitian(3, rng))
        point = sample_interior_points(3, 1, rng=rng, include_barycenter=False)[0]
        scaled = PhasePoint(total * point.rho, point.pi)
        for params in DEFAULT_PARAM_FAMILIES:
            residual = np.max(np.abs(lie_derivative_metric(spec, scaled, params=params)))
            if len(params.b_coeffs) == 1:
                assert residual <= 1e-12, params
            else:
                assert residual > 0.1, params


def dense_lie_derivatives(spec, X, params):
    """(jac^T Omega + Omega jac, jac^T G + G jac + (dg, dg^-1), max |jac^T G|):
    the dense products that the block forms replace, and their scale."""
    n = X.n
    jac = _field_jacobian(spec, X.rho, X.pi)
    omega = symplectic_matrix(n)
    G = phase_space_metric(X.rho, params)
    v_rho, _ = hamiltonian_vector_field(spec, X)
    dg, dg_inv = _metric_blocks_derivative(X.rho, v_rho, params, _metric_parts(X.rho, params), G[n:, n:])
    metric = jac.T @ G + G @ jac
    metric[:n, :n] += dg
    metric[n:, n:] += dg_inv
    return jac.T @ omega + omega @ jac, metric, np.max(np.abs(jac.T @ G))


class TestBlockProducts:
    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_lie_derivatives_match_the_dense_products(self, n, rng):
        # Bit-equal under the diagonal canonical metric, where every dense
        # sum has one nonzero term; rounding-level otherwise.
        for label, spec in spec_kinds(n, rng):
            for X in sample_interior_points(n, 2, rng=rng):
                for params in DEFAULT_PARAM_FAMILIES:
                    dense_omega, dense_g, scale = dense_lie_derivatives(spec, X, params)
                    assert np.array_equal(lie_derivative_symplectic(spec, X), dense_omega), label
                    residual = lie_derivative_metric(spec, X, params=params)
                    if params == CANONICAL_PARAMS:
                        assert np.array_equal(residual, dense_g), label
                    else:
                        assert np.max(np.abs(residual - dense_g)) <= 1e-12 * scale, (label, params)

    def test_lie_derivative_metric_refuses_a_boundary_point(self):
        # g^{-1} is finite at rho_i = 0 but g is not: the point is refused before either is formed.
        with pytest.raises(BoundaryError):
            lie_derivative_metric(HamiltonianSpec(kernel=SIGMA_X), PhasePoint([0.0, 1.0], [0.0, 0.0]))

    def test_random_hermitian_matches_the_hermitian_part_of_the_draws(self):
        # The same seeded stream gives the same matrices as 0.5 (a + a^H)
        # with a = x + i y, x drawn first.
        for seed in range(3):
            new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for n in (1, 2, 5, 32, 128):
                a = old_rng.standard_normal((n, n)) + 1j * old_rng.standard_normal((n, n))
                assert np.array_equal(random_hermitian(n, new_rng), 0.5 * (a + a.conj().T))
            assert new_rng.bit_generator.state == old_rng.bit_generator.state

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_metric_inverse_derivative_matches_the_dense_product(self, n, rng):
        # d(g^-1) = -g^-1 dg g^-1 in O(n^2), against the two dense matmuls:
        # bit-equal under the diagonal canonical metric, rounding-level
        # relative to the scale of the product's terms otherwise.
        for X in sample_interior_points(n, 3, rng=rng):
            drho = rng.standard_normal(n)
            for params in DEFAULT_PARAM_FAMILIES:
                parts = _metric_parts(X.rho, params)
                _, g_inv = _metric_blocks(parts)
                dg, dg_inv = _metric_blocks_derivative(X.rho, drho, params, parts, g_inv)
                dense = -g_inv @ dg @ g_inv
                if params == CANONICAL_PARAMS:
                    assert np.array_equal(dg_inv, dense)
                else:
                    scale = np.max(np.abs(g_inv) @ np.abs(dg) @ np.abs(g_inv))
                    assert np.max(np.abs(dg_inv - dense)) <= 1e-12 * scale, params


class TestLieDerivativeSymplectic:
    def test_nonlinear_control_still_hamiltonian(self, rng):
        for point in sample_interior_points(2, 5, rng=rng):
            assert np.max(np.abs(lie_derivative_symplectic(CONTROL, point))) <= 1e-8

    def test_hermitian_kernel(self, rng):
        spec = HamiltonianSpec(kernel=SIGMA_X + 0.2 * SIGMA_Z)
        for point in sample_interior_points(2, 5, rng=rng):
            assert np.max(np.abs(lie_derivative_symplectic(spec, point))) <= 1e-8

    def test_momentum_shear_field_is_still_hamiltonian(self):
        # u = (pi, 0) contracts with Omega to the exact gradient of |pi|^2/2,
        # so its symplectic residual vanishes despite looking synthetic.
        omega = symplectic_matrix(2)

        def field(x):
            return np.concatenate([x[2:], np.zeros(2)])

        residual = lie_derivative(field, lambda x: omega, np.array([0.4, 0.6, 0.7, 1.9]))
        assert np.max(np.abs(residual)) <= 1e-8

    def test_non_gradient_field_detected(self):
        # u = (pi_2, 0, 0, 0): Omega.u has asymmetric mixed derivatives
        # (no generating function), leaving +-1 entries in L_u Omega.
        omega = symplectic_matrix(2)

        def field(x):
            return np.array([x[3], 0.0, 0.0, 0.0])

        residual = lie_derivative(field, lambda x: omega, np.array([0.4, 0.6, 0.7, 1.9]))
        assert np.max(np.abs(residual)) >= 0.5
        assert_allclose(residual[3, 2], 1.0, atol=1e-8)
        assert_allclose(residual[2, 3], -1.0, atol=1e-8)


class TestClassifyFlow:
    def test_hermitian_kernel_is_hamilton_killing(self, rng):
        spec = HamiltonianSpec(kernel=random_hermitian(3, rng))
        points = sample_interior_points(3, 8, rng=np.random.default_rng(5))
        result = classify_flow(spec, points)
        assert result.is_hamilton_killing
        assert result.metric_residual <= 1e-6
        assert result.symplectic_residual <= 1e-8

    def test_linear_terms_break_normalization_only(self):
        spec = HamiltonianSpec(
            kernel=SIGMA_X, linear_bra=[0.5, 0.0], linear_ket=[0.5, 0.0]
        )
        result = classify_flow(spec, sample_interior_points(2, 8, rng=np.random.default_rng(6)))
        assert result.is_real_valued
        assert result.preserves_symplectic
        assert result.preserves_metric
        assert not result.preserves_normalization
        assert not result.is_hamilton_killing

    def test_nonlinear_breaks_metric_only(self):
        result = classify_flow(CONTROL, sample_interior_points(2, 8, rng=np.random.default_rng(7)))
        assert result.is_real_valued
        assert result.preserves_symplectic
        assert result.preserves_normalization
        assert not result.preserves_metric
        assert result.metric_residual >= 0.1

    def test_non_real_spec_flagged(self):
        spec = HamiltonianSpec(kernel=[[0.0, 1.0], [0.0, 0.0]])
        result = classify_flow(spec, sample_interior_points(2, 4, rng=np.random.default_rng(8)))
        assert not result.is_real_valued
        assert not result.is_hamilton_killing

    def test_deterministic_given_points(self):
        points = sample_interior_points(2, 8, rng=np.random.default_rng(9))
        first = classify_flow(CONTROL, points)
        second = classify_flow(CONTROL, points)
        assert first == second

    def test_requires_points(self):
        with pytest.raises(ValueError):
            classify_flow(CONTROL, [])


def fs_ratios_per_epsilon(psi, drho, dpi, epsilons, params=CANONICAL_PARAMS):
    """The ratios of `fs_consistency` past its base checks, one epsilon at a
    time through the validating public calls; () at a zero angle."""
    point, _ = from_complex(psi)
    ratios = []
    for eps in sorted(epsilons, reverse=True):
        numerator = induced_metric_ts(point.rho, eps * drho, eps * dpi, params)
        phi = to_complex(PhasePoint(point.rho + eps * drho, point.pi + eps * dpi))
        aligned = np.exp(1j * np.angle(inner_product(psi, phi))) * psi.psi
        angle = 2.0 * float(np.arcsin(0.5 * np.linalg.norm(aligned - phi.psi)))
        if angle == 0.0:
            return ()
        ratios.append(numerator / angle**2)
    return tuple(ratios)


class TestFsConsistency:
    EPSILONS = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)

    @pytest.mark.parametrize("n", [2, 8, 128])
    def test_rows_match_a_loop_over_epsilons(self, n, rng):
        for params in (CANONICAL_PARAMS, MetricParams(a_coeffs=(3.0,))):
            for _ in range(4):
                psi = to_complex(sample_interior_points(n, 1, rng=rng, include_barycenter=False)[0])
                drho = rng.standard_normal(n)
                drho -= drho.mean()
                dpi = rng.standard_normal(n)
                scale = 4.0 * np.sqrt(induced_metric_ts(from_complex(psi)[0].rho, drho, dpi))
                drho, dpi = drho / scale, dpi / scale
                result = fs_consistency(psi, drho, dpi, self.EPSILONS, params=params)
                assert_allclose(result.ratios, fs_ratios_per_epsilon(psi, drho, dpi, self.EPSILONS, params),
                                rtol=1e-12, atol=0)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_rejected_epsilons_raise_what_a_loop_raises(self):
        # The largest epsilon that leaves the cone, breaks tangency or
        # overflows raises the error of the call that rejects it; a zero
        # angle returns a gauge-null result instead.
        psi = to_complex(PhasePoint([0.5, 0.5], [0.0, 0.0]))
        tangent = np.array([1.0, -1.0])
        cases = [
            (tangent, np.zeros(2), (1e-2, 1.0), ValueError),  # rho + eps drho < 0
            (tangent + [0.0, 1e-13], np.zeros(2), (100.0, 1e-2), NormalizationError),  # drift, and rho < 0
            (10.0 * tangent, np.zeros(2), (1e-3, 1e308), ValueError),  # eps drho overflows
            (1e-3 * tangent, np.array([1e150, 0.0]), (1e-3, 1e160), ValueError),  # eps dpi overflows
        ]
        for drho, dpi, epsilons, error in cases:
            with pytest.raises(error) as expected:
                fs_ratios_per_epsilon(psi, drho, dpi, epsilons)
            with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
                fs_consistency(psi, drho, dpi, epsilons)
        # phi == psi at the smaller epsilon.
        assert fs_ratios_per_epsilon(psi, 1e-10 * tangent, np.zeros(2), (1e-2, 1e-10)) == ()
        result = fs_consistency(psi, 1e-10 * tangent, np.zeros(2), (1e-2, 1e-10))
        assert result.gauge_null and result.ratios == ()

    def test_tangency_is_checked_at_every_epsilon(self):
        # |sum(eps drho)| <= NORM_TOL is monotone in eps only up to the
        # rounding of the sum.  For this drho (sum 2e-13, found by a seeded
        # search) the larger epsilon is tangent and the smaller one is not.
        psi = to_complex(PhasePoint([0.25] * 4, [0.0, 0.5, 1.0, 1.5]))
        drho = np.array([-0.01729929557073841, -0.02389903460355933, 0.00642691373970591, 0.03477141643479184])
        dpi = np.array([0.1, -0.2, 0.05, 0.0])
        epsilons = (4.9998330584185355, 4.999783060087951)
        assert [abs(float((eps * drho).sum())) <= NORM_TOL for eps in epsilons] == [True, False]
        with pytest.raises(NormalizationError) as expected:
            fs_ratios_per_epsilon(psi, drho, dpi, epsilons)
        with pytest.raises(NormalizationError, match=f"^{re.escape(str(expected.value))}$"):
            fs_consistency(psi, drho, dpi, epsilons)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_probe_raises_or_reads_what_a_loop_gives(self, data):
        # Steps past eps = 1 often leave the cone; whatever the loop over the
        # epsilons raises first, the rows raise too, and otherwise they read
        # the loop's ratios.  The probes are tangent to rounding, so their
        # drift stays far below NORM_TOL at every eps drawn.
        n = data.draw(st.integers(2, 5), label="n")
        coordinates = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n).map(np.array)
        weights = data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n).map(np.array))
        psi = to_complex(PhasePoint(weights / weights.sum(), data.draw(coordinates) + np.pi))
        drho = data.draw(coordinates, label="drho")
        drho -= drho.mean()
        assume(np.ptp(drho) > 1e-3)  # not gauge-null
        dpi = data.draw(coordinates, label="dpi")
        epsilons = data.draw(st.lists(st.floats(1e-6, 20.0), min_size=1, max_size=5, unique=True), label="eps")
        params = data.draw(st.sampled_from(DEFAULT_PARAM_FAMILIES), label="params")
        try:
            expected = fs_ratios_per_epsilon(psi, drho, dpi, epsilons, params)
        except (ValueError, SimplexFlowError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                fs_consistency(psi, drho, dpi, epsilons, params=params)
            return
        result = fs_consistency(psi, drho, dpi, epsilons, params=params)
        assert_allclose(result.ratios, expected, rtol=1e-12, atol=0)

    def test_overflowing_squared_length_raises(self):
        # The steps are finite but their squares are not: the largest epsilon
        # or the base probe itself raises instead of giving nan ratios.
        psi = to_complex(PhasePoint([0.5, 0.5], [0.0, 0.0]))
        for dpi, epsilons in (([1e150, 0.0], (1e-3, 1e10)), ([1e300, 0.0], (1e-3,))):
            with pytest.raises(NonFiniteError):
                fs_consistency(psi, [1e-3, -1e-3], dpi, epsilons)

    def test_oracle_pins_frozen_constant(self):
        # Pre-build oracle for the regression value: brute-force numerator
        # and explicit overlap angle, no library ray metric involved.
        rho = np.array([0.5, 0.5])
        pi = np.zeros(2)
        value = fs_ratio_oracle(rho, pi, [1.0, -1.0], [0.0, 0.0], 1e-4)
        assert abs(value - FS_RATIO_CONSTANT) <= 1e-4
        value_pi = fs_ratio_oracle(rho, pi, [0.0, 0.0], [0.5, -0.5], 1e-4)
        assert abs(value_pi - FS_RATIO_CONSTANT) <= 1e-4

    def test_fixture_ratio(self):
        psi = to_complex(PhasePoint([0.5, 0.5], [0.0, 0.0]))
        result = fs_consistency(psi, [1.0, -1.0], [0.0, 0.0], self.EPSILONS)
        assert not result.gauge_null
        assert abs(result.limit - 2.0) <= 1e-4
        assert result.cauchy_residual <= 1e-4

    def test_successive_differences_shrink(self, rng):
        psi = to_complex(sample_interior_points(3, 1, rng=rng)[1])
        drho = rng.standard_normal(3)
        drho -= drho.mean()
        dpi = rng.standard_normal(3)
        scale = 4.0 * np.sqrt(drho @ drho + dpi @ dpi)
        result = fs_consistency(psi, drho / scale, dpi / scale, self.EPSILONS)
        diffs = np.abs(np.diff(result.ratios))
        assert np.all(np.diff(diffs) < 0)
        assert diffs[-1] <= 1e-4

    def test_direction_independent_limit(self, rng):
        psi = to_complex(sample_interior_points(2, 1, rng=rng)[1])
        limits = []
        for _ in range(5):
            drho = rng.standard_normal(2)
            drho -= drho.mean()
            dpi = rng.standard_normal(2)
            scale = 4.0 * np.sqrt(drho @ drho + dpi @ dpi)
            result = fs_consistency(psi, drho / scale, dpi / scale, self.EPSILONS)
            limits.append(result.limit)
        assert max(limits) - min(limits) <= 1e-4

    def test_limit_extrapolates_consecutive_pairs(self):
        # Ratios exactly linear in eps extrapolate to their intercept, and
        # every consecutive pair gives the same estimate.
        eps = (1e-2, 1e-3, 1e-4)
        result = FsRatios(eps, tuple(2.0 + 0.5 * e for e in eps), False)
        assert abs(result.limit - 2.0) <= 1e-15
        assert result.cauchy_residual <= 1e-15
        # With fewer than three ratios they read the raw ratios.
        short = FsRatios(eps[:2], (2.1, 2.01), False)
        assert short.limit == 2.01
        assert abs(short.cauchy_residual - 0.09) <= 1e-15

    def test_repeated_epsilons_rejected(self):
        psi = to_complex(PhasePoint([0.5, 0.5], [0.0, 0.0]))
        with pytest.raises(ValueError):
            fs_consistency(psi, [1.0, -1.0], [0.0, 0.0], (1e-3, 1e-3, 1e-4))

    def test_pure_gauge_reported_null(self):
        psi = to_complex(PhasePoint([0.4, 0.6], [0.3, 1.0]))
        result = fs_consistency(psi, [0.0, 0.0], [0.8, 0.8], (1e-3, 1e-4))
        assert result.gauge_null
        assert result.ratios == ()
        assert result.limit is None

    def test_matches_oracle_generic_point(self, rng):
        point = sample_interior_points(3, 1, rng=rng, include_barycenter=False)[0]
        psi = to_complex(point)
        drho = np.array([0.2, -0.15, -0.05])
        dpi = np.array([0.1, -0.4, 0.25])
        result = fs_consistency(psi, drho, dpi, (1e-3,))
        expected = fs_ratio_oracle(point.rho, point.pi, drho, dpi, 1e-3)
        assert_allclose(result.ratios[0], expected, rtol=1e-9)


class TestAbIndependence:
    def test_three_family_example(self):
        families = [
            MetricParams(),
            MetricParams(a_coeffs=(3.0,)),
            MetricParams(a_coeffs=(0.0, 0.0, 1.0), b_coeffs=(0.0, 1.0)),
        ]
        spread = ab_independence_sweep(
            [0.3, 0.45, 0.25], [0.02, -0.05, 0.03], [0.4, -0.2, 1.0], families
        )
        assert spread <= 1e-9

    def test_default_families(self, rng):
        point = sample_interior_points(4, 1, rng=rng, include_barycenter=False)[0]
        drho = rng.standard_normal(4)
        drho -= drho.mean()
        spread = ab_independence_sweep(point.rho, drho, rng.standard_normal(4))
        assert len(DEFAULT_PARAM_FAMILIES) >= 5
        assert spread <= 1e-9

    def test_single_family_spread_zero(self):
        spread = ab_independence_sweep(
            [0.5, 0.5], [0.01, -0.01], [0.2, 0.1], [MetricParams()]
        )
        assert spread == 0.0

    def test_wrong_units_rejected(self):
        with pytest.raises(ParamError):
            ab_independence_sweep(
                [0.5, 0.5], [0.01, -0.01], [0.0, 0.0], [MetricParams(b_coeffs=(2.0,))]
            )


class TestConvergenceStudy:
    def test_sigma_x_order_two(self):
        spec = HamiltonianSpec(kernel=SIGMA_X)
        X0 = PhasePoint([0.9, 0.1], [0.0, 0.0])
        report = convergence_study(spec, X0, (4e-3, 2e-3, 1e-3, 5e-4), 1.0)
        ratios = [row["ratio"] for row in report.convergence if "ratio" in row]
        assert len(ratios) == 3
        assert all(3.6 <= r <= 4.4 for r in ratios)
        assert 1.9 <= report.observed_order <= 2.1
        assert report.residuals["convergence.order"] <= CONVERGENCE_ORDER_TOL

    def test_identity_kernel_exact(self):
        # The Cayley angle 2 atan(h/2) lags h by h^3/12 per step: order two.
        X0 = PhasePoint([0.3, 0.7], [0.1, 0.9])
        report = convergence_study(HamiltonianSpec(kernel=np.eye(2)), X0, (1e-2, 5e-3), 0.5)
        assert abs(report.convergence[1]["ratio"] - 4.0) <= 1e-4
        assert abs(report.observed_order - 2.0) <= 1e-4
        assert report.residuals["convergence.order"] <= CONVERGENCE_ORDER_TOL
        # The zero kernel does not move the state: the exact branch, error 0.
        report = convergence_study(HamiltonianSpec(kernel=np.zeros((2, 2))), X0, (1e-2, 5e-3), 0.5)
        assert report.observed_order is None
        assert all(row["endpoint_error"] == 0.0 for row in report.convergence)
        assert report.residuals["convergence.exact"] <= CONVERGENCE_EXACT_TOL

    def test_seeded_five_level_kernel(self):
        rng = np.random.default_rng(515)
        kernel = random_hermitian(5, rng)
        kernel = kernel / np.linalg.norm(kernel, 2)
        spec = HamiltonianSpec(kernel=kernel)
        X0 = sample_interior_points(5, 1, rng=rng, include_barycenter=False)[0]
        report = convergence_study(spec, X0, (8e-3, 4e-3, 2e-3), 0.8)
        assert 1.9 <= report.observed_order <= 2.1

    def test_a_rung_above_the_entry_bound_is_rejected_before_allocation(self):
        X0 = PhasePoint([0.5, 0.5], [0.0, 0.0])
        with pytest.raises(ValueError, match=r"^steps must be at most MAX_TRAJECTORY_ENTRIES / n - 1 = 16777215 "
                                             r"at n = 2, got \d+$"):
            convergence_study(HamiltonianSpec(kernel=np.eye(2)), X0, [1e-300, 2e-300], 1.0)

    def test_rejects_non_kernel_specs(self):
        X0 = PhasePoint([0.5, 0.5], [0.0, 0.0])
        with pytest.raises(ValueError):
            convergence_study(CONTROL, X0, (1e-3,), 0.1)


class TestSamplePoints:
    def test_barycenter_first_and_interior(self):
        points = sample_interior_points(4, 8, rng=np.random.default_rng(3))
        assert len(points) == 9
        assert_allclose(points[0].rho, 0.25, atol=0)
        for point in points:
            assert point.is_normalized
            assert np.min(point.rho) >= 0.4 / 4 - 1e-12

    def test_seed_reproducibility(self):
        a = sample_interior_points(3, 5, rng=np.random.default_rng(11))
        b = sample_interior_points(3, 5, rng=np.random.default_rng(11))
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.rho, pb.rho)
            assert np.array_equal(pa.pi, pb.pi)
        with pytest.raises(TypeError):
            sample_interior_points(3, 5)  # no unseeded draws
