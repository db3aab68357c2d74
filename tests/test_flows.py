import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from simplexflow import (
    BoundaryError,
    ComplexState,
    ConfigError,
    ConvergenceError,
    DimensionError,
    HamiltonianSpec,
    HermitianOperator,
    NonFiniteError,
    NormalizationError,
    NotHermitianError,
    NotRealError,
    PhasePoint,
    Trajectory,
    bracket_from_gradients,
    check_normalization_generator,
    circle_difference,
    config_from_dict,
    eval_hamiltonian,
    from_complex,
    gauge_canonicalize,
    gradient,
    hamiltonian_vector_field,
    integrate_midpoint,
    poisson_bracket,
    propagate_unitary,
    symplectic_eval,
    to_complex,
)
from simplexflow.diagnostics import random_hermitian, sample_interior_points
from simplexflow.flows import (
    MAX_TRAJECTORY_ENTRIES,
    MIDPOINT_MAX_SWEEPS,
    MIDPOINT_TOL,
    _chart_jacobian,
    _eval_complex,
    _field_jacobian,
)

from conftest import SIGMA_X, SIGMA_Z, spec_field, spec_kinds

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def fd_gradient(spec, X, h=1e-6):
    """Independent oracle: central differences of the real part of the
    evaluated Hamiltonian."""
    n = X.n
    dr = np.empty(n)
    dp = np.empty(n)

    def value(rho, pi):
        return _eval_complex(spec, rho, pi).real

    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        dr[i] = (value(X.rho + e, X.pi) - value(X.rho - e, X.pi)) / (2 * h)
        dp[i] = (value(X.rho, X.pi + e) - value(X.rho, X.pi - e)) / (2 * h)
    return dr, dp


class TestPhasePoint:
    def test_basic_properties(self):
        X = PhasePoint([0.4, 0.6], [0.1, -0.3])
        assert X.n == 2
        assert X.is_normalized
        assert_allclose(X.coordinates, [0.4, 0.6, 0.1, -0.3])

    def test_pi_kept_as_given(self):
        X = PhasePoint([0.5, 0.5], [1.0, -1.0])
        assert_allclose(X.pi, [1.0, -1.0])
        assert_allclose(X.wrapped_pi(), [1.0, 2 * np.pi - 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            PhasePoint([0.5, -0.1], [0.0, 0.0])
        with pytest.raises(DimensionError):
            PhasePoint([0.5, 0.5], [0.0])

    def test_immutable(self):
        X = PhasePoint([0.5, 0.5], [0.0, 0.0])
        with pytest.raises(ValueError):
            X.rho[0] = 1.0

    def test_circle_difference(self):
        assert_allclose(circle_difference(0.1, 2 * np.pi + 0.1), 0.0, atol=1e-15)
        assert_allclose(circle_difference(np.pi + 0.5, 0.0), 0.5 - np.pi, atol=1e-15)

    def test_circle_difference_never_returns_minus_pi(self):
        # np.mod rounds pi - d = -4.4e-16 up to 2 pi itself, which read -pi.
        just_above_pi = np.nextafter(np.pi, 4.0)
        assert circle_difference(just_above_pi, 0.0) == np.pi
        assert circle_difference([-np.pi, np.pi, 3 * np.pi], 0.0).tolist() == [np.pi] * 3


class TestHamiltonianSpec:
    def test_valid_real_detection(self):
        assert HamiltonianSpec(kernel=SIGMA_X).is_valid_real()
        assert not HamiltonianSpec(kernel=[[0, 1], [0, 0]]).is_valid_real()
        pair = HamiltonianSpec(kernel=np.eye(2), linear_bra=[1.0, 1j], linear_ket=[1.0, -1j])
        assert pair.is_valid_real()
        assert not HamiltonianSpec(kernel=np.eye(2), linear_bra=[1.0, 0.0]).is_valid_real()

    def test_nonlinear_catalog(self):
        with pytest.raises(ValueError):
            HamiltonianSpec(kernel=np.eye(2), nonlinear="cubic")

    def test_dimension_consistency(self):
        with pytest.raises(DimensionError):
            HamiltonianSpec(kernel=np.eye(2), linear_bra=[1.0, 0.0, 0.0])

    @pytest.mark.parametrize("tag", ["sum_rho_squared", "quartic_psi"])
    def test_spec_without_a_kernel_is_refused(self, tag):
        with pytest.raises(TypeError):
            HamiltonianSpec(nonlinear=tag, nonlinear_strength=0.7)
        with pytest.raises(TypeError):
            HamiltonianSpec(linear_bra=[1.0, 1j], linear_ket=[1.0, -1j], nonlinear=tag)
        with pytest.raises(DimensionError):
            HamiltonianSpec(kernel=None, nonlinear=tag, nonlinear_strength=0.7)
        # A flow with no kernel term is written with a zero kernel.
        zero = HamiltonianSpec(kernel=np.zeros((3, 3)), nonlinear=tag, nonlinear_strength=0.7)
        K, b, s = zero.psi_form
        assert type(zero.n) is int and zero.n == 3
        assert K.shape == (3, 3) and b.shape == (3,) and not b.any() and s == 1.4
        assert zero.eigh[1].shape == (3, 3) and zero.linear_bra.shape == zero.linear_ket.shape == (3,)

    def test_hermitian_operator_is_the_pure_kernel_spec_of_its_matrix(self, rng):
        m = random_hermitian(3, rng)
        op = HermitianOperator(m)
        assert isinstance(op, HamiltonianSpec) and op.is_pure_kernel
        assert not {"eigh", "n", "matrix"} & set(vars(HermitianOperator))
        X0 = sample_interior_points(3, 1, rng=rng, include_barycenter=False)[0]
        ours, theirs = (integrate_midpoint(spec, X0, 1e-2, 20) for spec in (op, HamiltonianSpec(kernel=m)))
        assert np.array_equal(ours.psi, theirs.psi) and np.array_equal(ours.energy_defects, theirs.energy_defects)
        with pytest.raises(ValueError, match="no linear or nonlinear terms"):
            HermitianOperator(m, linear_bra=[1.0, 0.0, 0.0], linear_ket=[1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="no linear or nonlinear terms"):
            HermitianOperator(m, nonlinear="quartic_psi")
        with pytest.raises(NotHermitianError, match="matrix deviates from Hermitian by 1.000e"):
            HermitianOperator([[0.0, 1.0], [0.0, 0.0]])

    def test_normalization_factory(self):
        spec = HamiltonianSpec.normalization(3)
        X = PhasePoint([0.2, 0.3, 0.5], [0.4, 1.0, 2.0])
        value, residue = eval_hamiltonian(spec, X)
        assert_allclose(value, 0.0, atol=1e-15)
        assert residue <= 1e-15


class TestEvalHamiltonian:
    def test_identity_kernel_gives_total(self):
        value, residue = eval_hamiltonian(
            HamiltonianSpec(kernel=np.eye(2)), PhasePoint([0.5, 0.5], [0.2, 1.9])
        )
        assert_allclose(value, 1.0, rtol=1e-14)
        assert residue <= 1e-14

    def test_sigma_z_expectation(self):
        value, _ = eval_hamiltonian(
            HamiltonianSpec(kernel=SIGMA_Z), PhasePoint([0.9, 0.1], [2.2, 0.7])
        )
        assert_allclose(value, 0.8, rtol=1e-13)

    def test_non_hermitian_raises(self):
        spec = HamiltonianSpec(kernel=[[0, 1], [0, 0]])
        with pytest.raises(NotRealError):
            eval_hamiltonian(spec, PhasePoint([0.7, 0.3], [0.5, 1.3]))

    def test_quartic_matches_rho_path(self, rng):
        for _ in range(10):
            point = sample_interior_points(3, 1, rng=rng, include_barycenter=False)[0]
            a = eval_hamiltonian(HamiltonianSpec(kernel=np.zeros((3, 3)),
                                                 nonlinear="sum_rho_squared",
                                                 nonlinear_strength=0.7), point)[0]
            b = eval_hamiltonian(HamiltonianSpec(kernel=np.zeros((3, 3)),
                                                 nonlinear="quartic_psi",
                                                 nonlinear_strength=0.7), point)[0]
            assert_allclose(a, b, rtol=1e-13)


class TestVectorField:
    def test_normalization_flow_is_momentum_shift(self):
        drho, dpi = hamiltonian_vector_field(
            HamiltonianSpec.normalization(3), PhasePoint([0.2, 0.3, 0.5], [0.0, 1.0, 4.0])
        )
        assert_allclose(drho, 0.0, atol=1e-15)
        assert_allclose(dpi, 1.0, rtol=1e-14)

    def test_identity_kernel_mirrors_constraint(self):
        drho, dpi = hamiltonian_vector_field(
            HamiltonianSpec(kernel=np.eye(2)), PhasePoint([0.6, 0.4], [0.3, 2.2])
        )
        assert_allclose(drho, 0.0, atol=1e-15)
        assert_allclose(dpi, -1.0, rtol=1e-14)

    def test_sigma_x_hand_derivative(self):
        # H = 2 sqrt(rho1 rho2) cos(pi1 - pi2); at the symmetric point the
        # rho velocities vanish and both momenta decay at unit rate.
        drho, dpi = hamiltonian_vector_field(
            HamiltonianSpec(kernel=SIGMA_X), PhasePoint([0.5, 0.5], [0.0, 0.0])
        )
        assert_allclose(drho, [0.0, 0.0], atol=1e-15)
        assert_allclose(dpi, [-1.0, -1.0], rtol=1e-14)

    def test_gradient_against_finite_differences(self, rng):
        # Every spec kind, a kernel with a 1e-3 anti-Hermitian part (whose
        # gradient is that of the real part of the value), and a nonlinear
        # term on a zero kernel.
        for n in (2, 3, 8):
            bra = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            anti = random_hermitian(n, rng)
            specs = spec_kinds(n, rng) + [
                ("all_terms", HamiltonianSpec(kernel=random_hermitian(n, rng), linear_bra=bra,
                                              linear_ket=np.conj(bra), nonlinear="sum_rho_squared",
                                              nonlinear_strength=0.4)),
                ("anti_hermitian", HamiltonianSpec(kernel=random_hermitian(n, rng) + 1e-3j * anti)),
                ("nonlinear_only", HamiltonianSpec(kernel=np.zeros((n, n)), nonlinear="sum_rho_squared",
                                                   nonlinear_strength=0.7)),
            ]
            for point in sample_interior_points(n, 3, rng=rng):
                for label, spec in specs:
                    dr, dp = gradient(spec, point)
                    fd_r, fd_p = fd_gradient(spec, point)
                    assert_allclose(dr, fd_r, atol=5e-8, rtol=1e-6, err_msg=f"{label}, n = {n}")
                    assert_allclose(dp, fd_p, atol=5e-8, rtol=1e-6, err_msg=f"{label}, n = {n}")

    def test_requires_real_spec(self):
        with pytest.raises(NotRealError):
            hamiltonian_vector_field(
                HamiltonianSpec(kernel=[[0, 1], [0, 0]]), PhasePoint([0.5, 0.5], [0.0, 0.0])
            )

    def test_boundary_rejected(self):
        with pytest.raises(BoundaryError):
            hamiltonian_vector_field(
                HamiltonianSpec(kernel=SIGMA_X), PhasePoint([1.0 - 1e-11, 1e-11], [0.0, 0.0])
            )


def fd_field_jacobian(field, x, rel_step=1e-6):
    """Independent oracle: central differences of ``field`` at the 2n
    coordinates x = (rho, pi), with each rho step taken relative to rho_i so
    that the 1/rho terms stay resolved."""
    n = x.size // 2
    columns = []
    for c in range(2 * n):
        e = np.zeros(2 * n)
        e[c] = rel_step * (x[c] if c < n else 1.0)
        columns.append((field(x + e) - field(x - e)) / (2.0 * e[c]))
    return np.stack(columns, axis=1)


class TestFieldJacobian:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_matches_central_differences(self, n, rng):
        nonlinear_only = ("nonlinear_only", HamiltonianSpec(kernel=np.zeros((n, n)), nonlinear="quartic_psi",
                                                             nonlinear_strength=0.7))
        for point in sample_interior_points(n, 2, rng=rng):
            for label, spec in spec_kinds(n, rng) + [nonlinear_only]:
                exact = _field_jacobian(spec, point.rho, point.pi)
                oracle = fd_field_jacobian(spec_field(spec), point.coordinates)
                error = np.max(np.abs(exact - oracle)) / np.max(np.abs(oracle))
                assert error <= 1e-7, (label, error)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_transform_of_a_field_that_is_not_a_hamiltonians(self, n, rng):
        # w = A psi + c conj(psi) with A not Hermitian: dw/dpsi = A and
        # dw/dconj(psi) = diag(c), so the chain rule is pinned apart from any spec.
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)

        def field(x):
            """V = (2 Im q, -Re q / rho) for q = conj(psi) w, written out."""
            rho, pi = np.split(x, 2)
            psi = np.sqrt(rho) * np.exp(1j * pi)
            q = np.conj(psi) * (A @ psi + c * np.conj(psi))
            return np.concatenate([2.0 * q.imag, -q.real / rho])

        for point in sample_interior_points(n, 2, rng=rng):
            psi = np.sqrt(point.rho) * np.exp(1j * point.pi)
            exact = _chart_jacobian(psi, point.rho, A @ psi + c * np.conj(psi), A, np.zeros(n), c)
            oracle = fd_field_jacobian(field, point.coordinates)
            error = np.max(np.abs(exact - oracle)) / np.max(np.abs(oracle))
            assert error <= 1e-7, error


class TestPoissonBracket:
    def test_constraint_commutes_with_kernels(self, rng):
        for n in (2, 3, 5):
            constraint = HamiltonianSpec.normalization(n)
            for _ in range(5):
                spec = HamiltonianSpec(kernel=random_hermitian(n, rng))
                point = sample_interior_points(n, 1, rng=rng, include_barycenter=False)[0]
                assert abs(poisson_bracket(constraint, spec, point)) <= 1e-12

    def test_self_bracket_vanishes(self, rng):
        spec = HamiltonianSpec(kernel=random_hermitian(4, rng))
        point = sample_interior_points(4, 1, rng=rng)[0]
        assert poisson_bracket(spec, spec, point) == 0.0

    def test_pauli_fixture(self):
        # {x~, z~} = -i<psi|[sx, sz]|psi> = -2 <sy> = -2 at psi = (1, i)/sqrt(2)
        point = PhasePoint([0.5, 0.5], [0.0, np.pi / 2])
        value = poisson_bracket(
            HamiltonianSpec(kernel=SIGMA_X), HamiltonianSpec(kernel=SIGMA_Z), point
        )
        assert_allclose(value, -2.0, atol=1e-12)

    def test_canonical_coordinate_brackets(self):
        # rho_i as bilinear kernels; pi_j via its literal gradient (it is not
        # a bilinear function, so it enters through the contraction).
        n = 3
        point = PhasePoint([0.2, 0.5, 0.3], [0.3, 1.2, 5.1])
        for i in range(n):
            e_ii = np.zeros((n, n), dtype=complex)
            e_ii[i, i] = 1.0
            rho_i = gradient(HamiltonianSpec(kernel=e_ii), point)
            for j in range(n):
                e_jj = np.zeros((n, n), dtype=complex)
                e_jj[j, j] = 1.0
                rho_j = gradient(HamiltonianSpec(kernel=e_jj), point)
                pi_j = (np.zeros(n), np.eye(n)[j])
                assert abs(bracket_from_gradients(rho_i, rho_j)) <= 1e-14
                assert abs(bracket_from_gradients(rho_i, pi_j) - (i == j)) <= 1e-14
                pi_i = (np.zeros(n), np.eye(n)[i])
                assert abs(bracket_from_gradients(pi_i, pi_j)) <= 1e-14

    def test_antisymmetry(self, rng):
        a = HamiltonianSpec(kernel=random_hermitian(3, rng))
        b = HamiltonianSpec(kernel=random_hermitian(3, rng))
        point = sample_interior_points(3, 1, rng=rng)[0]
        assert_allclose(poisson_bracket(a, b, point), -poisson_bracket(b, a, point), rtol=1e-12)


class TestNormalizationGenerator:
    def test_hermitian_kernel_conserves(self, rng):
        for _ in range(10):
            spec = HamiltonianSpec(kernel=random_hermitian(4, rng))
            point = sample_interior_points(4, 1, rng=rng, include_barycenter=False)[0]
            assert abs(check_normalization_generator(spec, point)) <= 1e-12

    def test_linear_term_breaks_conservation(self):
        spec = HamiltonianSpec(kernel=np.zeros((2, 2)), linear_bra=[1.0, 0.0])
        point = PhasePoint([0.6, 0.4], [0.8, 0.1])
        assert abs(check_normalization_generator(spec, point)) > 1e-3

    def test_constraint_itself(self):
        point = PhasePoint([0.3, 0.7], [1.0, 2.0])
        assert check_normalization_generator(HamiltonianSpec.normalization(2), point) == 0.0


class TestIntegrateMidpoint:
    def test_identity_kernel_exact_linear_flow(self):
        # The Cayley step turns each phase by the angle 2 atan(h/2) per step.
        spec = HamiltonianSpec(kernel=np.eye(2))
        X0 = PhasePoint([0.3, 0.7], [0.5, 2.0])
        traj = integrate_midpoint(spec, X0, 0.01, 100)
        end = traj.point(-1)
        assert_allclose(end.rho, X0.rho, rtol=0, atol=1e-13)
        assert_allclose(end.pi, X0.pi - 200 * np.arctan(0.005), rtol=0, atol=1e-13)
        assert np.max(traj.norm_defects) <= 1e-13
        assert np.max(traj.energy_defects) <= 1e-13

    def test_constraint_flow_shifts_momenta(self):
        spec = HamiltonianSpec.normalization(3)
        X0 = PhasePoint([0.2, 0.3, 0.5], [0.0, 1.0, 2.0])
        traj = integrate_midpoint(spec, X0, 0.05, 40)
        end = traj.point(-1)
        assert_allclose(end.rho, X0.rho, rtol=0, atol=1e-13)
        assert_allclose(end.pi, X0.pi + 80 * np.arctan(0.025), rtol=0, atol=1e-13)

    def test_second_order_against_unitary_oracle(self):
        spec = HamiltonianSpec(kernel=SIGMA_X)
        X0 = PhasePoint([0.9, 0.1], [0.0, 0.0])
        psi0 = to_complex(X0)
        errors = []
        for h in (2e-3, 1e-3):
            steps = int(round(0.5 / h))
            traj = integrate_midpoint(spec, X0, h, steps)
            exact = propagate_unitary(HermitianOperator(SIGMA_X), psi0, steps * h)
            errors.append(np.linalg.norm(traj.psi[-1] - exact.psi))
        assert 3.6 <= errors[0] / errors[1] <= 4.4

    def test_defect_columns_recorded(self):
        spec = HamiltonianSpec(kernel=SIGMA_X)
        traj = integrate_midpoint(spec, PhasePoint([0.6, 0.4], [0.0, 0.0]), 1e-3, 50)
        assert len(traj) == 51
        assert traj.parameter_values[0] == 0.0
        assert np.all(np.diff(traj.parameter_values) > 0)
        assert np.max(traj.norm_defects) <= 1e-13
        assert traj.energy_defects[0] == 0.0

    def test_flow_through_zero_weight_matches_unitary_oracle(self):
        # Under sigma_x both starts reach rho_i = 0, a regular point in psi.
        for psi0 in ([INV_SQRT2, -1j * INV_SQRT2], [1.0, 0.0]):
            X0, _ = from_complex(ComplexState(psi0))
            traj = integrate_midpoint(HamiltonianSpec(kernel=SIGMA_X), X0, 1e-3, 5000)
            exact = propagate_unitary(HermitianOperator(SIGMA_X), to_complex(X0), 5.0)
            assert np.min(traj.rho) <= 1e-7
            assert np.all(np.isfinite(traj.pi))
            assert np.linalg.norm(traj.psi[-1] - exact.psi) <= 4.5e-7
            assert np.max(traj.norm_defects) <= 1e-12

    def test_convergence_error_with_starved_iterations(self):
        spec = HamiltonianSpec(kernel=SIGMA_X, nonlinear="quartic_psi")
        X0 = PhasePoint([0.6, 0.4], [0.3, 1.1])
        with pytest.raises(ConvergenceError) as excinfo:
            integrate_midpoint(spec, X0, 1.0, 1)
        assert str(excinfo.value) == "midpoint fixed point missed tolerance 1e-13 after 50 sweeps at step 1"
        assert (MIDPOINT_TOL, MIDPOINT_MAX_SWEEPS) == (1e-13, 50)
        assert len(integrate_midpoint(spec, X0, 1e-2, 1)) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_solve_stops_without_overflow_warnings(self):
        X0 = PhasePoint([0.9, 0.1], [0.0, 0.0])
        strong = HamiltonianSpec(kernel=SIGMA_X, nonlinear="quartic_psi", nonlinear_strength=100.0)
        with pytest.raises(ConvergenceError, match="midpoint fixed point diverged at step 1$"):
            integrate_midpoint(strong, X0, 0.01, 10)
        # A solve that stays finite but does not settle keeps its message.
        slow = HamiltonianSpec(kernel=SIGMA_X, nonlinear="quartic_psi", nonlinear_strength=40.0)
        with pytest.raises(ConvergenceError) as excinfo:
            integrate_midpoint(slow, X0, 0.01, 10)
        assert str(excinfo.value) == "midpoint fixed point missed tolerance 1e-13 after 50 sweeps at step 1"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_raises_non_finite_error_without_warnings(self):
        X0 = PhasePoint([0.36, 0.64], [0.0, 0.0])
        huge = HamiltonianSpec(kernel=np.diag([1e300, -1e300]))
        with pytest.raises(NonFiniteError, match="step coefficients are not finite"):
            integrate_midpoint(huge, X0, 1e10, 3)
        # Finite coefficients, but |psi|^2 overflows after the first step.
        bra = np.array([1e307, 0.0])
        shifted = HamiltonianSpec(kernel=np.zeros((2, 2)), linear_bra=bra, linear_ket=bra)
        with pytest.raises(NonFiniteError, match="state is not finite at step 1$"):
            integrate_midpoint(shifted, X0, 10.0, 5)

    def test_a_trajectory_above_the_entry_bound_is_rejected_before_allocation(self):
        X0 = PhasePoint([0.36, 0.64], [0.0, 0.0])
        with pytest.raises(ValueError, match=r"^steps must be at most MAX_TRAJECTORY_ENTRIES / n - 1 = 16777215 "
                                             r"at n = 2, got 1000000000000000$"):
            integrate_midpoint(HamiltonianSpec(kernel=np.eye(2)), X0, 1e-3, 10**15)
        assert MAX_TRAJECTORY_ENTRIES == 2**25

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_step_solves_the_midpoint_equation(self, n, rng):
        # (psi1 - psi0)/h equals the real-chart field at the midpoint state,
        # pushed into psi by dpsi = psi (drho / (2 rho) + i dpi).
        h = 1e-2
        for label, spec in spec_kinds(n, rng):
            X0 = sample_interior_points(n, 1, rng=rng, include_barycenter=False)[0]
            psi0, psi1 = integrate_midpoint(spec, X0, h, 1).psi
            mid, _ = from_complex(ComplexState(0.5 * (psi0 + psi1)))
            fr, fp = hamiltonian_vector_field(spec, mid)
            field = 0.5 * (psi0 + psi1) * (fr / (2 * mid.rho) + 1j * fp)
            assert np.max(np.abs((psi1 - psi0) / h - field)) <= 1e-12, label

    @pytest.mark.parametrize("n", [8, 128])
    def test_pure_kernel_conserves_energy_to_rounding(self, n):
        rng = np.random.default_rng(n)
        kernel = random_hermitian(n, rng)
        kernel /= np.linalg.norm(kernel, 2)
        X0 = sample_interior_points(n, 1, rng=rng, include_barycenter=False)[0]
        traj = integrate_midpoint(HamiltonianSpec(kernel=kernel), X0, 1e-3, 1000)
        assert np.max(traj.energy_defects) <= 1e-13
        assert np.max(traj.norm_defects) <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_every_step_solves_the_midpoint_equation(self, n, rng):
        # Steps 5 on start from the extrapolated kicks, so check each one.
        h = 1e-2
        for label, spec in spec_kinds(n, rng)[2:]:
            X0 = sample_interior_points(n, 1, rng=rng, include_barycenter=False)[0]
            psi = integrate_midpoint(spec, X0, h, 12).psi
            for k, (psi0, psi1) in enumerate(zip(psi[:-1], psi[1:])):
                mid, _ = from_complex(ComplexState(0.5 * (psi0 + psi1)))
                fr, fp = hamiltonian_vector_field(spec, mid)
                field = 0.5 * (psi0 + psi1) * (fr / (2 * mid.rho) + 1j * fp)
                assert np.max(np.abs((psi1 - psi0) / h - field)) <= 1e-12, (label, k)

    def test_affine_rows_follow_the_reference_recurrence_bit_for_bit(self, rng):
        h, steps = 1e-2, 30
        for label, spec in spec_kinds(3, rng)[:2]:
            X0 = sample_interior_points(3, 1, rng=rng, include_barycenter=False)[0]
            traj = integrate_midpoint(spec, X0, h, steps)
            w, V = spec.eigh
            denom = 1.0 + 0.5j * h * w
            rotation = (1.0 - 0.5j * h * w) / denom
            V_h = V.conj().T
            shift = (-1j * h / denom) * (V_h @ spec.psi_form[1])
            phi = np.empty((steps + 1, 3), dtype=complex)
            phi[0] = V_h @ traj.psi[0]
            for k in range(steps):
                phi[k + 1] = rotation * phi[k] + shift
            assert np.array_equal(traj.psi[1:], (phi @ V.T)[1:]), label
            assert not traj.sweeps.any(), label


    def test_extrapolated_start_leaves_one_sweep_per_step(self):
        rng = np.random.default_rng(8)
        kernel = random_hermitian(8, rng)
        kernel /= np.linalg.norm(kernel, 2)
        X0 = sample_interior_points(8, 1, rng=rng, include_barycenter=False)[0]
        spec = HamiltonianSpec(kernel=kernel, nonlinear="quartic_psi")
        sweeps = integrate_midpoint(spec, X0, 1e-3, 200).sweeps
        assert sweeps.shape == (200,) and sweeps.min() >= 1
        assert sweeps[4:].mean() <= 1.1

    @pytest.mark.parametrize("strength, h, explicit_start_sweeps", [(10.0, 1e-2, 1288), (5.0, 5e-2, 2392),
                                                                    (1.0, 0.3, 3002)])
    def test_stiff_solves_need_no_more_sweeps_than_the_explicit_start(self, strength, h, explicit_start_sweeps):
        # The totals of a solve that starts every step from the explicit
        # predictor, over the same 100 steps.
        spec = HamiltonianSpec(kernel=SIGMA_X, nonlinear="quartic_psi", nonlinear_strength=strength)
        traj = integrate_midpoint(spec, PhasePoint([0.6, 0.4], [0.3, 1.1]), h, 100)
        assert traj.sweeps.sum() <= explicit_start_sweeps

    def test_parameter_validation(self):
        X0 = PhasePoint([0.6, 0.4], [0.0, 0.0])
        for spec in (HamiltonianSpec(kernel=SIGMA_X), HamiltonianSpec(kernel=SIGMA_X, nonlinear="quartic_psi")):
            with pytest.raises(ValueError):
                integrate_midpoint(spec, X0, -1e-3, 10)
            with pytest.raises(ValueError):
                integrate_midpoint(spec, X0, 1e-3, 0)

    @pytest.mark.parametrize("h, steps, message", [
        (1e-3, True, "steps must be an integer >= 1, got True"),
        (1e-3, 2.0, "steps must be an integer >= 1, got 2.0"),
        (True, 3, "h must be a positive number, got True"),
        (10**400, 3, f"h must be a positive number, got {10**400}"),
        (np.nan, 0, "h must be a positive number, got nan; steps must be an integer >= 1, got 0"),
        (1e-3, 10**15, "steps must be at most MAX_TRAJECTORY_ENTRIES / n - 1 = 16777215 at n = 2, got 1000000000000000"),
    ], ids=["steps_true", "steps_float", "h_true", "h_beyond_float", "both", "steps_too_many"])
    def test_the_library_refuses_what_the_config_refuses_in_its_words(self, h, steps, message):
        X0 = PhasePoint([0.6, 0.4], [0.0, 0.0])
        with pytest.raises(ValueError) as excinfo:
            integrate_midpoint(HamiltonianSpec(kernel=SIGMA_X), X0, h, steps)
        assert str(excinfo.value) == message
        config = {"schema_version": 1, "n": 2, "hamiltonian": {"kernel": {"real": [[0.0, 1.0], [1.0, 0.0]]}},
                  "initial_state": {"rho": [0.6, 0.4], "pi": [0.0, 0.0]}, "integrator": {"h": h, "steps": steps}}
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict(config)
        assert excinfo.value.errors == [f"integrator.{part}" for part in message.split("; ")]

    def test_numpy_scalars_are_numbers_to_the_step_rule(self):
        X0 = PhasePoint([0.6, 0.4], [0.0, 0.0])
        traj = integrate_midpoint(HamiltonianSpec(kernel=SIGMA_X), X0, np.float32(0.5), np.int64(3))
        assert len(traj) == 4 and traj.parameter_values[-1] == 1.5

    def test_step_map_is_symplectic(self, rng):
        # Push tangent pairs through the finite-difference Jacobian of one step.
        spec = HamiltonianSpec(kernel=SIGMA_X + 0.4 * SIGMA_Z)
        x0 = np.array([0.55, 0.45, 0.4, 1.3])
        h, delta = 1e-2, 1e-5

        def step(x):
            traj = integrate_midpoint(spec, PhasePoint(x[:2], x[2:]), h, 1)
            return traj.point(-1).coordinates

        jac = np.empty((4, 4))
        for c in range(4):
            e = np.zeros(4)
            e[c] = delta
            jac[:, c] = (step(x0 + e) - step(x0 - e)) / (2 * delta)
        for _ in range(10):
            u, v = rng.standard_normal((2, 4))
            assert abs(symplectic_eval(jac @ u, jac @ v) - symplectic_eval(u, v)) <= 1e-8

    def test_bracket_gives_time_derivative(self):
        # dF/dtau = {F, H} checked against trajectory finite differences.
        spec = HamiltonianSpec(kernel=SIGMA_X)
        h = 1e-3
        traj = integrate_midpoint(spec, PhasePoint([0.7, 0.3], [0.2, 1.4]), h, 200)
        e_11 = np.zeros((2, 2), dtype=complex)
        e_11[0, 0] = 1.0
        rho1 = HamiltonianSpec(kernel=e_11)
        for k in (50, 100, 150):
            fd = (traj.rho[k + 1, 0] - traj.rho[k - 1, 0]) / (2 * h)
            bracket = poisson_bracket(rho1, spec, traj.point(k))
            assert abs(fd - bracket) <= 1e-4
            energy_fd = (
                eval_hamiltonian(spec, traj.point(k + 1))[0]
                - eval_hamiltonian(spec, traj.point(k - 1))[0]
            ) / (2 * h)
            assert abs(energy_fd - poisson_bracket(spec, spec, traj.point(k))) <= 1e-6

    def test_flow_reversal_symmetric_kernel(self):
        # Real symmetric kernels: reversing (rho, pi) -> (rho, -pi) and the
        # parameter retraces the trajectory.
        spec = HamiltonianSpec(kernel=SIGMA_X + 0.3 * SIGMA_Z)
        X0 = PhasePoint([0.7, 0.3], [0.4, 2.1])
        forward = integrate_midpoint(spec, X0, 1e-3, 300)
        end = forward.point(-1)
        back = integrate_midpoint(spec, PhasePoint(end.rho, -np.asarray(end.pi)), 1e-3, 300)
        returned = back.point(-1)
        assert_allclose(returned.rho, X0.rho, atol=1e-9)
        assert np.max(np.abs(circle_difference(returned.pi, -np.asarray(X0.pi)))) <= 1e-9


class TestGaugeCanonicalize:
    def test_constant_shift_removed(self):
        X = gauge_canonicalize(PhasePoint([0.5, 0.5], [1.7, 1.7]))
        assert_allclose(X.pi, [0.0, 0.0], atol=1e-15)

    def test_balanced_point_fixed(self):
        X0 = PhasePoint([0.5, 0.5], [1.0, -1.0])
        X = gauge_canonicalize(X0)
        assert_allclose(X.pi, X0.pi, atol=0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-8, 8), min_size=3, max_size=3))
    def test_idempotent(self, pi):
        X = PhasePoint([0.2, 0.5, 0.3], pi)
        once = gauge_canonicalize(X)
        twice = gauge_canonicalize(once)
        assert abs(float(once.rho @ once.pi)) <= 1e-13
        assert_allclose(twice.pi, once.pi, atol=1e-13)

    def test_requires_normalized(self):
        with pytest.raises(NormalizationError):
            gauge_canonicalize(PhasePoint([0.5, 0.6], [0.0, 0.0]))


class TestTrajectoryType:
    def test_invariants_enforced(self):
        psi = np.full((2, 2), INV_SQRT2, dtype=complex)
        pi = np.zeros((2, 2))
        traj = Trajectory(np.array([0.0, 0.1]), psi, pi, np.zeros(2), np.zeros(2))
        assert len(traj) == 2 and traj.n == 2
        assert_allclose(traj.rho, 0.5, rtol=1e-15)
        assert_allclose(traj.point(1).rho, traj.rho[1], rtol=0, atol=0)
        assert not traj.psi.flags.writeable and not traj.pi.flags.writeable
        assert traj.sweeps.tolist() == [0] and not traj.sweeps.flags.writeable
        with pytest.raises(DimensionError):
            Trajectory(np.array([0.0, 0.1]), psi, pi, np.zeros(2), np.zeros(2), sweeps=[1, 1])
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), psi, pi, np.zeros(2), np.zeros(2))
        with pytest.raises(DimensionError):
            Trajectory(np.array([0.0, 0.1]), psi, pi, np.zeros(3), np.zeros(2))
        with pytest.raises(DimensionError):
            Trajectory(np.array([0.0, 0.1]), psi, np.zeros((2, 3)), np.zeros(2), np.zeros(2))
        with pytest.raises(DimensionError):
            Trajectory(np.array([0.0, 0.1]), psi[0], pi[0], np.zeros(2), np.zeros(2))
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="psi has non-finite entries"):
                Trajectory(np.array([0.0, 0.1]), np.where([[True, False]] * 2, psi, bad), pi,
                           np.zeros(2), np.zeros(2))
            with pytest.raises(ValueError, match="pi has non-finite entries"):
                Trajectory(np.array([0.0, 0.1]), psi, np.where([[True, False]] * 2, pi, bad),
                           np.zeros(2), np.zeros(2))

    def test_momenta_continuous_and_held_at_zero_amplitude(self):
        # Under sigma_z psi_2 stays exactly 0, so pi_2 keeps its initial
        # value, while pi_1 winds past -2 pi without being wrapped.
        X0 = PhasePoint([1.0, 0.0], [0.3, 2.5])
        traj = integrate_midpoint(HamiltonianSpec(kernel=SIGMA_Z), X0, 0.05, 200)
        assert np.all(traj.pi[:, 1] == 2.5)
        winding = 0.3 - 2 * np.arange(201) * np.arctan(0.025)
        assert_allclose(traj.pi[:, 0], winding, rtol=0, atol=1e-14)
        # Under sigma_x psi_2 leaves 0 at once; every row's momenta give back psi.
        traj = integrate_midpoint(HamiltonianSpec(kernel=SIGMA_X), X0, 0.05, 400)
        rebuilt = np.sqrt(traj.rho) * np.exp(1j * traj.pi)
        assert_allclose(rebuilt[1:], traj.psi[1:], rtol=0, atol=1e-14)
