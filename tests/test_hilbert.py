import numpy as np
import pytest
from numpy.testing import assert_allclose

from simplexflow import (
    BoundaryError,
    ComplexState,
    DimensionError,
    HamiltonianSpec,
    HermitianOperator,
    NotHermitianError,
    NotRealError,
    PhasePoint,
    commutator_identity_check,
    from_complex,
    hamiltonian_vector_field,
    inner_product,
    propagate_unitary,
    symplectic_matrix,
    to_complex,
)
from simplexflow.diagnostics import random_hermitian, sample_interior_points

from conftest import SIGMA_X, SIGMA_Z, psi_tensors

INV_SQRT2 = 1.0 / np.sqrt(2.0)


class TestChart:
    def test_to_complex_flat_point(self):
        state = to_complex(PhasePoint([0.5, 0.5], [0.0, 0.0]))
        assert_allclose(state.psi, [0.70710678 + 0j, 0.70710678 + 0j], atol=1e-8)

    def test_to_complex_zero_amplitude(self):
        state = to_complex(PhasePoint([1.0, 0.0], [2.2, 0.9]))
        assert_allclose(state.psi[1], 0.0, atol=0)
        assert_allclose(state.psi[0], np.exp(2.2j), rtol=1e-15)

    def test_to_complex_quarter_phase(self):
        state = to_complex(PhasePoint([0.5, 0.5], [np.pi / 2, 0.0]))
        assert_allclose(state.psi, [0.70710678j, 0.70710678 + 0j], atol=1e-8)

    def test_from_complex_modulus_argument(self):
        point, flags = from_complex(ComplexState([0.6, 0.8j]))
        assert_allclose(point.rho, [0.36, 0.64], rtol=1e-15)
        assert_allclose(point.pi, [0.0, np.pi / 2], atol=1e-15)
        assert not flags.any()

    def test_from_complex_maps_a_phase_just_below_zero_to_zero(self):
        # np.mod(-1e-20, 2 pi) rounds to 2 pi itself, outside [0, 2 pi).
        point, _ = from_complex(ComplexState([0.6, 0.8 * np.exp(-1e-20j)]))
        assert point.pi.tolist() == [0.0, 0.0]
        assert PhasePoint(point.rho, [0.0, -1e-20]).wrapped_pi().tolist() == [0.0, 0.0]

    def test_round_trip(self):
        X = PhasePoint([0.3, 0.7], [1.0, 5.0])
        back, flags = from_complex(to_complex(X))
        assert_allclose(back.rho, X.rho, atol=1e-14)
        assert_allclose(back.pi, X.pi, atol=1e-14)
        assert not flags.any()

    def test_phase_flagged_at_zero_amplitude(self):
        point, flags = from_complex(ComplexState([1.0, 0.0]))
        assert_allclose(point.rho, [1.0, 0.0], atol=0)
        assert point.pi[1] == 0.0
        assert flags.tolist() == [False, True]

    def test_field_pushed_through_chart_jacobian(self, rng):
        # The real-coordinate flow maps to d(psi)/dtau = -i K psi.
        delta = 5e-6
        for n, rho in ((2, [0.5, 0.5]), (3, [0.4, 0.35, 0.25])):
            K = random_hermitian(n, rng)
            spec = HamiltonianSpec(kernel=K)
            X = PhasePoint(rho, rng.uniform(0, 2 * np.pi, n))
            V = np.concatenate(hamiltonian_vector_field(spec, X))
            x0 = X.coordinates
            dpsi = np.zeros(n, dtype=complex)
            for c in range(2 * n):
                e = np.zeros(2 * n)
                e[c] = delta
                plus = to_complex(PhasePoint((x0 + e)[:n], (x0 + e)[n:])).psi
                minus = to_complex(PhasePoint((x0 - e)[:n], (x0 - e)[n:])).psi
                dpsi += (plus - minus) / (2 * delta) * V[c]
            expected = -1j * K @ to_complex(X).psi
            assert np.max(np.abs(dpsi - expected)) <= 1e-10


class TestInnerProduct:
    def test_normalized_self_product(self):
        psi = ComplexState([INV_SQRT2, INV_SQRT2 * 1j])
        assert_allclose(inner_product(psi, psi), 1.0, atol=1e-15)

    def test_orthogonal_basis_states(self):
        assert inner_product(ComplexState([1, 0]), ComplexState([0, 1])) == 0.0

    def test_hadamard_pair(self):
        plus = ComplexState([INV_SQRT2, INV_SQRT2])
        minus = ComplexState([INV_SQRT2, -INV_SQRT2])
        assert_allclose(inner_product(plus, minus), 0.0, atol=1e-16)

    def test_conjugate_symmetry_and_linearity(self, rng):
        for _ in range(20):
            a = ComplexState(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            b = ComplexState(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            assert_allclose(np.conj(inner_product(a, b)), inner_product(b, a), rtol=1e-14)
            c = 0.3 - 1.2j
            scaled = ComplexState(c * b.psi)
            assert_allclose(inner_product(a, scaled), c * inner_product(a, b), rtol=1e-13)

    def test_self_product_is_total_weight(self, rng):
        psi = ComplexState(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        value = inner_product(psi, psi)
        assert_allclose(value.imag, 0.0, atol=1e-14)
        assert_allclose(value.real, psi.rho_total, rtol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            inner_product(ComplexState([1, 0]), ComplexState([1, 0, 0]))


class TestPsiTensors:
    def test_single_mode_blocks(self):
        G, omega, J = psi_tensors(1)
        assert_allclose(G, -1j * np.array([[0, 1], [1, 0]]), atol=0)
        assert_allclose(omega, np.array([[0, 1], [-1, 0]]), atol=0)
        assert_allclose(J, np.diag([1j, -1j]), atol=0)

    def test_square_root_of_minus_identity(self):
        _, _, J = psi_tensors(4)
        assert_allclose(J @ J, -np.eye(8), atol=0)

    def test_symplectic_pattern_matches_real_chart(self):
        _, omega, _ = psi_tensors(3)
        assert_allclose(omega, symplectic_matrix(3), atol=0)

    def test_inner_product_from_tensors_by_hand(self, rng):
        # The (G + i Omega)/2 contraction of the coordinate pairs is the
        # inner product, at every n, to 1e-13 relative to max(1, |<psi|phi>|).
        for n in (1, 2, 3, 8, 32, 128):
            G, omega, _ = psi_tensors(n)
            psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            a = np.concatenate([psi, 1j * np.conj(psi)])
            b = np.concatenate([phi, 1j * np.conj(phi)])
            value = 0.5 * a @ ((G + 1j * omega) @ b)
            direct = inner_product(ComplexState(psi), ComplexState(phi))
            assert direct == np.vdot(psi, phi)
            assert abs(value - direct) <= 1e-13 * max(1.0, abs(direct)), n


class TestPropagateUnitary:
    def test_sigma_x_quarter_turn(self):
        out = propagate_unitary(HermitianOperator(SIGMA_X), ComplexState([1.0, 0.0]), np.pi / 2)
        assert_allclose(out.psi, [0.0, -1.0j], atol=1e-14)

    def test_identity_kernel_constant_phase(self):
        psi0 = ComplexState([0.6, 0.8j])
        out = propagate_unitary(HermitianOperator(np.eye(2)), psi0, 1.3)
        assert_allclose(out.psi, np.exp(-1.3j) * psi0.psi, rtol=1e-14)

    def test_zero_time_identity(self):
        psi0 = ComplexState([0.3, 0.4, 0.5j])
        out = propagate_unitary(HermitianOperator(np.eye(3)), psi0, 0.0)
        assert_allclose(out.psi, psi0.psi, atol=0)

    def test_norm_preservation_and_composition(self, rng):
        K = HermitianOperator(random_hermitian(4, rng))
        psi0 = ComplexState(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        a, b = 0.7, 1.9
        once = propagate_unitary(K, propagate_unitary(K, psi0, a), b)
        direct = propagate_unitary(K, psi0, a + b)
        assert np.max(np.abs(once.psi - direct.psi)) <= 1e-12
        assert abs(once.rho_total - psi0.rho_total) <= 1e-13

    def test_decomposition_computed_once_per_operator(self, rng):
        K = HermitianOperator(random_hermitian(4, rng))
        w, V = K.eigh
        assert K.eigh[1] is V
        assert_allclose((V * w) @ V.conj().T, K.kernel, rtol=0, atol=1e-14)
        psi0 = ComplexState(np.eye(4)[0])
        assert_allclose(propagate_unitary(K, psi0, 0.7).psi, V @ (np.exp(-0.7j * w) * V.conj().T[:, 0]),
                        rtol=0, atol=1e-15)

    def test_reads_only_the_kernel_of_a_real_valued_spec(self):
        psi0 = ComplexState([0.6, 0.8j])
        linear = HamiltonianSpec(kernel=SIGMA_X, linear_bra=[1.0, 1j], linear_ket=[1.0, -1j])
        assert np.array_equal(propagate_unitary(linear, psi0, 0.3).psi,
                              propagate_unitary(HermitianOperator(SIGMA_X), psi0, 0.3).psi)
        with pytest.raises(NotRealError):
            propagate_unitary(HamiltonianSpec(kernel=[[0.0, 1.0], [0.0, 0.0]]), psi0, 0.3)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            HermitianOperator([[0.0, 1.0], [0.0, 0.0]])


class TestCommutatorIdentity:
    def test_pauli_fixture(self):
        psi = ComplexState([INV_SQRT2, INV_SQRT2 * 1j])
        lhs, rhs = commutator_identity_check(SIGMA_X @ psi.psi, SIGMA_Z @ psi.psi, psi)
        assert_allclose(lhs, -2.0, atol=1e-12)
        assert_allclose(rhs, -2.0, atol=1e-12)

    def test_self_commutator(self, rng):
        U = random_hermitian(3, rng)
        psi = to_complex(sample_interior_points(3, 1, rng=rng)[1])
        lhs, rhs = commutator_identity_check(U @ psi.psi, U @ psi.psi, psi)
        assert lhs == 0.0
        assert abs(rhs) <= 1e-15

    def test_commuting_diagonals(self, rng):
        U = np.diag([0.3, -1.0, 2.0])
        V = np.diag([1.1, 0.2, -0.4])
        psi = to_complex(sample_interior_points(3, 1, rng=rng)[1])
        lhs, rhs = commutator_identity_check(U @ psi.psi, V @ psi.psi, psi)
        assert abs(lhs) <= 1e-14
        assert abs(rhs) <= 1e-14

    def test_agreement_on_random_triples(self, rng):
        for _ in range(20):
            U = random_hermitian(4, rng)
            V = random_hermitian(4, rng)
            psi = to_complex(sample_interior_points(4, 1, rng=rng, include_barycenter=False)[0])
            lhs, rhs = commutator_identity_check(U @ psi.psi, V @ psi.psi, psi)
            assert abs(lhs - rhs) <= 1e-12

    @pytest.mark.parametrize("n", [2, 8, 32, 128])
    def test_right_side_matches_the_dense_commutator(self, n, rng):
        # The O(n) right side 2 Im <U psi|V psi> against -i <psi|[U, V]|psi>.
        for _ in range(5):
            U = random_hermitian(n, rng)
            V = random_hermitian(n, rng)
            psi = to_complex(sample_interior_points(n, 1, rng=rng, include_barycenter=False)[0])
            _, rhs = commutator_identity_check(U @ psi.psi, V @ psi.psi, psi)
            dense = (-1j * np.vdot(psi.psi, (U @ V - V @ U) @ psi.psi)).real
            assert abs(rhs - dense) <= 1e-12, n

    def test_rejects_images_of_another_length(self):
        psi = ComplexState([INV_SQRT2, INV_SQRT2 * 1j])
        with pytest.raises(DimensionError):
            commutator_identity_check(SIGMA_X @ psi.psi, np.ones(3), psi)
        with pytest.raises(DimensionError):
            commutator_identity_check(np.ones(1), SIGMA_Z @ psi.psi, psi)

    def test_rejects_rows_of_another_shape_and_non_finite_states(self):
        psi = np.array([[INV_SQRT2, INV_SQRT2 * 1j], [INV_SQRT2, -INV_SQRT2]])
        images = psi @ SIGMA_X.T
        with pytest.raises(DimensionError):
            commutator_identity_check(images[0], images, psi)
        with pytest.raises(DimensionError):
            commutator_identity_check(images, images, psi[:, :0])
        with pytest.raises(ValueError, match="psi has non-finite entries"):
            commutator_identity_check(images, images, np.where(np.eye(2, dtype=bool), np.nan, psi))

    def test_refuses_a_boundary_state(self):
        psi = ComplexState([1.0, 0.0])
        with pytest.raises(BoundaryError):
            commutator_identity_check(SIGMA_X @ psi.psi, SIGMA_Z @ psi.psi, psi)


class TestBornRuleAndGauge:
    def test_born_rule_along_unitary_flow(self, rng):
        K = HermitianOperator(random_hermitian(3, rng))
        psi0 = to_complex(sample_interior_points(3, 1, rng=rng)[1])
        for tau in (0.0, 0.4, 1.1, 3.7):
            evolved = propagate_unitary(K, psi0, tau)
            point, _ = from_complex(evolved)
            assert np.max(np.abs(point.rho - np.abs(evolved.psi) ** 2)) <= 1e-15
            assert abs(point.rho_total - psi0.rho_total) <= 1e-13

    def test_gauge_equivariance(self, rng):
        K = HermitianOperator(random_hermitian(3, rng))
        psi0 = to_complex(sample_interior_points(3, 1, rng=rng)[1])
        for nu in (0.3, 2.0, 5.5):
            shifted = propagate_unitary(K, ComplexState(np.exp(1j * nu) * psi0.psi), 0.9)
            plain = propagate_unitary(K, psi0, 0.9)
            assert np.max(np.abs(shifted.psi - np.exp(1j * nu) * plain.psi)) <= 1e-13

    def test_state_validation(self):
        with pytest.raises(ValueError):
            ComplexState([0.0, 0.0])
        with pytest.raises(DimensionError):
            ComplexState([[1.0, 0.0]])
