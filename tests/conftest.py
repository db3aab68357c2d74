import numpy as np
import pytest

from simplexflow import HamiltonianSpec
from simplexflow.diagnostics import random_hermitian

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def spec_kinds(n, rng):
    """One spec of each kind at dimension n: a pure Hermitian kernel, the
    kernel with conjugate linear terms, and the kernel with either nonlinear
    catalog tag.  Returned as (label, spec) pairs."""
    kernel = random_hermitian(n, rng)
    bra = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return [
        ("pure", HamiltonianSpec(kernel=kernel)),
        ("linear", HamiltonianSpec(kernel=kernel, linear_bra=bra, linear_ket=np.conj(bra))),
        ("sum_rho_squared", HamiltonianSpec(kernel=kernel, nonlinear="sum_rho_squared",
                                            nonlinear_strength=0.7)),
        ("quartic_psi", HamiltonianSpec(kernel=kernel, nonlinear="quartic_psi", nonlinear_strength=1.3)),
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
