"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with -s to see them all); the
assertions carry the same numbers, so a red test is a failed criterion.
"""

import json
import math

import numpy as np

from simplexflow import (
    DEFAULT_PARAM_FAMILIES,
    FS_RATIO_CONSTANT,
    ComplexState,
    HamiltonianSpec,
    HermitianOperator,
    PhasePoint,
    ab_independence_sweep,
    commutator_identity_check,
    complex_structure,
    config_from_dict,
    convergence_study,
    from_complex,
    fs_consistency,
    integrate_midpoint,
    lie_derivative_metric,
    lie_derivative_symplectic,
    propagate_unitary,
    run_scenario,
    to_complex,
)
from simplexflow.diagnostics import random_hermitian, sample_interior_points

from conftest import SIGMA_X

SEED = 20260808


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {number:02d}] {name}: {status} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def test_01_complex_structure_law():
    worst = 0.0
    rng = np.random.default_rng(SEED)
    for n in (2, 3, 5, 8):
        identity = np.eye(2 * n)
        for point in sample_interior_points(n, 100, rng=rng, include_barycenter=False):
            J = complex_structure(point.rho)
            worst = max(worst, float(np.max(np.abs(J @ J + identity))))
    report(1, "complex-structure law J.J = -1", worst <= 1e-12, f"max residual {worst:.3e} <= 1e-12")


def test_02_hamilton_killing_preservation():
    rng = np.random.default_rng(SEED + 1)
    worst_metric = 0.0
    worst_symplectic = 0.0
    for n, kernels in ((2, 7), (3, 7), (5, 6)):
        points = sample_interior_points(n, 7, rng=rng)  # barycenter + 7 = 8 samples
        for _ in range(kernels):
            spec = HamiltonianSpec(kernel=random_hermitian(n, rng))
            for point in points:
                worst_metric = max(
                    worst_metric,
                    float(np.max(np.abs(lie_derivative_metric(spec, point)))),
                )
                worst_symplectic = max(
                    worst_symplectic,
                    float(np.max(np.abs(lie_derivative_symplectic(spec, point)))),
                )
    ok = worst_metric <= 1e-6 and worst_symplectic <= 1e-8
    report(2, "Hermitian kernels preserve G and Omega", ok,
           f"max |L_K G| {worst_metric:.3e} <= 1e-6, max |L_K Omega| {worst_symplectic:.3e} <= 1e-8")


def test_03_negative_control_separation():
    control = HamiltonianSpec(kernel=np.zeros((2, 2)), nonlinear="sum_rho_squared")
    barycenter = PhasePoint([0.5, 0.5], [0.0, 0.0])
    metric_residual = lie_derivative_metric(control, barycenter)
    symplectic_residual = float(np.max(np.abs(lie_derivative_symplectic(control, barycenter))))
    mixed_entry = float(metric_residual[0, 2])  # (rho_1, pi_1) block entry, oracle -4 rho_1
    ok = (
        float(np.max(np.abs(metric_residual))) >= 0.1
        and symplectic_residual <= 1e-8
        and abs(mixed_entry - (-2.0)) <= 1e-4
    )
    report(3, "nonlinear control separates Killing from Hamiltonian", ok,
           f"max |L G| {np.max(np.abs(metric_residual)):.3f} >= 0.1, "
           f"|L Omega| {symplectic_residual:.2e} <= 1e-8, mixed entry {mixed_entry:.6f} = -2 +- 1e-4")


def test_04_integrator_matches_unitary_oracle():
    spec = HamiltonianSpec(kernel=SIGMA_X)
    X0 = PhasePoint([0.9, 0.1], [0.0, 0.0])
    study = convergence_study(spec, X0, (4e-3, 2e-3, 1e-3, 5e-4), 1.0)
    ratios = [row["ratio"] for row in study.convergence if "ratio" in row]
    ok = all(3.6 <= r <= 4.4 for r in ratios) and 1.9 <= study.observed_order <= 2.1
    report(4, "midpoint vs exp(-iK tau): order two", ok,
           f"ratios {[f'{r:.3f}' for r in ratios]} in [3.6, 4.4], order {study.observed_order:.4f} in [1.9, 2.1]")


def test_05_conservation_over_ten_thousand_steps():
    rng = np.random.default_rng(SEED + 5)
    worst_norm = 0.0
    worst_energy = 0.0
    cases = [
        (HamiltonianSpec(kernel=SIGMA_X), PhasePoint([0.6, 0.4], [0.0, 0.0]), 1e-4),
    ]
    kernel3 = random_hermitian(3, rng)
    kernel3 = kernel3 / np.linalg.norm(kernel3, 2)
    cases.append(
        (HamiltonianSpec(kernel=kernel3),
         sample_interior_points(3, 1, rng=rng, include_barycenter=False)[0],
         5e-5)
    )
    for spec, X0, h in cases:
        trajectory = integrate_midpoint(spec, X0, h, 10_000)
        worst_norm = max(worst_norm, float(np.max(trajectory.norm_defects)))
        worst_energy = max(worst_energy, float(np.max(trajectory.energy_defects)))
    ok = worst_norm <= 1e-10 and worst_energy <= 1e-8
    report(5, "conservation along 1e4 midpoint steps", ok,
           f"|sum rho - 1| {worst_norm:.3e} <= 1e-10, |H drift| {worst_energy:.3e} <= 1e-8")


def test_06_bracket_commutator_identity():
    rng = np.random.default_rng(SEED + 6)
    worst = 0.0
    for k in range(50):
        n = (2, 3, 4, 5)[k % 4]
        U = random_hermitian(n, rng)
        V = random_hermitian(n, rng)
        psi = to_complex(sample_interior_points(n, 1, rng=rng, include_barycenter=False)[0])
        lhs, rhs = commutator_identity_check(U @ psi.psi, V @ psi.psi, psi.psi)
        worst = max(worst, abs(lhs - rhs))
    fixture = ComplexState([1 / math.sqrt(2), 1j / math.sqrt(2)])
    lhs, rhs = commutator_identity_check(SIGMA_X @ fixture.psi, np.diag([1.0, -1.0]) @ fixture.psi, fixture.psi)
    ok = worst <= 1e-12 and abs(lhs + 2.0) <= 1e-12 and abs(rhs + 2.0) <= 1e-12
    report(6, "Poisson bracket equals commutator expectation", ok,
           f"max |lhs - rhs| {worst:.3e} <= 1e-12 over 50 triples; pauli fixture {lhs:.12f} = -2")


def test_07_ab_independence():
    rng = np.random.default_rng(SEED + 7)
    worst = 0.0
    for n in (2, 3, 5):
        point = sample_interior_points(n, 1, rng=rng, include_barycenter=False)[0]
        drho = rng.standard_normal(n)
        drho -= drho.mean()
        dpi = rng.standard_normal(n)
        worst = max(worst, ab_independence_sweep(point.rho, drho, dpi, DEFAULT_PARAM_FAMILIES))
    ok = worst <= 1e-9 and len(DEFAULT_PARAM_FAMILIES) >= 5
    report(7, "ray metric independent of A, B with B(1) = 1", ok,
           f"max relative spread {worst:.3e} <= 1e-9 over {len(DEFAULT_PARAM_FAMILIES)} families")


def test_08_fubini_study_consistency():
    rng = np.random.default_rng(SEED + 8)
    epsilons = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
    worst_cauchy = 0.0
    worst_offset = 0.0
    worst_spread = 0.0
    for n in (2, 3):
        psi = to_complex(sample_interior_points(n, 1, rng=rng, include_barycenter=False)[0])
        limits = []
        for _ in range(5):
            drho = rng.standard_normal(n)
            drho -= drho.mean()
            dpi = rng.standard_normal(n)
            scale = 4.0 * math.sqrt(float(drho @ drho + dpi @ dpi))
            result = fs_consistency(psi, drho / scale, dpi / scale, epsilons)
            worst_cauchy = max(worst_cauchy, result.cauchy_residual)
            limits.append(result.limit)
        worst_offset = max(worst_offset, max(abs(v - FS_RATIO_CONSTANT) for v in limits))
        worst_spread = max(worst_spread, max(limits) - min(limits))
    ok = worst_cauchy <= 1e-4 and worst_offset <= 1e-4 and worst_spread <= 1e-4
    report(8, "ray metric consistent with Fubini-Study distance", ok,
           f"cauchy {worst_cauchy:.2e}, offset from {FS_RATIO_CONSTANT} {worst_offset:.2e}, "
           f"direction spread {worst_spread:.2e}, all <= 1e-4")


def test_09_gauge_equivariance_and_born_rule():
    rng = np.random.default_rng(SEED + 9)
    worst_equiv = 0.0
    worst_born = 0.0
    worst_norm = 0.0
    for n in (2, 3):
        K = HermitianOperator(random_hermitian(n, rng))
        psi0 = to_complex(sample_interior_points(n, 1, rng=rng, include_barycenter=False)[0])
        for tau in rng.uniform(0.1, 3.0, 4):
            evolved = propagate_unitary(K, psi0, tau)
            point, _ = from_complex(evolved)
            worst_born = max(worst_born, float(np.max(np.abs(point.rho - np.abs(evolved.psi) ** 2))))
            worst_norm = max(worst_norm, abs(evolved.rho_total - psi0.rho_total))
            for nu in rng.uniform(0.0, 2 * np.pi, 3):
                shifted = propagate_unitary(K, ComplexState(np.exp(1j * nu) * psi0.psi), tau)
                worst_equiv = max(
                    worst_equiv,
                    float(np.max(np.abs(shifted.psi - np.exp(1j * nu) * evolved.psi))),
                )
    ok = worst_equiv <= 1e-13 and worst_born <= 1e-12 and worst_norm <= 1e-13
    report(9, "gauge equivariance and Born rule along flows", ok,
           f"equivariance {worst_equiv:.2e} <= 1e-13, born {worst_born:.2e} <= 1e-12, "
           f"norm drift {worst_norm:.2e} <= 1e-13")


def test_10_deterministic_scenario_outputs(tmp_path):
    config = config_from_dict(
        {
            "schema_version": 1,
            "id": "determinism",
            "n": 2,
            "hamiltonian": {"kernel": {"real": [[0.0, 1.0], [1.0, 0.0]]}},
            "initial_state": {
                "psi": {"real": [math.sqrt(0.9), math.sqrt(0.1)], "imag": [0.0, 0.0]}
            },
            "integrator": {"h": 2.5e-4, "steps": 800},
            "checks": ["realness", "conservation", "complex_structure", "bracket_commutator"],
            "seed": 424242,
        }
    )
    first = run_scenario(config, out_dir=tmp_path / "run1")
    second = run_scenario(config, out_dir=tmp_path / "run2")
    same_csv = first.trajectory_path.read_bytes() == second.trajectory_path.read_bytes()
    same_json = first.report_path.read_bytes() == second.report_path.read_bytes()
    ok = same_csv and same_json and first.exit_code == 0 and second.exit_code == 0
    report(10, "byte-identical outputs for identical config+seed", ok,
           f"csv identical {same_csv}, report identical {same_json}, exit {first.exit_code}")
    parsed = json.loads(first.report_path.read_text())
    assert parsed["config_hash"] == second.report["config_hash"]
