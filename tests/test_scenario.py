import contextlib
import dataclasses
import functools
import io
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import simplexflow
from simplexflow import (
    CANONICAL_PARAMS,
    DEFAULT_PARAM_FAMILIES,
    ConfigError,
    HamiltonianSpec,
    MetricParams,
    classify_flow,
    commutator_identity_check,
    complex_structure,
    config_from_dict,
    emit_report,
    integrate_midpoint,
    lie_derivative_metric,
    run_scenario,
    to_complex,
    validate_config,
    write_trajectory_csv,
)
import simplexflow.flows as flows
import simplexflow.geometry as geometry
import simplexflow.hilbert as hilbert
import simplexflow.scenario as scenario
from simplexflow.cli import _run_one, main as cli_main
from simplexflow.diagnostics import SAMPLE_MARGIN, random_hermitian, sample_interior_points
from simplexflow.scenario import CHECKS, _scenario_points

from conftest import spec_kinds

README = Path(__file__).resolve().parents[1] / "README.md"


def qubit_config(**overrides):
    cfg = {
        "schema_version": 1,
        "id": "qubit",
        "n": 2,
        "hamiltonian": {"kernel": {"real": [[0.0, 1.0], [1.0, 0.0]]}},
        "initial_state": {"psi": {"real": [math.sqrt(0.9), math.sqrt(0.1)], "imag": [0.0, 0.0]}},
        "integrator": {"h": 1e-3, "steps": 200},
        "checks": ["realness", "normalization"],
        "seed": 42,
    }
    cfg.update(overrides)
    return cfg


def readme_example() -> dict:
    example = README.read_text(encoding="utf-8").split("Example scenario:", 1)[1]
    return json.loads(example.split("```json", 1)[1].split("```", 1)[0])


class TestValidateConfig:
    def test_canonical_qubit_parses(self, tmp_path):
        path = tmp_path / "qubit.json"
        path.write_text(json.dumps(qubit_config()))
        cfg = validate_config(path)
        assert cfg.n == 2
        assert cfg.steps == 200
        assert cfg.scenario_id == "qubit"
        assert cfg.initial.is_normalized

    def test_non_hermitian_kernel_rejected(self):
        cfg = qubit_config(hamiltonian={"kernel": {"real": [[0.0, 1.0], [0.0, 0.0]]}})
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict(cfg)
        assert any("not Hermitian" in msg for msg in excinfo.value.errors)

    def test_dimension_mismatch_names_both_fields(self):
        cfg = qubit_config(initial_state={"rho": [0.2, 0.3, 0.5], "pi": [0.0, 0.0]})
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict(cfg)
        joined = " ".join(excinfo.value.errors)
        assert "initial_state.rho" in joined and "n = 2" in joined

    def test_zero_steps_rejected(self):
        cfg = qubit_config(integrator={"h": 1e-3, "steps": 0})
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict(cfg)
        assert any("steps" in msg for msg in excinfo.value.errors)

    def test_exactly_one_state_form(self):
        cfg = qubit_config()
        cfg["initial_state"] = {
            "rho": [0.5, 0.5],
            "pi": [0.0, 0.0],
            "psi": {"real": [1.0, 0.0], "imag": [0.0, 0.0]},
        }
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict(cfg)
        assert any("exactly one" in msg for msg in excinfo.value.errors)

    def test_unknown_check_listed(self):
        cfg = qubit_config(checks=["realness", "frobnicate"])
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict(cfg)
        assert any("frobnicate" in msg for msg in excinfo.value.errors)

    def test_unknown_keys_listed_wherever_they_appear(self):
        # Each misspelling would otherwise fall back to a default in silence:
        # no checks, seed 0, a zero imaginary part, expect_pass true.
        cfg = qubit_config(chekcs=["metric"], seeed=4, checks=[{"name": "metric", "expect_passs": False}],
                           metric_params={"a_coeff": [1.0]}, output={"trajectroy": "t.csv"},
                           convergence={"tau": 1.0, "hlist": [1e-3]})
        cfg["hamiltonian"]["kernel"]["imaginary"] = [[0.0, 0.0], [0.0, 0.0]]
        cfg["hamiltonian"]["nonlinear"] = {"tag": "none", "strenght": 2.0}
        cfg["hamiltonian"]["constnat"] = 1.0
        cfg["initial_state"]["psi"]["imga"] = [0.0, 0.0]
        cfg["initial_state"]["phase"] = [0.0, 0.0]
        cfg["integrator"]["stpes"] = 3
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict(cfg)
        assert [msg.split(";")[0] for msg in excinfo.value.errors] == [
            "unknown key 'chekcs' at the top level",
            "unknown key 'seeed' at the top level",
            "unknown key 'a_coeff' at metric_params",
            "unknown key 'constnat' at hamiltonian",
            "unknown key 'imaginary' at hamiltonian.kernel",
            "unknown key 'strenght' at hamiltonian.nonlinear",
            "unknown key 'phase' at initial_state",
            "unknown key 'imga' at initial_state.psi",
            "unknown key 'stpes' at integrator",
            "unknown key 'expect_passs' at checks[metric]",
            "unknown key 'trajectroy' at output",
            "unknown key 'hlist' at convergence",
        ]
        assert excinfo.value.errors[-1].endswith("; known: h_list, tau")

    def test_unpaired_linear_terms_rejected(self):
        cfg = qubit_config()
        cfg["hamiltonian"]["linear_bra"] = {"real": [1.0, 0.0]}
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict(cfg)
        assert any("conjugate" in msg for msg in excinfo.value.errors)

    def test_mismatched_linear_pair_rejected(self):
        cfg = qubit_config()
        cfg["hamiltonian"]["linear_bra"] = {"real": [1.0, 0.0]}
        cfg["hamiltonian"]["linear_ket"] = {"real": [0.0, 1.0]}
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict(cfg)
        assert any("conj(" in msg for msg in excinfo.value.errors)

    def test_unnormalized_initial_state_rejected(self):
        cfg = qubit_config(initial_state={"rho": [0.6, 0.5], "pi": [0.0, 0.0]})
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict(cfg)
        assert any("sum to 1" in msg for msg in excinfo.value.errors)

    def test_errors_aggregate(self):
        cfg = qubit_config(
            integrator={"h": -1.0, "steps": 0},
            checks=["nope"],
            seed="not-an-int",
        )
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict(cfg)
        assert len(excinfo.value.errors) >= 4

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, "7"])
    def test_bad_seed_rejected_by_config_and_override(self, seed, tmp_path):
        message = f"seed must be an integer in [0, 2^64), got {seed!r}"
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict(qubit_config(seed=seed))
        assert excinfo.value.errors == [message]
        cfg = config_from_dict(qubit_config(checks=[]))
        with pytest.raises(ConfigError) as excinfo:
            cfg.with_seed(seed)
        assert excinfo.value.errors == [message]
        assert cfg.with_seed(2**64 - 1).resolved["seed"] == 2**64 - 1
        # The CLI's runner reseeds through with_seed and writes nothing.
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(qubit_config(checks=[])))
        assert _run_one(path, tmp_path / "out", seed) == (2, [f"config error: {message}"], None)
        assert not (tmp_path / "out").exists()

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError) as excinfo:
            validate_config(path)
        assert any("invalid JSON" in msg for msg in excinfo.value.errors)

    def test_schema_version_required(self):
        cfg = qubit_config()
        del cfg["schema_version"]
        with pytest.raises(ConfigError):
            config_from_dict(cfg)


class TestRunScenario:
    def test_qubit_scenario_all_checks_pass(self, tmp_path):
        cfg = config_from_dict(
            qubit_config(
                integrator={"h": 2e-4, "steps": 5000},
                checks=[
                    "realness", "normalization", "symplectic", "metric",
                    "complex_structure", "conservation", "bracket_commutator",
                    "ab_independence", "fs_consistency", "gauge_born",
                ],
            )
        )
        result = run_scenario(cfg, out_dir=tmp_path)
        assert result.exit_code == 0
        assert result.report["exit_ok"] is True
        lines = result.trajectory_path.read_text().splitlines()
        assert lines[0].startswith("step,tau,rho_1,rho_2,pi_1,pi_2,re_psi_1")
        assert len(lines) == 5002
        rho1 = np.array([float(line.split(",")[2]) for line in lines[1:]])
        assert rho1.max() - rho1.min() > 0.1  # population oscillates
        norm_defects = np.array([float(line.split(",")[-2]) for line in lines[1:]])
        assert norm_defects.max() <= 1e-10

    def test_nonlinear_control_expected_failure(self, tmp_path):
        cfg = config_from_dict(
            qubit_config(
                id="control",
                hamiltonian={
                    "kernel": {"real": [[0.0, 0.0], [0.0, 0.0]]},
                    "nonlinear": {"tag": "sum_rho_squared", "strength": 1.0},
                },
                initial_state={"rho": [0.5, 0.5], "pi": [0.0, 0.0]},
                checks=[
                    {"name": "metric", "expect_pass": False},
                    "symplectic",
                    "normalization",
                    "realness",
                ],
            )
        )
        result = run_scenario(cfg, out_dir=tmp_path)
        assert result.exit_code == 0
        by_name = {row["name"]: row for row in result.report["checks"]}
        assert by_name["metric"]["pass"] is False
        assert by_name["metric"]["ok"] is True
        assert by_name["symplectic"]["pass"] is True

    def test_unexpected_outcome_fails(self, tmp_path):
        cfg = config_from_dict(
            qubit_config(
                id="control2",
                hamiltonian={
                    "kernel": {"real": [[0.0, 0.0], [0.0, 0.0]]},
                    "nonlinear": {"tag": "quartic_psi", "strength": 1.0},
                },
                initial_state={"rho": [0.5, 0.5], "pi": [0.0, 0.0]},
                checks=["metric"],
            )
        )
        result = run_scenario(cfg, out_dir=tmp_path)
        assert result.exit_code == 1
        assert result.report["exit_ok"] is False

    def test_solver_counters_only_for_nonlinear_specs(self, tmp_path):
        control = config_from_dict(
            qubit_config(
                id="control3",
                hamiltonian={
                    "kernel": {"real": [[0.0, 1.0], [1.0, 0.0]]},
                    "nonlinear": {"tag": "sum_rho_squared", "strength": 1.0},
                },
                integrator={"h": 1e-3, "steps": 100},
                checks=[],
            )
        )
        report = run_scenario(control, out_dir=tmp_path / "control").report
        sweeps = integrate_midpoint(control.hamiltonian, control.initial, control.h, control.steps).sweeps
        assert report["solver"] == {"sweeps_max": int(sweeps.max()), "sweeps_mean": float(sweeps.mean())}
        assert 1 <= report["solver"]["sweeps_mean"] <= report["solver"]["sweeps_max"]
        assert "solver" not in run_scenario(config_from_dict(qubit_config(checks=[])), out_dir=tmp_path).report

    def test_numeric_error_produces_error_record(self, tmp_path):
        # At strength 40 and h = 0.01 the cubic term's fixed-point map barely
        # contracts, so 50 sweeps miss the solver tolerance.
        cfg = config_from_dict(
            qubit_config(
                id="starved",
                hamiltonian={
                    "kernel": {"real": [[0.0, 1.0], [1.0, 0.0]]},
                    "nonlinear": {"tag": "quartic_psi", "strength": 40.0},
                },
                integrator={"h": 1e-2, "steps": 50},
                checks=[],
            )
        )
        result = run_scenario(cfg, out_dir=tmp_path)
        assert result.exit_code == 2
        assert result.trajectory_path is None
        report = json.loads(result.report_path.read_text())
        assert report["error"]["type"] == "ConvergenceError"
        assert report["exit_ok"] is False

    def test_basis_state_runs_through_zero_weight(self, tmp_path):
        cfg = config_from_dict(
            qubit_config(
                id="basis",
                initial_state={"psi": {"real": [1.0, 0.0]}},
                integrator={"h": 1e-3, "steps": 2000},
                checks=["realness", "normalization", "conservation", "convergence", "gauge_born"],
            )
        )
        assert cfg.initial.rho.tolist() == [1.0, 0.0]
        result = run_scenario(cfg, out_dir=tmp_path)
        assert result.exit_code == 0, result.report
        first = result.trajectory_path.read_text().splitlines()[1].split(",")
        assert float(first[3]) == 0.0  # rho_2 at step 0

    def test_readme_example_runs(self, tmp_path):
        result = run_scenario(config_from_dict(readme_example()), out_dir=tmp_path)
        assert result.exit_code == 0, result.report["checks"]
        assert len(result.report["checks"]) >= 10

    def test_initial_total_within_validation_tolerance_is_renormalized(self, tmp_path):
        # Validation accepts |sum(rho) - 1| <= 1e-9; the norm_defect row allows only 1e-10.
        given = {"rho": [0.6 + 5e-10, 0.4], "pi": [0.0, 0.5]}
        cfg = config_from_dict(
            qubit_config(initial_state=given, integrator={"h": 2.5e-4, "steps": 400},
                         checks=["conservation"])
        )
        assert cfg.resolved["initial_state"] == given
        assert abs(cfg.initial.rho_total - 1.0) <= 1e-15
        result = run_scenario(cfg, out_dir=tmp_path)
        assert result.exit_code == 0, result.report["checks"]

    @pytest.mark.parametrize("n", [64, 128])
    def test_wide_killing_flow_passes_structure_checks(self, n, tmp_path):
        rng = np.random.default_rng(n)
        kernel = random_hermitian(n, rng)
        kernel /= np.linalg.norm(kernel, 2)
        start = sample_interior_points(n, 1, rng=rng, include_barycenter=False)[0]
        cfg = config_from_dict(
            qubit_config(
                id="wide",
                n=n,
                hamiltonian={"kernel": {"real": kernel.real.tolist(), "imag": kernel.imag.tolist()}},
                initial_state={"rho": start.rho.tolist(), "pi": start.pi.tolist()},
                integrator={"h": 1e-3, "steps": 1},
                checks=["symplectic", "metric"],
            )
        )
        result = run_scenario(cfg, out_dir=tmp_path)
        assert result.exit_code == 0, result.report["checks"]

    def test_metric_check_uses_metric_params(self, tmp_path):
        control = {
            "kernel": {"real": [[0.0, 0.0], [0.0, 0.0]]},
            "nonlinear": {"tag": "sum_rho_squared", "strength": 1.0},
        }
        residuals = {}
        for a in (0.0, 3.0):
            cfg = config_from_dict(
                qubit_config(id="params", hamiltonian=control, metric_params={"a_coeffs": [a]},
                             checks=[{"name": "metric", "expect_pass": False}])
            )
            residuals[a] = run_scenario(cfg, out_dir=tmp_path).report["checks"][0]["residual"]
        points = sample_interior_points(2, 8, rng=np.random.default_rng([42, 0]))
        expected = max(
            float(np.max(np.abs(lie_derivative_metric(cfg.hamiltonian, X, params=MetricParams((3.0,))))))
            for X in points
        )
        assert residuals[3.0] == expected
        assert residuals[3.0] != residuals[0.0]

    def test_byte_identical_outputs(self, tmp_path):
        cfg = config_from_dict(qubit_config(checks=["realness", "conservation", "bracket_commutator"],
                                            integrator={"h": 2.5e-4, "steps": 400}))
        first = run_scenario(cfg, out_dir=tmp_path / "a")
        second = run_scenario(cfg, out_dir=tmp_path / "b")
        assert first.trajectory_path.read_bytes() == second.trajectory_path.read_bytes()
        assert first.report_path.read_bytes() == second.report_path.read_bytes()

    def test_seed_override_changes_hash(self, tmp_path):
        cfg = config_from_dict(qubit_config(checks=[]))
        base = run_scenario(cfg, out_dir=tmp_path / "a")
        reseeded = run_scenario(cfg.with_seed(7), out_dir=tmp_path / "b")
        assert base.report["config_hash"] != reseeded.report["config_hash"]
        assert reseeded.report["seed"] == 7

    def test_csv_is_round_trip_safe(self, tmp_path):
        cfg = config_from_dict(qubit_config(checks=[], integrator={"h": 1e-3, "steps": 5}))
        result = run_scenario(cfg, out_dir=tmp_path)
        trajectory = integrate_midpoint(cfg.hamiltonian, cfg.initial, cfg.h, cfg.steps)
        lines = result.trajectory_path.read_text().splitlines()
        last = lines[-1].split(",")
        n = cfg.n
        assert float(last[1]) == trajectory.parameter_values[-1]
        for i in range(n):
            assert float(last[2 + i]) == trajectory.rho[-1, i]
            assert float(last[2 + n + i]) == trajectory.pi[-1, i]
            assert float(last[2 + 2 * n + i]) == trajectory.psi[-1, i].real
            assert float(last[2 + 3 * n + i]) == trajectory.psi[-1, i].imag

    def test_csv_chunks_match_cell_by_cell_formatting(self, tmp_path):
        cfg = config_from_dict(qubit_config(checks=[], integrator={"h": 1e-3, "steps": 150}))
        trajectory = integrate_midpoint(cfg.hamiltonian, cfg.initial, cfg.h, cfg.steps)
        lines = write_trajectory_csv(trajectory, tmp_path / "t.csv").read_text().splitlines()
        assert len(lines) == 152  # the header and 151 rows, in one block of flows._row_blocks
        for k, line in enumerate(lines[1:]):
            values = [
                trajectory.parameter_values[k], *trajectory.rho[k], *trajectory.pi[k],
                *trajectory.psi[k].real, *trajectory.psi[k].imag,
                trajectory.norm_defects[k], trajectory.energy_defects[k],
            ]
            assert line == ",".join([str(k)] + [format(float(v), ".17g") for v in values])

    def test_convergence_check_attaches_table(self, tmp_path):
        cfg = config_from_dict(
            qubit_config(
                checks=["convergence"],
                convergence={"h_list": [4e-3, 2e-3, 1e-3], "tau": 0.5},
            )
        )
        result = run_scenario(cfg, out_dir=tmp_path)
        assert result.exit_code == 0
        assert len(result.report["convergence"]) == 3
        assert 1.9 <= result.report["observed_order"] <= 2.1


def _node(arr) -> dict:
    return {"real": np.real(arr).tolist(), "imag": np.imag(arr).tolist()}


#: (check, name, tolerance, pass, expect_pass, ok) of every row of the README
#: example run with all eleven checks, as the if/elif check runner gave them
#: before the check registry replaced it.
README_ROWS = [
    ("realness", "realness", 1e-12, True, True, True),
    ("normalization", "normalization", 1e-12, True, True, True),
    ("symplectic", "symplectic", 1e-08, True, True, True),
    ("metric", "metric", 1e-06, True, True, True),
    ("complex_structure", "complex_structure", 1e-12, True, True, True),
    ("conservation", "conservation.norm_defect", 1e-10, True, True, True),
    ("conservation", "conservation.energy_defect", 1e-08, True, True, True),
    ("convergence", "convergence.order", 0.1, True, True, True),
    ("bracket_commutator", "bracket_commutator", 1e-12, True, True, True),
    ("ab_independence", "ab_independence", 1e-09, True, True, True),
    ("fs_consistency", "fs_consistency.cauchy", 0.0001, True, True, True),
    ("fs_consistency", "fs_consistency.constant", 0.0001, True, True, True),
    ("fs_consistency", "fs_consistency.direction_spread", 0.0001, True, True, True),
    ("gauge_born", "gauge_born.equivariance", 1e-13, True, True, True),
    ("gauge_born", "gauge_born.born_rule", 1e-12, True, True, True),
    ("gauge_born", "gauge_born.norm_conservation", 1e-13, True, True, True),
]


def old_canonical_json(cfg) -> str:
    """The canonical JSON that config_hash digested before arrays were
    hashed by their bytes: every complex array as nested lists of floats."""
    def node(array):
        return {"real": array.real.tolist(), "imag": array.imag.tolist()}
    return json.dumps(cfg.resolved, sort_keys=True, separators=(",", ":"), default=node)


class TestConfigHash:
    #: The README example's hash, on every supported Python and NumPy.
    README_HASH = "57c202d95388aa5ade788cb9aae6baacc855e2030e3138c45f71db92738cff64"

    def test_readme_example_hash_is_pinned(self):
        assert config_from_dict(readme_example()).config_hash == self.README_HASH

    def test_equal_exactly_when_the_old_canonical_json_is_equal(self):
        one_ulp = float(np.nextafter(1.0, 2.0))
        linear = {"linear_bra": {"real": [0.1, 0.2]}, "linear_ket": {"real": [0.1, 0.2]}}
        kernels = {
            "float": {"real": [[0.0, 1.0], [1.0, 0.0]]},
            "int": {"real": [[0, 1], [1, 0]]},
            "zero imag": {"real": [[0.0, 1.0], [1.0, 0.0]], "imag": [[0.0, 0.0], [0.0, 0.0]]},
            "signed zero": {"real": [[-0.0, 1.0], [1.0, -0.0]], "imag": [[-0.0, 0.0], [0.0, -0.0]]},
            "one ulp": {"real": [[0.0, one_ulp], [one_ulp, 0.0]]},
        }
        variants = {name: qubit_config(hamiltonian={"kernel": kernel}) for name, kernel in kernels.items()}
        variants["linear"] = qubit_config(hamiltonian={"kernel": kernels["float"], **linear})
        variants["linear, zero imag"] = qubit_config(hamiltonian={
            "kernel": kernels["float"],
            **{key: {"real": [0.1, 0.2], "imag": [0.0, 0.0]} for key in linear}})
        variants["seed"] = qubit_config(hamiltonian={"kernel": kernels["float"]}, seed=43)
        variants["signed zero pi"] = qubit_config(initial_state={"rho": [0.9, 0.1], "pi": [-0.0, 0.0]})
        variants["zero pi"] = qubit_config(initial_state={"rho": [0.9, 0.1], "pi": [0.0, 0.0]})
        configs = {name: config_from_dict(data) for name, data in variants.items()}
        old = {name: old_canonical_json(cfg) for name, cfg in configs.items()}
        new = {name: cfg.config_hash for name, cfg in configs.items()}
        for first, second in itertools.combinations(configs, 2):
            assert (old[first] == old[second]) == (new[first] == new[second]), (first, second)
        # The cases cover both sides: integer entries and omitted imaginary
        # parts resolve to the same arrays, a signed zero or an ulp does not.
        assert new["float"] == new["int"] == new["zero imag"]
        assert new["linear"] == new["linear, zero imag"]
        assert len({new[name] for name in ("float", "signed zero", "one ulp", "linear", "seed")}) == 5
        assert new["signed zero pi"] != new["zero pi"]

    def test_key_order_and_whitespace_do_not_matter(self, tmp_path):
        data = readme_example()
        compact, spread = tmp_path / "compact.json", tmp_path / "spread.json"
        compact.write_text(json.dumps(data, separators=(",", ":")))
        spread.write_text(json.dumps(dict(reversed(list(data.items()))), indent=7))
        assert validate_config(compact).config_hash == validate_config(spread).config_hash == self.README_HASH


class TestCheckRegistry:
    @pytest.mark.parametrize("n", [2, 5])
    def test_classify_flow_gives_the_verdict_of_the_cli_rows(self, n, rng, tmp_path):
        names = ("symplectic", "metric", "normalization", "realness")
        for label, spec in spec_kinds(n, rng):
            hamiltonian = {
                "kernel": _node(spec.kernel),
                "nonlinear": {"tag": spec.nonlinear, "strength": spec.nonlinear_strength},
            }
            if spec.linear_bra.any():
                hamiltonian.update(linear_bra=_node(spec.linear_bra), linear_ket=_node(spec.linear_ket))
            cfg = config_from_dict(
                qubit_config(id=label, n=n, hamiltonian=hamiltonian,
                             initial_state={"rho": [1.0 / n] * n, "pi": [0.0] * n},
                             integrator={"h": 1e-3, "steps": 1}, checks=list(names))
            )
            rows = {row["name"]: row for row in run_scenario(cfg, out_dir=tmp_path).report["checks"]}
            cls = classify_flow(spec, _scenario_points(cfg))
            flags = (cls.preserves_symplectic, cls.preserves_metric, cls.preserves_normalization,
                     cls.is_real_valued)
            residuals = (cls.symplectic_residual, cls.metric_residual, cls.normalization_residual,
                         cls.realness_residual)
            assert [rows[name]["pass"] for name in names] == list(flags), label
            assert [rows[name]["residual"] for name in names] == list(residuals), label
            assert cls.preserves_metric == (spec.nonlinear == "none"), label
            assert cls.preserves_normalization == (not spec.linear_bra.any()), label

    def test_small_anti_hermitian_part_is_not_real_valued(self, rng):
        kernel = random_hermitian(3, rng) + 1e-10j * random_hermitian(3, rng)
        cls = classify_flow(HamiltonianSpec(kernel=kernel), sample_interior_points(3, 8, rng=np.random.default_rng(3)))
        assert not cls.is_real_valued
        assert not cls.is_hamilton_killing
        assert cls.realness_residual <= 1e-9

    def test_readme_check_table_matches_the_registry(self):
        section = README.read_text(encoding="utf-8").split("### Checks", 1)[1].split("\n### ", 1)[0]
        rows = [re.split(r"(?<!\\)\|", line)[1:-1] for line in section.splitlines() if line.startswith("| `")]
        assert [cells[0].strip().strip("`") for cells in rows] == list(CHECKS)
        for name, _, cell in rows:
            quoted = {float(v) for v in re.findall(r"\d+(?:\.\d+)?(?:e-?\d+)?", cell)}
            tolerances = set(CHECKS[name.strip().strip("`")].tolerances.values())
            assert tolerances <= quoted, (name, cell)

    def test_readme_quotes_the_block_and_margin_constants(self):
        text = README.read_text(encoding="utf-8")
        assert f"`BLOCK_ENTRIES` = {flows.BLOCK_ENTRIES} state entries" in text
        assert f"`SAMPLE_MARGIN` = {SAMPLE_MARGIN}," in text

    def test_readme_example_rows_are_unchanged(self, tmp_path):
        example = readme_example()
        example["checks"] = list(CHECKS)
        result = run_scenario(config_from_dict(example), out_dir=tmp_path)
        keys = ("check", "name", "tolerance", "pass", "expect_pass", "ok")
        assert [tuple(row[k] for k in keys) for row in result.report["checks"]] == README_ROWS
        assert result.exit_code == 0

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_complex_structure_row_matches_the_dense_product(self, n, rng):
        for X in sample_interior_points(n, 2, rng=rng):
            for params in DEFAULT_PARAM_FAMILIES:
                J = complex_structure(X.rho, params)
                dense = float(np.max(np.abs(J @ J + np.eye(2 * n))))
                blocks = CHECKS["complex_structure"].at(None, X, params)
                if params == CANONICAL_PARAMS:
                    assert blocks == dense
                else:
                    assert abs(blocks - dense) <= 1e-12, params

    @pytest.mark.parametrize("n", [2, 8, 32, 128, 4096])
    def test_fs_consistency_passes_at_every_n_and_fails_a_wrong_unit(self, n, monkeypatch):
        # The check's own draws at config seeds 0-9: every row passes under the
        # canonical metric, in O(n) time, and B(1) = 2, which breaks the frozen
        # constant 2.0, fails the constant row by far more than the tolerance.
        # The check reads only n and the seed, so a qubit config stands in for
        # the n x n kernel.
        check = CHECKS["fs_consistency"]
        cfg = dataclasses.replace(config_from_dict(qubit_config(checks=["fs_consistency"])), n=n)
        start = time.perf_counter()
        for seed in range(10):
            rows = check.residuals(cfg.with_seed(seed), None, {})
            assert all(rows[name] <= tol for name, tol in check.tolerances.items()), (seed, rows)
        assert time.perf_counter() - start < 2.0
        wrong_unit = functools.partial(scenario.fs_consistency, params=MetricParams(b_coeffs=(2.0,)))
        monkeypatch.setattr(scenario, "fs_consistency", wrong_unit)
        for seed in range(10):
            rows = check.residuals(cfg.with_seed(seed), None, {})
            assert rows["fs_consistency.constant"] > 0.5, (seed, rows)

    # n = 41 has a 49-pair block and a one-pair tail, which joins it; n = 1025
    # has two pairs a block.
    @pytest.mark.parametrize("n", [2, 8, 32, 41, 128, 1025, 4096])
    def test_bracket_commutator_passes_at_every_n_from_one_draw_per_pair(self, n, monkeypatch):
        # The check reads only n and the seed, so one small config serves every n.
        check = CHECKS["bracket_commutator"]
        cfg = dataclasses.replace(config_from_dict(qubit_config(checks=["bracket_commutator"])), n=n)
        rngs, specs = [], []
        make, build = scenario._check_rng, flows.HamiltonianSpec.__post_init__
        monkeypatch.setattr(scenario, "_check_rng", lambda *args: rngs.append(make(*args)) or rngs[-1])
        monkeypatch.setattr(flows.HamiltonianSpec, "__post_init__", lambda self: specs.append(1) or build(self))
        tracemalloc.start()
        try:
            residuals = [check.residuals(cfg, None, {})["bracket_commutator"]]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        seeds = [cfg.seed, *range(4)]
        residuals += [check.residuals(cfg.with_seed(seed), None, {})["bracket_commutator"] for seed in seeds[1:]]
        assert max(residuals) <= check.tolerances["bracket_commutator"], residuals
        assert not specs
        # Each pair draws its state, then a and b of U and of V, n values a part.
        for seed, rng in zip(seeds, rngs, strict=True):
            reference = np.random.default_rng([seed, check.stream])
            for _ in range(50):
                reference.dirichlet(np.ones(n))
                reference.uniform(0.0, 2.0 * np.pi, n)
                for _ in range(8):
                    reference.standard_normal(n)
            assert rng.bit_generator.state == reference.bit_generator.state, seed
        # A few dozen work vectors at most: one n x n array alone is 16 n^2 bytes.
        assert peak <= 16 * n * 64 + 2**22, peak

    @pytest.mark.parametrize("n", [2, 128, 4096])
    def test_bracket_commutator_fails_on_a_wrong_chart(self, n, monkeypatch):
        # Halving dH/dpi in the gradient helper halves the left side only.
        gradient = hilbert._chart_gradient

        def wrong_chart(*args):
            dr, dp = gradient(*args)
            return dr, 0.5 * dp

        monkeypatch.setattr(hilbert, "_chart_gradient", wrong_chart)
        cfg = dataclasses.replace(config_from_dict(qubit_config(checks=["bracket_commutator"])), n=n)
        rows = CHECKS["bracket_commutator"].residuals(cfg, None, {})
        assert rows["bracket_commutator"] > 1e-3, rows

    @pytest.mark.parametrize("n", [1, 2, 8, 128])
    def test_rank_two_image_is_the_dense_product(self, n):
        # Row k of the normals holds a's real and imaginary parts, then b's.
        for seed in range(3):
            rng = np.random.default_rng(seed)
            psi = np.random.default_rng([seed, 1]).standard_normal((4, n)) + 0.5j
            normals = rng.standard_normal((4, 4, n))
            images = scenario._rank_two_image(psi, normals)
            assert images.shape == psi.shape
            for k, (re_a, im_a, re_b, im_b) in enumerate(normals):
                a, b = re_a + 1j * im_a, re_b + 1j * im_b
                a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
                dense = np.outer(a, b.conj()) + np.outer(b, a.conj())
                assert np.max(np.abs(images[k] - dense @ psi[k])) <= 1e-15 * n * np.linalg.norm(psi[k])

    @pytest.mark.parametrize("n", [2, 8, 128])
    def test_stacked_bracket_rows_match_single_states(self, n):
        # The check evaluates a block of pairs as rows; each row must read
        # what commutator_identity_check gives for its state alone.
        rng = np.random.default_rng([n, 8])
        states = [to_complex(X) for X in sample_interior_points(n, 6, rng=rng, include_barycenter=False)]
        psi = np.array([state.psi for state in states])
        normals = rng.standard_normal((6, 8, n))
        u_psi, v_psi = scenario._rank_two_image(psi, normals[:, :4]), scenario._rank_two_image(psi, normals[:, 4:])
        lhs, rhs = commutator_identity_check(u_psi, v_psi, psi)
        assert lhs.shape == rhs.shape == (6,)
        for k, state in enumerate(states):
            single = commutator_identity_check(u_psi[k], v_psi[k], state.psi)
            assert all(isinstance(side, float) for side in single)
            scale = np.linalg.norm(u_psi[k]) * np.linalg.norm(v_psi[k])
            assert abs(lhs[k] - single[0]) <= 1e-15 * scale and abs(rhs[k] - single[1]) <= 1e-15 * scale

    def test_one_field_jacobian_per_sample_point(self, monkeypatch, tmp_path):
        calls = []
        build = flows._field_jacobian
        monkeypatch.setattr(flows, "_field_jacobian", lambda *args: calls.append(1) or build(*args))
        cfg = config_from_dict(qubit_config(checks=["symplectic", "realness", "metric"]))
        assert run_scenario(cfg, out_dir=tmp_path).exit_code == 0
        assert len(calls) == len(_scenario_points(cfg)) == 9
        assert "_last_jacobian" not in cfg.hamiltonian.__dict__  # freed with the points
        calls.clear()
        classify_flow(cfg.hamiltonian, _scenario_points(cfg))
        assert len(calls) == 9

    def test_metric_parts_once_per_owner_per_sample_point(self, monkeypatch, tmp_path):
        # metric: once in phase_space_metric and once for its three products;
        # complex_structure: once, for both blocks.
        calls = []
        parts = geometry._metric_parts
        for name, module in list(sys.modules.items()):
            if name.startswith("simplexflow") and getattr(module, "_metric_parts", None) is parts:
                monkeypatch.setattr(module, "_metric_parts", lambda *args: calls.append(1) or parts(*args))
        cfg = config_from_dict(qubit_config(checks=["metric", "complex_structure"]))
        assert run_scenario(cfg, out_dir=tmp_path).exit_code == 0
        assert len(calls) == 3 * len(_scenario_points(cfg)) == 27

    def test_one_eigendecomposition_per_kernel(self, monkeypatch, tmp_path):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *args: calls.append(1) or eigh(*args))
        example = readme_example()
        example["checks"] = list(CHECKS)
        assert run_scenario(config_from_dict(example), out_dir=tmp_path).exit_code == 0
        assert len(calls) == 1

    def test_a_sampled_check_error_names_its_check_and_keeps_earlier_rows(self, tmp_path):
        # A = -B/2 makes the metric singular on the normalized surface, so
        # metric and complex_structure raise at every point.  The sampled
        # checks are evaluated point by point, but the error belongs to the
        # first failing check in request order, after the rows before it.
        cfg = config_from_dict(qubit_config(
            metric_params={"a_coeffs": [-0.5], "b_coeffs": [1.0]},
            checks=["realness", "conservation", "symplectic", "metric", "complex_structure"],
        ))
        result = run_scenario(cfg, out_dir=tmp_path)
        assert result.exit_code == 2
        assert result.report["error"]["type"] == "SingularError"
        assert result.report["error"]["check"] == "metric"
        assert [row["name"] for row in result.report["checks"]] == [
            "realness", "conservation.norm_defect", "conservation.energy_defect", "symplectic"]


class TestEmitReport:
    def test_empty_check_list(self, tmp_path):
        path = emit_report({"scenario_id": "empty", "checks": []}, tmp_path / "r.json")
        assert json.loads(path.read_text()) == {"scenario_id": "empty", "checks": []}

    def test_rows_have_required_keys(self, tmp_path):
        rows = [{"name": "alpha", "residual": 1e-9, "tolerance": 1e-6, "pass": True},
                {"name": "beta", "residual": 2.0, "tolerance": 1e-6, "pass": False}]
        data = json.loads(emit_report({"checks": rows}, tmp_path / "r.json").read_text())
        for row in data["checks"]:
            assert set(row) == {"name", "residual", "tolerance", "pass"}
        assert data["checks"] == rows
        assert data["checks"][0]["pass"] is True
        assert data["checks"][1]["pass"] is False

    def test_identical_bytes_for_identical_content(self, tmp_path):
        row = {"name": "alpha", "residual": 1e-9, "tolerance": 1e-6, "pass": True}
        first = emit_report({"scenario_id": "same", "checks": [row]}, tmp_path / "a.json").read_bytes()
        # The same content inserted in another key order gives the same bytes.
        second = emit_report({"checks": [dict(reversed(row.items()))], "scenario_id": "same"},
                             tmp_path / "b.json").read_bytes()
        assert first == second


@dataclasses.dataclass(frozen=True)
class CliResult:
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def invoke(args: list[str]) -> CliResult:
    """Run the CLI in process on ``args``: the code it exits with, and what it wrote to stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), pytest.raises(SystemExit) as exited:
        cli_main(args)
    return CliResult(exited.value.code, stdout.getvalue(), stderr.getvalue())


class TestCli:
    def write(self, tmp_path, name="scn.json", **overrides):
        path = tmp_path / name
        path.write_text(json.dumps(qubit_config(**overrides)))
        return path

    def test_validate_ok(self, tmp_path):
        path = self.write(tmp_path)
        result = invoke(["validate", str(path)])
        assert result.exit_code == 0
        assert "ok:" in result.output

    def test_validate_reports_every_error(self, tmp_path):
        path = self.write(tmp_path, integrator={"h": -1.0, "steps": 0})
        result = invoke(["validate", str(path)])
        assert result.exit_code == 2
        assert result.output.count("invalid:") >= 2

    def test_validate_names_an_unknown_key(self, tmp_path):
        path = self.write(tmp_path, chekcs=["metric"])
        result = invoke(["validate", str(path)])
        assert result.exit_code == 2
        assert "invalid: unknown key 'chekcs' at the top level" in result.output

    def test_run_writes_outputs(self, tmp_path):
        path = self.write(tmp_path)
        out = tmp_path / "out"
        result = invoke(["run", str(path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "qubit_trajectory.csv").exists()
        assert (out / "qubit_report.json").exists()
        assert "realness" in result.output

    def test_run_quiet(self, tmp_path):
        path = self.write(tmp_path)
        result = invoke(["run", str(path), "--out", str(tmp_path / "o"), "--quiet"])
        assert result.exit_code == 0
        assert result.output == ""

    def test_run_config_error_exit_2(self, tmp_path):
        path = self.write(tmp_path, integrator={"h": 1e-3, "steps": 0})
        result = invoke(["run", str(path)])
        assert result.exit_code == 2

    def write_overflowing(self, directory, name="overflow.json"):
        # A valid config whose Cayley step coefficients overflow.
        return self.write(directory, name, id="overflow", integrator={"h": 1e10, "steps": 3},
                          hamiltonian={"kernel": {"real": [[1e300, 0.0], [0.0, -1e300]]}},
                          initial_state={"psi": {"real": [0.6, 0.8], "imag": [0.0, 0.0]}})

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_run_overflowing_flow_exits_2_with_an_error_record(self, tmp_path):
        path = self.write_overflowing(tmp_path)
        out = tmp_path / "out"
        result = invoke(["run", str(path), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "error [NonFiniteError]" in result.output
        report = json.loads((out / "overflow_report.json").read_text())
        assert report["error"]["type"] == "NonFiniteError"
        assert report["exit_ok"] is False and report["checks"] == []
        assert not (out / "overflow_trajectory.csv").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("terms", [
        {"nonlinear": {"tag": "quartic_psi", "strength": 1.0}},
        {"linear_bra": {"real": [0.5, 0.0]}, "linear_ket": {"real": [0.5, 0.0]}},
    ], ids=["nonlinear", "linear"])
    def test_convergence_on_a_spec_with_more_than_a_kernel_is_a_config_error(self, command, terms, tmp_path):
        path = self.write(tmp_path, checks=["realness", "convergence"],
                          hamiltonian={"kernel": {"real": [[0.0, 1.0], [1.0, 0.0]]}, **terms})
        out = tmp_path / "out"
        result = invoke([command, str(path)] + (["--out", str(out)] if command == "run" else []))
        assert result.exit_code == 2, result.output
        assert "check 'convergence' needs a pure-kernel hamiltonian" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("terms", [
        {"nonlinear": {"tag": "sum_rho_squared", "strength": 0.0}},
        {"nonlinear": {"tag": "quartic_psi", "strength": 0}},
        {"linear_bra": {"real": [0.0, 0.0]}, "linear_ket": {"real": [0.0, 0.0]}},
    ], ids=["sum_rho_squared", "quartic_psi", "linear"])
    def test_zero_terms_leave_a_pure_kernel_that_passes_convergence(self, terms, tmp_path):
        overrides = dict(checks=["convergence"], hamiltonian={"kernel": {"real": [[0.0, 1.0], [1.0, 0.0]]}, **terms})
        assert config_from_dict(qubit_config(**overrides)).hamiltonian.is_pure_kernel
        path = self.write(tmp_path, **overrides)
        for command in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
            result = invoke(command)
            assert result.exit_code == 0, result.output
        rows = json.loads((tmp_path / "out" / "qubit_report.json").read_text())["checks"]
        assert [row["name"] for row in rows] == ["convergence.order"] and rows[0]["ok"]

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("overrides, field", [
        ({"integrator": {"h": 1e-3, "steps": 10**15}}, "integrator.steps"),
        ({"checks": ["convergence"], "convergence": {"h_list": [1e-300, 2e-300], "tau": 1.0}}, "convergence.h_list"),
        ({"checks": ["convergence"], "convergence": {"h_list": [1e-3]}}, "convergence.h_list"),
        ({"checks": ["convergence"], "convergence": {"h_list": [1e-3, 1e-3]}}, "convergence.h_list"),
        ({"checks": ["realness", {"name": "realness", "expect_pass": False}]}, "checks[realness]"),
        ({"checks": ["metric", "normalization", "metric"]}, "checks[metric]"),
    ], ids=["steps_too_many", "rung_too_long", "one_step_size", "repeated_step_size", "check_expected_both_ways",
            "check_listed_twice"])
    def test_configs_no_run_can_honour_are_config_errors(self, command, overrides, field, tmp_path):
        # Each would otherwise fail to allocate its trajectory or report a
        # convergence row with nothing to fit.
        path = self.write(tmp_path, **overrides)
        out = tmp_path / "out"
        result = invoke([command, str(path)] + (["--out", str(out)] if command == "run" else []))
        assert result.exit_code == 2, result.output
        assert f"{field} " in result.output
        assert not out.exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"integrator": {"h": 10**400, "steps": 200}}, "integrator.h must be a positive number"),
        ({"metric_params": {"a_coeffs": [10**400]}}, "metric_params: metric coefficients must be finite"),
        ({"hamiltonian": {"kernel": {"real": [[0, 10**400], [10**400, 0]]}}}, "hamiltonian.kernel has non-finite"),
        ({"hamiltonian": {"kernel": {"real": [[0, 1], [1, 0]]}, "nonlinear": {"tag": "quartic_psi",
                                                                              "strength": 10**400}}},
         "hamiltonian.nonlinear.strength must be a finite number"),
        ({"hamiltonian": {"kernel": {"real": [[0, 1], [1, 0]]}, "constant": 10**400}},
         "hamiltonian.constant must be a finite number"),
        ({"initial_state": {"rho": [0.5, 0.5], "pi": [0, 10**400]}}, "initial_state.pi must be a list of finite"),
        ({"convergence": {"tau": 10**400}}, "convergence.tau must be a positive number"),
        ({"convergence": {"h_list": [1e-3, 10**400]}}, "convergence.h_list must be a list of positive numbers"),
        ({"seed": "9" * 5000}, "a.json: invalid JSON: "),
    ], ids=["h", "a_coeffs", "kernel", "strength", "constant", "pi", "tau", "h_list", "beyond_the_digit_limit"])
    def test_an_integer_too_large_for_a_float_is_a_config_error(self, overrides, message, tmp_path):
        # The file after it still runs: batch goes on past a config error.
        # A string of digits is written as a bare JSON integer, so that it can
        # pass the interpreter's digit limit on integer conversion.
        scenarios = tmp_path / "scenarios"
        scenarios.mkdir()
        text = json.dumps(qubit_config(**overrides))
        (scenarios / "a.json").write_text(re.sub(r'"(\d+)"', r"\1", text))
        self.write(scenarios, "b.json")
        out = tmp_path / "out"
        result = invoke(["batch", str(scenarios), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert f"a: config error: {message}" in result.output
        assert "b: ok" in result.output and (out / "b" / "qubit_report.json").exists()
        assert not (out / "a").exists()

    def test_outputs_outside_the_output_directory_are_config_errors(self, tmp_path):
        # Without the rule both files would print ok: one CSV above --out, shared
        # and overwritten, and reports outside it.
        scenarios = tmp_path / "scenarios"
        scenarios.mkdir()
        for name in ("a", "b"):
            self.write(scenarios, f"{name}.json", id=name, output={
                "trajectory": "../shared_trajectory.csv", "report": str(tmp_path / "abs" / f"{name}_report.json")})
        self.write(scenarios, "c.json", id="../escape")
        out = tmp_path / "out"
        result = invoke(["batch", str(scenarios), "--out", str(out)])
        assert result.exit_code == 2, result.output
        for name, trajectory, report in (("a", "../shared_trajectory.csv", str(tmp_path / "abs" / "a_report.json")),
                                         ("b", "../shared_trajectory.csv", str(tmp_path / "abs" / "b_report.json")),
                                         ("c", "../escape_trajectory.csv", "../escape_report.json")):
            assert (f"{name}: config error: output.trajectory must be a relative path with no '..' component, "
                    f"got {trajectory!r}") in result.output
            assert (f"{name}: config error: output.report must be a relative path with no '..' component, "
                    f"got {report!r}") in result.output
        assert sorted(path.relative_to(tmp_path).as_posix() for path in tmp_path.rglob("*")) == [
            "scenarios", "scenarios/a.json", "scenarios/b.json", "scenarios/c.json"]

    @pytest.mark.parametrize("trajectory, report", [("x.out", "x.out"), ("./x.out", "x.out"),
                                                    ("sub/x.out", "sub//./x.out")])
    def test_one_path_for_both_outputs_is_a_config_error(self, trajectory, report, tmp_path):
        # Without the rule the run exits 0 and the report overwrites the CSV.
        path = self.write(tmp_path, output={"trajectory": trajectory, "report": report})
        for args in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
            result = invoke(args)
            assert result.exit_code == 2, result.output
            assert (f"output.trajectory and output.report must be different paths, got {trajectory!r} "
                    f"and {report!r}") in result.output
        assert not (tmp_path / "out").exists()

    def test_a_nul_character_in_an_output_path_is_a_config_error(self, tmp_path):
        # Without the rule the file validates, and batch dies at write time with
        # ValueError before it runs the files after it.
        scenarios = tmp_path / "scenarios"
        scenarios.mkdir()
        self.write(scenarios, "a.json", id="a\u0000b")
        self.write(scenarios, "b.json", output={"trajectory": "t\u0000.csv"})
        self.write(scenarios, "ok.json")
        out = tmp_path / "out"
        result = invoke(["batch", str(scenarios), "--out", str(out)])
        assert result.exit_code == 2, result.output
        for name, label, value in (("a", "output.trajectory", "a\x00b_trajectory.csv"),
                                   ("a", "output.report", "a\x00b_report.json"),
                                   ("b", "output.trajectory", "t\x00.csv")):
            assert f"{name}: config error: {label} must not contain a NUL character, got {value!r}" in result.output
        assert "b: config error: output.report" not in result.output
        assert "ok: ok" in result.output
        assert sorted(path.name for path in out.rglob("*")) == ["ok", "qubit_report.json", "qubit_trajectory.csv"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("overrides, check", [
        ({"integrator": {"h": 1e308, "steps": 3}}, None),
        ({"checks": ["convergence"], "convergence": {"h_list": [1e-300, 2e-300], "tau": 1e300}}, "convergence"),
    ], ids=["sample_times", "convergence_steps"])
    def test_run_overflowing_times_exits_2_with_an_error_record(self, overrides, check, tmp_path):
        path = self.write(tmp_path, **overrides)
        out = tmp_path / "out"
        result = invoke(["run", str(path), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "error [NonFiniteError]" in result.output
        error = json.loads((out / "qubit_report.json").read_text())["error"]
        assert error["type"] == "NonFiniteError" and error.get("check") == check

    def test_batch_runs_the_files_after_an_overflowing_flow(self, tmp_path):
        scenarios = tmp_path / "scenarios"
        scenarios.mkdir()
        self.write_overflowing(scenarios, "a.json")
        self.write(scenarios, "b.json")
        out = tmp_path / "out"
        result = invoke(["batch", str(scenarios), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "a: exit 2" in result.output
        assert json.loads((out / "a" / "overflow_report.json").read_text())["error"]["type"] == "NonFiniteError"
        assert json.loads((out / "b" / "qubit_report.json").read_text())["exit_ok"] is True
        assert (out / "b" / "qubit_trajectory.csv").exists()

    def test_run_exits_2_when_its_outputs_cannot_be_written(self, tmp_path):
        path = self.write(tmp_path)
        (tmp_path / "blocked").write_text("a file, not a directory")
        result = invoke(["run", str(path), "--out", str(tmp_path / "blocked" / "out")])
        assert result.exit_code == 2, result.output
        assert "error: cannot write outputs:" in result.output

    def test_run_out_at_a_file_exits_2_with_the_message_of_batch(self, tmp_path):
        # The file reaches the shared runner, as under batch, instead of
        # stopping in the argument parser with another message.
        path = self.write(tmp_path)
        (tmp_path / "blocked").write_text("a file, not a directory")
        proc = subprocess.run([sys.executable, "-m", "simplexflow", "run", str(path), "--out",
                               str(tmp_path / "blocked")], env=_src_env(), capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "error: cannot write outputs:" in proc.stderr

    def test_batch_runs_the_files_after_one_whose_outputs_cannot_be_written(self, tmp_path):
        scenarios = tmp_path / "scenarios"
        scenarios.mkdir()
        self.write(scenarios, "a.json")
        self.write(scenarios, "b.json")
        out = tmp_path / "out"
        out.mkdir()
        (out / "a").write_text("a file where the output directory of a.json goes")
        result = invoke(["batch", str(scenarios), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "a: error: cannot write outputs:" in result.output
        assert "a: exit 2" in result.output
        assert (out / "b" / "qubit_trajectory.csv").exists()
        assert (out / "b" / "qubit_report.json").exists()

    def test_run_and_batch_agree_file_by_file(self, tmp_path):
        # Per file: the same exit code, the same stderr messages (batch adds
        # "<stem>: ") and the same output bytes, written to the same paths.
        scenarios = tmp_path / "scenarios"
        scenarios.mkdir()
        self.write(scenarios, "a.json")
        self.write(scenarios, "b.json", integrator={"h": 1e-3, "steps": 0})
        self.write(scenarios, "c.json", output={"trajectory": "sub/t.csv", "report": "sub/r.json"})
        out = tmp_path / "out"

        def fresh_out():
            shutil.rmtree(out, ignore_errors=True)
            (out / "c").mkdir(parents=True)
            (out / "c" / "sub").write_text("a file where the output directory of c.json goes")

        def written():
            return {path.relative_to(out): path.read_bytes() for path in out.rglob("*") if path.is_file()}

        fresh_out()
        run_codes, run_messages = {}, {}
        for stem in "abc":
            args = ["run", str(scenarios / f"{stem}.json"), "--out", str(out / stem), "--quiet"]
            result = invoke(args)
            run_codes[stem], run_messages[stem] = result.exit_code, result.output.splitlines()
        run_files = written()
        fresh_out()
        result = invoke(["batch", str(scenarios), "--out", str(out), "--quiet"])
        batch_codes, batch_messages = dict.fromkeys("abc", 0), {stem: [] for stem in "abc"}
        for line in result.output.splitlines():
            stem, message = line.split(": ", 1)
            if message.startswith("exit "):
                batch_codes[stem] = int(message.removeprefix("exit "))
            else:
                batch_messages[stem].append(message)
        assert run_codes == {"a": 0, "b": 2, "c": 2} and result.exit_code == 2
        assert batch_codes == run_codes
        assert run_messages["b"][0].startswith("config error: ")
        assert run_messages["c"][0].startswith("error: cannot write outputs: ")
        assert batch_messages == run_messages
        assert sorted(map(str, run_files)) == ["a/qubit_report.json", "a/qubit_trajectory.csv", "c/sub"]
        assert written() == run_files

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_batch_runs_all(self, tmp_path, jobs):
        scenarios = tmp_path / "scenarios"
        scenarios.mkdir()
        self.write(scenarios, "a.json")
        self.write(scenarios, "b.json", seed=43)
        # A serial reference run, then the run under test: same files, same bytes.
        outputs = []
        for run, run_jobs in enumerate(("1", jobs)):
            out = tmp_path / f"batch_out_{run}"
            args = ["batch", str(scenarios), "--out", str(out), "--jobs", run_jobs]
            result = invoke(args)
            assert result.exit_code == 0, result.output
            assert (out / "a" / "qubit_report.json").exists()
            assert (out / "b" / "qubit_report.json").exists()
            files = [path for path in out.rglob("*") if path.is_file()]
            outputs.append({path.relative_to(out): path.read_bytes() for path in files})
        assert outputs[1] == outputs[0]

    def test_batch_empty_dir(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        result = invoke(["batch", str(empty)])
        assert result.exit_code == 2

    # Each rule on a path or a seed has one owner, the scenario layer, so the
    # CLI prints the library's own message for it.

    @pytest.mark.parametrize("command, prefix", [("run", "config error"), ("validate", "invalid")])
    @pytest.mark.parametrize("target", ["missing.json", "."], ids=["missing", "directory"])
    def test_an_unreadable_config_is_the_librarys_error(self, command, prefix, target, tmp_path):
        path = tmp_path / target
        result = invoke([command, str(path)])
        assert result.exit_code == 2
        with pytest.raises(ConfigError) as caught:
            validate_config(path)
        assert caught.value.errors[0].startswith(f"cannot read {path}: ")
        assert result.stderr == f"{prefix}: {caught.value.errors[0]}\n"
        assert result.stdout == ""

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_run_seed_out_of_range_is_the_librarys_error(self, seed, tmp_path):
        path = self.write(tmp_path)
        out = tmp_path / "out"
        result = invoke(["run", str(path), "--out", str(out), "--seed", seed])
        assert result.exit_code == 2
        assert result.stderr == f"config error: seed must be an integer in [0, 2^64), got {seed}\n"
        assert not out.exists()

    def test_batch_seed_out_of_range_is_reported_once_per_file(self, tmp_path):
        scenarios = tmp_path / "scenarios"
        scenarios.mkdir()
        self.write(scenarios, "a.json")
        self.write(scenarios, "b.json")
        result = invoke(["batch", str(scenarios), "--out", str(tmp_path / "out"), "--seed", "-1"])
        assert result.exit_code == 2
        message = "config error: seed must be an integer in [0, 2^64), got -1"
        assert result.stderr.splitlines() == [f"a: {message}", "a: exit 2", f"b: {message}", "b: exit 2"]

    @pytest.mark.parametrize("target", ["missing", "file.json"])
    def test_batch_on_no_directory_finds_no_configs(self, target, tmp_path):
        self.write(tmp_path, "file.json")
        result = invoke(["batch", str(tmp_path / target)])
        assert result.exit_code == 2
        assert result.stderr == f"no *.json configs found in {tmp_path / target}\n"

    @pytest.mark.parametrize("jobs", ["0", "65", "two"])
    def test_batch_jobs_out_of_range_is_a_usage_error(self, jobs, tmp_path):
        self.write(tmp_path)
        out = tmp_path / "out"
        result = invoke(["batch", str(tmp_path), "--out", str(out), "--jobs", jobs])
        assert result.exit_code == 2
        assert "--jobs" in result.stderr
        assert not out.exists()

    def test_version(self):
        result = invoke(["--version"])
        assert (result.exit_code, result.stdout) == (0, "simplexflow, version 0.1.0\n")


def _src_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(simplexflow.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_import_leaves_the_process_pool_unloaded():
    # Nothing outside the standard library and NumPy either: the CLI parses
    # its arguments with argparse.
    code = ("import sys; before = set(sys.modules); import simplexflow.cli; "
            "loaded = {m.split('.')[0] for m in set(sys.modules) - before}; "
            "print(sorted(loaded - set(sys.stdlib_module_names)), "
            "[m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['numpy', 'simplexflow'] []"


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "simplexflow", "--help"], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: simplexflow ")
    assert all(command in proc.stdout for command in ("run", "validate", "batch"))
