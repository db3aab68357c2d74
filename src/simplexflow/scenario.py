"""Scenario configuration, execution, and file output.

A scenario is a JSON document fixing the dimension, metric coefficients, a
Hamiltonian, an initial state, integrator settings, a seed, and a list of
named checks.  Running it integrates the flow, writes the trajectory as CSV,
evaluates the checks, and writes a JSON report.  Outputs are deterministic:
the same config and seed produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._version import __version__
from .diagnostics import (
    FS_RATIO_CONSTANT,
    METRIC_TOL,
    SYMPLECTIC_TOL,
    CheckResult,
    DiagnosticsReport,
    ab_independence_sweep,
    convergence_study,
    fs_consistency,
    lie_derivative_metric,
    lie_derivative_symplectic,
    random_hermitian,
    sample_interior_points,
)
from .errors import ConfigError, ParamError, SimplexFlowError
from .flows import (
    HamiltonianSpec,
    PhasePoint,
    Trajectory,
    _eval_complex,
    check_normalization_generator,
    integrate_midpoint,
)
from .geometry import CANONICAL_PARAMS, MetricParams, complex_structure
from .hilbert import (
    ComplexState,
    HermitianOperator,
    commutator_identity_check,
    from_complex,
    propagate_unitary,
    to_complex,
)

SCHEMA_VERSION = 1

#: Stable per-check stream ids so seeded draws do not depend on check order.
CHECK_IDS = {
    "realness": 1,
    "normalization": 2,
    "symplectic": 3,
    "metric": 4,
    "complex_structure": 5,
    "conservation": 6,
    "convergence": 7,
    "bracket_commutator": 8,
    "ab_independence": 9,
    "fs_consistency": 10,
    "gauge_born": 11,
}

NORM_DEFECT_TOL = 1e-10
ENERGY_DEFECT_TOL = 1e-8

#: Trajectory rows formatted per write; bounds the CSV text held in memory.
CSV_CHUNK_ROWS = 64

DEFAULT_CONVERGENCE_H = (4e-3, 2e-3, 1e-3, 5e-4)
DEFAULT_CONVERGENCE_TAU = 1.0


@dataclass(frozen=True)
class CheckRequest:
    name: str
    expect_pass: bool = True


@dataclass(frozen=True)
class ScenarioConfig:
    scenario_id: str
    n: int
    metric_params: MetricParams
    hamiltonian: HamiltonianSpec
    initial: PhasePoint
    h: float
    steps: int
    checks: tuple[CheckRequest, ...]
    seed: int
    trajectory_path: str
    report_path: str
    convergence_h: tuple[float, ...]
    convergence_tau: float
    resolved: dict

    def with_seed(self, seed: int) -> "ScenarioConfig":
        resolved = dict(self.resolved)
        resolved["seed"] = int(seed)
        return replace(self, seed=int(seed), resolved=resolved)


@dataclass(frozen=True)
class ScenarioResult:
    exit_code: int
    report: dict
    trajectory_path: Path | None
    report_path: Path


def config_hash(config: ScenarioConfig) -> str:
    canonical = json.dumps(config.resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _parse_real_vector(node, name: str, n: int, errors: list[str]) -> np.ndarray | None:
    if not isinstance(node, list) or not all(_is_number(v) for v in node):
        errors.append(f"{name} must be a list of finite numbers")
        return None
    if len(node) != n:
        errors.append(f"{name} has length {len(node)} but n = {n}")
        return None
    return np.asarray(node, dtype=float)


def _parse_complex(node, name: str, shape: tuple[int, ...], errors: list[str], required: bool = False):
    """Parse {"real": ..., "imag": ...} into a complex array of fixed shape."""
    if node is None:
        if required:
            errors.append(f"{name} is required")
        return None
    if not isinstance(node, dict) or "real" not in node:
        errors.append(f'{name} must be an object {{"real": ..., "imag": ...}}')
        return None
    try:
        real = np.asarray(node["real"], dtype=float)
        imag = np.asarray(node.get("imag", np.zeros_like(real)), dtype=float)
    except (TypeError, ValueError):
        errors.append(f"{name} entries must be numeric arrays")
        return None
    if real.shape != shape:
        errors.append(f"{name}.real has shape {list(real.shape)} but n = {shape[0]}")
        return None
    if imag.shape != shape:
        errors.append(f"{name}.imag has shape {list(imag.shape)} but n = {shape[0]}")
        return None
    if not (np.all(np.isfinite(real)) and np.all(np.isfinite(imag))):
        errors.append(f"{name} has non-finite entries")
        return None
    return real + 1j * imag


def _complex_to_node(arr: np.ndarray) -> dict:
    return {"real": np.real(arr).tolist(), "imag": np.imag(arr).tolist()}


def config_from_dict(data, *, scenario_id: str = "scenario") -> ScenarioConfig:
    """Build a validated ScenarioConfig from a parsed JSON object.

    Collects every problem found and raises a single ConfigError with the
    full list; never throws bare exceptions on malformed input.
    """
    errors: list[str] = []
    if not isinstance(data, dict):
        raise ConfigError(["top level must be a JSON object"])

    if data.get("schema_version") != SCHEMA_VERSION:
        errors.append(f"schema_version must be {SCHEMA_VERSION}, got {data.get('schema_version')!r}")

    sid = data.get("id", scenario_id)
    if not isinstance(sid, str) or not sid:
        errors.append("id must be a nonempty string")
        sid = scenario_id

    n = data.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        errors.append(f"n must be an integer >= 2, got {n!r}")
        raise ConfigError(errors)

    params = CANONICAL_PARAMS
    node = data.get("metric_params", {})
    if not isinstance(node, dict):
        errors.append("metric_params must be an object")
    else:
        try:
            params = MetricParams(
                a_coeffs=tuple(node.get("a_coeffs", (0.0,))),
                b_coeffs=tuple(node.get("b_coeffs", (1.0,))),
            )
        except (ParamError, TypeError, ValueError) as exc:
            errors.append(f"metric_params: {exc}")

    spec = None
    ham = data.get("hamiltonian")
    if not isinstance(ham, dict):
        errors.append("hamiltonian must be an object with a kernel")
    else:
        kernel = _parse_complex(ham.get("kernel"), "hamiltonian.kernel", (n, n), errors, required=True)
        bra = _parse_complex(ham.get("linear_bra"), "hamiltonian.linear_bra", (n,), errors)
        ket = _parse_complex(ham.get("linear_ket"), "hamiltonian.linear_ket", (n,), errors)
        constant = ham.get("constant", 0.0)
        if not _is_number(constant):
            errors.append("hamiltonian.constant must be a finite number")
            constant = 0.0
        tag, strength = "none", 1.0
        nl = ham.get("nonlinear")
        if nl is not None:
            if not isinstance(nl, dict) or not isinstance(nl.get("tag"), str):
                errors.append('hamiltonian.nonlinear must be {"tag": ..., "strength": ...}')
            else:
                tag = nl["tag"]
                strength = nl.get("strength", 1.0)
                if tag not in ("none", "sum_rho_squared", "quartic_psi"):
                    errors.append(f"hamiltonian.nonlinear.tag {tag!r} is not in the catalog")
                    tag = "none"
                if not _is_number(strength):
                    errors.append("hamiltonian.nonlinear.strength must be a finite number")
                    strength = 1.0
        if kernel is not None:
            deviation = float(np.max(np.abs(kernel - kernel.conj().T)))
            if deviation > 1e-12:
                errors.append(f"hamiltonian.kernel not Hermitian (max deviation {deviation:.3e})")
        if (bra is None) != (ket is None):
            errors.append(
                "hamiltonian.linear_bra and hamiltonian.linear_ket must be given together "
                "as a conjugate pair"
            )
        elif bra is not None and float(np.max(np.abs(ket - np.conj(bra)))) > 1e-12:
            errors.append("hamiltonian.linear_ket must equal conj(hamiltonian.linear_bra)")
        if kernel is not None:
            try:
                spec = HamiltonianSpec(
                    kernel=kernel,
                    linear_bra=bra,
                    linear_ket=ket,
                    constant=float(constant),
                    nonlinear=tag,
                    nonlinear_strength=float(strength),
                )
            except (ValueError, SimplexFlowError) as exc:
                errors.append(f"hamiltonian: {exc}")

    initial = None
    initial_node: dict = {}
    state = data.get("initial_state")
    if not isinstance(state, dict):
        errors.append("initial_state must be an object")
    else:
        has_real = "rho" in state or "pi" in state
        has_psi = "psi" in state
        if has_real == has_psi:
            errors.append("initial_state must contain exactly one of (rho, pi) or psi")
        elif has_real:
            rho = _parse_real_vector(state.get("rho"), "initial_state.rho", n, errors)
            pi = _parse_real_vector(state.get("pi"), "initial_state.pi", n, errors)
            if rho is not None and pi is not None:
                if float(np.min(rho)) < 0.0:
                    errors.append("initial_state.rho must be componentwise nonnegative")
                elif abs(float(rho.sum()) - 1.0) > 1e-9:
                    errors.append(
                        f"initial_state.rho must sum to 1 (got {float(rho.sum())!r})"
                    )
                else:
                    initial = PhasePoint(rho, pi)
                    initial_node = {"rho": rho.tolist(), "pi": pi.tolist()}
        else:
            psi = _parse_complex(state.get("psi"), "initial_state.psi", (n,), errors)
            if psi is not None:
                weight = float(np.sum(np.abs(psi) ** 2))
                if abs(weight - 1.0) > 1e-9:
                    errors.append(f"initial_state.psi must be normalized (total weight {weight!r})")
                else:
                    initial, _ = from_complex(ComplexState(psi))
                    initial_node = {"psi": _complex_to_node(psi)}
    if initial is not None:
        # The total may be off by up to 1e-9, but conservation.norm_defect
        # measures |sum(rho) - 1| against 1e-10 from step 0, so the state is
        # put on the simplex here.  initial_node keeps the values as given.
        initial = PhasePoint(initial.rho / initial.rho_total, initial.pi)

    h, steps = None, None
    integ = data.get("integrator")
    if not isinstance(integ, dict):
        errors.append("integrator must be an object {h, steps}")
    else:
        h = integ.get("h")
        if not _is_number(h) or h <= 0:
            errors.append(f"integrator.h must be a positive number, got {h!r}")
            h = None
        steps = integ.get("steps")
        if not isinstance(steps, int) or isinstance(steps, bool) or steps < 1:
            errors.append(f"integrator.steps must be an integer >= 1, got {steps!r}")
            steps = None

    checks: list[CheckRequest] = []
    raw_checks = data.get("checks", [])
    if not isinstance(raw_checks, list):
        errors.append("checks must be a list")
    else:
        for entry in raw_checks:
            if isinstance(entry, str):
                name, expect = entry, True
            elif isinstance(entry, dict) and isinstance(entry.get("name"), str):
                name = entry["name"]
                expect = entry.get("expect_pass", True)
                if not isinstance(expect, bool):
                    errors.append(f"checks[{name}].expect_pass must be a boolean")
                    expect = True
            else:
                errors.append(f"checks entry {entry!r} must be a name or {{name, expect_pass}}")
                continue
            if name not in CHECK_IDS:
                errors.append(f"unknown check {name!r}; known: {sorted(CHECK_IDS)}")
                continue
            checks.append(CheckRequest(name, expect))

    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or not (0 <= seed < 2**64):
        errors.append(f"seed must be an integer in [0, 2^64), got {seed!r}")
        seed = 0

    output = data.get("output", {})
    if not isinstance(output, dict):
        errors.append("output must be an object")
        output = {}
    trajectory_path = output.get("trajectory", f"{sid}_trajectory.csv")
    report_path = output.get("report", f"{sid}_report.json")
    for label, value in (("output.trajectory", trajectory_path), ("output.report", report_path)):
        if not isinstance(value, str) or not value:
            errors.append(f"{label} must be a nonempty string")

    conv_h = DEFAULT_CONVERGENCE_H
    conv_tau = DEFAULT_CONVERGENCE_TAU
    conv = data.get("convergence")
    if conv is not None:
        if not isinstance(conv, dict):
            errors.append("convergence must be an object {h_list, tau}")
        else:
            h_list = conv.get("h_list", list(DEFAULT_CONVERGENCE_H))
            if not isinstance(h_list, list) or not h_list or not all(_is_number(v) and v > 0 for v in h_list):
                errors.append("convergence.h_list must be a nonempty list of positive numbers")
            else:
                conv_h = tuple(float(v) for v in h_list)
            tau = conv.get("tau", DEFAULT_CONVERGENCE_TAU)
            if not _is_number(tau) or tau <= 0:
                errors.append("convergence.tau must be a positive number")
            else:
                conv_tau = float(tau)

    if errors:
        raise ConfigError(errors)

    resolved = {
        "schema_version": SCHEMA_VERSION,
        "id": sid,
        "n": n,
        "metric_params": {"a_coeffs": list(params.a_coeffs), "b_coeffs": list(params.b_coeffs)},
        "hamiltonian": {
            "kernel": _complex_to_node(spec.kernel),
            "linear_bra": None if spec.linear_bra is None else _complex_to_node(spec.linear_bra),
            "linear_ket": None if spec.linear_ket is None else _complex_to_node(spec.linear_ket),
            "constant": spec.constant,
            "nonlinear": {"tag": spec.nonlinear, "strength": spec.nonlinear_strength},
        },
        "initial_state": initial_node,
        "integrator": {"h": float(h), "steps": int(steps)},
        "checks": [{"name": c.name, "expect_pass": c.expect_pass} for c in checks],
        "seed": seed,
        "convergence": {"h_list": list(conv_h), "tau": conv_tau},
    }
    return ScenarioConfig(
        scenario_id=sid,
        n=n,
        metric_params=params,
        hamiltonian=spec,
        initial=initial,
        h=float(h),
        steps=int(steps),
        checks=tuple(checks),
        seed=seed,
        trajectory_path=trajectory_path,
        report_path=report_path,
        convergence_h=conv_h,
        convergence_tau=conv_tau,
        resolved=resolved,
    )


def validate_config(path) -> ScenarioConfig:
    """Load and fully validate a scenario file; aggregates all problems."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path.name}: invalid JSON: {exc}"]) from exc
    return config_from_dict(data, scenario_id=path.stem)


def write_trajectory_csv(trajectory: Trajectory, path) -> Path:
    """Round-trip-safe CSV: 17 significant digits per float column.

    Rows are formatted and written in chunks of CSV_CHUNK_ROWS, so the text
    of the whole table is never held at once.
    """
    path = Path(path)
    n = trajectory.n
    header = (
        ["step", "tau"]
        + [f"rho_{i + 1}" for i in range(n)]
        + [f"pi_{i + 1}" for i in range(n)]
        + [f"re_psi_{i + 1}" for i in range(n)]
        + [f"im_psi_{i + 1}" for i in range(n)]
        + ["norm_defect", "energy_defect"]
    )
    row_format = "%d" + ",%.17g" * (len(header) - 1) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        out.write(",".join(header) + "\n")
        for start in range(0, len(trajectory), CSV_CHUNK_ROWS):
            rows = slice(start, start + CSV_CHUNK_ROWS)
            psi = trajectory.psi[rows]
            table = np.column_stack([
                np.arange(start, start + psi.shape[0]),
                trajectory.parameter_values[rows],
                trajectory.rho[rows],
                trajectory.pi[rows],
                psi.real,
                psi.imag,
                trajectory.norm_defects[rows],
                trajectory.energy_defects[rows],
            ])
            out.write("".join(row_format % tuple(row) for row in table.tolist()))
    return path


def emit_report(report, path) -> Path:
    """Write a report as stable-key-ordered JSON; same content, same bytes."""
    if isinstance(report, DiagnosticsReport):
        report = {"tool_version": __version__, **report.to_dict()}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


def _check_rng(config: ScenarioConfig, name: str) -> np.random.Generator:
    return np.random.default_rng([config.seed, CHECK_IDS[name]])


def _scenario_points(config: ScenarioConfig) -> list[PhasePoint]:
    rng = np.random.default_rng([config.seed, 0])
    return sample_interior_points(config.n, 8, rng=rng)


def _single_interior_point(n: int, rng: np.random.Generator) -> PhasePoint:
    return sample_interior_points(n, 1, rng=rng, include_barycenter=False)[0]


def _run_check(name: str, config: ScenarioConfig, trajectory: Trajectory):
    """Evaluate one named check; returns (check results, report extras)."""
    spec = config.hamiltonian
    report = DiagnosticsReport(scenario_id=config.scenario_id)
    extras: dict = {}
    if name == "realness":
        residual = max(
            abs(_eval_complex(spec, X.rho, X.pi).imag) for X in _scenario_points(config)
        )
        report.add("realness", residual, 1e-12)
    elif name == "normalization":
        residual = max(
            abs(check_normalization_generator(spec, X)) for X in _scenario_points(config)
        )
        report.add("normalization", residual, 1e-12)
    elif name == "symplectic":
        residual = max(
            float(np.max(np.abs(lie_derivative_symplectic(spec, X))))
            for X in _scenario_points(config)
        )
        report.add("symplectic", residual, SYMPLECTIC_TOL)
    elif name == "metric":
        residual = max(
            float(np.max(np.abs(lie_derivative_metric(spec, X, params=config.metric_params))))
            for X in _scenario_points(config)
        )
        report.add("metric", residual, METRIC_TOL)
    elif name == "complex_structure":
        worst = 0.0
        for X in _scenario_points(config):
            J = complex_structure(X.rho, config.metric_params).J
            worst = max(worst, float(np.max(np.abs(J @ J + np.eye(2 * config.n)))))
        report.add("complex_structure", worst, 1e-12)
    elif name == "conservation":
        report.add("conservation.norm_defect", float(np.max(trajectory.norm_defects)), NORM_DEFECT_TOL)
        report.add(
            "conservation.energy_defect", float(np.max(trajectory.energy_defects)), ENERGY_DEFECT_TOL
        )
    elif name == "convergence":
        study = convergence_study(spec, config.initial, config.convergence_h, config.convergence_tau)
        for result in study.checks:
            report.checks.append(
                CheckResult(f"convergence.{result.name.removeprefix('convergence_')}",
                            result.residual, result.tolerance, result.passed)
            )
        extras["convergence"] = study.convergence
        extras["observed_order"] = study.observed_order
    elif name == "bracket_commutator":
        rng = _check_rng(config, name)
        worst = 0.0
        for _ in range(50):
            U = HermitianOperator(random_hermitian(config.n, rng))
            V = HermitianOperator(random_hermitian(config.n, rng))
            psi = to_complex(_single_interior_point(config.n, rng))
            lhs, rhs = commutator_identity_check(U, V, psi)
            worst = max(worst, abs(lhs - rhs))
        report.add("bracket_commutator", worst, 1e-12)
    elif name == "ab_independence":
        rng = _check_rng(config, name)
        point = _single_interior_point(config.n, rng)
        drho = rng.standard_normal(config.n)
        drho -= drho.mean()
        dpi = rng.standard_normal(config.n)
        report.add("ab_independence", ab_independence_sweep(point.rho, drho, dpi), 1e-9)
    elif name == "fs_consistency":
        rng = _check_rng(config, name)
        psi = to_complex(_single_interior_point(config.n, rng))
        limits = []
        cauchy = 0.0
        for _ in range(5):
            # The ratio approaches its limit linearly in eps * |direction|,
            # so the probe directions are normalized to a fixed small length.
            drho = rng.standard_normal(config.n)
            drho -= drho.mean()
            dpi = rng.standard_normal(config.n)
            scale = 4.0 * float(np.sqrt(drho @ drho + dpi @ dpi))
            drho, dpi = drho / scale, dpi / scale
            ratios = fs_consistency(psi, drho, dpi, (1e-2, 3e-3, 1e-3, 3e-4, 1e-4))
            limits.append(ratios.limit)
            cauchy = max(cauchy, ratios.cauchy_residual)
        report.add("fs_consistency.cauchy", cauchy, 1e-4)
        report.add(
            "fs_consistency.constant",
            max(abs(v - FS_RATIO_CONSTANT) for v in limits),
            1e-4,
        )
        report.add("fs_consistency.direction_spread", max(limits) - min(limits), 1e-4)
    elif name == "gauge_born":
        rng = _check_rng(config, name)
        K = HermitianOperator(spec.kernel)
        psi0 = to_complex(config.initial)
        taus = rng.uniform(0.1, 2.0, 4)
        nus = rng.uniform(0.0, 2.0 * np.pi, 3)
        equivariance = 0.0
        born = 0.0
        norm = 0.0
        for tau in taus:
            evolved = propagate_unitary(K, psi0, tau)
            point, _ = from_complex(evolved)
            born = max(born, float(np.max(np.abs(point.rho - np.abs(evolved.psi) ** 2))))
            norm = max(norm, abs(evolved.rho_total - psi0.rho_total))
            for nu in nus:
                shifted = propagate_unitary(K, ComplexState(np.exp(1j * nu) * psi0.psi), tau)
                equivariance = max(
                    equivariance,
                    float(np.max(np.abs(shifted.psi - np.exp(1j * nu) * evolved.psi))),
                )
        report.add("gauge_born.equivariance", equivariance, 1e-13)
        report.add("gauge_born.born_rule", born, 1e-12)
        report.add("gauge_born.norm_conservation", norm, 1e-13)
    else:  # pragma: no cover - names are validated upstream
        raise ConfigError([f"unknown check {name!r}"])
    return report.checks, extras


def run_scenario(config: ScenarioConfig, *, out_dir=None, seed_override: int | None = None) -> ScenarioResult:
    """Integrate, write the trajectory CSV, evaluate checks, write the report.

    Exit code 0 when every check matches its expectation, 1 when some check
    does not, 2 on a numeric error (which still produces a machine-readable
    error record in the report file).
    """
    cfg = config if seed_override is None else config.with_seed(int(seed_override))
    out = Path(out_dir) if out_dir is not None else Path.cwd()
    trajectory_path = out / cfg.trajectory_path
    report_path = out / cfg.report_path
    base_report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "config_hash": config_hash(cfg),
        "scenario_id": cfg.scenario_id,
        "seed": cfg.seed,
        "n": cfg.n,
    }
    try:
        trajectory = integrate_midpoint(cfg.hamiltonian, cfg.initial, cfg.h, cfg.steps)
    except SimplexFlowError as exc:
        report = dict(
            base_report,
            error={"type": type(exc).__name__, "message": str(exc)},
            checks=[],
            exit_ok=False,
        )
        emit_report(report, report_path)
        return ScenarioResult(2, report, None, report_path)
    write_trajectory_csv(trajectory, trajectory_path)
    rows: list[dict] = []
    extras: dict = {}
    all_ok = True
    for request in cfg.checks:
        try:
            results, check_extras = _run_check(request.name, cfg, trajectory)
        except SimplexFlowError as exc:
            report = dict(
                base_report,
                error={"type": type(exc).__name__, "message": str(exc), "check": request.name},
                checks=rows,
                exit_ok=False,
            )
            emit_report(report, report_path)
            return ScenarioResult(2, report, trajectory_path, report_path)
        extras.update(check_extras)
        for result in results:
            ok = result.passed == request.expect_pass
            all_ok = all_ok and ok
            rows.append(
                {
                    "check": request.name,
                    "name": result.name,
                    "residual": float(result.residual),
                    "tolerance": float(result.tolerance),
                    "pass": bool(result.passed),
                    "expect_pass": bool(request.expect_pass),
                    "ok": bool(ok),
                }
            )
    report = dict(base_report, checks=rows, exit_ok=bool(all_ok), **extras)
    emit_report(report, report_path)
    return ScenarioResult(0 if all_ok else 1, report, trajectory_path, report_path)
