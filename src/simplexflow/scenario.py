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
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from ._csvformat import format_table
from ._version import __version__
from .diagnostics import (
    FS_RATIO_CONSTANT,
    _interior_draw,
    ab_independence_sweep,
    convergence_study,
    fs_consistency,
    lie_derivative_metric,
    lie_derivative_symplectic,
    sample_interior_points,
)
from .errors import ConfigError, ParamError, SimplexFlowError
from .flows import (
    HERMITIAN_TOL,
    NONLINEAR_TAGS,
    HamiltonianSpec,
    PhasePoint,
    Trajectory,
    _eval_complex,
    _is_number,
    _psi_from,
    _row_blocks,
    _step_problems,
    _steps_bound,
    _weights,
    check_normalization_generator,
    integrate_midpoint,
)
from .geometry import (
    CANONICAL_PARAMS,
    MetricParams,
    _complex_structure_defect,
    _row_dot,
    _row_norm,
    induced_metric_ts,
)
from .hilbert import (
    ComplexState,
    commutator_identity_check,
    from_complex,
    propagate_unitary,
    to_complex,
)

SCHEMA_VERSION = 1

#: Tolerances of the check rows; the CHECKS registry below and classify_flow
#: read them, and the README check table quotes them.  REALNESS_TOL is
#: rounding level, tighter than flows.REAL_TOL, where evaluation raises.
REALNESS_TOL = 1e-12
NORMALIZATION_TOL = 1e-12
SYMPLECTIC_TOL = 1e-8
METRIC_TOL = 1e-6
COMPLEX_STRUCTURE_TOL = 1e-12
NORM_DEFECT_TOL = 1e-10
ENERGY_DEFECT_TOL = 1e-8
#: |observed order - 2| when an order is fitted; the largest endpoint error
#: when the flow is reproduced exactly.
CONVERGENCE_ORDER_TOL = 0.1
CONVERGENCE_EXACT_TOL = 1e-12
BRACKET_TOL = 1e-12
AB_INDEPENDENCE_TOL = 1e-9
FS_CONSISTENCY_TOL = 1e-4
EQUIVARIANCE_TOL = 1e-13
BORN_RULE_TOL = 1e-12
UNITARY_NORM_TOL = 1e-13

#: Largest |sum(rho) - 1| accepted in a configured initial state.
INITIAL_NORM_TOL = 1e-9

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

    @cached_property
    def config_hash(self) -> str:
        """SHA-256 of the canonical JSON of ``resolved``, arrays as `_array_digest`; once per config."""
        canonical = json.dumps(self.resolved, sort_keys=True, separators=(",", ":"), default=_array_digest)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def with_seed(self, seed: int) -> "ScenarioConfig":
        seed = _checked_seed(seed)
        return replace(self, seed=seed, resolved={**self.resolved, "seed": seed})


def _array_digest(array: np.ndarray) -> dict:
    """A complex array as its dtype, shape and the SHA-256 of its C-order little-endian bytes."""
    data = np.ascontiguousarray(array, dtype="<c16")
    return {"dtype": "<c16", "shape": list(data.shape), "sha256": hashlib.sha256(data).hexdigest()}


def _checked_seed(seed) -> int:
    """The seed itself: an integer, not a bool, in [0, 2^64); else ConfigError."""
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise ConfigError([f"seed must be an integer in [0, 2^64), got {seed!r}"])
    return seed


@dataclass(frozen=True)
class ScenarioResult:
    exit_code: int
    report: dict
    trajectory_path: Path | None
    report_path: Path


def _unknown_keys(node: dict, known: tuple[str, ...], where: str, errors: list[str]) -> None:
    """Report every key of ``node`` outside ``known``, so that a misspelled
    key is an error rather than a silently applied default."""
    for key in node:
        if key not in known:
            errors.append(f"unknown key {key!r} at {where}; known: {', '.join(known)}")


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
    _unknown_keys(node, ("real", "imag"), name, errors)
    try:
        real = np.asarray(node["real"], dtype=float)
        imag = np.asarray(node.get("imag", np.zeros_like(real)), dtype=float)
    except (TypeError, ValueError):
        errors.append(f"{name} entries must be numeric arrays")
        return None
    except OverflowError:  # an int too large for a float
        errors.append(f"{name} has non-finite entries")
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


def config_from_dict(data, *, scenario_id: str = "scenario") -> ScenarioConfig:
    """Build a validated ScenarioConfig from a parsed JSON object.

    Collects every problem found and raises a single ConfigError with the
    full list; never throws bare exceptions on malformed input.
    """
    errors: list[str] = []
    if not isinstance(data, dict):
        raise ConfigError(["top level must be a JSON object"])
    _unknown_keys(data, ("schema_version", "id", "n", "metric_params", "hamiltonian", "initial_state",
                         "integrator", "checks", "seed", "output", "convergence"), "the top level", errors)

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
        _unknown_keys(node, ("a_coeffs", "b_coeffs"), "metric_params", errors)
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
        _unknown_keys(ham, ("kernel", "linear_bra", "linear_ket", "constant", "nonlinear"), "hamiltonian",
                      errors)
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
                _unknown_keys(nl, ("tag", "strength"), "hamiltonian.nonlinear", errors)
                tag = nl["tag"]
                strength = nl.get("strength", 1.0)
                if tag not in NONLINEAR_TAGS:
                    errors.append(f"hamiltonian.nonlinear.tag {tag!r} is not in the catalog")
                    tag = "none"
                if not _is_number(strength):
                    errors.append("hamiltonian.nonlinear.strength must be a finite number")
                    strength = 1.0
        # A missing or malformed kernel is reported above; there is no spec.
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
        # The deviations are the ones HamiltonianSpec.is_valid_real compares,
        # reported per field.
        kernel_deviation, linear_deviation = (0.0, 0.0) if spec is None else spec.realness_deviations
        if kernel_deviation > HERMITIAN_TOL:
            errors.append(f"hamiltonian.kernel not Hermitian (max deviation {kernel_deviation:.3e})")
        if (bra is None) != (ket is None):
            errors.append(
                "hamiltonian.linear_bra and hamiltonian.linear_ket must be given together "
                "as a conjugate pair"
            )
        elif linear_deviation > HERMITIAN_TOL:
            errors.append("hamiltonian.linear_ket must equal conj(hamiltonian.linear_bra)")

    initial = None
    initial_node: dict = {}
    state = data.get("initial_state")
    if not isinstance(state, dict):
        errors.append("initial_state must be an object")
    else:
        _unknown_keys(state, ("rho", "pi", "psi"), "initial_state", errors)
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
                elif abs(float(rho.sum()) - 1.0) > INITIAL_NORM_TOL:
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
                if abs(weight - 1.0) > INITIAL_NORM_TOL:
                    errors.append(f"initial_state.psi must be normalized (total weight {weight!r})")
                else:
                    initial, _ = from_complex(ComplexState(psi))
                    initial_node = {"psi": {"real": psi.real.tolist(), "imag": psi.imag.tolist()}}
    if initial is not None:
        # The total may be off by up to INITIAL_NORM_TOL, but the
        # conservation.norm_defect row measures |sum(rho) - 1| against
        # NORM_DEFECT_TOL from step 0, so the state is put on the simplex
        # here.  initial_node keeps the values as given.
        initial = PhasePoint(initial.rho / initial.rho_total, initial.pi)

    h = steps = None
    integ = data.get("integrator")
    if not isinstance(integ, dict):
        errors.append("integrator must be an object {h, steps}")
    else:
        _unknown_keys(integ, ("h", "steps"), "integrator", errors)
        h, steps = integ.get("h"), integ.get("steps")
        errors += [f"integrator.{problem}" for problem in _step_problems(h, steps, n)]

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
                _unknown_keys(entry, ("name", "expect_pass"), f"checks[{name}]", errors)
                expect = entry.get("expect_pass", True)
                if not isinstance(expect, bool):
                    errors.append(f"checks[{name}].expect_pass must be a boolean")
                    expect = True
            else:
                errors.append(f"checks entry {entry!r} must be a name or {{name, expect_pass}}")
                continue
            if name not in CHECKS:
                errors.append(f"unknown check {name!r}; known: {sorted(CHECKS)}")
                continue
            # A second request would report the check's rows twice, each against its own expectation.
            if any(request.name == name for request in checks):
                errors.append(f"checks[{name}] is listed more than once")
                continue
            if name == "convergence" and spec is not None and not spec.is_pure_kernel:
                errors.append("check 'convergence' needs a pure-kernel hamiltonian (zero linear terms and "
                              "nonlinear strength): its oracle is the unitary propagator exp(-i K tau)")
            checks.append(CheckRequest(name, expect))

    try:
        seed = _checked_seed(data.get("seed", 0))
    except ConfigError as exc:
        errors += exc.errors
        seed = 0

    output = data.get("output", {})
    if not isinstance(output, dict):
        errors.append("output must be an object")
        output = {}
    _unknown_keys(output, ("trajectory", "report"), "output", errors)
    trajectory_path = output.get("trajectory", f"{sid}_trajectory.csv")
    report_path = output.get("report", f"{sid}_report.json")
    paths = []
    for label, value in (("output.trajectory", trajectory_path), ("output.report", report_path)):
        if not isinstance(value, str) or not value:
            errors.append(f"{label} must be a nonempty string")
        # Outputs stay inside the output directory, so batch scenarios cannot share or escape it.
        elif Path(value).is_absolute() or ".." in Path(value).parts:
            errors.append(f"{label} must be a relative path with no '..' component, got {value!r}")
        elif "\0" in value:  # no file system accepts it, so the run would fail at write time
            errors.append(f"{label} must not contain a NUL character, got {value!r}")
        else:
            paths.append(Path(value))
    # Compared as paths, so that 'x.out' and './x.out' are one file and the report cannot overwrite the CSV.
    if len(paths) == 2 and paths[0] == paths[1]:
        errors.append(f"output.trajectory and output.report must be different paths, got {trajectory_path!r} "
                      f"and {report_path!r}")

    conv_h = DEFAULT_CONVERGENCE_H
    conv_tau = DEFAULT_CONVERGENCE_TAU
    conv = data.get("convergence")
    if conv is not None:
        if not isinstance(conv, dict):
            errors.append("convergence must be an object {h_list, tau}")
        else:
            _unknown_keys(conv, ("h_list", "tau"), "convergence", errors)
            h_list = conv.get("h_list", list(DEFAULT_CONVERGENCE_H))
            # One step size gives no order to fit, and its error is no exact branch.
            if (not isinstance(h_list, list) or not all(_is_number(v) and v > 0 for v in h_list)
                    or len(set(h_list)) < 2):
                errors.append("convergence.h_list must be a list of positive numbers with at least two "
                              "distinct values")
            else:
                conv_h = tuple(float(v) for v in h_list)
            tau = conv.get("tau", DEFAULT_CONVERGENCE_TAU)
            if not _is_number(tau) or tau <= 0:
                errors.append("convergence.tau must be a positive number")
            else:
                conv_tau = float(tau)
    if any(c.name == "convergence" for c in checks):
        # Each rung as convergence_study integrates it; a step count that is
        # not finite is left to the run's NonFiniteError.
        rungs = {dt: conv_tau / dt for dt in conv_h if math.isfinite(conv_tau / dt)}
        if any(_step_problems(dt, max(1, round(rung)), n) for dt, rung in rungs.items()):
            errors.append(f"convergence.h_list needs tau / h = {max(rungs.values()):.3g} steps, more than "
                          f"{_steps_bound(n)}")

    if errors:
        raise ConfigError(errors)

    resolved = {
        "schema_version": SCHEMA_VERSION,
        "id": sid,
        "n": n,
        "metric_params": {"a_coeffs": list(params.a_coeffs), "b_coeffs": list(params.b_coeffs)},
        "hamiltonian": {
            "kernel": spec.kernel,
            # An omitted linear term is hashed as None, not as the spec's zeros.
            "linear_bra": bra,
            "linear_ket": ket,
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
    except ValueError as exc:  # a JSONDecodeError, or an integer beyond the interpreter's digit limit
        raise ConfigError([f"{path.name}: invalid JSON: {exc}"]) from exc
    return config_from_dict(data, scenario_id=path.stem)


def write_trajectory_csv(trajectory: Trajectory, path) -> Path:
    """Round-trip-safe CSV: each value as C's '%.17g' writes it.

    Rows are formatted by format_table and written in the blocks of
    `flows._row_blocks`, so the text of the whole table is never held at
    once.  rho = |psi|^2 is formed per block, so `Trajectory.rho` is not
    built for the whole table.
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
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as out:
        out.write((",".join(header) + "\n").encode())
        for rows in _row_blocks(len(trajectory), len(header)):
            psi = trajectory.psi[rows]
            out.write(format_table(np.column_stack([
                np.arange(rows.start, rows.stop),
                trajectory.parameter_values[rows],
                _weights(psi),
                trajectory.pi[rows],
                psi.real,
                psi.imag,
                trajectory.norm_defects[rows],
                trajectory.energy_defects[rows],
            ])))
    return path


def emit_report(report: dict, path) -> Path:
    """Write a report as stable-key-ordered JSON; same content, same bytes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


def _check_rng(config: ScenarioConfig, name: str) -> np.random.Generator:
    return np.random.default_rng([config.seed, CHECKS[name].stream])


def _scenario_points(config: ScenarioConfig) -> list[PhasePoint]:
    rng = np.random.default_rng([config.seed, 0])
    return sample_interior_points(config.n, 8, rng=rng)


@dataclass(frozen=True)
class Check:
    """A registered check: its seeded stream id and the tolerance of each row
    it reports.  A check has either ``residuals(config, trajectory, extras)``,
    which returns {row name: residual} and may add report keys to
    ``extras``, or, for a one-row sampled check, the per-point residual
    ``at(spec, X, params)``, whose max over the sample points is the row."""

    stream: int
    tolerances: dict[str, float]
    residuals: Callable[[ScenarioConfig, Trajectory, dict], dict[str, float]] | None = None
    at: Callable[[HamiltonianSpec, PhasePoint, MetricParams], float] | None = None


def _sampled_maxima(spec, points, params, names) -> dict[str, float | SimplexFlowError]:
    """Max of each named sampled check's ``at`` over ``points``, point by point
    so that the checks at one point share its field Jacobian.  A check that
    raises keeps its first error in place of a value and is not run again."""
    maxima: dict[str, float | SimplexFlowError] = {}
    for X in points:
        for name in names:
            current = maxima.get(name)
            if isinstance(current, SimplexFlowError):
                continue
            try:
                value = CHECKS[name].at(spec, X, params)
            except SimplexFlowError as exc:
                maxima[name] = exc
                continue
            maxima[name] = value if current is None else max(current, value)
    return maxima


def _value(residual: float | SimplexFlowError) -> float:
    """A residual of _sampled_maxima as a float; a recorded error is raised."""
    if isinstance(residual, SimplexFlowError):
        raise residual
    return float(residual)


def _max_abs(values) -> float:
    return float(np.max(np.abs(values)))


def _conservation(config, trajectory, extras):
    return {"conservation.norm_defect": float(np.max(trajectory.norm_defects)),
            "conservation.energy_defect": float(np.max(trajectory.energy_defects))}


def _convergence(config, trajectory, extras):
    study = convergence_study(config.hamiltonian, config.initial, config.convergence_h,
                              config.convergence_tau)
    extras.update(convergence=study.convergence, observed_order=study.observed_order)
    return study.residuals


def _rank_two_image(psi: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """U psi = a (b^H psi) + b (a^H psi) per row of ``psi`` (..., n) for the
    Hermitian U = a b^H + b a^H, where ``normals`` (..., 4, n) holds the
    real and imaginary parts of a, then those of b, and a and b are scaled
    to unit norm.  A vector w is U psi for some Hermitian U exactly when
    <psi|w> is real, and each image keeps that: <psi|U psi> = 2 Re(<psi|a> <b|psi>)."""
    a = normals[..., 0, :] + 1j * normals[..., 1, :]
    b = normals[..., 2, :] + 1j * normals[..., 3, :]
    a /= _row_norm(a)[..., None]
    b /= _row_norm(b)[..., None]
    return a * _row_dot(b.conj(), psi)[..., None] + b * _row_dot(a.conj(), psi)[..., None]


def _bracket_commutator(config, trajectory, extras):
    # Each pair draws its state, then the parts of a and b for U and for V;
    # a block of pairs, 2 n entries each, is then evaluated as rows.  The residual
    # is relative to |U psi| |V psi|, so the row does not drift with n or scale.
    n, pairs = config.n, 50
    rng = _check_rng(config, "bracket_commutator")
    worst = 0.0
    for rows in _row_blocks(pairs, 2 * n):
        m = rows.stop - rows.start
        rho, pi, normals = np.empty((m, n)), np.empty((m, n)), np.empty((m, 8, n))
        for k in range(m):
            rho[k], pi[k] = _interior_draw(n, rng)
            rng.standard_normal(out=normals[k])
        psi = _psi_from(rho, pi)
        u_psi, v_psi = _rank_two_image(psi, normals[:, :4]), _rank_two_image(psi, normals[:, 4:])
        lhs, rhs = commutator_identity_check(u_psi, v_psi, psi)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / (_row_norm(u_psi) * _row_norm(v_psi)))))
    return {"bracket_commutator": worst}


def _ab_independence(config, trajectory, extras):
    rng = _check_rng(config, "ab_independence")
    point = PhasePoint(*_interior_draw(config.n, rng))
    drho = rng.standard_normal(config.n)
    drho -= drho.mean()
    dpi = rng.standard_normal(config.n)
    return {"ab_independence": ab_independence_sweep(point.rho, drho, dpi)}


def _fs_consistency(config, trajectory, extras):
    rng = _check_rng(config, "fs_consistency")
    point = PhasePoint(*_interior_draw(config.n, rng))
    psi = to_complex(point)
    limits = []
    cauchy = 0.0
    for _ in range(5):
        # The ratio approaches its limit linearly in eps times the probe's
        # length in the ray metric, whose entries grow like n, so each probe
        # is scaled to ray-metric length 1/4.
        drho = rng.standard_normal(config.n)
        drho -= drho.mean()
        dpi = rng.standard_normal(config.n)
        scale = 4.0 * math.sqrt(induced_metric_ts(point.rho, drho, dpi))
        drho, dpi = drho / scale, dpi / scale
        ratios = fs_consistency(psi, drho, dpi, (1e-2, 3e-3, 1e-3, 3e-4, 1e-4))
        limits.append(ratios.limit)
        cauchy = max(cauchy, ratios.cauchy_residual)
    return {"fs_consistency.cauchy": cauchy,
            "fs_consistency.constant": max(abs(v - FS_RATIO_CONSTANT) for v in limits),
            "fs_consistency.direction_spread": max(limits) - min(limits)}


def _gauge_born(config, trajectory, extras):
    rng = _check_rng(config, "gauge_born")
    spec = config.hamiltonian
    psi0 = to_complex(config.initial)
    taus = rng.uniform(0.1, 2.0, 4)
    nus = rng.uniform(0.0, 2.0 * np.pi, 3)
    equivariance = born = norm = 0.0
    for tau in taus:
        evolved = propagate_unitary(spec, psi0, tau)
        point, _ = from_complex(evolved)
        born = max(born, _max_abs(point.rho - np.abs(evolved.psi) ** 2))
        norm = max(norm, abs(evolved.rho_total - psi0.rho_total))
        for nu in nus:
            shifted = propagate_unitary(spec, ComplexState(np.exp(1j * nu) * psi0.psi), tau)
            equivariance = max(equivariance, _max_abs(shifted.psi - np.exp(1j * nu) * evolved.psi))
    return {"gauge_born.equivariance": equivariance, "gauge_born.born_rule": born,
            "gauge_born.norm_conservation": norm}


#: The check registry, in the order of the README check table.  Stream ids
#: are fixed, so seeded draws do not depend on the order of a scenario's checks.
CHECKS = {
    "realness": Check(1, {"realness": REALNESS_TOL},
                      at=lambda spec, X, params: abs(_eval_complex(spec, X.rho, X.pi).imag)),
    "normalization": Check(2, {"normalization": NORMALIZATION_TOL},
                           at=lambda spec, X, params: abs(check_normalization_generator(spec, X))),
    "symplectic": Check(3, {"symplectic": SYMPLECTIC_TOL},
                        at=lambda spec, X, params: _max_abs(lie_derivative_symplectic(spec, X))),
    "metric": Check(4, {"metric": METRIC_TOL},
                    at=lambda spec, X, params: _max_abs(lie_derivative_metric(spec, X, params=params))),
    "complex_structure": Check(5, {"complex_structure": COMPLEX_STRUCTURE_TOL},
                               at=lambda spec, X, params: _complex_structure_defect(X.rho, params)),
    "conservation": Check(6, {"conservation.norm_defect": NORM_DEFECT_TOL,
                              "conservation.energy_defect": ENERGY_DEFECT_TOL}, _conservation),
    "convergence": Check(7, {"convergence.order": CONVERGENCE_ORDER_TOL,
                             "convergence.exact": CONVERGENCE_EXACT_TOL}, _convergence),
    "bracket_commutator": Check(8, {"bracket_commutator": BRACKET_TOL}, _bracket_commutator),
    "ab_independence": Check(9, {"ab_independence": AB_INDEPENDENCE_TOL}, _ab_independence),
    "fs_consistency": Check(10, {"fs_consistency.cauchy": FS_CONSISTENCY_TOL,
                                 "fs_consistency.constant": FS_CONSISTENCY_TOL,
                                 "fs_consistency.direction_spread": FS_CONSISTENCY_TOL}, _fs_consistency),
    "gauge_born": Check(11, {"gauge_born.equivariance": EQUIVARIANCE_TOL,
                             "gauge_born.born_rule": BORN_RULE_TOL,
                             "gauge_born.norm_conservation": UNITARY_NORM_TOL}, _gauge_born),
}


@dataclass(frozen=True)
class FlowClassification:
    """Which structures a flow preserves, with the measured residuals.

    A flow qualifies as Hamilton-Killing when all four flags hold.
    """

    preserves_symplectic: bool
    symplectic_residual: float
    preserves_metric: bool
    metric_residual: float
    preserves_normalization: bool
    normalization_residual: float
    is_real_valued: bool
    realness_residual: float

    @property
    def is_hamilton_killing(self) -> bool:
        return all((self.preserves_symplectic, self.preserves_metric, self.preserves_normalization,
                    self.is_real_valued))


def classify_flow(spec: HamiltonianSpec, sample_points) -> FlowClassification:
    """Measure the symplectic, metric, normalization and realness residuals
    over the sample points, under the canonical metric.

    Each flag is the verdict of the scenario check of the same name, from
    the same per-point residual and tolerance.  Deterministic given the
    points.  Pure Hermitian-kernel specs classify as Hamilton-Killing;
    linear terms break normalization conservation; the nonlinear catalog
    breaks metric preservation while keeping everything else.
    """
    points = list(sample_points)
    if not points:
        raise ValueError("at least one sample point is required")
    names = ("symplectic", "metric", "normalization", "realness")
    maxima = _sampled_maxima(spec, points, CANONICAL_PARAMS, names)
    fields = []
    for name in names:
        residual = _value(maxima[name])
        fields += [residual <= CHECKS[name].tolerances[name], residual]
    return FlowClassification(*fields)


def run_scenario(config: ScenarioConfig, *, out_dir=None) -> ScenarioResult:
    """Integrate, write the trajectory CSV, evaluate checks, write the report.

    Exit code 0 when every check matches its expectation, 1 when some check
    does not, 2 on a numeric error (which still produces a machine-readable
    error record in the report file).
    """
    out = Path(out_dir) if out_dir is not None else Path.cwd()
    trajectory_path = out / config.trajectory_path
    report_path = out / config.report_path
    base_report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "config_hash": config.config_hash,
        "scenario_id": config.scenario_id,
        "seed": config.seed,
        "n": config.n,
    }

    def numeric_error(exc, rows, written, **where) -> ScenarioResult:
        error = {"type": type(exc).__name__, "message": str(exc), **where}
        report = dict(base_report, error=error, checks=rows, exit_ok=False)
        emit_report(report, report_path)
        return ScenarioResult(2, report, written, report_path)

    try:
        trajectory = integrate_midpoint(config.hamiltonian, config.initial, config.h, config.steps)
    except SimplexFlowError as exc:
        return numeric_error(exc, [], None)
    if config.hamiltonian.psi_form[2]:
        sweeps = trajectory.sweeps
        base_report["solver"] = {"sweeps_max": int(sweeps.max()), "sweeps_mean": float(sweeps.mean())}
    write_trajectory_csv(trajectory, trajectory_path)
    sampled = dict.fromkeys(request.name for request in config.checks if CHECKS[request.name].at)
    maxima = _sampled_maxima(config.hamiltonian, _scenario_points(config) if sampled else [],
                             config.metric_params, sampled)
    rows: list[dict] = []
    extras: dict = {}
    all_ok = True
    for request in config.checks:
        check = CHECKS[request.name]
        try:
            if check.at is None:
                residuals = check.residuals(config, trajectory, extras)
            else:
                residuals = {request.name: _value(maxima[request.name])}
        except SimplexFlowError as exc:
            return numeric_error(exc, rows, trajectory_path, check=request.name)
        for name, residual in residuals.items():
            residual = float(residual)
            tolerance = check.tolerances[name]
            passed = residual <= tolerance
            ok = passed == request.expect_pass
            all_ok = all_ok and ok
            rows.append({"check": request.name, "name": name, "residual": residual, "tolerance": tolerance,
                         "pass": passed, "expect_pass": request.expect_pass, "ok": ok})
    report = dict(base_report, checks=rows, exit_ok=bool(all_ok), **extras)
    emit_report(report, report_path)
    return ScenarioResult(0 if all_ok else 1, report, trajectory_path, report_path)
