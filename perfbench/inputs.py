"""Seeded scenario inputs for the benchmark workloads.

Every workload is a list of scenario JSON files.  The files depend only on
the workload name, the seed and the size (``full`` or the ``tiny`` smoke-test
size), so the same seed always yields byte-identical inputs.  Each file states
the physics verdict through its ``expect_pass`` flags: every check is expected
to pass except ``metric`` on the nonlinear controls and ``normalization`` on
kernels with linear terms.  A correct program therefore exits 0 on every file.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("wide_killing", "batch_serial")

# Generator streams, so that one workload's draws never shift another's.
_STREAM = {"wide_killing": 1, "batch": 2, "sweep": 3}

_ALL_CHECKS = (
    "realness", "normalization", "symplectic", "metric", "complex_structure",
    "conservation", "bracket_commutator", "ab_independence", "fs_consistency",
    "gauge_born",
)

BATCH_N = {"full": (2, 8, 32, 128), "tiny": (2, 3, 4, 5)}
BATCH_STEPS = {2: 2000, 8: 1000, 32: 1000, 128: 500}
BATCH_KINDS = ("pure", "linear", "sum_rho_squared", "quartic_psi")
SWEEP_N = (2, 8, 32, 128)


def _node(arr) -> dict:
    arr = np.asarray(arr)
    return {"real": np.real(arr).tolist(), "imag": np.imag(arr).tolist()}


def unit_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian matrix scaled to spectral norm 1 (exactly Hermitian)."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = 0.5 * (a + a.conj().T)
    return k / float(np.max(np.abs(np.linalg.eigvalsh(k))))


def interior_psi(n: int, rng: np.random.Generator, margin: float = 0.4) -> np.ndarray:
    """Normalized state whose weights stay at least margin/n from the boundary."""
    rho = margin / n + (1.0 - margin) * rng.dirichlet(np.ones(n))
    psi = np.sqrt(rho) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
    return psi / np.linalg.norm(psi)


def _scenario(sid, n, kernel, psi, h, steps, checks, seed, **hamiltonian) -> dict:
    return {
        "schema_version": 1,
        "id": sid,
        "n": n,
        "hamiltonian": {"kernel": _node(kernel), **hamiltonian},
        "initial_state": {"psi": _node(psi)},
        "integrator": {"h": h, "steps": steps},
        "checks": checks,
        "seed": seed,
    }


def wide_killing(seed: int, size: str) -> list[dict]:
    n, steps = (128, 200) if size == "full" else (8, 20)
    rng = np.random.default_rng([seed, _STREAM["wide_killing"]])
    kernel = unit_hermitian(n, rng)
    psi = interior_psi(n, rng)
    return [_scenario("wide_killing", n, kernel, psi, 1e-3, steps, list(_ALL_CHECKS), seed)]


def _batch_checks(n: int, kind: str) -> list:
    if kind == "linear":
        # Linear terms break normalization; the norm_defect row of
        # "conservation" shares one expectation with energy, so it is left out.
        checks = ["realness", {"name": "normalization", "expect_pass": False}, "complex_structure"]
    else:
        checks = ["realness", "normalization", "complex_structure", "conservation"]
    if n <= 32:
        checks.append("symplectic")
    if kind == "pure":
        checks += ["gauge_born", "bracket_commutator"]
        if n <= 8:
            checks += ["convergence", "metric"]
    elif kind != "linear" and n <= 32:
        checks.append({"name": "metric", "expect_pass": False})
    return checks


def batch(seed: int, size: str) -> list[dict]:
    rng = np.random.default_rng([seed, _STREAM["batch"]])
    configs = []
    for n in BATCH_N[size]:
        steps = BATCH_STEPS[n] if size == "full" else 20
        h = 5e-4 if n == 2 else 1e-3
        for kind in BATCH_KINDS:
            kernel = unit_hermitian(n, rng)
            psi = interior_psi(n, rng)
            extra = {}
            if kind == "linear":
                bra = 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(n)
                extra = {"linear_bra": _node(bra), "linear_ket": _node(np.conj(bra))}
            elif kind != "pure":
                extra = {"nonlinear": {"tag": kind, "strength": 1.0}}
            sid = f"n{n:03d}_{kind}"
            configs.append(_scenario(sid, n, kernel, psi, h, steps, _batch_checks(n, kind), seed, **extra))
    return configs


def configs_for(workload: str, seed: int, size: str = "full") -> list[dict]:
    return wide_killing(seed, size) if workload == "wide_killing" else batch(seed, size)


def is_pure_kernel(cfg: dict) -> bool:
    """True when the unitary propagator is an exact reference for the flow."""
    ham = cfg["hamiltonian"]
    nonlinear = ham.get("nonlinear", {}).get("tag", "none")
    return "linear_bra" not in ham and nonlinear == "none"


def write_inputs(workload: str, seed: int, size: str, directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for cfg in configs_for(workload, seed, size):
        path = directory / f"{cfg['id']}.json"
        path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def sweep_problem(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Kernel and start state for the per-layer sweep at dimension n."""
    rng = np.random.default_rng([seed, _STREAM["sweep"], n])
    return unit_hermitian(n, rng), interior_psi(n, rng)
