"""The trajectory CSV: its formatter against '%.17g', its writer against per-row formatting."""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from simplexflow import HamiltonianSpec, integrate_midpoint, write_trajectory_csv
from simplexflow.diagnostics import random_hermitian, sample_interior_points
from simplexflow import _csvformat
from simplexflow._csvformat import format_table
from simplexflow.flows import BLOCK_ENTRIES, _row_blocks


def percent_g(table: np.ndarray) -> bytes:
    """'%.17g' of every value, ',' between values and '\\n' after each row."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in table.tolist()).encode()


def below(x: float) -> float:
    return float(np.nextafter(x, -np.inf))


def above(x: float) -> float:
    return float(np.nextafter(x, np.inf))


def ties() -> list[float]:
    """Doubles exactly halfway between two 17-digit decimals: m / 2^(j+1)
    with m odd, whose decimal m * 5^(j+1) / 10^(j+1) has 18 digits."""
    values = []
    for j in range(2, 40):
        for m in (10**17 // 5 ** (j + 1) + 1, 10**18 // 5 ** (j + 1) - 1, 3 * 10**17 // 5 ** (j + 1)):
            m |= 1
            if m < 2**53 and len(str(m * 5 ** (j + 1))) == 18:
                values += [m / 2 ** (j + 1), -m / 2 ** (j + 1)]
    return values


def edge_values() -> list[float]:
    values = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
              float("inf"), float("-inf"), float("nan"), 1.7976931348623157e308]
    powers = [float(f"1e{k}") for k in range(-310, 309)]
    values += [v for x in powers for v in (x, below(x), above(x), -x)]
    # The switch between fixed and exponent notation, from both sides.
    values += [v for x in (1e-5, 1e-4, 1e16, 1e17) for v in (x, below(x), above(x))]
    # Doubles whose 17 significant digits round up to a power of ten, such as
    # the doubles nearest 1e-14 and 1e98, which lie below them.
    values += [float(f"9.99999999999999995e{k}") for k in range(-40, 40)]
    values += ties()
    values += [float(k) for k in range(0, 2001)] + [2.0**53, 2.0**53 + 2, 1e16 - 1, 1e16 + 2]
    values += [0.5, 0.1, 1 / 3, 2 / 3, 0.001 * 3, np.pi, -np.e, 1e-30, 1e31, below(1e-30), below(1e31)]
    return values


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 12)), elements=st.floats(width=64)))
def test_format_table_matches_percent_g_on_any_float(table):
    assert format_table(table) == percent_g(table)


def test_format_table_matches_percent_g_on_edge_values():
    exact = [Decimal(abs(v)).as_tuple().digits for v in ties()]
    assert len(exact) > 50 and all(len(digits) == 18 and digits[-1] == 5 for digits in exact)
    values = np.array(edge_values())
    for cols in (1, 7):
        table = np.resize(values, (-(-values.size // cols), cols))
        assert format_table(table) == percent_g(table)


def significant(v: float) -> tuple[int, int]:
    """(e, t) of '%.17g' % v: its decimal exponent and its count of
    significant digits, trailing zeros dropped."""
    digits = Decimal("%.17g" % v).normalize().as_tuple()
    return len(digits.digits) + digits.exponent - 1, len(digits.digits)


def case_values() -> tuple[list[float], set[tuple[int, int]]]:
    """For each exponent e in [-30, 30] and each digit count t in 1..17, a
    double with that (e, t) and its negative, from mantissas of t digits;
    and the (e, t) that no double has, found by trying the nearest double
    to every mantissa of one or two digits.  Then doubles that round up to
    a power of ten, and both sides of the switches between fixed and
    exponent notation."""
    values, absent = [], set()
    for e in range(-30, 31):
        for t in range(1, 18):
            first, stop = 10 ** (t - 1), 10**t
            mantissas = (m - m % 10 + d for m in range(first, stop, max(10, first // 50)) for d in range(9, 0, -1))
            v = next((v for v in (float(f"{m}e{e - t + 1}") for m in mantissas) if significant(v) == (e, t)), None)
            if v is not None:
                values += [v, -v]
            else:
                assert t <= 2, f"no double found with {t} digits at exponent {e}"
                absent.add((e, t))
    values += [float(f"{sign}9.99999999999999995e{k}") for k in range(-30, 30) for sign in "+-"]
    values += [v for x in (1e-5, 1e-4, 1e16, 1e17) for v in (x, below(x), above(x), -below(x))]
    return values, absent


def test_format_table_takes_every_case_of_its_tables_against_percent_g(monkeypatch):
    used = set()

    class RecordingTable(np.ndarray):
        def take(self, indices, *args, **kwargs):
            used.update(np.unique(indices).tolist())
            return self.view(np.ndarray).take(indices, *args, **kwargs)

    monkeypatch.setattr(_csvformat, "_TEMPLATE", _csvformat._TEMPLATE.view(RecordingTable))
    values, absent = case_values()
    assert all(1e-30 <= abs(v) < 1e31 for v in values)
    for cols in (1, 7):
        table = np.resize(values, (-(-len(values) // cols), cols))
        assert format_table(table) == percent_g(table)

    def row(negative: bool, e: int, t: int) -> int:
        """The template row of a case: one per sign, exponent and digit count."""
        return negative * _csvformat._CASES + (e - _csvformat._E_MIN) * 17 + t - 1

    cases = {(e, t) for e in range(-30, 31) for t in range(1, 18)} - absent
    # A value that '%.17g' writes instead (a near tie, or 1e20, whose
    # exponent estimate does not settle) takes a row too: `used` may hold more.
    assert used >= {row(negative, e, t) for e, t in cases for negative in (False, True)}


def per_row_csv(trajectory) -> bytes:
    """The writer's output from one '%d,%.17g,...' format per row."""
    n = trajectory.n
    header = (["step", "tau"] + [f"rho_{i + 1}" for i in range(n)] + [f"pi_{i + 1}" for i in range(n)]
              + [f"re_psi_{i + 1}" for i in range(n)] + [f"im_psi_{i + 1}" for i in range(n)]
              + ["norm_defect", "energy_defect"])
    row_format = "%d" + ",%.17g" * (len(header) - 1) + "\n"
    lines = [",".join(header) + "\n"]
    for k in range(len(trajectory)):
        row = (k, trajectory.parameter_values[k], *trajectory.rho[k], *trajectory.pi[k],
               *trajectory.psi[k].real, *trajectory.psi[k].imag,
               trajectory.norm_defects[k], trajectory.energy_defects[k])
        lines.append(row_format % tuple(float(v) for v in row))
    return "".join(lines).encode()


# n = 600 has more than BLOCK_ENTRIES / 2 values a row, so a block holds 2 rows.
@pytest.mark.parametrize("n", [2, 8, 128, 600])
@pytest.mark.parametrize("final_rows", [None, 3, 1])
def test_writer_matches_per_row_formatting(n, final_rows, tmp_path):
    # final_rows None is one step; otherwise two full blocks and final_rows
    # more rows, of which a single one joins the block before it.
    rng = np.random.default_rng([20261018, n])
    spec = HamiltonianSpec(kernel=random_hermitian(n, rng), nonlinear="quartic_psi", nonlinear_strength=0.3)
    X0 = sample_interior_points(n, 1, rng=rng)[0]
    block = max(2, BLOCK_ENTRIES // (4 * n + 4))  # rows in a full block; a CSV row holds 4 n + 4 values
    steps = 1 if final_rows is None else 2 * block + final_rows - 1
    trajectory = integrate_midpoint(spec, X0, 1e-3, steps)
    heights = [rows.stop - rows.start for rows in _row_blocks(len(trajectory), 4 * n + 4)]
    assert heights == {None: [2], 3: [block, block, 3], 1: [block, block + 1]}[final_rows]
    written = write_trajectory_csv(trajectory, tmp_path / "t.csv").read_bytes()
    assert "rho" not in vars(trajectory)  # formed per block, never cached for the whole table
    assert written == per_row_csv(trajectory)
