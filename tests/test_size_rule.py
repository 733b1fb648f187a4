"""The one size rule: every entry point that takes a circuit and N_a needs N_a + 4 modes."""

import numpy as np
import pytest

from bellopt.cli import main
from bellopt.conditions import check_column_conditions, scan_bunched_two_mode
from bellopt.errors import ContractViolationError
from bellopt.optimizer import gradient, objective
from bellopt.transfer import (
    CircuitMatrix,
    bell_amplitudes,
    bell_probability_pullback,
    outcome_table,
)
from bellopt.unitary import CircuitParams, haar_random_unitary, write_matrix_file

#: (matrix, n_a) pairs that break the rule. The 3x3 identity has n_a + 4 modes
#: at n_a = -1, so only the n_a >= 0 half of the rule rejects it; the doubled
#: identity checks that the size rule comes before the sub-unitarity check.
MISFITS = {
    "wrong-size": (haar_random_unitary(6, 1), 0),
    "negative-na": (CircuitMatrix(np.eye(3)), -1),
    "wrong-size-super-unitary": (CircuitMatrix(2 * np.eye(6)), 0),
}


def _params(u: CircuitMatrix) -> CircuitParams:
    """Generator reals of the misfit's size (the identity circuit)."""
    return CircuitParams(np.zeros(u.m**2))


ENTRY_POINTS = {
    "bell_amplitudes": lambda u, n_a: bell_amplitudes(u, (1, 1, 0, 0), n_a),
    "bell_probability_pullback": lambda u, n_a: bell_probability_pullback(u.entries, n_a),
    "outcome_table": outcome_table,
    "check_column_conditions": check_column_conditions,
    "scan_bunched_two_mode": scan_bunched_two_mode,
    "objective": lambda u, n_a: objective(_params(u), n_a),
    "gradient": lambda u, n_a: gradient(_params(u), n_a),
}


def size_error(shape: tuple[int, int], n_a: int) -> str:
    m = n_a + 4
    return f"matrix of shape {shape} does not fit n_a={n_a}, which needs {m}x{m} and n_a >= 0"


@pytest.mark.parametrize("case", MISFITS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_rejects_a_misfit_with_one_message(entry, case):
    u, n_a = MISFITS[case]
    with pytest.raises(ContractViolationError) as exc:
        ENTRY_POINTS[entry](u, n_a)
    assert str(exc.value) == size_error(u.entries.shape, n_a)


@pytest.mark.parametrize("case", MISFITS)
@pytest.mark.parametrize("command", ["evaluate", "check"])
def test_cli_rejects_a_misfit_in_one_line(tmp_path, capsys, command, case):
    u, n_a = MISFITS[case]
    path = tmp_path / "u.json"
    write_matrix_file(path, u)
    assert main([command, "--matrix", str(path), "--na", str(n_a)]) == 1
    captured = capsys.readouterr()
    # main() rejects a negative --na itself, because `sample --kind haar`
    # reaches no library check that would.
    want = size_error(u.entries.shape, n_a) if n_a >= 0 else f"na must be >= 0, got {n_a}"
    assert captured.err == f"error: {want}\n"
    assert captured.out == ""
