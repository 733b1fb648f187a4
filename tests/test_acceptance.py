"""The paper's ladder, pinned: 1.5 bits at N_a = 0, 1.625 at N_a = 2, 1.75 at N_a = 4.

1.5 bits is the Calsamiglia-Luetkenhaus 50 % limit of linear optics without
ancillas; two ancilla photons lift the best found analyzer to 1.625 bits,
and four to 1.75 = 1 + 3/4, the success probability Ewert and van Loock
reach with four unentangled single photons.
Padding an analyzer with pass-through ancilla modes leaves its statistics
unchanged, so the optimum can never fall as N_a grows by two.
"""

import numpy as np
import pytest

from bellopt.infometrics import mutual_information
from bellopt.optimizer import OptimizerConfig, optimize
from bellopt.transfer import CircuitMatrix, outcome_table

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def na0_optimum():
    return optimize(OptimizerConfig(n_a=0, restarts=8, seed=7, parallelism=1))


def test_na0_reaches_the_linear_optics_limit(na0_optimum):
    assert abs(na0_optimum.report.h_mutual - 1.5) <= 1e-6


def test_na2_reaches_the_two_ancilla_value():
    result = optimize(OptimizerConfig(n_a=2, restarts=8, seed=7, parallelism=1))
    assert result.report.h_mutual >= 1.625 - 1e-6


def test_na4_reaches_the_four_ancilla_value():
    result = optimize(OptimizerConfig(n_a=4, restarts=8, seed=7, parallelism=1))
    assert result.report.h_mutual >= 1.75 - 1e-6


def test_padding_with_pass_through_ancillas_keeps_the_bits(na0_optimum):
    # Ancilla modes come first, so the pass-through block sits top left.
    padded = np.eye(6, dtype=np.complex128)
    padded[2:, 2:] = na0_optimum.best_matrix.entries
    h_padded = mutual_information(outcome_table(CircuitMatrix(padded), 2)).h_mutual
    assert abs(h_padded - na0_optimum.report.h_mutual) <= 1e-12
