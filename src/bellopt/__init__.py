"""Simulation and optimization of linear-optical Bell-state analyzers.

The package computes photo-counting statistics of the four Bell states
(optionally augmented with unentangled ancilla photons) under an arbitrary
sub-unitary mode transformation, scores analyzers by classical mutual
information, optimizes the transformation, and checks the structural
column conditions that rule out two-mode-bunched measurement outcomes.
"""

import os

# One BLAS thread per process, set before anything imports numpy. Restarts
# already run in separate processes, and at OpenBLAS's default of two
# threads the `_pull_creation_row` mat-vecs at N_a = 4 sometimes stall for
# milliseconds each. A value the user set still wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from bellopt.errors import (
    ContractViolationError,
    InvalidMatrixError,
    MatrixFileError,
    UnsupportedConfigurationError,
)
from bellopt.fock import enumerate_outcomes
from bellopt.transfer import (
    CircuitMatrix,
    OutcomeTable,
    outcome_table,
)
from bellopt.unitary import (
    CircuitParams,
    haar_random_unitary,
    matrix_distance_to_unitary,
    params_to_matrix,
    read_matrix_file,
    sample_conditioned_unitary,
    write_matrix_file,
)
from bellopt.infometrics import InfoReport, mutual_information
from bellopt.optimizer import OptimizationResult, OptimizerConfig, optimize
from bellopt.conditions import (
    check_column_conditions,
    conditioned_vs_unconditioned_experiment,
    scan_bunched_two_mode,
)
