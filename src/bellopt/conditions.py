"""Mechanical checks of the perfect-measurement structure of an analyzer.

Two families of checks live here. Outcome-level: each photo-counting outcome
either carries no probability at all (clause A), or is claimed unambiguously
by the first Bell pair (clause B) or the second (clause C); anything else is
an ambiguous outcome and rules out a perfect measurement. Column-level: four
zero-pattern conditions on the transformation matrix that force every
two-mode-bunched outcome into clause A. The column checker, not any
particular construction, is the source of truth.

The bunched scan reads every outcome's amplitudes from one run of the
whole-alphabet cascade in :mod:`bellopt.transfer`. :func:`classify_outcome`
classifies a single outcome from its Ryser permanents instead; it is the
per-outcome route and the reference the scan is tested against.

Zero means "below ``tol``" throughout; the threshold is a knob surfaced in
every report because near-perfect analyzers only need near-zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from bellopt.errors import ContractViolationError
from bellopt.fock import FockState, occupation_array
from bellopt.infometrics import mutual_information
from bellopt.transfer import (
    BellAmplitudes,
    CircuitMatrix,
    OutcomeTable,
    bell_amplitude_arrays,
    bell_amplitudes,
    outcome_probabilities,
    outcome_table,
)
from bellopt.unitary import RNG_ALGORITHM, haar_random_unitary, sample_conditioned_unitary

#: Default absolute tolerance below which an amplitude or entry counts as zero.
DEFAULT_TOL = 1e-10


class Clause(str, Enum):
    """Which perfect-measurement clause an outcome satisfies, if any."""

    A = "A"
    B = "B"
    C = "C"
    NONE = "NONE"


@dataclass
class OutcomeVerdict:
    """Classification of one outcome against the perfect-measurement clauses."""

    outcome: FockState
    clause: Clause
    amplitudes: BellAmplitudes
    ambiguous: bool
    sign: int | None = None
    prob_mass: float = 0.0


@dataclass
class ColumnWitness:
    """Zero entries backing a column verdict. All indices 1-based.

    ``ancilla_zero_rows`` and ``qubit_zero_rows`` list zeros in the checked
    column itself; ``cross_zero_rows`` maps every other column to the zero
    rows available there for the alternation clauses (restricted to qubit
    rows and this column's ancilla witness set).
    """

    column: int
    ancilla_zero_rows: tuple[int, ...]
    qubit_zero_rows: tuple[int, ...]
    cross_zero_rows: dict[int, tuple[int, ...]]


@dataclass
class ColumnVerdict:
    """Which structural conditions a column satisfies."""

    column: int
    satisfied: frozenset[str]
    witness: ColumnWitness


def _verdict(y: FockState, amps: BellAmplitudes, tol: float) -> OutcomeVerdict:
    """Sort one outcome into clause A, B, C, or NONE from its four amplitudes.

    A: all four amplitudes vanish. B: the first pair agrees up to sign (one of
    p(y|1), p(y|2) is zero, the other positive) while the second pair
    vanishes. C: the mirror image. NONE with probability mass is an ambiguous
    outcome.
    """
    mags = np.abs(amps.as_array())
    prob_mass = float(outcome_probabilities(amps, y).sum())
    clause = Clause.NONE
    sign: int | None = None
    if np.all(mags < tol):
        clause = Clause.A
    elif mags[0] >= tol and mags[2] < tol and mags[3] < tol:
        if abs(amps.a1 - amps.a2) < tol:
            clause, sign = Clause.B, +1
        elif abs(amps.a1 + amps.a2) < tol:
            clause, sign = Clause.B, -1
    elif mags[2] >= tol and mags[0] < tol and mags[1] < tol:
        if abs(amps.a3 - amps.a4) < tol:
            clause, sign = Clause.C, +1
        elif abs(amps.a3 + amps.a4) < tol:
            clause, sign = Clause.C, -1
    ambiguous = clause is Clause.NONE and prob_mass >= tol
    return OutcomeVerdict(
        outcome=y,
        clause=clause,
        amplitudes=amps,
        ambiguous=ambiguous,
        sign=sign,
        prob_mass=prob_mass,
    )


def classify_outcome(
    u: CircuitMatrix, y: FockState, n_a: int, tol: float = DEFAULT_TOL
) -> OutcomeVerdict:
    """Sort one outcome into clause A, B, C, or NONE via its Ryser permanents."""
    return _verdict(y, bell_amplitudes(u, y, n_a), tol)


@lru_cache(maxsize=None)
def _bunched_indices(n_a: int) -> np.ndarray:
    """Alphabet indices of the outcomes with all photons in at most two modes."""
    indices = np.flatnonzero((occupation_array(n_a + 2, n_a + 4) > 0).sum(axis=1) <= 2)
    indices.setflags(write=False)
    return indices


@lru_cache(maxsize=None)
def _bunched_states(n_a: int) -> tuple[FockState, ...]:
    occ = occupation_array(n_a + 2, n_a + 4)[_bunched_indices(n_a)]
    return tuple(FockState(tuple(row)) for row in occ.tolist())


def bunched_two_mode_outcomes(n_a: int) -> list[FockState]:
    """Every outcome with all photons in at most two modes, in alphabet order."""
    return list(_bunched_states(n_a))


def scan_bunched_two_mode(
    u: CircuitMatrix, n_a: int, tol: float = DEFAULT_TOL
) -> list[OutcomeVerdict]:
    """Classify every two-mode-bunched outcome, in alphabet order.

    Any verdict that is NONE with probability mass marks the analyzer as
    unable to perform an ideal measurement.
    """
    u.require_subunitary()
    amps = np.stack(bell_amplitude_arrays(u.entries, n_a), axis=-1)[_bunched_indices(n_a)]
    return [
        _verdict(y, BellAmplitudes(*row), tol)
        for y, row in zip(_bunched_states(n_a), amps.tolist())
    ]


def _column_conditions(
    zeros: np.ndarray,
    n_a: int,
    col: int,
    s_set: list[int],
    q12: bool,
    q34: bool,
) -> set[str]:
    """Conditions I-IV for one column given the zero mask (0-based indexing)."""
    m = zeros.shape[0]
    others = [l for l in range(m) if l != col]
    # The alternation clauses quantify over the ancilla witness set of the
    # checked column; taking the maximal zero set is optimal because every
    # clause is monotone in it.
    cross_s = {l: bool(zeros[s_set, l].any()) if s_set else False for l in others}
    cross_q12 = {l: bool(zeros[n_a, l] and zeros[n_a + 1, l]) for l in others}
    cross_q34 = {l: bool(zeros[n_a + 2, l] and zeros[n_a + 3, l]) for l in others}

    satisfied: set[str] = set()
    if len(s_set) >= 3 and all(cross_s[l] for l in others):
        satisfied.add("I")
    if len(s_set) >= 2 and q12 and all(cross_q12[l] or cross_s[l] for l in others):
        satisfied.add("II")
    if len(s_set) >= 2 and q34 and all(cross_q34[l] or cross_s[l] for l in others):
        satisfied.add("III")
    if (
        len(s_set) >= 1
        and q12
        and q34
        and all(cross_q12[l] or cross_q34[l] or cross_s[l] for l in others)
    ):
        satisfied.add("IV")
    return satisfied


def check_column_conditions(
    u: CircuitMatrix, n_a: int, tol: float = DEFAULT_TOL
) -> list[ColumnVerdict]:
    """Evaluate the per-column zero-pattern conditions I-IV."""
    m = n_a + 4
    if u.m != m:
        raise ContractViolationError(f"matrix is {u.m}x{u.m}, expected {m}x{m}")
    zeros = np.abs(u.entries) < tol
    verdicts = []
    for col in range(m):
        s_set = [r for r in range(n_a) if zeros[r, col]]
        q12 = bool(zeros[n_a, col] and zeros[n_a + 1, col])
        q34 = bool(zeros[n_a + 2, col] and zeros[n_a + 3, col])
        satisfied = _column_conditions(zeros, n_a, col, s_set, q12, q34)
        witness_rows = sorted(set(s_set) | set(range(n_a, n_a + 4)))
        witness = ColumnWitness(
            column=col + 1,
            ancilla_zero_rows=tuple(r + 1 for r in s_set),
            qubit_zero_rows=tuple(r + 1 for r in range(n_a, n_a + 4) if zeros[r, col]),
            cross_zero_rows={
                l + 1: tuple(r + 1 for r in witness_rows if zeros[r, l])
                for l in range(m)
                if l != col
            },
        )
        verdicts.append(
            ColumnVerdict(column=col + 1, satisfied=frozenset(satisfied), witness=witness)
        )
    return verdicts


@dataclass
class PopulationResult:
    """Per-trial metrics of one random-unitary population."""

    label: str
    h_mutual: list[float]
    bunched_mass: list[float]

    def summary(self) -> dict:
        h = np.asarray(self.h_mutual)
        mass = np.asarray(self.bunched_mass)
        return {
            "label": self.label,
            "trials": int(h.size),
            "h_mutual_mean": float(h.mean()),
            "h_mutual_std": float(h.std(ddof=1)) if h.size > 1 else 0.0,
            "h_mutual_min": float(h.min()),
            "h_mutual_max": float(h.max()),
            "bunched_mass_max": float(mass.max()),
            "bunched_mass_mean": float(mass.mean()),
        }


@dataclass
class ExperimentComparison:
    """Conditioned vs unconditioned random-analyzer comparison."""

    n_a: int
    trials: int
    seed: int
    rng: str
    conditioned: PopulationResult
    unconditioned: PopulationResult


def _bunched_mass(table: OutcomeTable, n_a: int) -> float:
    return float(table.p[_bunched_indices(n_a)].sum())


def conditioned_vs_unconditioned_experiment(
    n_a: int, trials: int, seed: int
) -> ExperimentComparison:
    """Sample both populations and record mutual information and bunched mass.

    Trial seeds are drawn once from a generator seeded with ``seed``, so the
    experiment is reproducible as a whole.
    """
    if trials < 1:
        raise ContractViolationError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ContractViolationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    trial_seeds = rng.integers(0, 2**63 - 1, size=2 * trials)
    m = n_a + 4
    conditioned = PopulationResult("conditioned", [], [])
    unconditioned = PopulationResult("unconditioned", [], [])
    for t in range(trials):
        u_cond = sample_conditioned_unitary(n_a, int(trial_seeds[t]))
        u_free = haar_random_unitary(m, int(trial_seeds[trials + t]))
        for u, pop in ((u_cond, conditioned), (u_free, unconditioned)):
            table = outcome_table(u, n_a)
            pop.h_mutual.append(mutual_information(table).h_mutual)
            pop.bunched_mass.append(_bunched_mass(table, n_a))
    return ExperimentComparison(
        n_a=n_a,
        trials=trials,
        seed=seed,
        rng=RNG_ALGORITHM,
        conditioned=conditioned,
        unconditioned=unconditioned,
    )
