"""Mechanical checks of the perfect-measurement structure of an analyzer.

Two families of checks live here. Outcome-level: each photo-counting outcome
either carries no probability at all (clause A), or is claimed unambiguously
by the first Bell pair (clause B) or the second (clause C); anything else is
an ambiguous outcome and rules out a perfect measurement. Column-level: four
zero-pattern conditions on the transformation matrix that force every
two-mode-bunched outcome into clause A. The column checker, not any
particular construction, is the source of truth.

One clause rule, :func:`clause_verdicts`, sorts (n, 4) arrays of branch
amplitudes with the transfer module's pair sums and bosonic factors: the
cascade on U's column pairs, which holds the bunched rows alone
(:func:`scan_bunched_two_mode`, which never builds the whole alphabet). The
tests check the scan against one outcome's Ryser permanents and against the
whole-alphabet cascade.
Outcomes are occupation rows of :func:`bellopt.fock.enumerate_outcomes`, and
the verdicts are columns of one :class:`ClauseVerdicts`. The column checker
reads the zero pattern as boolean masks, and each column verdict lists the
zero rows behind it. The random-analyzer experiment returns its conditioned
and unconditioned populations as a pair. The conditioned population is a 1-bit
class: qubit A's rows and qubit B's rows reach disjoint output columns, so
each qubit is measured on its own, which learns at most 1 bit.

Zero means "below ``tol``" throughout; the threshold is a knob surfaced in
every report because near-perfect analyzers only need near-zeros.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from bellopt.errors import ContractViolationError
from bellopt.fock import enumerate_outcomes, read_only
from bellopt.infometrics import mutual_information
from bellopt.transfer import (
    CircuitMatrix,
    _bosonic_factors,
    _cascade,
    outcome_probabilities,
    outcome_table,
    require_modes,
)
from bellopt.unitary import haar_random_unitary, sample_conditioned_unitary

# Nothing here calls it. perfbench/layers.py's PATCH_POINTS wraps it by name
# on this module, so it stays until the traced benchmark wraps the
# production passes instead (ROADMAP item 1).
from bellopt.transfer import bell_amplitudes

#: Default absolute tolerance below which an amplitude or entry counts as zero.
DEFAULT_TOL = 1e-10


class Clause(str, Enum):
    """Which perfect-measurement clause an outcome satisfies, if any."""

    A = "A"
    B = "B"
    C = "C"
    NONE = "NONE"


@dataclass(eq=False)
class ClauseVerdicts:
    """Clause verdicts of n outcomes as columns of n rows, ``sign`` 0 outside clauses B and C.

    Compare ``clause`` with ``Clause.X.value``: numpy stores the member
    itself as the text of ``str(Clause.X)``, which no row equals.
    """

    outcomes: np.ndarray
    clause: np.ndarray
    amplitudes: np.ndarray
    ambiguous: np.ndarray
    sign: np.ndarray
    prob_mass: np.ndarray

    def __len__(self) -> int:
        return len(self.clause)


@dataclass
class ColumnVerdict:
    """Which structural conditions a column satisfies, and the zeros behind them.

    All indices are 1-based. ``ancilla_zero_rows`` and ``qubit_zero_rows``
    list zeros in the column itself; ``cross_zero_rows`` maps every other
    column to the zero rows available there for the alternation clauses
    (restricted to qubit rows and this column's ancilla witness set).
    """

    column: int
    satisfied: frozenset[str]
    ancilla_zero_rows: tuple[int, ...]
    qubit_zero_rows: tuple[int, ...]
    cross_zero_rows: dict[int, tuple[int, ...]]


def _zeros(values: np.ndarray, tol: float) -> np.ndarray:
    """Where ``values`` count as zero: below ``tol``, which must be finite and > 0."""
    if not (np.isfinite(tol) and tol > 0):
        raise ContractViolationError(f"tol must be finite and > 0, got {tol}")
    return np.abs(values) < tol


def clause_verdicts(
    outcomes: Sequence[tuple[int, ...]] | np.ndarray,
    amps: np.ndarray,
    c: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> ClauseVerdicts:
    """Sort outcomes into clause A, B, C, or NONE from their branch amplitudes.

    ``outcomes`` holds one occupation row per outcome, ``amps`` their
    (a1, a2, a3, a4) rows, shape (n, 4), and ``c`` their bosonic factors,
    shape (n,). A: all four amplitudes vanish. B: the first pair agrees up
    to sign (one of p(y|1), p(y|2) is zero, the other positive) while the
    second pair vanishes. C: the mirror image. NONE with probability mass is
    an ambiguous outcome.
    """
    zero = _zeros(amps, tol)
    first = ~zero[:, 0] & zero[:, 2] & zero[:, 3]
    second = ~zero[:, 2] & zero[:, 0] & zero[:, 1]
    # Sign of the pair that alone carries amplitude: +1 if its two agree, -1
    # if they cancel, 0 if neither or if no pair qualifies.
    a, b = np.where(first[:, None], amps[:, :2], amps[:, 2:]).T
    sign = (first | second) * np.where(
        _zeros(a - b, tol), 1, np.where(_zeros(a + b, tol), -1, 0)
    )
    clause = np.select(
        [zero.all(axis=1), first & (sign != 0), second & (sign != 0)],
        [Clause.A.value, Clause.B.value, Clause.C.value],
        Clause.NONE.value,
    )
    prob_mass = outcome_probabilities(amps, c).sum(axis=-1)
    ambiguous = (clause == Clause.NONE.value) & (prob_mass >= tol)
    return ClauseVerdicts(np.asarray(outcomes), clause, amps, ambiguous, sign, prob_mass)


@lru_cache(maxsize=None)
def _bunched_indices(n_a: int) -> np.ndarray:
    """Alphabet indices of the outcomes with all photons in at most two modes."""
    occupied = (enumerate_outcomes(n_a + 2, n_a + 4) > 0).sum(axis=1)
    return read_only(np.flatnonzero(occupied <= 2))


@lru_cache(maxsize=None)
def _bunched_table(n_a: int) -> tuple[np.ndarray, ...]:
    """Read-only ``(outcomes, pairs, pair, state, c)``: the bunched outcomes in alphabet order.

    ``outcomes[r]`` is state s = ``state[r]`` of column pair (i, j) =
    ``pairs[pair[r]]``, i < j: N_a + 2 - s photons in mode i and s in mode j.
    ``c`` holds the outcomes' bosonic factors.
    """
    if n_a < 0:
        raise ContractViolationError(f"n_a must be >= 0, got {n_a}")
    n, m = n_a + 2, n_a + 4
    pairs = np.column_stack(np.triu_indices(m, 1))
    split = enumerate_outcomes(n, 2)
    rows = np.zeros((len(pairs), n + 1, m), dtype=split.dtype)
    rows[np.arange(len(pairs))[:, None, None], np.arange(n + 1)[:, None], pairs[:, None]] = split
    # Ascending in n - y is descending in y, the alphabet's order. A
    # single-mode outcome, held by M - 1 pairs, is read from the first.
    flipped, first = np.unique(n - rows.reshape(-1, m), axis=0, return_index=True)
    outcomes = n - flipped
    pair, state = np.divmod(first, n + 1)
    return tuple(map(read_only, (outcomes, pairs, pair, state, _bosonic_factors(outcomes))))


def scan_bunched_two_mode(
    u: CircuitMatrix, n_a: int, tol: float = DEFAULT_TOL
) -> ClauseVerdicts:
    """Classify every two-mode-bunched outcome, in alphabet order.

    The cascade runs on the stack of U's column pairs, (C(M, 2), M, 2): an
    outcome bunched into modes {i, j} reads only sources inside them. Any
    outcome that is NONE with probability mass, an ``ambiguous`` row, marks
    the analyzer as unable to perform an ideal measurement.
    """
    require_modes(u.entries.shape, n_a)
    u.require_subunitary()
    outcomes, pairs, pair, state, c = _bunched_table(n_a)
    amps = _cascade(u.entries[:, pairs].swapaxes(0, 1), n_a)[2]
    return clause_verdicts(outcomes, amps[pair, :, state], c, tol)


def check_column_conditions(
    u: CircuitMatrix, n_a: int, tol: float = DEFAULT_TOL
) -> list[ColumnVerdict]:
    """Evaluate the per-column zero-pattern conditions I-IV."""
    require_modes(u.entries.shape, n_a)
    zeros = _zeros(u.entries, tol)
    anc = zeros[:n_a]
    q12 = zeros[n_a] & zeros[n_a + 1]
    q34 = zeros[n_a + 2] & zeros[n_a + 3]
    n_s = anc.sum(axis=0)
    # cross_s[col, l]: column l has a zero in a row of col's ancilla witness
    # set. The alternation clauses quantify over that set; taking the maximal
    # zero set is optimal because every clause is monotone in it. They range
    # over l != col, but cross_s[col, col] holds whenever the set is not
    # empty, which every condition requires, so the diagonal needs no mask.
    cross_s = anc.T @ anc
    conditions = {
        "I": (n_s >= 3) & cross_s.all(axis=1),
        "II": (n_s >= 2) & q12 & (q12 | cross_s).all(axis=1),
        "III": (n_s >= 2) & q34 & (q34 | cross_s).all(axis=1),
        "IV": (n_s >= 1) & q12 & q34 & (q12 | q34 | cross_s).all(axis=1),
    }
    # Each column's 1-based zero rows; rows above n_a are qubit rows.
    zero_rows = [[r for r, zero in enumerate(column, 1) if zero] for column in zeros.T.tolist()]
    return [
        ColumnVerdict(
            column=col + 1,
            satisfied=frozenset(name for name, holds in conditions.items() if holds[col]),
            ancilla_zero_rows=tuple(r for r in rows if r <= n_a),
            qubit_zero_rows=tuple(r for r in rows if r > n_a),
            cross_zero_rows={l + 1: tuple(r for r in other if r > n_a or r in rows)
                             for l, other in enumerate(zero_rows) if l != col},
        )
        for col, rows in enumerate(zero_rows)
    ]


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


def conditioned_vs_unconditioned_experiment(
    n_a: int, trials: int, seed: int
) -> tuple[PopulationResult, PopulationResult]:
    """Sample both populations and record mutual information and bunched mass.

    Returns the (conditioned, unconditioned) populations. Trial seeds are
    drawn once from a generator seeded with ``seed``, so the experiment is
    reproducible as a whole.
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
            pop.bunched_mass.append(float(table.p[_bunched_indices(n_a)].sum()))
    return conditioned, unconditioned
