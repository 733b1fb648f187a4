"""Fock-basis amplitude engine for linear optical mode transformations.

:func:`outcome_table` and :func:`bell_amplitude_arrays` cascade photons
through integer mode-insertion maps, built by rank arithmetic rather than a
per-state lookup, for the whole outcome alphabet at once. This cascade is
the only engine on the production path: the optimizer, the information
metrics and the conditions checker all read it.
:func:`bell_probability_pullback` keeps its levels and runs it in reverse
for the optimizer's gradient.

Two independent routes to the same amplitudes stay here as test references:

* :func:`amplitude` and :func:`bell_amplitudes` evaluate single matrix
  elements through a Ryser permanent with Gray-code subset updates,
* :func:`amplitude_oracle` expands the transformed creation-operator
  product symbolically (desk scale only).

A mode transformation maps creation operator ``a_r`` to
``sum_c U[r, c] a_c``, so row indices are input modes and column indices
are output modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from bellopt.errors import ContractViolationError, InvalidMatrixError, OracleScaleError
from bellopt.fock import (
    FockState,
    enumerate_outcomes,
    occupation_array,
    outcome_count,
    to_labeling,
)

#: Desk-scale caps for the symbolic expansion oracle.
ORACLE_MAX_PHOTONS = 4
ORACLE_MAX_MODES = 6

#: Fixed allowance on singular values beyond 1 before a matrix is rejected.
SUBUNITARY_TOL = 1e-9


@dataclass
class CircuitMatrix:
    """M x M complex mode transformation, possibly sub-unitary."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.complex128)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise InvalidMatrixError(f"matrix must be square, got shape {entries.shape}")
        self.entries = entries

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    def subunitarity_excess(self) -> float:
        """How far the largest singular value exceeds 1 (0 if it does not)."""
        top = float(np.linalg.svd(self.entries, compute_uv=False)[0])
        return max(0.0, top - 1.0)

    def require_subunitary(self) -> None:
        excess = self.subunitarity_excess()
        if excess > SUBUNITARY_TOL:
            raise InvalidMatrixError(
                f"matrix is not sub-unitary: largest singular value exceeds 1 by {excess:.3e}"
            )


@dataclass
class OutcomeTable:
    """p(y|x) for every outcome y plus the leaked-photon probabilities.

    ``p`` has shape (K, 4): row i is (p(y|1), ..., p(y|4)) for the i-th
    outcome, row i of :attr:`occupations`; ``garbage[x-1]`` is the
    probability that input x loses at least one photon to an unmeasured mode.
    """

    p: np.ndarray
    garbage: np.ndarray
    n_a: int
    m: int

    @property
    def occupations(self) -> np.ndarray:
        """The outcome alphabet as a (K, M) array, in the order of ``p``."""
        return occupation_array(self.n_a + 2, self.m)

    @property
    def states(self) -> tuple[FockState, ...]:
        """The rows of :attr:`occupations` as :class:`FockState` objects."""
        return enumerate_outcomes(self.n_a + 2, self.m)


def permanent(a: np.ndarray) -> complex:
    """Permanent of a square complex matrix (Ryser, Gray-code subset order)."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractViolationError(f"permanent needs a square matrix, got {a.shape}")
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    cols = [np.ascontiguousarray(a[:, j]) for j in range(n)]
    row_sums = np.zeros(n, dtype=np.complex128)
    total = 0.0 + 0.0j
    prev = 0
    for k in range(1, 1 << n):
        gray = k ^ (k >> 1)
        changed = gray ^ prev
        j = changed.bit_length() - 1
        if gray & changed:
            row_sums += cols[j]
        else:
            row_sums -= cols[j]
        prev = gray
        prod = row_sums.prod()
        if (gray.bit_count() & 1) == (n & 1):
            total += prod
        else:
            total -= prod
    return complex(total)


def _check_pair(u: CircuitMatrix, input_state: FockState, output_state: FockState) -> None:
    if input_state.m != output_state.m or input_state.m != u.m:
        raise ContractViolationError(
            f"mode counts disagree: input {input_state.m}, output {output_state.m}, "
            f"matrix {u.m}"
        )
    if input_state.n != output_state.n:
        raise ContractViolationError(
            f"photon number not conserved: input {input_state.n}, output {output_state.n}"
        )


def amplitude(u: CircuitMatrix, input_state: FockState, output_state: FockState) -> complex:
    """Transition amplitude <output| A(U) |input> via the matrix permanent.

    Equals perm(U[m, m']) / sqrt(prod n_k! * prod n'_k!) where m, m' are the
    canonical labelings of the two states.
    """
    _check_pair(u, input_state, output_state)
    rows = [label - 1 for label in to_labeling(input_state).labels]
    cols = [label - 1 for label in to_labeling(output_state).labels]
    sub = u.entries[np.ix_(rows, cols)] if rows else np.zeros((0, 0), dtype=np.complex128)
    norm = 1.0
    for occ in input_state.occupations:
        norm *= math.factorial(occ)
    for occ in output_state.occupations:
        norm *= math.factorial(occ)
    return permanent(sub) / math.sqrt(norm)


def amplitude_oracle(u: CircuitMatrix, input_state: FockState, output_state: FockState) -> complex:
    """Independent amplitude route: expand the transformed creation-operator product.

    Tracks the polynomial in output-mode creation operators term by term and
    reads off the coefficient of the output occupation monomial. Exponential
    bookkeeping limits it to desk scale.
    """
    _check_pair(u, input_state, output_state)
    if input_state.n > ORACLE_MAX_PHOTONS or input_state.m > ORACLE_MAX_MODES:
        raise OracleScaleError(
            f"oracle caps at N <= {ORACLE_MAX_PHOTONS}, M <= {ORACLE_MAX_MODES}; "
            f"got N = {input_state.n}, M = {input_state.m}"
        )
    m = input_state.m
    poly: dict[tuple[int, ...], complex] = {(0,) * m: 1.0 + 0.0j}
    for label in to_labeling(input_state).labels:
        row = u.entries[label - 1]
        grown: dict[tuple[int, ...], complex] = {}
        for monomial, coeff in poly.items():
            for mode in range(m):
                key = monomial[:mode] + (monomial[mode] + 1,) + monomial[mode + 1:]
                grown[key] = grown.get(key, 0.0 + 0.0j) + coeff * row[mode]
        poly = grown
    coeff = poly.get(output_state.occupations, 0.0 + 0.0j)
    scale = 1.0
    for occ in output_state.occupations:
        scale *= math.factorial(occ)
    for occ in input_state.occupations:
        scale /= math.factorial(occ)
    return coeff * math.sqrt(scale)


# ---------------------------------------------------------------------------
# Bell-state inputs
# ---------------------------------------------------------------------------

def _bell_qubit_modes(x: int, n_a: int) -> tuple[tuple[int, int], tuple[int, int], int]:
    """0-based photon modes of the two Fock branches of Bell input x, plus sign."""
    if x not in (1, 2, 3, 4):
        raise ContractViolationError(f"Bell state index must be 1..4, got {x}")
    if x in (1, 2):
        branch_a, branch_b = (n_a, n_a + 2), (n_a + 1, n_a + 3)
    else:
        branch_a, branch_b = (n_a, n_a + 3), (n_a + 1, n_a + 2)
    sign = 1 if x in (1, 3) else -1
    return branch_a, branch_b, sign


def bell_input_branches(x: int, n_a: int) -> tuple[FockState, FockState, int]:
    """The two Fock components of Bell input x with n_a single-photon ancillas.

    The input state is (branch_a + sign * branch_b) / sqrt(2).
    """
    branch_a, branch_b, sign = _bell_qubit_modes(x, n_a)
    m = n_a + 4

    def branch(modes: tuple[int, int]) -> FockState:
        occ = [1] * n_a + [0] * 4
        for mode in modes:
            occ[mode] += 1
        return FockState(tuple(occ))

    return branch(branch_a), branch(branch_b), sign


def _bell_row_sets(n_a: int) -> tuple[tuple[int, ...], ...]:
    """0-based input-row selections behind the four branch amplitudes."""
    anc = tuple(range(n_a))
    return (
        anc + (n_a, n_a + 2),
        anc + (n_a + 1, n_a + 3),
        anc + (n_a, n_a + 3),
        anc + (n_a + 1, n_a + 2),
    )


def bell_amplitudes(u: CircuitMatrix, y: FockState, n_a: int) -> np.ndarray:
    """The four distinct-permutation sums feeding p(y|x) for one outcome y, shape (4,)."""
    n, m = n_a + 2, n_a + 4
    if u.m != m:
        raise ContractViolationError(f"matrix is {u.m}x{u.m}, expected {m}x{m}")
    if y.m != m or y.n != n:
        raise ContractViolationError(
            f"outcome must have {n} photons over {m} modes, got {y.n} over {y.m}"
        )
    cols = [label - 1 for label in to_labeling(y).labels]
    denom = 1.0
    for occ in y.occupations:
        denom *= math.factorial(occ)
    return np.array(
        [permanent(u.entries[np.ix_(rows, cols)]) / denom for rows in _bell_row_sets(n_a)]
    )


def outcome_probabilities(amps: np.ndarray, c) -> np.ndarray:
    """(p(y|1), ..., p(y|4)) from amplitude rows (..., 4) and their bosonic factors (...)."""
    a1, a2, a3, a4 = np.moveaxis(np.asarray(amps), -1, 0)
    sums = np.stack([a1 + a2, a1 - a2, a3 + a4, a3 - a4], axis=-1)
    return np.asarray(c)[..., None] * _abs2(sums)


# ---------------------------------------------------------------------------
# Whole-alphabet cascade
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _insertion_targets(n_photons: int, n_modes: int) -> np.ndarray:
    """targets[mode, i]: index at level n+1 of state i at level n plus one photon.

    A state's index is its rank sum_{k<M-1} C(r_k + M-2-k, M-1-k), r_k the
    photons after mode k, and state i has rank i. One more photon in mode j
    raises r_k by one for every k < j, and each such k adds
    C(r_k + M-2-k, M-2-k) to the rank.
    """
    occ = occupation_array(n_photons, n_modes)
    after = n_photons - np.cumsum(occ[:, :-1], axis=1, dtype=np.intp)
    lower = np.arange(n_modes - 2, -1, -1)  # M-2-k for k < M-1
    binomials = np.array([[math.comb(r + c, c) for c in range(n_modes - 1)]
                          for r in range(n_photons + 1)], dtype=np.intp)
    targets = np.empty((n_modes, len(occ)), dtype=np.intp)
    targets[0] = np.arange(len(occ))
    np.cumsum(binomials[after, lower], axis=1, out=targets[1:].T)
    targets[1:] += targets[0]
    return targets


def _apply_creation_row(vec: np.ndarray, row: np.ndarray, level: int, n_modes: int) -> np.ndarray:
    """Multiply an amplitude vector by one transformed creation operator.

    ``vec`` holds coefficients over the level-``level`` outcome basis and
    ``row`` the M operator coefficients; the result is over level
    ``level + 1``. Each mode is one scatter-add over the insertion targets.
    """
    targets = _insertion_targets(level, n_modes)
    out = np.zeros(outcome_count(level + 1, n_modes), dtype=np.complex128)
    for mode in range(n_modes):
        out[targets[mode]] += row[mode] * vec
    return out


@lru_cache(maxsize=None)
def _bosonic_factor_array(n_photons: int, n_modes: int) -> np.ndarray:
    factorials = np.array([math.factorial(k) for k in range(n_photons + 1)])
    return 0.5 * factorials[occupation_array(n_photons, n_modes)].prod(axis=1)


def _cascade(u: np.ndarray, n_a: int):
    """Every level of the cascade for one (M, M) matrix.

    Returns ``(levels, (q1, q2), (a1, a2, a3, a4))``: the ancilla levels
    0..n_a, the two one-qubit-photon levels, and the four branch amplitudes
    of shape (K,). The reverse pass reads the kept levels.
    """
    m = n_a + 4
    levels = [np.ones(1, dtype=np.complex128)]
    for j in range(n_a):
        levels.append(_apply_creation_row(levels[-1], u[j], j, m))
    # The four row sets share the ancilla prefix and pair one of rows
    # {n_a, n_a+1} with one of rows {n_a+2, n_a+3}.
    q1 = _apply_creation_row(levels[-1], u[n_a], n_a, m)
    q2 = _apply_creation_row(levels[-1], u[n_a + 1], n_a, m)
    a1 = _apply_creation_row(q1, u[n_a + 2], n_a + 1, m)
    a3 = _apply_creation_row(q1, u[n_a + 3], n_a + 1, m)
    a2 = _apply_creation_row(q2, u[n_a + 3], n_a + 1, m)
    a4 = _apply_creation_row(q2, u[n_a + 2], n_a + 1, m)
    return levels, (q1, q2), (a1, a2, a3, a4)


def bell_amplitude_arrays(u_entries: np.ndarray, n_a: int) -> tuple[np.ndarray, ...]:
    """All four branch amplitudes for every outcome at once.

    ``u_entries`` is one (M, M) matrix; the four arrays have shape (K,), K
    the size of the outcome alphabet, ordered as in
    :func:`bellopt.fock.enumerate_outcomes`.
    """
    u = np.asarray(u_entries, dtype=np.complex128)
    m = n_a + 4
    if u.shape != (m, m):
        raise ContractViolationError(f"matrix must be {m}x{m}, got {u.shape}")
    return _cascade(u, n_a)[2]


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real**2 + z.imag**2


def bell_probability_parts(u_flat: np.ndarray, n_a: int) -> tuple[np.ndarray, np.ndarray]:
    """Outcome probabilities of a flat batch: p (4, K, B), garbage (4, B).

    The first axis runs over the four Bell inputs; ``u_flat`` must be a flat
    batch (B, M, M). It is evaluated one matrix at a time; ``p`` and
    ``garbage`` view batch-major stacks of the per-matrix results.
    """
    # Stacked after the loop, not filled into a buffer allocated before it:
    # at large K that keeps the heap's peak at the single-matrix forward's.
    pairs = [bell_probability_pullback(u, n_a)[:2] for u in np.asarray(u_flat)]
    p = np.stack([pair[0] for pair in pairs])
    garbage = np.stack([pair[1] for pair in pairs])
    return p.transpose(1, 2, 0), garbage.T


def _pull_creation_row(
    vec: np.ndarray, row: np.ndarray, level: int, out_bar: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reverse of :func:`_apply_creation_row`.

    Gradients of a real function with respect to complex values are stored as
    d/dRe + i d/dIm. The scatter-add pulls back to a gather over the same
    insertion targets: ``(vec_bar, row_bar)`` from the level-``level + 1``
    gradient ``out_bar``.
    """
    gathered = out_bar[_insertion_targets(level, row.shape[-1])]
    return np.conj(row) @ gathered, gathered @ np.conj(vec)


def bell_probability_pullback(u: np.ndarray, n_a: int):
    """One matrix's outcome probabilities, plus the map back to the matrix.

    Returns ``(p, garbage, pullback)`` with ``p`` of shape (4, K) in the
    layout of :func:`bell_probability_parts` and ``garbage`` of shape (4,).
    ``pullback(p_bar, g_bar)`` takes the derivatives of a real function with
    respect to ``p`` and ``garbage`` and returns its gradient with respect to
    the (M, M) complex matrix, as d/dRe U + i d/dIm U. The forward keeps every
    cascade level, so the reverse pass costs about one forward.
    """
    m = n_a + 4
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (m, m):
        raise ContractViolationError(f"matrix must be {m}x{m}, got {u.shape}")
    levels, (q1, q2), (a1, a2, a3, a4) = _cascade(u, n_a)
    c = _bosonic_factor_array(n_a + 2, m)
    # Keep only the four sums for the reverse pass: the differences overwrite
    # a1 and a3 and a2, a4 go, which keeps peak memory down at large K.
    sums = (a1 + a2, np.subtract(a1, a2, out=a1), a3 + a4, np.subtract(a3, a4, out=a3))
    del a2, a4
    p = np.empty((4, len(c)))
    for x, s in enumerate(sums):
        np.multiply(c, _abs2(s), out=p[x])
    leak = 1.0 - p.sum(axis=1)
    garbage = np.maximum(leak, 0.0)

    def pullback(p_bar: np.ndarray, g_bar: np.ndarray) -> np.ndarray:
        # garbage = max(1 - sum_y p, 0): clamped inputs pass no gradient.
        p_bar = p_bar - np.where(leak > 0.0, g_bar, 0.0)[:, None]
        s_bar = [2.0 * c * p_bar[x] * sums[x] for x in range(4)]
        a_bar = (s_bar[0] + s_bar[1], s_bar[0] - s_bar[1],
                 s_bar[2] + s_bar[3], s_bar[2] - s_bar[3])
        u_bar = np.zeros((m, m), dtype=np.complex128)

        def pull(source, r, level, out_bar):
            source_bar, row_bar = _pull_creation_row(source, u[r], level, out_bar)
            u_bar[r] += row_bar
            return source_bar

        q1_bar = pull(q1, n_a + 2, n_a + 1, a_bar[0]) + pull(q1, n_a + 3, n_a + 1, a_bar[2])
        q2_bar = pull(q2, n_a + 3, n_a + 1, a_bar[1]) + pull(q2, n_a + 2, n_a + 1, a_bar[3])
        vec_bar = pull(levels[n_a], n_a, n_a, q1_bar) + pull(levels[n_a], n_a + 1, n_a, q2_bar)
        for j in range(n_a - 1, -1, -1):
            vec_bar = pull(levels[j], j, j, vec_bar)
        return u_bar

    return p, garbage, pullback


def outcome_table(u: CircuitMatrix, n_a: int) -> OutcomeTable:
    """Measurement statistics of all four Bell inputs under ``u``.

    Keeps every outcome, including all-zero rows; the conditions checker needs
    the full alphabet.
    """
    m = n_a + 4
    if u.m != m:
        raise ContractViolationError(f"matrix is {u.m}x{u.m}, expected {m}x{m} for n_a={n_a}")
    u.require_subunitary()
    p, garbage = bell_probability_pullback(u.entries, n_a)[:2]
    return OutcomeTable(p=np.ascontiguousarray(p.T), garbage=garbage, n_a=n_a, m=m)
