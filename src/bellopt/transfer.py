"""Fock-basis amplitude engine for linear optical mode transformations.

:func:`outcome_table` cascades photons for the whole outcome alphabet at
once. Each level is a gather: every state reads, for each mode, the state
one level down with one photon fewer there, through an integer map built by
rank arithmetic rather than a per-state lookup, and one product with the
creation-operator rows sums them; a level whose rows are exactly zero on
some modes gathers only the rest. This cascade is the engine of every
outcome table: the optimizer, the information metrics and the conditions
experiment read it. It runs over a stack of matrices on a leading axis,
one matrix being a stack of one. Every product runs per matrix, so each
matrix gets the numbers it gets alone, unless the stack mixes exact-zero
patterns: a stack gathers every mode that any of its rows reaches.
:func:`bell_probability_pullback` keeps its levels and runs it in reverse
over the whole stack, again per matrix, for the optimizer's gradients: its
pullback takes derivatives shaped like the forward's outputs and returns a
gradient shaped like its input. The same cascade runs on blocks of
columns: on the stack of every column pair of a matrix it gives the
amplitudes of the outcomes bunched into two modes, which the conditions
checker scans, without the rest of the alphabet.

Outcomes are the rows of :func:`bellopt.fock.enumerate_outcomes`. The
independent routes the tests check the cascade against live with the tests,
not here. Three pieces they build on stay only because the traced benchmark
imports or wraps them by name, until it traces the production passes
instead (ROADMAP item 1): :func:`permanent`, a Ryser permanent with
Gray-code subset updates; :func:`bell_amplitudes`, the four branch
permanents of one outcome, a tuple of occupations; and
:func:`bell_probability_parts`, the stacked cascade in a batch-last layout.

A mode transformation maps creation operator ``a_r`` to
``sum_c U[r, c] a_c``, so row indices are input modes and column indices
are output modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from bellopt.errors import ContractViolationError, InvalidMatrixError
from bellopt.fock import enumerate_outcomes, outcome_count, read_only

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

    def require_subunitary(self) -> None:
        """Reject a matrix whose largest singular value exceeds 1 by more than the allowance."""
        excess = float(np.linalg.svd(self.entries, compute_uv=False)[0]) - 1.0
        if excess > SUBUNITARY_TOL:
            raise InvalidMatrixError(
                f"matrix is not sub-unitary: largest singular value exceeds 1 by {excess:.3e}"
            )


@dataclass
class OutcomeTable:
    """p(y|x) for every outcome y plus the leaked-photon probabilities.

    ``p`` has shape (K, 4): row i is (p(y|1), ..., p(y|4)) for the i-th
    outcome, row i of :attr:`occupations`. A table from :func:`outcome_table`
    holds the transposed view of the cascade's (4, K) array, not a copy.
    ``garbage[x-1]`` is the probability that input x loses at least one
    photon to an unmeasured mode.
    """

    p: np.ndarray
    garbage: np.ndarray
    n_a: int
    m: int

    @property
    def occupations(self) -> np.ndarray:
        """The outcome alphabet as a (K, M) array, in the order of ``p``."""
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


def _check_pair(u: CircuitMatrix, input_state: tuple[int, ...],
                output_state: tuple[int, ...]) -> None:
    if len(input_state) != len(output_state) or len(input_state) != u.m:
        raise ContractViolationError(
            f"mode counts disagree: input {len(input_state)}, output {len(output_state)}, "
            f"matrix {u.m}"
        )
    for k in (*input_state, *output_state):
        if not hasattr(type(k), "__index__") or k < 0:
            raise ContractViolationError(f"occupations must be non-negative integers, got {k!r}")
    if sum(input_state) != sum(output_state):
        raise ContractViolationError(
            f"photon number not conserved: input {sum(input_state)}, "
            f"output {sum(output_state)}"
        )


def _labels(occ: tuple[int, ...]) -> np.ndarray:
    """0-based mode of each photon, sorted: the canonical labeling of ``occ``."""
    return np.repeat(np.arange(len(occ)), occ)


def _factorial_product(occ: tuple[int, ...]) -> int:
    return math.prod(map(math.factorial, occ))


# ---------------------------------------------------------------------------
# Bell-state inputs
# ---------------------------------------------------------------------------

def require_modes(shape: tuple[int, ...], n_a: int) -> None:
    """Reject a circuit without the Bell layout's modes: N_a >= 0 ancillas, then four."""
    m = n_a + 4
    if n_a < 0 or shape != (m, m):
        raise ContractViolationError(
            f"matrix of shape {shape} does not fit n_a={n_a}, which needs {m}x{m} and n_a >= 0")


def _bell_qubit_modes(x: int, n_a: int) -> tuple[tuple[int, int], tuple[int, int], int]:
    """0-based photon modes of the two Fock branches of Bell input x, plus sign.

    Input x pairs branches a_{2j+1} and a_{2j+2} of ``_BRANCH_ROWS``, j = (x - 1) // 2.
    """
    if x not in (1, 2, 3, 4):
        raise ContractViolationError(f"Bell state index must be 1..4, got {x}")
    branch_a, branch_b = zip((n_a, n_a + 1), (n_a + 2 + _BRANCH_ROWS[:, (x - 1) // 2]).tolist())
    return branch_a, branch_b, 1 if x % 2 else -1


def bell_input_branches(x: int, n_a: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The two Fock components of Bell input x with n_a single-photon ancillas.

    The input state is (branch_a + sign * branch_b) / sqrt(2).
    """
    branch_a, branch_b, sign = _bell_qubit_modes(x, n_a)

    def branch(modes: tuple[int, int]) -> tuple[int, ...]:
        occ = [1] * n_a + [0] * 4
        for mode in modes:
            occ[mode] += 1
        return tuple(occ)

    return branch(branch_a), branch(branch_b), sign


def bell_amplitudes(u: CircuitMatrix, y: tuple[int, ...], n_a: int) -> np.ndarray:
    """The four distinct-permutation sums feeding p(y|x) for one outcome y, shape (4,).

    They are the permanents of the four branches (a1, a2) of input 1 and
    (a3, a4) of input 3, each over ``prod n_k!`` of ``y``.
    """
    require_modes(u.entries.shape, n_a)
    (a1, a2, _), (a3, a4, _) = bell_input_branches(1, n_a), bell_input_branches(3, n_a)
    _check_pair(u, a1, y)
    cols = _labels(y)
    denom = _factorial_product(y)
    return np.array(
        [permanent(u.entries[np.ix_(_labels(branch), cols)]) / denom
         for branch in (a1, a2, a3, a4)]
    )


def outcome_probabilities(amps: np.ndarray, c) -> np.ndarray:
    """(p(y|1), ..., p(y|4)) from amplitude rows (..., 4) and their bosonic factors (...)."""
    sums = _pair_sums(amps[..., None].copy())
    return _probabilities(sums, np.asarray(c)[..., None, None])[..., 0]


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
    occ = enumerate_outcomes(n_photons, n_modes)
    after = n_photons - np.cumsum(occ[:, :-1], axis=1, dtype=np.intp)
    lower = np.arange(n_modes - 2, -1, -1)  # M-2-k for k < M-1
    binomials = np.array([[math.comb(r + c, c) for c in range(n_modes - 1)]
                          for r in range(n_photons + 1)], dtype=np.intp)
    targets = np.empty((n_modes, len(occ)), dtype=np.intp)
    targets[0] = np.arange(len(occ))
    np.cumsum(binomials[after, lower], axis=1, out=targets[1:].T)
    targets[1:] += targets[0]
    return read_only(targets)


@lru_cache(maxsize=None)
def _insertion_sources(n_photons: int, n_modes: int) -> np.ndarray:
    """sources[mode, t]: index at level n of state t at level n+1 less one photon.

    The inverse of :func:`_insertion_targets`, built without caching that
    map, so a forward-only run holds one map per level. Where ``mode`` is
    empty in state t the entry is K_n, the index of the zero each cascade
    level carries after its K_n amplitudes. Read-only, in the smallest
    unsigned dtype that holds K_n.
    """
    targets = _insertion_targets.__wrapped__(n_photons, n_modes)
    pad = targets.shape[1]
    sources = np.full((n_modes, outcome_count(n_photons + 1, n_modes)), pad,
                      dtype=np.min_scalar_type(pad))
    sources[np.arange(n_modes)[:, None], targets] = np.arange(pad)
    return read_only(sources)


#: Output states per gather. The top level gathers both one-qubit-photon
#: vectors into a (2, M, block) temporary: at 2048 a warm N_a = 6 table peaks
#: at 3.4 MB traced, at 4096 at 3.7 MB.
_GATHER_BLOCK = 2048


def _creation_step(rows: np.ndarray, vec: np.ndarray, level: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Multiply amplitude vectors by transformed creation operators.

    ``vec`` holds coefficients over the level-``level`` outcome basis plus a
    trailing zero, one vector (K_n + 1,) or a stack (V, K_n + 1); ``rows`` is
    one (M,) or several (R, M) operator rows, or a stack (V, R, M) of rows
    for each vector. The result, shape V + R + (K_{n+1} + 1,), is over level
    ``level + 1`` and again ends in a zero. Given ``out``, of shape V + R +
    (K_{n+1},) and any strides, the step writes there, without the zero.
    Each block of output states is one gather through
    :func:`_insertion_sources`, shared by every row, and one product; it
    skips the modes that every row's exact zeros leave unreached. At level 0
    ``vec`` is the vacuum, (1, 0), and each row's amplitudes are the row
    itself: one photon in mode j is state j.
    """
    sources = _insertion_sources(level, rows.shape[-1])
    k = sources.shape[1]
    if out is None:
        out = np.zeros(vec.shape[:-1] + rows.shape[-2:-1] + (k + 1,), dtype=np.complex128)
    if level == 0:
        out[..., :k] = rows
        return out
    modes = slice(None)
    if np.count_nonzero(rows) < rows.size:  # the cheapest test on the dense path
        # Where the rows are exactly zero on some modes, gather only the rest.
        modes = rows.reshape(-1, rows.shape[-1]).any(axis=0)
        rows = rows[..., modes]
    if k <= _GATHER_BLOCK:  # one block: the loop's slicing would cost as much as a small product
        np.matmul(rows, vec.take(sources[modes], axis=-1), out=out[..., :k])
        return out
    for start in range(0, k, _GATHER_BLOCK):
        block = slice(start, min(start + _GATHER_BLOCK, k))
        np.matmul(rows, vec.take(sources[modes, block], axis=-1), out=out[..., block])
    return out


def _bosonic_factors(occ: np.ndarray) -> np.ndarray:
    """(1/2) prod_k y_k! of each occupation row y of ``occ`` (K, M): p(y|x) over |sum|^2."""
    factorials = np.array([math.factorial(k) for k in range(int(occ.max(initial=0)) + 1)])
    return 0.5 * factorials[occ].prod(axis=1)


@lru_cache(maxsize=None)
def _bosonic_factor_array(n_photons: int, n_modes: int) -> np.ndarray:
    return read_only(_bosonic_factors(enumerate_outcomes(n_photons, n_modes)))


#: The four Bell branches pair the photon of row n_a (q1) or of row n_a + 1
#: (q2) with one of rows n_a + 2 (r2) and n_a + 3 (r3): a1 = q1 r2,
#: a2 = q2 r3, a3 = q1 r3, a4 = q2 r2. Rows n_a + 2 + _BRANCH_ROWS[v] meet
#: qubit level v, (r2, r3) for q1 and (r3, r2) for q2, so branch a_{2j+v+1}
#: is column j of row v.
_BRANCH_ROWS = read_only(np.array([[0, 1], [1, 0]]))


def _cascade(u: np.ndarray, n_a: int):
    """Every level of the cascade for a stack of (M, M') blocks, (B, M, M').

    Rows are the N_a + 4 input modes, columns the alphabet's output modes:
    square blocks cascade the whole alphabet, column pairs (B, M, 2) the
    outcomes bunched into two modes. Returns ``(levels, qs, amps)``: the
    ancilla levels 0..n_a, each (B, K_j); the two one-qubit-photon levels as
    one (B, 2, K') array; and the four branch amplitudes a1, a2, a3, a4 as
    the rows of one (B, 4, K) array. Every product runs per block, so each
    block of a stack without exact zeros gets the numbers it would get
    alone. The reverse pass reads the kept levels.
    """
    padded = [np.zeros((len(u), 2), dtype=np.complex128)]
    padded[0][:, 0] = 1.0
    for j in range(n_a):
        padded.append(_creation_step(u[:, j:j + 1], padded[-1], j)[:, 0])
    # Both qubit levels share one gather per level, and the transposed view
    # lays the four branches out in the order of _BRANCH_ROWS.
    qs = _creation_step(u[:, n_a:n_a + 2], padded[-1], n_a)
    amps = np.empty((len(u), 4, outcome_count(n_a + 2, u.shape[-1])), dtype=np.complex128)
    rows = u[:, n_a + 2:].take(_BRANCH_ROWS, axis=1)
    _creation_step(rows, qs, n_a + 1, out=amps.reshape(len(u), 2, 2, -1).swapaxes(1, 2))
    levels = [level[:, :-1] for level in padded]
    return levels, qs[..., :-1], amps


def bell_probability_parts(u_flat: np.ndarray, n_a: int) -> tuple[np.ndarray, np.ndarray]:
    """Outcome probabilities of a flat batch: p (4, K, B), garbage (4, B).

    The first axis runs over the four Bell inputs; ``u_flat`` must be a flat
    batch (B, M, M). It runs as one stack through
    :func:`bell_probability_pullback`, and ``p`` and ``garbage`` view its
    batch-major results.
    """
    p, garbage = bell_probability_pullback(u_flat, n_a)[:2]
    return p.transpose(1, 2, 0), garbage.T


def _pair_sums(rows: np.ndarray) -> np.ndarray:
    """Rows (r0, r1, r2, r3) along axis -2 become (r0 + r1, r0 - r1, r2 + r3, r2 - r3), in place.

    The Bell sums of the branch amplitudes, and in reverse the branch
    gradients from the sums'; both pairs go at once, through one temporary
    the size of two rows.
    """
    first, second = rows[..., 0::2, :], rows[..., 1::2, :]
    difference = first - second
    first += second
    second[...] = difference
    return rows


def _probabilities(sums: np.ndarray, c) -> np.ndarray:
    """c |sums|^2 for the four Bell sums of :func:`_pair_sums`, on axis -2."""
    p = np.square(sums.real)
    for pair in (slice(0, 2), slice(2, 4)):
        p[..., pair, :] += np.square(sums[..., pair, :].imag)
    p *= c
    return p


def _pull_creation_row(
    vec_conj: np.ndarray, row_conj: np.ndarray, level: int, out_bar: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray]:
    """Reverse of one row of :func:`_creation_step`, given the conjugates of its source and row.

    Gradients of a real function with respect to complex values are stored as
    d/dRe + i d/dIm. The forward gathers each output state's sources; its
    reverse gathers each source's outputs, through
    :func:`_insertion_targets`: ``(vec_bar, row_bar)`` from the
    level-``level + 1`` gradient ``out_bar``. The arguments are one row's,
    (K_n,), (M,) and (K_{n+1},), or stacks of them on leading axes that
    broadcast, and each row of a stack gets the numbers it gets alone. At
    level 0 the source is the vacuum, amplitude 1, whose gradient nothing
    reads: ``vec_bar`` is None, and ``row_bar`` is ``out_bar`` itself.
    """
    if level == 0:
        return None, out_bar
    # ``take`` lays each item's (M, K_n) gather out C-contiguous, as alone;
    # ``out_bar[:, targets]`` would not, and its matrix-vector products
    # would take another BLAS path and move the last bits.
    gathered = out_bar.take(_insertion_targets(level, row_conj.shape[-1]), axis=-1)
    return (row_conj[..., None, :] @ gathered)[..., 0, :], (gathered @ vec_conj[..., None])[..., 0]


def bell_probability_pullback(u: np.ndarray, n_a: int):
    """Outcome probabilities of one matrix or a stack, plus the map back to the matrices.

    ``u`` is one (M, M) matrix or a stack (..., M, M) of any batch shape,
    run as one flat stack; each matrix of a stack gets the numbers it would
    get alone where the stack shares its exact zeros (see :func:`_cascade`).
    Returns ``(p, garbage, pullback)`` with ``p`` of shape (..., 4, K) and
    ``garbage`` of shape (..., 4). ``pullback(p_bar, g_bar)`` takes the
    derivatives of a real function with respect to every ``p`` and
    ``garbage``, in their shapes, and returns its gradient with respect to
    ``u``, in the shape of ``u``, as d/dRe U + i d/dIm U. Its products run
    per matrix on matmul's batch axis, so each matrix gets the gradient it
    gets pulled alone. The forward keeps every cascade level, so the
    reverse pass costs about one forward.
    """
    u = np.asarray(u, dtype=np.complex128)
    require_modes(u.shape[-2:], n_a)
    stack = u.reshape((-1,) + u.shape[-2:])
    levels, qs, amps = _cascade(stack, n_a)
    c = _bosonic_factor_array(n_a + 2, stack.shape[-1])
    # The reverse pass keeps only the four sums, one per Bell input. They
    # overwrite the amplitudes to keep peak memory down at large K, as does
    # squaring the imaginary parts one pair of rows at a time.
    sums = _pair_sums(amps)
    p = _probabilities(sums, c)
    leak = 1.0 - p.sum(axis=-1)
    garbage = np.maximum(leak, 0.0)

    def pullback(p_bar: np.ndarray, g_bar: np.ndarray) -> np.ndarray:
        # garbage = max(1 - sum_y p, 0): clamped inputs pass no gradient.
        g_bar = np.where(leak > 0.0, np.reshape(g_bar, leak.shape), 0.0)
        p_bar = np.reshape(p_bar, sums.shape) - g_bar[..., None]
        a_bar = _pair_sums((2.0 * c) * p_bar * sums)
        conj_u = np.conj(stack)
        u_bar = np.empty_like(conj_u)
        # The four branches in one pull, as in the forward: branch a_{2j+v+1}
        # is [v, j], qubit level v through rail row n_a + 2 + _BRANCH_ROWS[v, j].
        a_bar = a_bar.reshape(a_bar.shape[:-2] + (2, 2, -1)).swapaxes(-3, -2)
        q_from, r_from = _pull_creation_row(
            np.conj(qs)[..., None, :], conj_u[..., n_a + 2 + _BRANCH_ROWS, :], n_a + 1, a_bar)
        # Rail rows r2 and r3 sum branches (a1, a4) and (a3, a2), and the
        # qubit levels (a1, a3) and (a2, a4), in the reference's order.
        u_bar[..., n_a + 2:, :] = r_from[..., 0, :, :] + r_from[..., 1, ::-1, :]
        q_bar = q_from[..., 0, :] + q_from[..., 1, :]
        from_q, u_bar[..., n_a:n_a + 2, :] = _pull_creation_row(
            np.conj(levels[n_a])[..., None, :], conj_u[..., n_a:n_a + 2, :], n_a, q_bar)
        vec_bar = from_q[..., 0, :] + from_q[..., 1, :] if n_a else None
        for j in range(n_a - 1, -1, -1):
            vec_bar, u_bar[..., j, :] = _pull_creation_row(
                np.conj(levels[j]), conj_u[..., j, :], j, vec_bar)
        return u_bar.reshape(u.shape)

    batch = u.shape[:-2]
    return p.reshape(batch + p.shape[1:]), garbage.reshape(batch + (4,)), pullback


def outcome_table(u: CircuitMatrix, n_a: int) -> OutcomeTable:
    """Measurement statistics of all four Bell inputs under ``u``.

    Keeps every outcome, including all-zero rows; the conditions checker needs
    the full alphabet.
    """
    require_modes(u.entries.shape, n_a)
    u.require_subunitary()
    p, garbage = bell_probability_pullback(u.entries, n_a)[:2]
    return OutcomeTable(p=p.T, garbage=garbage, n_a=n_a, m=u.m)
