"""Every test reference: independent routes, and earlier forms of the optimizer's passes.

None of this ships in the package; the tests compare the production code
against it.

* Independent routes to the same numbers, compared to a tolerance:
  :func:`amplitude` and :func:`classify_outcome` read single outcomes
  through Ryser permanents, :func:`amplitude_oracle` expands the transformed
  creation-operator product symbolically (desk scale only),
  :func:`storage_from_hermitian` inverts the generator assembly, and
  :func:`_gradient_vector` takes central finite differences over a batched
  forward of its own, :func:`_objective_vectors`.
* Earlier forms of the optimizer's forward and reverse passes, compared bit
  for bit. Each does the same arithmetic as its production counterpart in a
  different arrangement of numpy calls: the generator is assembled by fancy
  indexing rather than by one product with a basis, the cascade's top level
  is one broadcast product, and the reverse pass pulls one creation row at
  a time, accumulating ``u_bar[r] +=``. The production code must match
  these bit for bit, so the tests compare with ``np.array_equal``; both
  sides run in one process, on one BLAS.

Outcomes and Fock states passed to the single-outcome routes are tuples of
occupations. A mode transformation maps creation operator ``a_r`` to
``sum_c U[r, c] a_c``, so row indices are input modes and column indices
are output modes.
"""

import math

import numpy as np

from bellopt.conditions import DEFAULT_TOL, ClauseVerdicts, clause_verdicts
from bellopt.errors import ContractViolationError
from bellopt.infometrics import conditional_bits, conditional_bits_pullback
from bellopt.transfer import (
    _GATHER_BLOCK,
    CircuitMatrix,
    _bosonic_factor_array,
    _bosonic_factors,
    _check_pair,
    _factorial_product,
    _insertion_sources,
    _insertion_targets,
    _labels,
    bell_amplitudes,
    bell_probability_parts,
    permanent,
)
from bellopt.unitary import _storage_basis, matrix_entries_from_vectors

#: Desk-scale caps for the symbolic expansion oracle.
ORACLE_MAX_PHOTONS = 4
ORACLE_MAX_MODES = 6


def amplitude(u: CircuitMatrix, input_state: tuple[int, ...],
              output_state: tuple[int, ...]) -> complex:
    """Transition amplitude <output| A(U) |input> via the matrix permanent.

    Equals perm(U[m, m']) / sqrt(prod n_k! * prod n'_k!) where m, m' are the
    canonical labelings of the two states.
    """
    _check_pair(u, input_state, output_state)
    sub = u.entries[np.ix_(_labels(input_state), _labels(output_state))]
    norm = _factorial_product(input_state) * _factorial_product(output_state)
    return permanent(sub) / math.sqrt(norm)


def amplitude_oracle(u: CircuitMatrix, input_state: tuple[int, ...],
                     output_state: tuple[int, ...]) -> complex:
    """Independent amplitude route: expand the transformed creation-operator product.

    Tracks the polynomial in output-mode creation operators term by term and
    reads off the coefficient of the output occupation monomial. Exponential
    bookkeeping limits it to desk scale.
    """
    _check_pair(u, input_state, output_state)
    n, m = sum(input_state), len(input_state)
    if n > ORACLE_MAX_PHOTONS or m > ORACLE_MAX_MODES:
        raise ContractViolationError(
            f"oracle caps at N <= {ORACLE_MAX_PHOTONS}, M <= {ORACLE_MAX_MODES}; "
            f"got N = {n}, M = {m}"
        )
    poly: dict[tuple[int, ...], complex] = {(0,) * m: 1.0 + 0.0j}
    for label in _labels(input_state):
        row = u.entries[label]
        grown: dict[tuple[int, ...], complex] = {}
        for monomial, coeff in poly.items():
            for mode in range(m):
                key = monomial[:mode] + (monomial[mode] + 1,) + monomial[mode + 1:]
                grown[key] = grown.get(key, 0.0 + 0.0j) + coeff * row[mode]
        poly = grown
    coeff = poly.get(tuple(output_state), 0.0 + 0.0j)
    return coeff * math.sqrt(_factorial_product(output_state) / _factorial_product(input_state))


def classify_outcome(
    u: CircuitMatrix, y: tuple[int, ...], n_a: int, tol: float = DEFAULT_TOL
) -> ClauseVerdicts:
    """Sort one outcome, a tuple of occupations, into clause A, B, C, or NONE.

    The branch amplitudes are Ryser permanents, and the columns have one
    row: the test reference for the two-mode scan.
    """
    amps = bell_amplitudes(u, y, n_a)
    return clause_verdicts([y], amps[None], _bosonic_factors(np.array([y])), tol)


def storage_from_hermitian(h: np.ndarray) -> np.ndarray:
    """Inverse of :func:`bellopt.unitary.hermitian_from_storage`.

    The rows of the storage basis are orthogonal, so each real is the
    projection of H on its row over the row's squared norm: the count of
    its unit entries.
    """
    h = np.asarray(h, dtype=np.complex128)
    m = h.shape[-1]
    basis = _storage_basis(m)
    projections = (h.reshape(h.shape[:-2] + (m * m,)) @ np.conj(basis.T)).real
    return projections / np.count_nonzero(basis, axis=1)


def _objective_vectors(vectors: np.ndarray, n_a: int) -> np.ndarray:
    """The objective at a batch of parameter vectors (..., dim): the FD reference's forward."""
    vectors = np.asarray(vectors, dtype=np.float64)
    m = n_a + 4
    u = matrix_entries_from_vectors(vectors, m).reshape((-1, m, m))
    # Batch-major parts layout; conditional_bits reads the transposed views.
    p, garbage = bell_probability_parts(u, n_a)
    return conditional_bits(p.transpose(2, 1, 0), garbage.T).reshape(vectors.shape[:-1])


def _gradient_vector(x: np.ndarray, n_a: int, step: float) -> np.ndarray:
    """Central finite-difference gradient: the test reference for the reverse pass."""
    dim = x.shape[0]
    points = np.repeat(x[None, :], 2 * dim, axis=0)
    idx = np.arange(dim)
    points[idx, idx] += step
    points[dim + idx, idx] -= step
    values = _objective_vectors(points, n_a)
    return (values[:dim] - values[dim:]) / (2.0 * step)


# Earlier forms of the optimizer's passes, compared bit for bit.

def hermitian_from_storage(storage: np.ndarray, m: int) -> np.ndarray:
    """Hermitian matrix from its real storage by index assembly; batch axes pass through."""
    storage = np.asarray(storage, dtype=np.float64)
    h = np.zeros(storage.shape[:-1] + (m, m), dtype=np.complex128)
    diag = np.arange(m)
    h[..., diag, diag] = storage[..., :m]
    if m > 1:
        iu, ju = np.triu_indices(m, k=1)
        off = storage[..., m:].reshape(storage.shape[:-1] + (len(iu), 2))
        upper = off[..., 0] + 1j * off[..., 1]
        h[..., iu, ju] = upper
        h[..., ju, iu] = np.conj(upper)
    return h


def storage_bar_from_hermitian_bar(h_bar: np.ndarray) -> np.ndarray:
    """Gradient on the real storage, given d/dRe H + i d/dIm H over all M^2 entries."""
    m = h_bar.shape[-1]
    iu, ju = np.triu_indices(m, k=1)
    upper, lower = h_bar[iu, ju], h_bar[ju, iu]
    off = np.stack([upper.real + lower.real, upper.imag - lower.imag], axis=-1)
    return np.concatenate([np.diagonal(h_bar).real, off.ravel()])


def matrix_entries_pullback(vector: np.ndarray, m: int):
    """``(u, pullback)`` as :func:`bellopt.unitary.matrix_entries_pullback`."""
    eigvals, eigvecs = np.linalg.eigh(hermitian_from_storage(vector, m))
    u = (eigvecs * np.exp(1j * eigvals)) @ np.conj(eigvecs.T)

    def pullback(u_bar: np.ndarray) -> np.ndarray:
        gap = eigvals[:, None] - eigvals[None, :]
        mean = (eigvals[:, None] + eigvals[None, :]) / 2.0
        divided = 1j * np.exp(1j * mean) * np.sinc(gap / (2.0 * np.pi))
        inner = np.conj(eigvecs.T) @ u_bar @ eigvecs
        h_bar = eigvecs @ (np.conj(divided) * inner) @ np.conj(eigvecs.T)
        return storage_bar_from_hermitian_bar(h_bar)

    return u, pullback


def creation_step(rows: np.ndarray, vec: np.ndarray, level: int, n_modes: int) -> np.ndarray:
    """:func:`bellopt.transfer._creation_step` with shared rows, block by block."""
    sources = _insertion_sources(level, n_modes)
    k = sources.shape[1]
    modes = slice(None)
    if np.count_nonzero(rows) < rows.size:
        modes = rows.reshape(-1, n_modes).any(axis=0)
        rows = rows[..., modes]
    out = np.empty(vec.shape[:-1] + rows.shape[:-1] + (k + 1,), dtype=np.complex128)
    out[..., k] = 0.0
    for start in range(0, k, _GATHER_BLOCK):
        block = slice(start, min(start + _GATHER_BLOCK, k))
        np.matmul(rows, vec.take(sources[modes, block], axis=-1), out=out[..., block])
    return out


def cascade(u: np.ndarray, n_a: int):
    """``(levels, (q1, q2), (a1, a2, a3, a4))``; the top level is one broadcast product."""
    m = n_a + 4
    padded = [np.array([1.0, 0.0], dtype=np.complex128)]
    for j in range(n_a):
        padded.append(creation_step(u[j], padded[-1], j, m))
    qs = creation_step(u[n_a:n_a + 2], padded[-1], n_a, m)
    (a1, a3), (a4, a2) = creation_step(u[n_a + 2:n_a + 4], qs, n_a + 1, m)[..., :-1]
    levels = [level[:-1] for level in padded]
    return levels, (qs[0, :-1], qs[1, :-1]), (a1, a2, a3, a4)


def pull_creation_row(vec, row, level, out_bar):
    """``(vec_bar, row_bar)`` of one creation row, conjugating both on each call."""
    gathered = out_bar[_insertion_targets(level, row.shape[-1])]
    return np.conj(row) @ gathered, gathered @ np.conj(vec)


def bell_probability_pullback(u: np.ndarray, n_a: int):
    """``(p, garbage, pullback)`` as :func:`bellopt.transfer.bell_probability_pullback`."""
    u = np.asarray(u, dtype=np.complex128)
    levels, (q1, q2), (a1, a2, a3, a4) = cascade(u, n_a)
    c = _bosonic_factor_array(n_a + 2, len(u))
    a1[...], a2[...] = a1 + a2, a1 - a2
    a3[...], a4[...] = a3 + a4, a3 - a4
    sums = (a1, a2, a3, a4)
    p = np.empty((4, len(c)))
    for x, s in enumerate(sums):
        np.multiply(c, s.real**2 + s.imag**2, out=p[x])
    leak = 1.0 - p.sum(axis=1)
    garbage = np.maximum(leak, 0.0)

    def pullback(p_bar: np.ndarray, g_bar: np.ndarray) -> np.ndarray:
        p_bar = p_bar - np.where(leak > 0.0, g_bar, 0.0)[:, None]
        s_bar = [2.0 * c * p_bar[x] * sums[x] for x in range(4)]
        a_bar = (s_bar[0] + s_bar[1], s_bar[0] - s_bar[1],
                 s_bar[2] + s_bar[3], s_bar[2] - s_bar[3])
        u_bar = np.zeros_like(u)

        def pull(source, r, level, out_bar):
            source_bar, row_bar = pull_creation_row(source, u[r], level, out_bar)
            u_bar[r] += row_bar
            return source_bar

        q1_bar = pull(q1, n_a + 2, n_a + 1, a_bar[0]) + pull(q1, n_a + 3, n_a + 1, a_bar[2])
        q2_bar = pull(q2, n_a + 3, n_a + 1, a_bar[1]) + pull(q2, n_a + 2, n_a + 1, a_bar[3])
        vec_bar = pull(levels[n_a], n_a, n_a, q1_bar) + pull(levels[n_a], n_a + 1, n_a, q2_bar)
        for j in range(n_a - 1, -1, -1):
            vec_bar = pull(levels[j], j, j, vec_bar)
        return u_bar

    return p, garbage, pullback


def value_and_pullback(x: np.ndarray, n_a: int):
    """The objective at one vector, and a thunk for its gradient, through the references above."""
    u, u_pullback = matrix_entries_pullback(x, n_a + 4)
    p, garbage, p_pullback = bell_probability_pullback(u, n_a)
    f, p_bar, g_bar = conditional_bits_pullback(p.T, garbage)
    return f, lambda: u_pullback(p_pullback(p_bar.T, g_bar))


def one_at_a_time(value_and_pullback):
    """A stack evaluator that replies to each point x alone, ``value_and_pullback(x)``.

    ``value_and_pullback(x)`` returns the value at x and a thunk for the
    gradient there, as :func:`value_and_pullback` does, so each thunk runs
    one reverse pass for its own point.
    """
    return lambda points: [value_and_pullback(x) for x in points]
