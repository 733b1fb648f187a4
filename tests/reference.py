"""Earlier forms of the optimizer's forward and reverse passes, kept as exact references.

Each function here does the same arithmetic as its production counterpart in
a different arrangement of numpy calls: the generator is assembled by fancy
indexing rather than by one product with a basis, the cascade's top level is
one broadcast product, and the reverse pass pulls one creation row at a
time, accumulating ``u_bar[r] +=``. The production code must match these bit
for bit, so the tests compare with ``np.array_equal``; both sides run in one
process, on one BLAS.
"""

import numpy as np

from bellopt.infometrics import conditional_bits_pullback
from bellopt.transfer import (
    _GATHER_BLOCK,
    _bosonic_factor_array,
    _insertion_sources,
    _insertion_targets,
)


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
    """A stack evaluator ``(values, pull)`` that answers each point x alone.

    ``value_and_pullback(x)`` returns the value at x and a thunk for the
    gradient there, as :func:`value_and_pullback` does; ``pull(items)``
    stacks the picked rows' thunks, one reverse pass per row.
    """

    def evaluate(points):
        values, thunks = zip(*map(value_and_pullback, points))
        return values, lambda items: np.array([thunks[item]() for item in items])

    return evaluate
