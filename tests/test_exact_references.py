"""The optimizer's forward and reverse passes equal their earlier forms bit for bit."""

from functools import partial

import numpy as np
import pytest

import reference
from reference import storage_from_hermitian
from bellopt.fock import outcome_count
from bellopt.optimizer import (
    _bfgs_descent,
    _lockstep,
    _value_and_pullback,
    _values_and_pullbacks,
    initial_vector,
)
from bellopt.transfer import _pull_creation_row, bell_probability_pullback
from bellopt.unitary import (
    haar_random_unitary,
    hermitian_from_storage,
    matrix_entries_pullback,
)

N_AS = (0, 1, 2, 3, 4)
KINDS = ("haar", "scaled-haar", "permutation", "zero-column")


def circuit(kind: str, n_a: int, seed: int) -> np.ndarray:
    """An (M, M) circuit: unitary, lossy (garbage > 0), or with exact zeros."""
    m = n_a + 4
    u = haar_random_unitary(m, seed).entries
    if kind == "scaled-haar":
        return 0.9 * u
    if kind == "permutation":
        return np.eye(m, dtype=np.complex128)[np.random.default_rng(seed).permutation(m)]
    if kind == "zero-column":
        u = 0.9 * u
        u[:, seed % m] = 0.0
    return u


@pytest.mark.parametrize("m", [1, 2, 4, 6, 8])
def test_generator_assembly_matches_index_assembly(m):
    rng = np.random.default_rng(m)
    single, batch = rng.uniform(-3, 3, m * m), rng.uniform(-3, 3, (2, 3, m * m))
    for storage in (single, batch):
        h = hermitian_from_storage(storage, m)
        assert np.array_equal(h, reference.hermitian_from_storage(storage, m))
    assert np.array_equal(storage_from_hermitian(h), batch)


@pytest.mark.parametrize("n_a", N_AS)
def test_unitary_pullback_matches_index_reference(n_a):
    m = n_a + 4
    rng = np.random.default_rng(30 + n_a)
    x = initial_vector(n_a, 0.5, rng)
    u_bar = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    u, pullback = matrix_entries_pullback(x, m)
    want_u, want_pullback = reference.matrix_entries_pullback(x, m)
    assert np.array_equal(u, want_u)
    assert np.array_equal(pullback(u_bar), want_pullback(u_bar))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n_a", N_AS)
def test_probability_pullback_matches_per_pull_reference(kind, n_a):
    u = circuit(kind, n_a, 50 + n_a)
    p, garbage, pullback = bell_probability_pullback(u, n_a)
    want_p, want_garbage, want_pullback = reference.bell_probability_pullback(u, n_a)
    assert np.array_equal(p, want_p) and np.array_equal(garbage, want_garbage)
    rng = np.random.default_rng(n_a)
    p_bar, g_bar = rng.standard_normal(p.shape), rng.standard_normal(4)
    assert np.array_equal(pullback(p_bar, g_bar), want_pullback(p_bar, g_bar))


@pytest.mark.parametrize("n_a", N_AS)
def test_stacked_creation_row_pull_equals_each_row_alone(n_a):
    # The reverse pass pulls a stack of creation rows at once; each item
    # must get the numbers its row gets alone, at every level of the cascade.
    m = n_a + 4
    rng = np.random.default_rng(60 + n_a)

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for level in range(n_a + 2):
        vec, row = draw(3, outcome_count(level, m)), draw(3, m)
        out_bar = draw(3, outcome_count(level + 1, m))
        vec_bar, row_bar = _pull_creation_row(vec, row, level, out_bar)
        assert row_bar.shape == (3, m)
        for i in range(3):
            want_vec, want_row = _pull_creation_row(vec[i], row[i], level, out_bar[i])
            assert np.array_equal(row_bar[i], want_row)
            if level == 0:
                assert vec_bar is None and want_vec is None
            else:
                assert np.array_equal(vec_bar[i], want_vec)


@pytest.mark.parametrize("rows", [[0], [0, 1, 2, 1, 3]], ids=["one", "repeated-row"])
@pytest.mark.parametrize("n_a", [0, 2, 4])
def test_stacked_evaluation_equals_each_row_alone(n_a, rows):
    # Each row of one stacked forward gets the value and the gradient it gets
    # alone and from the references, with the gradients read in any order:
    # one row per pull, or several rows, out of order and repeated, in one.
    rng = np.random.default_rng(40 + n_a)
    points = np.stack([initial_vector(n_a, 0.5, rng) for _ in range(4)])[rows]
    values, pull = _values_and_pullbacks(points, n_a)
    assert len(values) == len(rows)
    gradients = [pull([row])[0] for row in reversed(range(len(rows)))][::-1]
    for x, f, g in zip(points, values, gradients):
        f_alone, pull_alone = _value_and_pullback(x, n_a)
        want_f, want_pull = reference.value_and_pullback(x, n_a)
        assert type(f) is float and f == f_alone == want_f
        assert np.array_equal(g, pull_alone()) and np.array_equal(g, want_pull())
    items = [len(rows) - 1, 0, len(rows) - 1, len(rows) // 2]
    pulled = pull(items)
    assert pulled.shape == (len(items), points.shape[1])
    for item, g in zip(items, pulled):
        want_pull = reference.value_and_pullback(points[item], n_a)[1]
        assert np.array_equal(g, gradients[item]) and np.array_equal(g, want_pull())


@pytest.mark.parametrize("n_a", [0, 2])
def test_descent_trace_matches_reference_pullbacks(n_a):
    x0 = initial_vector(n_a, 0.5, np.random.default_rng(9 + n_a))
    [(x, f, stats)] = _lockstep([_bfgs_descent(x0, 40)], partial(_values_and_pullbacks, n_a=n_a))
    [(want_x, want_f, want_stats)] = _lockstep(
        [_bfgs_descent(x0, 40)],
        reference.one_at_a_time(partial(reference.value_and_pullback, n_a=n_a)))
    assert stats["backtracks"] > 0  # rejected trials are on the compared path too
    assert stats == want_stats
    assert f == want_f and np.array_equal(x, want_x)
