import json
import math

import numpy as np
import pytest

from reference import storage_from_hermitian
from bellopt.errors import (
    ContractViolationError,
    MatrixFileError,
    UnsupportedConfigurationError,
)
from bellopt.transfer import CircuitMatrix
from bellopt.unitary import (
    CircuitParams,
    conditioned_block_pattern,
    haar_random_unitary,
    hermitian_from_storage,
    matrix_distance_to_unitary,
    matrix_entries_from_vectors,
    matrix_entries_pullback,
    params_to_matrix,
    read_matrix_file,
    sample_conditioned_unitary,
    write_matrix_file,
)


def random_params(m: int, rng: np.random.Generator) -> CircuitParams:
    return CircuitParams(rng.uniform(-1, 1, m * m))


def test_zero_params_give_identity():
    p = CircuitParams(np.zeros(16))
    u = params_to_matrix(p)
    assert np.allclose(u.entries, np.eye(4), atol=1e-14)


def test_params_always_subunitary():
    # exp(iH) is unitary: every singular value is 1.
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(1000):
        p = random_params(4, rng)
        u = params_to_matrix(p)
        worst = max(worst, np.abs(np.linalg.svd(u.entries, compute_uv=False) - 1.0).max())
    assert worst <= 1e-12


def test_hermitian_storage_round_trip():
    rng = np.random.default_rng(8)
    stor = rng.uniform(-2, 2, 36)
    h = hermitian_from_storage(stor, 6)
    assert np.allclose(h, np.conj(h.T))
    assert np.allclose(storage_from_hermitian(h), stor)


def test_hermitian_exponentials_are_unitary():
    rng = np.random.default_rng(21)
    for m in (2, 5, 8):
        v = matrix_entries_from_vectors(rng.uniform(-3, 3, m * m), m)
        assert np.allclose(np.conj(v.T) @ v, np.eye(m), atol=1e-12)


def test_matrix_entries_from_vectors_batched():
    rng = np.random.default_rng(2)
    m = 4
    vecs = rng.uniform(-1, 1, (6, m * m))
    batch = matrix_entries_from_vectors(vecs, m)
    assert np.array_equal(batch, matrix_entries_pullback(vecs, m)[0])
    assert np.array_equal(matrix_entries_from_vectors(vecs.reshape(2, 3, m * m), m),
                          batch.reshape(2, 3, m, m))
    # The length is checked before the batch is flattened: 2 x 8 reals are not one vector of 16.
    with pytest.raises(ContractViolationError, match="needs 16 reals, got 8"):
        matrix_entries_from_vectors(np.zeros((2, 8)), m)
    for i in range(6):
        single = matrix_entries_from_vectors(vecs[i], m)
        assert np.allclose(batch[i], single, atol=1e-14)


def test_params_vector_round_trip():
    rng = np.random.default_rng(4)
    p = random_params(6, rng)
    q = CircuitParams.from_vector(p.to_vector(), 6)
    assert np.array_equal(p.h_gen, q.h_gen)
    assert (q.m, q.dim) == (6, 36)
    with pytest.raises(ContractViolationError):
        CircuitParams.from_vector(p.to_vector()[:-1], 6)
    with pytest.raises(ContractViolationError):
        CircuitParams(np.zeros(35))


def test_haar_single_mode_is_phase():
    u = haar_random_unitary(1, 5)
    assert abs(abs(u.entries[0, 0]) - 1) < 1e-12


def test_haar_unitarity_and_determinism():
    u1 = haar_random_unitary(6, 42)
    u2 = haar_random_unitary(6, 42)
    u3 = haar_random_unitary(6, 43)
    assert np.array_equal(u1.entries, u2.entries)
    assert np.allclose(np.conj(u1.entries.T) @ u1.entries, np.eye(6), atol=1e-12)
    assert np.linalg.norm(u1.entries - u3.entries) > 1e-3


def test_haar_rejects_bad_mode_count():
    with pytest.raises(ContractViolationError):
        haar_random_unitary(0, 1)


def test_matrix_distance_examples():
    assert matrix_distance_to_unitary(CircuitMatrix(np.eye(4))) == pytest.approx(0.0)
    assert matrix_distance_to_unitary(CircuitMatrix(np.zeros((4, 4)))) == pytest.approx(2.0)
    d = np.diag([math.exp(-1.0), 1.0, 1.0, 1.0]).astype(complex)
    assert matrix_distance_to_unitary(CircuitMatrix(d)) == pytest.approx(
        abs(math.exp(-2.0) - 1.0)
    )


def test_conditioned_pattern_rejects_small_or_odd():
    for bad in (0, 2, 3, 5):
        with pytest.raises(UnsupportedConfigurationError):
            conditioned_block_pattern(bad)
        with pytest.raises(UnsupportedConfigurationError):
            sample_conditioned_unitary(bad, 0)


def test_conditioned_pattern_matches_documented_layout():
    blocks = conditioned_block_pattern(6)
    rows = [set(r + 1 for r in b[0]) for b in blocks]
    cols = [set(c + 1 for c in b[1]) for b in blocks]
    assert rows == [{1, 2, 3}, {4, 7, 8}, {5, 6, 9, 10}]
    assert cols == [{1, 2, 3}, {4, 5, 6}, {7, 8, 9, 10}]


@pytest.mark.parametrize("n_a", [4, 6, 8])
def test_conditioned_unitary_is_unitary_with_block_support(n_a):
    u = sample_conditioned_unitary(n_a, 1234)
    m = n_a + 4
    assert np.allclose(np.conj(u.entries.T) @ u.entries, np.eye(m), atol=1e-12)
    allowed = np.zeros((m, m), dtype=bool)
    for rows, cols in conditioned_block_pattern(n_a):
        allowed[np.ix_(rows, cols)] = True
    assert np.all(u.entries[~allowed] == 0.0)


def test_conditioned_unitary_deterministic_per_seed():
    a = sample_conditioned_unitary(6, 9)
    b = sample_conditioned_unitary(6, 9)
    c = sample_conditioned_unitary(6, 10)
    assert np.array_equal(a.entries, b.entries)
    assert np.linalg.norm(a.entries - c.entries) > 1e-3


def test_matrix_file_round_trip(tmp_path):
    u = haar_random_unitary(5, 77)
    path = tmp_path / "matrix.json"
    write_matrix_file(path, u)
    v = read_matrix_file(path)
    assert np.array_equal(u.entries, v.entries)


def test_matrix_file_has_plain_json_shape(tmp_path):
    u = haar_random_unitary(3, 1)
    path = tmp_path / "m.json"
    write_matrix_file(path, u)
    doc = json.loads(path.read_text())
    assert doc["m"] == 3
    assert len(doc["entries"]) == 9
    assert all(len(pair) == 2 for pair in doc["entries"])


def test_matrix_file_parse_error_names_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "m": 2,\n  "entries": [\n    [1, 0],\n    oops\n  ]\n}\n')
    with pytest.raises(MatrixFileError, match="line 5"):
        read_matrix_file(path)


def test_matrix_file_schema_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"m": 2, "entries": [[1, 0]]}\n')
    with pytest.raises(MatrixFileError, match="expected 4 entries"):
        read_matrix_file(path)
    path.write_text('{"m": -1, "entries": []}\n')
    with pytest.raises(MatrixFileError, match="positive integer"):
        read_matrix_file(path)
    path.write_text('{"entries": []}\n')
    with pytest.raises(MatrixFileError, match="fields 'm' and 'entries'"):
        read_matrix_file(path)
    path.write_text('{"m": 1, "entries": [[1, 0, 0]]}\n')
    with pytest.raises(MatrixFileError, match="re, im"):
        read_matrix_file(path)
