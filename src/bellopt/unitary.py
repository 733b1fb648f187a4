"""Circuit-matrix parametrization, random sampling, and matrix file I/O.

A circuit is searched as U = exp(i*H) for one Hermitian generator H, so an
unconstrained real parameter vector of length M^2, the dimension of U(M),
always yields a unitary circuit and every coordinate moves it. H is the
product of the vector with one cached (M^2, M^2) basis matrix B, and the
gradient on the vector is Re(conj(B) @ vec(dH)); both products are exact.
The Hermitian exponential goes through an eigendecomposition, which keeps U
unitary to machine precision; :func:`matrix_entries_pullback` differentiates
it in reverse through the Daleckii-Krein divided differences of that
eigendecomposition. Matrices read from files may be sub-unitary.

All randomness is driven by numpy's PCG64 generator through explicit seeds;
callers that need several independent streams split them via
``numpy.random.SeedSequence`` spawning.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from bellopt.errors import (
    ContractViolationError,
    MatrixFileError,
    UnsupportedConfigurationError,
)
from bellopt.fock import read_only
from bellopt.transfer import CircuitMatrix

#: Generator recorded in output metadata so runs can be reproduced exactly.
RNG_ALGORITHM = "numpy-pcg64"


@dataclass(frozen=True)
class CircuitParams:
    """Unconstrained real parameters behind one unitary circuit matrix.

    ``h_gen`` holds the M^2 reals of the Hermitian generator H: its diagonal
    first, then real/imaginary pairs of the upper triangle, row-major.
    """

    h_gen: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h_gen, dtype=np.float64)
        m = math.isqrt(h.shape[0]) if h.ndim == 1 else 0
        if h.ndim != 1 or m * m != h.shape[0]:
            raise ContractViolationError(f"generator needs M^2 reals, got shape {h.shape}")
        object.__setattr__(self, "h_gen", h)

    @property
    def m(self) -> int:
        return math.isqrt(self.h_gen.shape[0])

    @property
    def dim(self) -> int:
        return self.h_gen.shape[0]

    def to_vector(self) -> np.ndarray:
        return self.h_gen.copy()

    @classmethod
    def from_vector(cls, vector: np.ndarray, m: int) -> "CircuitParams":
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (m * m,):
            raise ContractViolationError(
                f"parameter vector for m={m} must have length {m * m}, got {vector.shape}"
            )
        return cls(vector)


@lru_cache(maxsize=None)
def _storage_basis(m: int) -> np.ndarray:
    """Read-only (M^2, M^2) complex basis B with vec(H) = storage @ B.

    Row k is the Hermitian matrix that stored real k multiplies: a unit on
    the diagonal, or 1 (real part) or i (imaginary part) at an upper entry
    with its conjugate at the mirrored one. Every nonzero entry has modulus
    1 and each product sums one or two of them with zeros, so the matrix
    products below are exact.
    """
    basis = np.zeros((m * m, m, m), dtype=np.complex128)
    diag = np.arange(m)
    basis[diag, diag, diag] = 1.0
    iu, ju = np.triu_indices(m, k=1)
    re = m + 2 * np.arange(len(iu))
    basis[re, iu, ju] = basis[re, ju, iu] = 1.0
    basis[re + 1, iu, ju], basis[re + 1, ju, iu] = 1j, -1j
    return read_only(basis.reshape(m * m, m * m))


def hermitian_from_storage(storage: np.ndarray, m: int) -> np.ndarray:
    """Hermitian matrix from its real storage; batch axes pass through."""
    storage = np.asarray(storage, dtype=np.float64)
    if storage.shape[-1] != m * m:
        raise ContractViolationError(
            f"storage for m={m} needs {m * m} reals, got {storage.shape[-1]}"
        )
    # A real product with B's (re, im) pairs, read back as complex.
    h = storage @ _storage_basis(m).view(np.float64)
    return h.view(np.complex128).reshape(storage.shape[:-1] + (m, m))


def matrix_entries_from_vectors(vectors: np.ndarray, m: int) -> np.ndarray:
    """Circuit matrices (..., M^2) -> (..., M, M): the U of :func:`matrix_entries_pullback`."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.shape[-1] != m * m:
        raise ContractViolationError(
            f"storage for m={m} needs {m * m} reals, got {vectors.shape[-1]}")
    u = matrix_entries_pullback(vectors.reshape(-1, m * m), m)[0]
    return u.reshape(vectors.shape[:-1] + (m, m))


def matrix_entries_pullback(vectors: np.ndarray, m: int):
    """Circuit matrices for one vector (M^2,) or a stack (B, M^2), plus the map back.

    Returns ``(u, pullback)`` where ``u`` is exp(i*H) of each vector, as
    :func:`matrix_entries_from_vectors` returns it, and
    ``pullback(u_bar, item=0)`` turns the gradient of a real function with
    respect to one matrix (stored as d/dRe U + i d/dIm U) into its gradient
    over that matrix's M^2 parameters. ``item`` picks the matrix of a stack:
    an int, with ``u_bar`` (M, M) and a result (M^2,), or an index array
    (n,), with ``u_bar`` (n, M, M) and a result (n, M^2). One vector is a
    stack of one, and every product runs per matrix on matmul's batch axis,
    so every matrix of a stack, pulled alone or with others, gets the
    numbers it would get alone.

    Daleckii-Krein: with H = Q diag(w) Q^dag, the derivative of exp(i*H) is
    Q (F o (Q^dag dH Q)) Q^dag with divided differences
    F_jk = (e^{i w_j} - e^{i w_k}) / (w_j - w_k), which tend to i e^{i w_j}
    as w_k -> w_j. Written as i e^{i (w_j + w_k)/2} sinc((w_j - w_k) / 2pi),
    the same expression covers equal and nearly equal eigenvalues.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim not in (1, 2) or vectors.shape[-1] != m * m:
        raise ContractViolationError(
            f"parameter vector for m={m} must have length {m * m}, got {vectors.shape}"
        )
    eigvals, eigvecs = np.linalg.eigh(hermitian_from_storage(vectors.reshape(-1, m * m), m))
    eigvecs_h = np.conj(eigvecs.swapaxes(-1, -2))
    u = (eigvecs * np.exp(1j * eigvals)[:, None, :]) @ eigvecs_h

    def pullback(u_bar: np.ndarray, item=0) -> np.ndarray:
        w, q, q_h = eigvals[item], eigvecs[item], eigvecs_h[item]
        gap = w[..., :, None] - w[..., None, :]
        mean = (w[..., :, None] + w[..., None, :]) / 2.0
        divided = 1j * np.exp(1j * mean) * np.sinc(gap / (2.0 * np.pi))
        inner = q_h @ u_bar @ q
        h_bar = q @ (np.conj(divided) * inner) @ q_h
        # Re(conj(B) @ vec(h_bar)) over the storage basis B of
        # hermitian_from_storage: each real gets its one or two entries,
        # one matrix-vector product per matrix.
        h_flat = h_bar.reshape(h_bar.shape[:-2] + (m * m,)).view(np.float64)
        return (_storage_basis(m).view(np.float64) @ h_flat[..., None])[..., 0]

    return u.reshape(vectors.shape[:-1] + (m, m)), pullback


def params_to_matrix(params: CircuitParams) -> CircuitMatrix:
    """U = exp(i*H); unitary by construction."""
    return CircuitMatrix(matrix_entries_from_vectors(params.to_vector(), params.m))


def matrix_distance_to_unitary(u: CircuitMatrix) -> float:
    """Frobenius norm of U^dag U - I; zero exactly when U is an isometry."""
    gram = np.conj(u.entries.T) @ u.entries
    return float(np.linalg.norm(gram - np.eye(u.m)))


def _haar_entries(rng: np.random.Generator, m: int) -> np.ndarray:
    """Haar-distributed unitary block: QR of a complex Gaussian with phase fix."""
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def haar_random_unitary(m: int, seed) -> CircuitMatrix:
    """Haar-random M x M unitary, deterministic per seed."""
    if m < 1:
        raise ContractViolationError(f"mode count must be >= 1, got {m}")
    return CircuitMatrix(_haar_entries(np.random.default_rng(seed), m))


def conditioned_block_pattern(n_a: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Row/column partition (0-based) behind :func:`sample_conditioned_unitary`.

    Three disjoint blocks: one purely ancillary block, one block mixing a
    single ancilla with the first qubit-row pair, one mixing the remaining two
    ancillas with the second qubit-row pair. Disjoint supports make the zero
    pattern and unitarity exact simultaneously.
    """
    if n_a < 4 or n_a % 2 != 0:
        raise UnsupportedConfigurationError(
            f"conditioned construction needs even n_a >= 4, got {n_a}"
        )
    spare = n_a - 3
    rows_a = tuple(range(spare))
    rows_b1 = (spare, n_a, n_a + 1)
    rows_b2 = (spare + 1, spare + 2, n_a + 2, n_a + 3)
    cols_a = tuple(range(spare))
    cols_b1 = (spare, spare + 1, spare + 2)
    cols_b2 = tuple(range(n_a, n_a + 4))
    return ((rows_a, cols_a), (rows_b1, cols_b1), (rows_b2, cols_b2))


def sample_conditioned_unitary(n_a: int, seed) -> CircuitMatrix:
    """Random unitary whose zero pattern passes the per-column no-go conditions.

    Built block-diagonally (up to a fixed row scattering) from three
    independent Haar blocks; the checker in :mod:`bellopt.conditions` is the
    source of truth for the property, this is just one way to realize it.
    """
    blocks = conditioned_block_pattern(n_a)
    rng = np.random.default_rng(seed)
    m = n_a + 4
    entries = np.zeros((m, m), dtype=np.complex128)
    for rows, cols in blocks:
        entries[np.ix_(rows, cols)] = _haar_entries(rng, len(rows))
    return CircuitMatrix(entries)


# ---------------------------------------------------------------------------
# Matrix file format (shared with the CLI)
# ---------------------------------------------------------------------------

def write_matrix_file(path, u: CircuitMatrix) -> None:
    """Write a matrix as JSON {"m": int, "entries": [[re, im], ...]} row-major.

    Floats carry 17 significant digits so parse(write(x)) round-trips exactly.
    """
    flat = u.entries.ravel()
    lines = ["{", f'  "m": {u.m},', '  "entries": [']
    last = len(flat) - 1
    for i, z in enumerate(flat):
        comma = "," if i < last else ""
        lines.append(f"    [{z.real:.17g}, {z.imag:.17g}]{comma}")
    lines.extend(["  ]", "}"])
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix_file(path) -> CircuitMatrix:
    """Parse a matrix file written by :func:`write_matrix_file`."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MatrixFileError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"{path}: parse error at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:
        # json raises a bare ValueError for an integer literal longer than
        # the interpreter's digit limit (sys.get_int_max_str_digits).
        raise MatrixFileError(f"{path}: parse error: an integer has too many digits") from exc
    if not isinstance(doc, dict) or "m" not in doc or "entries" not in doc:
        raise MatrixFileError(f"{path}: expected an object with fields 'm' and 'entries'")
    m = doc["m"]
    # bool subclasses int, but JSON true/false are not numbers.
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise MatrixFileError(f"{path}: field 'm' must be a positive integer, got {m!r}")
    entries = doc["entries"]
    if not isinstance(entries, list) or len(entries) != m * m:
        raise MatrixFileError(
            f"{path}: expected {m * m} entries for m={m}, got "
            f"{len(entries) if isinstance(entries, list) else type(entries).__name__}"
        )
    values = []
    for i, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
        ):
            raise MatrixFileError(f"{path}: entry {i} must be a [re, im] pair, got {pair!r}")
        try:
            re_part, im_part = float(pair[0]), float(pair[1])
        except OverflowError as exc:
            raise MatrixFileError(f"{path}: entry {i} is too large for a float") from exc
        if not (math.isfinite(re_part) and math.isfinite(im_part)):
            raise MatrixFileError(f"{path}: entry {i} is not finite: {pair!r}")
        values.append(complex(re_part, im_part))
    return CircuitMatrix(np.array(values, dtype=np.complex128).reshape(m, m))
