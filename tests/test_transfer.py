import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellopt.conditions import _bunched_indices
from bellopt.errors import ContractViolationError, InvalidMatrixError
from bellopt.fock import enumerate_outcomes, outcome_count
from bellopt.transfer import (
    _GATHER_BLOCK,
    CircuitMatrix,
    _bosonic_factor_array,
    _cascade,
    _insertion_sources,
    _insertion_targets,
    _labels,
    amplitude,
    amplitude_oracle,
    bell_amplitudes,
    bell_input_branches,
    bell_probability_parts,
    bell_probability_pullback,
    outcome_probabilities,
    outcome_table,
    permanent,
)
from bellopt.unitary import _storage_basis, haar_random_unitary, sample_conditioned_unitary


def naive_permanent(a: np.ndarray) -> complex:
    n = a.shape[0]
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        prod = 1.0 + 0.0j
        for i, j in enumerate(perm):
            prod *= a[i, j]
        total += prod
    return total


def reference_compositions(n: int, m: int):
    """Placements of n photons in m modes, descending, one tuple at a time."""
    if m == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in reference_compositions(n - first, m - 1):
            yield (first, *rest)


def reference_insertion_targets(states: list, states_up: list) -> np.ndarray:
    """The insertion maps by a dict lookup of every state plus one photon."""
    index_up = {occ: i for i, occ in enumerate(states_up)}
    m = len(states[0])
    targets = np.empty((m, len(states)), dtype=np.intp)
    for i, occ in enumerate(states):
        for mode in range(m):
            targets[mode, i] = index_up[occ[:mode] + (occ[mode] + 1,) + occ[mode + 1:]]
    return targets


def reference_rank(occ: tuple) -> int:
    """Rank in the combinatorial number system: sum_{k<M-1} C(r_k + M-2-k, M-1-k)."""
    m = len(occ)
    return sum(math.comb(sum(occ[k + 1:]) + m - 2 - k, m - 1 - k) for k in range(m - 1))


def reference_creation_row(vec: np.ndarray, row: np.ndarray, level: int,
                           n_modes: int) -> np.ndarray:
    """One transformed creation operator as one scatter-add per mode."""
    targets = _insertion_targets(level, n_modes)
    out = np.zeros(outcome_count(level + 1, n_modes), dtype=np.complex128)
    for mode in range(n_modes):
        out[targets[mode]] += row[mode] * vec
    return out


def reference_cascade(u: np.ndarray, n_a: int):
    """The cascade's levels, row by row through the scatter-add reference."""
    m = n_a + 4
    levels = [np.ones(1, dtype=np.complex128)]
    for j in range(n_a):
        levels.append(reference_creation_row(levels[-1], u[j], j, m))
    q1 = reference_creation_row(levels[-1], u[n_a], n_a, m)
    q2 = reference_creation_row(levels[-1], u[n_a + 1], n_a, m)
    amps = (reference_creation_row(q1, u[n_a + 2], n_a + 1, m),
            reference_creation_row(q2, u[n_a + 3], n_a + 1, m),
            reference_creation_row(q1, u[n_a + 3], n_a + 1, m),
            reference_creation_row(q2, u[n_a + 2], n_a + 1, m))
    return levels, (q1, q2), amps


def random_subunitary(m: int, seed: int) -> CircuitMatrix:
    """Haar unitary, a diagonal of singular values in (0, 1), Haar unitary."""
    rng = np.random.default_rng(seed)
    left, right = haar_random_unitary(m, rng).entries, haar_random_unitary(m, rng).entries
    return CircuitMatrix(left @ np.diag(rng.uniform(0.5, 1.0, m)) @ right)


def circuit(kind: str, n_a: int, seed: int) -> np.ndarray:
    """An (M, M) test circuit: dense, or with exact zeros the cascade can skip."""
    m = n_a + 4
    if kind == "haar":
        return haar_random_unitary(m, seed).entries
    if kind == "lossy":
        return random_subunitary(m, seed).entries
    if kind == "conditioned":  # block zero pattern; even n_a >= 4 only
        return sample_conditioned_unitary(n_a, seed).entries
    if kind == "permutation":
        return np.eye(m, dtype=np.complex128)[np.random.default_rng(seed).permutation(m)]
    if kind == "zero-column":  # sub-unitary, and no photon reaches one output mode
        u = random_subunitary(m, seed).entries
        u[:, seed % m] = 0.0
        return u
    raise ValueError(kind)


#: (kind, n_a) of every test circuit kind, each at the sizes it exists for.
CIRCUIT_CASES = [
    *((kind, n_a) for kind in ("haar", "lossy", "permutation", "zero-column")
      for n_a in (0, 2, 4, 6)),
    ("conditioned", 4), ("conditioned", 6),
]


def splitter_50_50() -> CircuitMatrix:
    return CircuitMatrix(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))


def test_permanent_small_cases():
    assert permanent(np.zeros((0, 0))) == 1.0 + 0.0j
    assert permanent(np.array([[3.5]])) == pytest.approx(3.5)
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert permanent(a) == pytest.approx(1 * 4 + 2 * 3)


def test_permanent_matches_naive_sum():
    rng = np.random.default_rng(5)
    for n in (3, 4, 5):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert permanent(a) == pytest.approx(naive_permanent(a), abs=1e-10)


def test_amplitude_identity():
    u = CircuitMatrix(np.eye(4))
    state = (1, 1, 0, 0)
    assert amplitude(u, state, state) == pytest.approx(1.0)


def test_hong_ou_mandel_suppression():
    bs = splitter_50_50()
    assert amplitude(bs, (1, 1), (1, 1)) == pytest.approx(0.0, abs=1e-15)
    a20 = amplitude(bs, (1, 1), (2, 0))
    assert a20 == pytest.approx(1 / math.sqrt(2))
    assert abs(a20) ** 2 == pytest.approx(0.5)


def test_amplitude_photon_mismatch_is_contract_violation():
    u = CircuitMatrix(np.eye(3))
    with pytest.raises(ContractViolationError):
        amplitude(u, (1, 0, 0), (1, 1, 0))
    with pytest.raises(ContractViolationError):
        amplitude(u, (1, 0), (1, 0, 0))


def test_negative_occupation_is_rejected():
    u = CircuitMatrix(np.eye(2))
    with pytest.raises(ContractViolationError):
        amplitude(u, (2, -1), (1, 0))
    with pytest.raises(ContractViolationError):
        amplitude_oracle(u, (1, 0), (2, -1))


@pytest.mark.parametrize("bad", [1.5, 1.0, np.float64(2.0), "1", None])
def test_non_integers_are_rejected(bad):
    u = CircuitMatrix(np.eye(4))
    with pytest.raises(ContractViolationError):
        amplitude(u, (bad, 0, 0, 0), (1, 0, 0, 0))
    with pytest.raises(ContractViolationError):
        amplitude_oracle(u, (1, 0, 0, 0), (bad, 0, 0, 0))
    with pytest.raises(ContractViolationError):
        bell_amplitudes(u, (bad, 1, 0, 0), 0)


def test_numpy_integers_are_accepted():
    u = random_subunitary(4, seed=5)
    y = (np.int64(2), np.uint8(0), np.intp(0), 0)
    assert amplitude(u, (1, 1, 0, 0), y) == amplitude(u, (1, 1, 0, 0), (2, 0, 0, 0))
    assert np.array_equal(bell_amplitudes(u, y, 0), bell_amplitudes(u, (2, 0, 0, 0), 0))


@pytest.mark.parametrize("n_a", [0, 2, 4, 6])
def test_array_tables_match_the_per_state_reference(n_a):
    m = n_a + 4
    levels = [list(reference_compositions(level, m)) for level in range(n_a + 3)]
    for level, states in enumerate(levels):
        occ = enumerate_outcomes(level, m)
        assert [tuple(row) for row in occ.tolist()] == states
        assert [reference_rank(y) for y in states] == list(range(len(states)))
        if level <= n_a + 1:
            targets = _insertion_targets(level, m)
            assert np.array_equal(targets,
                                  reference_insertion_targets(states, levels[level + 1]))
            # The gather's map inverts the insertion map and points at the
            # pad, index K_n, exactly where the mode is empty one level up.
            sources = _insertion_sources(level, m)
            assert sources.shape == (m, len(levels[level + 1]))
            assert not sources.flags.writeable and sources.dtype.itemsize <= 4
            for j in range(m):
                assert np.array_equal(sources[j, targets[j]], np.arange(len(states)))
            empty = enumerate_outcomes(level + 1, m).T == 0
            assert np.array_equal(sources == len(states), empty)
    top = levels[n_a + 2]
    assert _bosonic_factor_array(n_a + 2, m).tolist() == [
        0.5 * math.prod(map(math.factorial, y)) for y in top
    ]
    assert _bunched_indices(n_a).tolist() == [
        i for i, y in enumerate(top) if sum(1 for k in y if k) <= 2
    ]


def test_bosonic_factor_examples():
    for occ, factor in (((1, 1, 0, 0), 0.5), ((1, 0, 1, 0), 0.5),
                        ((2, 0, 0, 0), 1.0), ((3, 1, 0, 0), 3.0)):
        n, m = sum(occ), len(occ)
        row = enumerate_outcomes(n, m).tolist().index(list(occ))
        assert _bosonic_factor_array(n, m)[row] == factor


@pytest.mark.parametrize(
    "occ,labels",
    [((1, 0, 1, 0), (0, 2)), ((3, 0), (0, 0, 0)), ((0, 2, 1), (1, 1, 2))],
)
def test_labels_examples(occ, labels):
    assert tuple(_labels(occ).tolist()) == labels


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5))
def test_labels_round_trip(occupations):
    labels = _labels(tuple(occupations))
    assert (np.diff(labels) >= 0).all()
    assert np.bincount(labels, minlength=len(occupations)).tolist() == occupations


@pytest.mark.parametrize("n,m", [(0, 3), (2, 4), (3, 4), (4, 5)])
def test_label_arrangements_match_bosonic_factor(n, m):
    """Each row has n!/prod(k!) = n!/(2c) distinct photon-to-mode arrangements."""
    factors = _bosonic_factor_array(n, m)
    for occ, c in zip(enumerate_outcomes(n, m).tolist(), factors):
        arrangements = set(itertools.permutations(_labels(tuple(occ)).tolist()))
        assert len(arrangements) * 2 * c == math.factorial(n)


def test_cached_tables_are_read_only():
    # An in-place edit of a shared table would corrupt every later forward
    # and gradient in the process.
    n_a, m = 2, 6
    tables = {
        "enumerate_outcomes": enumerate_outcomes(n_a + 2, m),
        "_insertion_targets": _insertion_targets(n_a + 1, m),
        "_insertion_sources": _insertion_sources(n_a + 1, m),
        "_bosonic_factor_array": _bosonic_factor_array(n_a + 2, m),
        "_bunched_indices": _bunched_indices(n_a),
        "_storage_basis": _storage_basis(m),
    }
    assert [name for name, table in tables.items() if table.flags.writeable] == []


def test_oracle_identity_and_splitter():
    assert amplitude_oracle(
        CircuitMatrix(np.eye(3)), (1, 1, 0), (1, 1, 0)
    ) == pytest.approx(1.0)
    assert amplitude_oracle(
        splitter_50_50(), (1, 1), (2, 0)
    ) == pytest.approx(1 / math.sqrt(2))


def test_oracle_refuses_beyond_desk_scale():
    u = CircuitMatrix(np.eye(6))
    with pytest.raises(ContractViolationError, match="oracle caps"):
        amplitude_oracle(u, (1, 1, 1, 1, 1, 0), (1, 1, 1, 1, 1, 0))
    with pytest.raises(ContractViolationError, match="oracle caps"):
        amplitude_oracle(
            CircuitMatrix(np.eye(7)),
            (1, 0, 0, 0, 0, 0, 0),
            (1, 0, 0, 0, 0, 0, 0),
        )


def test_amplitude_matches_oracle_on_random_subunitaries():
    rng = np.random.default_rng(99)
    for seed in range(25):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, min(4, m) + 1))
        u = random_subunitary(m, 1000 + seed)
        states = enumerate_outcomes(n, m).tolist()
        for _ in range(3):
            src = tuple(states[rng.integers(len(states))])
            dst = tuple(states[rng.integers(len(states))])
            assert amplitude(u, src, dst) == pytest.approx(
                amplitude_oracle(u, src, dst), abs=1e-10
            )


def test_unitary_norm_preservation():
    rng = np.random.default_rng(11)
    for m, n in ((4, 2), (5, 3), (6, 4)):
        u = haar_random_unitary(m, int(rng.integers(1 << 31)))
        states = [tuple(row) for row in enumerate_outcomes(n, m).tolist()]
        total = sum(abs(amplitude(u, states[0], dst)) ** 2 for dst in states)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_bell_amplitudes_identity_examples():
    ident = CircuitMatrix(np.eye(4))
    amps = bell_amplitudes(ident, (1, 0, 1, 0), 0)
    assert amps == pytest.approx([1, 0, 0, 0])
    amps = bell_amplitudes(ident, (2, 0, 0, 0), 0)
    assert amps == pytest.approx([0, 0, 0, 0])
    amps = bell_amplitudes(ident, (1, 0, 0, 1), 0)
    assert amps == pytest.approx([0, 0, 1, 0])


def test_bell_amplitudes_dimension_checks():
    with pytest.raises(ContractViolationError):
        bell_amplitudes(CircuitMatrix(np.eye(4)), (1, 0, 1, 0), 2)
    with pytest.raises(ContractViolationError):
        bell_amplitudes(CircuitMatrix(np.eye(4)), (2, 0, 1, 0), 0)


def test_outcome_table_identity():
    table = outcome_table(CircuitMatrix(np.eye(4)), 0)
    rows = dict(zip(map(tuple, table.occupations.tolist()), table.p))
    assert rows[(1, 0, 1, 0)] == pytest.approx([0.5, 0.5, 0, 0])
    assert rows[(0, 1, 0, 1)] == pytest.approx([0.5, 0.5, 0, 0])
    assert rows[(1, 0, 0, 1)] == pytest.approx([0, 0, 0.5, 0.5])
    assert rows[(0, 1, 1, 0)] == pytest.approx([0, 0, 0.5, 0.5])
    assert table.garbage == pytest.approx([0, 0, 0, 0])
    # every other outcome carries nothing for x = 1
    for state, row in rows.items():
        if state not in {(1, 0, 1, 0), (0, 1, 0, 1)}:
            assert row[0] == 0.0


def test_outcome_table_zero_matrix_leaks_everything():
    table = outcome_table(CircuitMatrix(np.zeros((4, 4))), 0)
    assert table.p == pytest.approx(np.zeros((10, 4)))
    assert table.garbage == pytest.approx([1, 1, 1, 1])


def test_outcome_table_identity_bunching_is_exact_zero():
    table = outcome_table(CircuitMatrix(np.eye(6)), 2)
    bunched = table.occupations.max(axis=1) >= 2
    assert bunched.any() and (table.p[bunched] == 0.0).all()


def test_outcome_table_columns_normalized_haar():
    u = haar_random_unitary(6, 123)
    table = outcome_table(u, 2)
    sums = table.p.sum(axis=0) + table.garbage
    assert sums == pytest.approx([1, 1, 1, 1], abs=1e-9)


def test_outcome_table_rejects_super_unitary():
    with pytest.raises(InvalidMatrixError):
        outcome_table(CircuitMatrix(1.5 * np.eye(4)), 0)


def test_outcome_table_rejects_wrong_size():
    with pytest.raises(ContractViolationError):
        outcome_table(CircuitMatrix(np.eye(4)), 2)


@pytest.mark.parametrize("n_a", range(7))
def test_outcome_probabilities_equal_the_cascade_bit_for_bit(n_a):
    """One probability rule: the per-row form reads the cascade's p to the last bit."""
    c = _bosonic_factor_array(n_a + 2, n_a + 4)
    for seed in (1, 2):
        u = haar_random_unitary(n_a + 4, 60 + 10 * n_a + seed).entries
        amps = _cascade(u[None], n_a)[2][0]
        p = bell_probability_pullback(u, n_a)[0]
        assert np.array_equal(outcome_probabilities(amps.T, c).T, p)


@pytest.mark.parametrize("n_a", [0, 2])
def test_bell_probabilities_consistent_with_branch_amplitudes(n_a):
    """p(y|x) from the four permanent sums equals the direct two-branch evaluation."""
    u = random_subunitary(n_a + 4, seed=7 + n_a)
    table = outcome_table(u, n_a)
    for state, row in zip(map(tuple, table.occupations.tolist()), table.p):
        amps = bell_amplitudes(u, state, n_a)
        c = 0.5 * math.prod(map(math.factorial, state))
        assert row == pytest.approx(outcome_probabilities(amps, c), abs=1e-10)
        for x in (1, 2, 3, 4):
            branch_a, branch_b, sign = bell_input_branches(x, n_a)
            amp = (
                amplitude(u, branch_a, state) + sign * amplitude(u, branch_b, state)
            ) / np.sqrt(2.0)
            assert row[x - 1] == pytest.approx(abs(amp) ** 2, abs=1e-10)


@pytest.mark.parametrize("n_a", [0, 2, 4])
def test_batched_entry_points_equal_single_matrices(n_a):
    m = n_a + 4
    k = len(enumerate_outcomes(n_a + 2, m))
    mats = np.stack([random_subunitary(m, 60 + i).entries for i in range(6)])
    p, garbage = bell_probability_parts(mats, n_a)
    assert p.shape == (4, k, 6) and garbage.shape == (4, 6)
    for b, u in enumerate(mats):
        p_one, g_one, _ = bell_probability_pullback(u, n_a)
        assert np.array_equal(p[:, :, b], p_one)
        assert np.array_equal(garbage[:, b], g_one)


@pytest.mark.parametrize(("n_a", "conditioned"), [(0, False), (2, False), (4, False), (4, True)],
                         ids=["0", "2", "4", "conditioned-4"])
def test_bell_probability_pullback_matches_finite_differences(n_a, conditioned):
    # Pull back fixed cotangents through (p, garbage)(U) on a lossy matrix,
    # so the garbage term passes gradient: the gradient of
    # sum(P * p) + sum(G * garbage) over Re U and Im U. The conditioned
    # matrix's zeros send its forward through the restricted gather, whose
    # levels the reverse pass reads.
    m = n_a + 4
    u = (0.9 * circuit("conditioned", n_a, 80) if conditioned
         else random_subunitary(m, 80 + n_a).entries)
    rng = np.random.default_rng(n_a)
    p, garbage, pullback = bell_probability_pullback(u, n_a)
    p_cot, g_cot = rng.standard_normal(p.shape), rng.standard_normal(4)
    assert np.all(garbage > 0.05)
    g = pullback(p_cot, g_cot)

    def f(v):
        p_v, garbage_v, _ = bell_probability_pullback(v, n_a)
        return float((p_cot * p_v).sum() + (g_cot * garbage_v).sum())

    step = 1e-6
    reference = np.zeros((m, m), dtype=np.complex128)
    for index in np.ndindex(m, m):
        for unit in (1.0, 1j):
            e = np.zeros((m, m), dtype=np.complex128)
            e[index] = step * unit
            reference[index] += unit * (f(u + e) - f(u - e)) / (2.0 * step)
    assert np.linalg.norm(g - reference) <= 1e-6 * np.linalg.norm(reference)


@pytest.mark.parametrize(("kind", "n_a"), CIRCUIT_CASES, ids=[f"{k}-{n}" for k, n in CIRCUIT_CASES])
def test_gather_cascade_matches_the_scatter_reference(kind, n_a):
    m = n_a + 4
    u = circuit(kind, n_a, 40 + n_a)
    got_levels, got_qs, got_amps = _cascade(u[None], n_a)  # a stack of one
    want_levels, want_qs, want_amps = reference_cascade(u, n_a)
    got = [*(level[0] for level in got_levels), *got_qs[0], *got_amps[0]]
    want = [*want_levels, *want_qs, *want_amps]
    assert len(got) == len(want) == n_a + 7
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-12
    want_p = outcome_probabilities(np.stack(want_amps, axis=-1), _bosonic_factor_array(n_a + 2, m))
    assert np.max(np.abs(outcome_table(CircuitMatrix(u), n_a).p - want_p)) <= 1e-12
    if n_a == 6:  # K = 11,440 and 24,310: both top levels span several blocks
        assert got_qs.shape[-1] > 2 * _GATHER_BLOCK and got_amps.shape[-1] > 2 * _GATHER_BLOCK


def test_forward_caches_only_its_map_and_bounds_its_peak():
    _insertion_targets.cache_clear()
    _insertion_sources.cache_clear()
    u = haar_random_unitary(10, 5)
    outcome_table(u, 6)
    assert _insertion_targets.cache_info().currsize == 0
    assert _insertion_sources.cache_info().currsize == 8  # one map per level step
    tracemalloc.start()
    try:
        outcome_table(u, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The scatter-add kernel this replaced peaked at 3.414 MB in this warm
    # N_a = 6 table; the bound is 5% above it, as the benchmark's RSS gate.
    assert peak < 1.05 * 3.414e6
