import itertools
import math
from typing import Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellopt.errors import ContractViolationError
from bellopt.fock import (
    FockState,
    ModeLabeling,
    bosonic_factor,
    enumerate_outcomes,
    outcome_count,
    to_labeling,
)


# Labeling helpers that only these tests use.

def labeling_to_state(labeling: ModeLabeling, n_modes: int) -> FockState:
    """Occupation histogram of a labeling; inverse of :func:`to_labeling`."""
    occ = [0] * n_modes
    for label in labeling.labels:
        if label > n_modes:
            raise ContractViolationError(f"label {label} exceeds mode count {n_modes}")
        occ[label - 1] += 1
    return FockState(tuple(occ))


def distinct_permutations(labeling: ModeLabeling) -> Iterator[tuple[int, ...]]:
    """Yield every distinct arrangement of the labeling exactly once.

    Ascending lexicographic order, starting from the canonical labeling;
    yields N!/prod(n_k!) arrangements in total.
    """
    a = list(labeling.labels)
    n = len(a)
    if n == 0:
        yield ()
        return
    while True:
        yield tuple(a)
        # Standard next-permutation step; terminates at the descending order.
        i = n - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


def distinct_permutation_count(labeling: ModeLabeling) -> int:
    """Multinomial count N!/prod(n_k!) of distinct arrangements."""
    labels = labeling.labels
    count = math.factorial(len(labels))
    start = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[start]:
            count //= math.factorial(i - start)
            start = i
    return count


def test_enumerate_two_photons_two_modes():
    got = [s.occupations for s in enumerate_outcomes(2, 2)]
    assert got == [(2, 0), (1, 1), (0, 2)]


def test_enumerate_vacuum():
    assert [s.occupations for s in enumerate_outcomes(0, 3)] == [(0, 0, 0)]


def test_enumerate_count_six_photons_eight_modes():
    assert len(enumerate_outcomes(6, 8)) == math.comb(13, 7) == 1716


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(ContractViolationError):
        enumerate_outcomes(-1, 2)
    with pytest.raises(ContractViolationError):
        enumerate_outcomes(2, 0)


@pytest.mark.parametrize("n,m", [(n, m) for n in range(7) for m in range(1, 9)])
def test_enumerate_invariants(n, m):
    states = enumerate_outcomes(n, m)
    assert len(states) == outcome_count(n, m) == math.comb(n + m - 1, m - 1)
    assert len({s.occupations for s in states}) == len(states)
    assert all(s.n == n and s.m == m for s in states)


def test_fock_state_rejects_negative():
    with pytest.raises(ContractViolationError):
        FockState((1, -1))


@pytest.mark.parametrize(
    "occ,labels",
    [((1, 0, 1, 0), (1, 3)), ((3, 0), (1, 1, 1)), ((0, 2, 1), (2, 2, 3))],
)
def test_to_labeling_examples(occ, labels):
    assert to_labeling(FockState(occ)).labels == labels


@pytest.mark.parametrize("bad", [1.5, 1.0, np.float64(2.0), "1", None])
def test_non_integers_are_rejected(bad):
    with pytest.raises(ContractViolationError):
        FockState((bad, 0))
    with pytest.raises(ContractViolationError):
        ModeLabeling((1, bad))


def test_numpy_integers_become_python_ints():
    state = FockState((np.int64(2), np.uint8(0), 1))
    labeling = ModeLabeling((np.intp(1), np.uint16(3)))
    assert state.occupations == (2, 0, 1) and labeling.labels == (1, 3)
    assert all(type(k) is int for k in (*state.occupations, *labeling.labels))


def test_labeling_requires_sorted_one_based():
    with pytest.raises(ContractViolationError):
        ModeLabeling((3, 1))
    with pytest.raises(ContractViolationError):
        ModeLabeling((0, 1))


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5))
def test_labeling_round_trip(occupations):
    state = FockState(tuple(occupations))
    assert labeling_to_state(to_labeling(state), state.m) == state


def test_distinct_permutations_examples():
    assert set(distinct_permutations(ModeLabeling((1, 3)))) == {(1, 3), (3, 1)}
    assert list(distinct_permutations(ModeLabeling((1, 1)))) == [(1, 1)]
    assert len(list(distinct_permutations(ModeLabeling((1, 1, 2))))) == 3


def test_distinct_permutations_empty():
    assert list(distinct_permutations(ModeLabeling(()))) == [()]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=6))
def test_distinct_permutations_match_dedup_oracle(raw):
    labeling = ModeLabeling(tuple(sorted(raw)))
    produced = list(distinct_permutations(labeling))
    expected = set(itertools.permutations(labeling.labels))
    assert len(produced) == len(set(produced)), "duplicates emitted"
    assert set(produced) == expected
    assert len(produced) == distinct_permutation_count(labeling)


def test_bosonic_factor_examples():
    assert bosonic_factor(FockState((1, 1, 0, 0))) == 0.5
    assert bosonic_factor(FockState((1, 0, 1, 0))) == 0.5
    assert bosonic_factor(FockState((2, 0, 0, 0))) == 1.0
    assert bosonic_factor(FockState((3, 1, 0, 0))) == 3.0
