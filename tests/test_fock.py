import math

import numpy as np
import pytest

from bellopt.errors import ContractViolationError
from bellopt.fock import enumerate_outcomes, outcome_count


def test_enumerate_two_photons_two_modes():
    assert enumerate_outcomes(2, 2).tolist() == [[2, 0], [1, 1], [0, 2]]


def test_enumerate_vacuum():
    assert enumerate_outcomes(0, 3).tolist() == [[0, 0, 0]]


def test_enumerate_count_six_photons_eight_modes():
    assert len(enumerate_outcomes(6, 8)) == math.comb(13, 7) == 1716


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(ContractViolationError):
        enumerate_outcomes(-1, 2)
    with pytest.raises(ContractViolationError):
        enumerate_outcomes(2, 0)


@pytest.mark.parametrize("n,m", [(n, m) for n in range(7) for m in range(1, 9)])
def test_enumerate_invariants(n, m):
    occ = enumerate_outcomes(n, m)
    assert occ.shape == (outcome_count(n, m), m)
    assert len(occ) == math.comb(n + m - 1, m - 1)
    assert np.issubdtype(occ.dtype, np.unsignedinteger)
    assert not occ.flags.writeable
    assert (occ.sum(axis=1) == n).all()
    assert len(np.unique(occ, axis=0)) == len(occ)
