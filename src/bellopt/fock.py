"""Fock-state combinatorics: the outcome alphabet as occupation rows.

Conventions fixed here and relied on everywhere else:

* an outcome is an occupation row that indexes modes positionally (entry
  ``k`` is mode ``k + 1``); a single outcome is a tuple of ints,
* outcome enumeration is lexicographically descending on occupations.

Both orders are arbitrary in principle but must be fixed so that amplitudes
and output files reproduce bit-for-bit.

The alphabet of n photons over M modes is one cached (K, M) integer array,
:func:`enumerate_outcomes`; a state's index in it is its rank in the
combinatorial number system (Knuth, TAOCP 4A, 7.2.1.3).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from bellopt.errors import ContractViolationError


def read_only(table: np.ndarray) -> np.ndarray:
    """Mark a cached table read-only: its callers share it, so an edit would reach them all."""
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def enumerate_outcomes(n_photons: int, n_modes: int) -> np.ndarray:
    """Every way to place ``n_photons`` in ``n_modes``, as a read-only (K, M) array.

    Rows are lexicographically descending; K = :func:`outcome_count`. The
    dtype is the smallest unsigned one that holds ``n_photons``.
    """
    if n_photons < 0 or n_modes < 1:
        raise ContractViolationError(
            f"need n_photons >= 0 and n_modes >= 1, got ({n_photons}, {n_modes})"
        )
    # tails[r]: the placements of r photons in the trailing modes, in order.
    tails = [np.full((1, 1), r, dtype=np.min_scalar_type(n_photons))
             for r in range(n_photons + 1)]
    for _ in range(n_modes - 1):
        tails = [np.concatenate([np.insert(tails[r - first], 0, first, axis=1)
                                 for first in range(r, -1, -1)])
                 for r in range(n_photons + 1)]
    return read_only(tails[n_photons])


def outcome_count(n_photons: int, n_modes: int) -> int:
    """Size of the outcome alphabet without enumerating it."""
    return math.comb(n_photons + n_modes - 1, n_modes - 1)
