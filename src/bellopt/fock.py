"""Fock-state combinatorics: outcome enumeration, photon labelings, bosonic factors.

Conventions fixed here and relied on everywhere else:

* occupation vectors index modes positionally (entry ``k`` is mode ``k + 1``),
* photon labels are 1-based mode numbers, stored sorted non-decreasing
  (the canonical labeling),
* outcome enumeration is lexicographically descending on occupations.

Both orders are arbitrary in principle but must be fixed so that amplitudes
and output files reproduce bit-for-bit.

The alphabet of n photons over M modes is one cached (K, M) integer array,
:func:`occupation_array`; a state's index in it is its rank in the
combinatorial number system (Knuth, TAOCP 4A, 7.2.1.3). :class:`FockState`
objects are built from its rows only where a caller asks for them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from bellopt.errors import ContractViolationError


def _integers(values) -> tuple[int, ...]:
    try:
        return tuple(map(operator.index, values))
    except TypeError as exc:
        raise ContractViolationError(f"expected integers, got {tuple(values)}") from exc


@dataclass(frozen=True)
class FockState:
    """Photon occupation numbers, one entry per optical mode."""

    occupations: tuple[int, ...]

    def __post_init__(self):
        occ = _integers(self.occupations)
        if any(n < 0 for n in occ):
            raise ContractViolationError(f"negative occupation in {occ}")
        object.__setattr__(self, "occupations", occ)

    @property
    def n(self) -> int:
        """Total photon number."""
        return sum(self.occupations)

    @property
    def m(self) -> int:
        """Number of modes."""
        return len(self.occupations)

    def __str__(self) -> str:
        return "(" + ",".join(str(k) for k in self.occupations) + ")"


@dataclass(frozen=True)
class ModeLabeling:
    """Mode location of each photon, sorted non-decreasing (canonical form)."""

    labels: tuple[int, ...]

    def __post_init__(self):
        labels = _integers(self.labels)
        if any(x < 1 for x in labels):
            raise ContractViolationError(f"mode labels are 1-based, got {labels}")
        if any(a > b for a, b in zip(labels, labels[1:])):
            raise ContractViolationError(f"labeling not sorted: {labels}")
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return len(self.labels)


def read_only(table: np.ndarray) -> np.ndarray:
    """Mark a cached table read-only: its callers share it, so an edit would reach them all."""
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def occupation_array(n_photons: int, n_modes: int) -> np.ndarray:
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


@lru_cache(maxsize=None)
def enumerate_outcomes(n_photons: int, n_modes: int) -> tuple[FockState, ...]:
    """The rows of :func:`occupation_array` as :class:`FockState` objects."""
    return tuple(FockState(tuple(row)) for row in occupation_array(n_photons, n_modes).tolist())


def outcome_count(n_photons: int, n_modes: int) -> int:
    """Size of the outcome alphabet without enumerating it."""
    return math.comb(n_photons + n_modes - 1, n_modes - 1)


def to_labeling(state: FockState) -> ModeLabeling:
    """Canonical (sorted) labeling: which mode each photon sits in, 1-based."""
    labels: list[int] = []
    for k, occ in enumerate(state.occupations):
        labels.extend([k + 1] * occ)
    return ModeLabeling(tuple(labels))


def bosonic_factor(y: FockState) -> float:
    """Combinatoric bosonic weight (1/2) * prod(n_k!) of an outcome."""
    prod = 1
    for occ in y.occupations:
        prod *= math.factorial(occ)
    return 0.5 * prod
