"""Classical information functionals over outcome tables, all in bits.

The encoding variable is the uniform four-way Bell choice, so its entropy and
the ensemble's von Neumann entropy are both the constant 2 bits; the mutual
information of any measurement is bounded by that ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bellopt.transfer import OutcomeTable

#: Shannon entropy of the uniform four-way input choice.
H_X_BITS = 2.0
#: Von Neumann entropy of the equiprobable Bell ensemble.
S_RHO_BITS = 2.0


@dataclass(frozen=True)
class InfoReport:
    """Information summary of one analyzer."""

    h_cond: float
    h_cond_garbage: float
    h_mutual: float
    h_x: float = H_X_BITS
    s_rho: float = S_RHO_BITS


def conditional_bits(p_yx: np.ndarray, garbage: np.ndarray | None = None) -> np.ndarray:
    """Average ambiguity (1/4) sum_y sum_x p(y|x) log2(sum_x' p(y|x') / p(y|x)).

    Zero-probability terms vanish by an explicit branch rather than
    epsilon-flooring, which would bias gradients near sparse tables.
    ``p_yx`` has shape (..., K, 4); an optional ``garbage`` of shape (..., 4)
    is folded in as one extra consolidated outcome. Returns shape (...,).
    """
    p_yx = np.asarray(p_yx, dtype=np.float64)
    totals = p_yx.sum(axis=-1, keepdims=True)
    ratio = np.where(p_yx > 0.0, totals / np.where(p_yx > 0.0, p_yx, 1.0), 1.0)
    h = (p_yx * np.log2(ratio)).sum(axis=(-1, -2)) / 4.0
    if garbage is not None:
        garbage = np.asarray(garbage, dtype=np.float64)
        g_total = garbage.sum(axis=-1, keepdims=True)
        g_ratio = np.where(garbage > 0.0, g_total / np.where(garbage > 0.0, garbage, 1.0), 1.0)
        h = h + (garbage * np.log2(g_ratio)).sum(axis=-1) / 4.0
    return h


def conditional_information(table: OutcomeTable, include_garbage: bool = False) -> float:
    """H(X|Y) of an outcome table, optionally charging the garbage outcome too."""
    garbage = table.garbage if include_garbage else None
    return float(conditional_bits(table.p, garbage))


def mutual_information(table: OutcomeTable) -> InfoReport:
    """Full information report; h_mutual = 2 - H(X|Y) with garbage accounted."""
    h_cond = conditional_information(table, include_garbage=False)
    h_cond_garbage = conditional_information(table, include_garbage=True)
    return InfoReport(
        h_cond=h_cond,
        h_cond_garbage=h_cond_garbage,
        h_mutual=H_X_BITS - h_cond_garbage,
    )
