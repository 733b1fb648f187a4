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


def _log2_ratio(values: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """log2(totals / values), and 0 where a value is exactly 0, in the layout of ``values``.

    The layout sets the summation order of every product with ``values``.
    """
    ratio = np.empty_like(values)
    ratio.fill(1.0)
    np.divide(totals, values, out=ratio, where=values > 0.0)
    return np.log2(ratio, out=ratio)


def conditional_bits(p_yx: np.ndarray, garbage: np.ndarray | None = None) -> np.ndarray:
    """Average ambiguity (1/4) sum_y sum_x p(y|x) log2(sum_x' p(y|x') / p(y|x)).

    Zero-probability terms vanish by an explicit branch rather than
    epsilon-flooring, which would bias gradients near sparse tables.
    ``p_yx`` has shape (..., K, 4); an optional ``garbage`` of shape (..., 4)
    is folded in as one extra consolidated outcome, and any strides are
    accepted. Returns shape (...,).
    """
    p_yx = np.asarray(p_yx, dtype=np.float64)
    log_ratio = _log2_ratio(p_yx, p_yx.sum(axis=-1, keepdims=True))
    # Summed in C order, so the value does not depend on the layout of p_yx.
    h = np.multiply(p_yx, log_ratio, order="C").sum(axis=(-1, -2)) / 4.0
    if garbage is not None:
        garbage = np.asarray(garbage, dtype=np.float64)
        g_log_ratio = _log2_ratio(garbage, garbage.sum(axis=-1, keepdims=True))
        h = h + (garbage * g_log_ratio).sum(axis=-1) / 4.0
    return h


def conditional_bits_pullback(
    p_yx: np.ndarray, garbage: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """:func:`conditional_bits` of one table with its partial derivatives.

    Returns ``(h, dh/dp, dh/dgarbage)`` for ``p_yx`` of shape (K, 4) and
    ``garbage`` of shape (4,), with p and garbage treated as independent:
    dh/dp(y|x) = (1/4) log2(T_y / p(y|x)), T_y the row total, and likewise
    (1/4) log2(G / g_x) for the garbage. Exact zeros get derivative 0, the
    one-sided limit along any path p = |a|^2 through them, matching the
    explicit branch in :func:`conditional_bits`.
    """
    p_yx = np.asarray(p_yx, dtype=np.float64)
    garbage = np.asarray(garbage, dtype=np.float64)
    p_bar = _log2_ratio(p_yx, p_yx.sum(axis=-1, keepdims=True)) / 4.0
    g_bar = _log2_ratio(garbage, garbage.sum()) / 4.0
    h = float((p_yx * p_bar).sum() + (garbage * g_bar).sum())
    return h, p_bar, g_bar


def mutual_information(table: OutcomeTable) -> InfoReport:
    """Full information report; h_mutual = 2 - H(X|Y) with garbage accounted.

    ``h_cond`` leaves the garbage outcome out; ``h_cond_garbage`` adds its term.
    """
    h_cond = float(conditional_bits(table.p))
    h_cond_garbage = h_cond + float(conditional_bits(table.garbage[None, :]))
    return InfoReport(
        h_cond=h_cond,
        h_cond_garbage=h_cond_garbage,
        h_mutual=H_X_BITS - h_cond_garbage,
    )
