"""Classical information functionals over outcome tables, all in bits.

The encoding variable is the uniform four-way Bell choice, so its entropy and
the ensemble's von Neumann entropy are both the constant 2 bits; the mutual
information of any measurement is bounded by that ceiling. One kernel scores
a table and its derivatives, summed input-major (the cascade's (4, K) order)
whatever the table's layout, so every report reads the optimizer's bits:
:func:`mutual_information` reports 2 - f for the f that BFGS minimizes.
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
    """log2(totals / values), and 0 where a value is exactly 0, in the layout of ``values``."""
    ratio = np.empty_like(values)
    ratio.fill(1.0)
    np.divide(totals, values, out=ratio, where=values > 0.0)
    return np.log2(ratio, out=ratio)


def _bits(p_yx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(h, dh/dp)`` of tables p_yx (..., K, 4), with any strides.

    dh/dp(y|x) = (1/4) log2(T_y / p(y|x)), T_y the row total, in the layout of
    ``p_yx``; h = sum p dh/dp, summed input-major (the cascade's (4, K) order).
    """
    p_bar = _log2_ratio(p_yx, p_yx.sum(axis=-1, keepdims=True))
    p_bar /= 4.0
    terms = np.multiply(p_yx.swapaxes(-1, -2), p_bar.swapaxes(-1, -2), order="C")
    return terms.sum(axis=(-2, -1)), p_bar


def conditional_bits(p_yx: np.ndarray, garbage: np.ndarray | None = None) -> np.ndarray:
    """Average ambiguity (1/4) sum_y sum_x p(y|x) log2(sum_x' p(y|x') / p(y|x)).

    Zero-probability terms vanish by an explicit branch rather than
    epsilon-flooring, which would bias gradients near sparse tables.
    ``p_yx`` has shape (..., K, 4); an optional ``garbage`` of shape (..., 4)
    is folded in as one extra consolidated outcome, and any strides are
    accepted. Returns shape (...,): for one table, the pullback's value.
    """
    h = _bits(np.asarray(p_yx, dtype=np.float64))[0]
    if garbage is not None:
        h = h + _bits(np.asarray(garbage, dtype=np.float64)[..., None, :])[0]
    return h


def conditional_bits_pullback(
    p_yx: np.ndarray, garbage: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`conditional_bits` of one table or a stack, with its partial derivatives.

    Returns ``(h, dh/dp, dh/dgarbage)`` for float arrays ``p_yx`` of shape
    (..., K, 4) and ``garbage`` of shape (..., 4), treated as independent;
    ``h`` has shape (...), and each table of a stack gets the numbers it
    would get alone. The garbage term is the kernel on a (1, 4) table, as in
    :func:`conditional_bits`. Exact zeros get derivative 0, the one-sided
    limit along any path p = |a|^2 through them, matching the explicit
    branch in :func:`conditional_bits`.
    """
    h, p_bar = _bits(p_yx)
    h_garbage, g_bar = _bits(garbage[..., None, :])
    return h + h_garbage, p_bar, g_bar[..., 0, :]


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
