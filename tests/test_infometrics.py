import numpy as np
import pytest

from bellopt.infometrics import (
    H_X_BITS,
    S_RHO_BITS,
    _log2_ratio,
    conditional_bits,
    conditional_bits_pullback,
    mutual_information,
)
from bellopt.transfer import CircuitMatrix, OutcomeTable, outcome_table
from bellopt.unitary import haar_random_unitary, sample_conditioned_unitary


def table_from_matrix(p: np.ndarray, garbage=None) -> OutcomeTable:
    g = np.zeros(4) if garbage is None else np.asarray(garbage, dtype=float)
    return OutcomeTable(p=np.asarray(p, dtype=float), garbage=g, n_a=0, m=4)


def test_perfectly_distinguishing_table_is_zero_bits():
    table = table_from_matrix(np.eye(4))
    assert mutual_information(table).h_cond == pytest.approx(0.0)
    assert mutual_information(table).h_mutual == pytest.approx(2.0)


def test_fully_ambiguous_table_is_two_bits():
    table = table_from_matrix(np.full((3, 4), 1.0 / 3.0))
    assert mutual_information(table).h_cond == pytest.approx(2.0)
    assert mutual_information(table).h_mutual == pytest.approx(0.0)


def test_identity_analyzer_is_one_bit():
    table = outcome_table(CircuitMatrix(np.eye(4)), 0)
    assert mutual_information(table).h_cond == pytest.approx(1.0)
    report = mutual_information(table)
    assert report.h_mutual == pytest.approx(1.0)
    assert report.h_x == H_X_BITS == 2.0
    assert report.s_rho == S_RHO_BITS == 2.0
    assert report.h_mutual == pytest.approx(report.h_x - report.h_cond_garbage, abs=1e-12)


def test_garbage_term_counts_leakage():
    # One outcome keeping half the mass, half leaked, fully symmetric over x:
    # both terms are maximally ambiguous so H(X|Y) = 2 with garbage on.
    table = table_from_matrix(np.full((1, 4), 0.5), garbage=np.full(4, 0.5))
    report = mutual_information(table)
    assert report.h_cond == pytest.approx(2.0 * 0.5)
    assert report.h_cond_garbage == pytest.approx(2.0)


def test_zero_rows_contribute_nothing():
    p = np.array([[0.5, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.5, 1.0, 1.0, 1.0]])
    table = table_from_matrix(p)
    # first outcome pins x=1; last is a 4-way mix weighted by mass
    h = mutual_information(table).h_cond
    mix = np.array([0.5, 1.0, 1.0, 1.0])
    expected = (mix * np.log2(mix.sum() / mix)).sum() / 4.0
    assert h == pytest.approx(expected)


def test_garbage_flag_is_noop_for_unitary():
    u = haar_random_unitary(6, 31)
    table = outcome_table(u, 2)
    report = mutual_information(table)
    on = report.h_cond_garbage
    off = report.h_cond
    assert abs(on - off) < 1e-9


def test_holevo_bound_on_random_subunitaries():
    rng = np.random.default_rng(44)
    for n_a in (0, 2):
        m = n_a + 4
        for _ in range(60):
            left = haar_random_unitary(m, rng).entries
            right = haar_random_unitary(m, rng).entries
            u = CircuitMatrix(left @ np.diag(rng.uniform(0, 1, m)) @ right)
            table = outcome_table(u, n_a)
            h = mutual_information(table).h_mutual
            assert 0.0 <= h <= 2.0 + 1e-9


def test_output_mode_permutation_invariance():
    rng = np.random.default_rng(13)
    u = haar_random_unitary(6, 8)
    base = mutual_information(outcome_table(u, 2)).h_mutual
    for _ in range(5):
        perm = rng.permutation(6)
        permuted = CircuitMatrix(u.entries[:, perm])
        h = mutual_information(outcome_table(permuted, 2)).h_mutual
        assert h == pytest.approx(base, abs=1e-10)


def test_global_phase_invariance():
    u = haar_random_unitary(6, 93)
    table = outcome_table(u, 2)
    rotated = outcome_table(CircuitMatrix(np.exp(0.7j) * u.entries), 2)
    assert np.allclose(
        table.p, rotated.p, atol=1e-12
    )
    assert mutual_information(table).h_mutual == pytest.approx(
        mutual_information(rotated).h_mutual, abs=1e-12
    )


def test_conditional_bits_batched_shape():
    rng = np.random.default_rng(1)
    p = rng.uniform(0, 1, (7, 10, 4))
    g = np.zeros((7, 4))
    out = conditional_bits(p, g)
    assert out.shape == (7,)
    assert out[3] == pytest.approx(float(conditional_bits(p[3], g[3])))


def test_tables_are_scored_in_place_with_the_where_formula():
    # The table is the cascade's (4, K) array transposed, with exact zeros.
    table = outcome_table(sample_conditioned_unitary(4, 3), 4)
    p = table.p
    assert p.flags.f_contiguous and not p.flags.c_contiguous
    totals = p.sum(axis=-1, keepdims=True)
    positive = p > 0.0
    assert not positive.all()
    want = np.log2(np.where(positive, totals / np.where(positive, p, 1.0), 1.0))
    got = _log2_ratio(p, totals)
    assert np.array_equal(got, want)
    # The derivatives keep the layout of p, so the optimizer's sums keep their order.
    assert got.strides == conditional_bits_pullback(p, table.garbage)[1].strides == p.strides
    g = table.garbage
    assert float(conditional_bits(p, g)) == conditional_bits_pullback(p, g)[0]
    # The information is summed input-major whatever the layout, which is
    # the memory order of the view: its copies score the view's bits, and
    # the report's value is the optimizer's.
    table = outcome_table(haar_random_unitary(8, 0), 4)
    p, g = table.p, table.garbage
    copies = (np.ascontiguousarray(p), np.asfortranarray(p), p[::-1, ::-1].copy()[::-1, ::-1])
    assert {float(conditional_bits(q)) for q in (p, *copies)} == {float(conditional_bits(p))}
    for q in (p, *copies):
        assert float(conditional_bits(q, g)) == conditional_bits_pullback(q, g)[0]
