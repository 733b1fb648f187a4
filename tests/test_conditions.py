import tracemalloc

import numpy as np
import pytest

from bellopt import conditions, transfer
from bellopt.conditions import (
    Clause,
    _bunched_indices,
    bunched_two_mode_outcomes,
    check_column_conditions,
    classify_outcome,
    clause_verdicts,
    conditioned_vs_unconditioned_experiment,
    scan_bunched_two_mode,
)
from bellopt.errors import ContractViolationError, UnsupportedConfigurationError
from bellopt.fock import enumerate_outcomes
from bellopt.infometrics import mutual_information
from bellopt.transfer import (
    CircuitMatrix,
    _bosonic_factor_array,
    outcome_table,
)
from bellopt.unitary import (
    conditioned_block_pattern,
    haar_random_unitary,
    sample_conditioned_unitary,
)


def standard_bsm(pairs=((0, 2), (1, 3))) -> CircuitMatrix:
    """The textbook Bell analyzer: 50/50 mixing of rails 1-3 and 2-4 by default."""
    r = 1 / np.sqrt(2)
    u = np.zeros((4, 4), dtype=complex)
    for i, j in pairs:
        u[i, i] = r
        u[i, j] = r
        u[j, i] = r
        u[j, j] = -r
    return CircuitMatrix(u)


def dft_matrix(m: int) -> CircuitMatrix:
    w = np.exp(2j * np.pi / m)
    return CircuitMatrix(
        np.array([[w ** (a * b) for b in range(m)] for a in range(m)]) / np.sqrt(m)
    )


def test_classify_identity_bunched_is_clause_a():
    verdict = classify_outcome(CircuitMatrix(np.eye(4)), (2, 0, 0, 0), 0)
    assert verdict.clause.item() == Clause.A.value
    assert not verdict.ambiguous.item()
    assert verdict.prob_mass.item() == pytest.approx(0.0)


def test_classify_identity_coincidence_is_ambiguous_none():
    verdict = classify_outcome(CircuitMatrix(np.eye(4)), (1, 0, 1, 0), 0)
    assert verdict.clause.item() == Clause.NONE.value
    assert verdict.ambiguous.item()
    (amplitudes,) = verdict.amplitudes
    assert abs(amplitudes[0]) > 0.5
    assert abs(amplitudes[1]) < 1e-12


def test_classify_dft_bunched_is_ambiguous_none():
    verdict = classify_outcome(dft_matrix(4), (2, 0, 0, 0), 0)
    assert verdict.clause.item() == Clause.NONE.value
    assert verdict.ambiguous.item()


def test_classify_bsm_coincidences_are_clause_c():
    # The standard analyzer pins the second Bell pair through coincidences
    # across rails; those outcomes satisfy clause C with a definite sign.
    bsm = standard_bsm()
    seen_signs = set()
    for occ in ((1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 0, 1), (0, 1, 1, 0)):
        verdict = classify_outcome(bsm, occ, 0)
        assert verdict.clause.item() == Clause.C.value
        assert verdict.sign.item() in (+1, -1)
        seen_signs.add(verdict.sign.item())
    assert seen_signs == {+1, -1}


def test_classify_crossed_bsm_coincidences_are_clause_b():
    # Mixing rails 1-4 and 2-3 instead pins the first Bell pair.
    bsm = standard_bsm(((0, 3), (1, 2)))
    seen_signs = set()
    for occ in ((1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0), (0, 1, 0, 1)):
        verdict = classify_outcome(bsm, occ, 0)
        assert verdict.clause.item() == Clause.B.value
        assert verdict.sign.item() in (+1, -1)
        seen_signs.add(verdict.sign.item())
    assert seen_signs == {+1, -1}


@pytest.mark.parametrize(
    "row, clause, sign, ambiguous",
    [
        ((0, 0, 0, 0), Clause.A, 0, False),
        ((0.5, 0.5, 0, 0), Clause.B, +1, False),
        ((0.5, -0.5, 0, 0), Clause.B, -1, False),
        ((0, 0, 0.5j, 0.5j), Clause.C, +1, False),
        ((0, 0, 0.5, -0.5), Clause.C, -1, False),
        ((0.5, 0, 0.5, 0), Clause.NONE, 0, True),
        ((0.02, 0, 0, 0), Clause.NONE, 0, False),
        ((0.5, 0.5, 1e-3, 0), Clause.NONE, 0, True),
    ],
    ids=["A", "B+", "B-", "C+", "C-", "NONE-mass", "NONE-below-tol", "B-like-at-tol"],
)
def test_clause_rule_on_hand_built_rows(row, clause, sign, ambiguous):
    tol = 1e-3
    y = (1, 1, 0, 0)
    verdict = clause_verdicts([y], np.array([row], dtype=complex), np.array([0.5]), tol)
    assert verdict.outcomes.tolist() == [list(y)]
    assert verdict.clause.item() == clause.value
    assert verdict.sign.item() == sign
    assert verdict.ambiguous.item() is ambiguous
    assert np.array_equal(verdict.amplitudes, np.array([row], dtype=complex))


def test_clause_rule_classifies_rows_independently():
    rows = np.array([(0, 0, 0, 0), (0.5, -0.5, 0, 0), (0, 0, 0.5, 0.5), (0.5, 0, 0.5, 0)],
                    dtype=complex)
    outcomes = [(2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (0, 2, 0, 0)]
    verdicts = clause_verdicts(outcomes, rows, np.array([1.0, 0.5, 0.5, 1.0]), 1e-10)
    assert list(zip(verdicts.clause.tolist(), verdicts.sign.tolist())) == [
        (Clause.A.value, 0), (Clause.B.value, -1), (Clause.C.value, +1), (Clause.NONE.value, 0)
    ]
    assert list(map(tuple, verdicts.outcomes.tolist())) == outcomes
    # The mass is c times the sum of |a1 + a2|^2, |a1 - a2|^2, |a3 + a4|^2, |a3 - a4|^2.
    assert verdicts.prob_mass.tolist() == [0.0, 0.5 * 1.0, 0.5 * 1.0, 1.0 * 1.0]


def test_classify_bsm_bunched_is_ambiguous():
    bsm = standard_bsm()
    for occ in ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)):
        verdict = classify_outcome(bsm, occ, 0)
        assert verdict.clause.item() == Clause.NONE.value
        assert verdict.ambiguous.item()


def test_clause_soundness_zero_entropy_terms():
    """Outcomes classified A/B/C contribute nothing to the conditional information."""
    for u in (standard_bsm(), CircuitMatrix(np.eye(4))):
        table = outcome_table(u, 0)
        for state, row in zip(map(tuple, table.occupations.tolist()), table.p):
            verdict = classify_outcome(u, state, 0)
            if verdict.clause.item() == Clause.NONE.value:
                continue
            total = row.sum()
            for p in row:
                if p > 0:
                    assert p * np.log2(total / p) < 1e-8


def test_bunched_outcome_enumeration():
    outcomes = bunched_two_mode_outcomes(0)
    occs = set(map(tuple, outcomes.tolist()))
    assert (2, 0, 0, 0) in occs
    assert (1, 1, 0, 0) in occs
    assert all(sum(1 for k in o if k > 0) <= 2 for o in occs)
    assert len(occs) == len(outcomes)
    # N=2, M=4: four single-mode outcomes plus C(4,2) balanced splits
    assert len(outcomes) == 4 + 6
    # N=8, M=10: ten single-mode outcomes, 90 ordered pairs for each of the
    # splits 7+1, 6+2, 5+3, and C(10,2) pairs for 4+4
    assert len(bunched_two_mode_outcomes(6)) == 10 + 3 * 90 + 45
    # Built from mode pairs, they are the alphabet's bunched rows, in its order.
    for n_a in range(7):
        assert np.array_equal(bunched_two_mode_outcomes(n_a),
                              enumerate_outcomes(n_a + 2, n_a + 4)[_bunched_indices(n_a)])
    with pytest.raises(ContractViolationError):
        bunched_two_mode_outcomes(-1)


def _zero_column_subunitary(m: int, seed: int) -> CircuitMatrix:
    u = 0.9 * haar_random_unitary(m, seed).entries
    u[:, seed % m] = 0.0
    return CircuitMatrix(u)


TWO_MODE_CASES = {
    **{f"haar-{n_a}": (n_a, lambda n_a=n_a: haar_random_unitary(n_a + 4, 50 + n_a))
       for n_a in range(7)},
    "conditioned-4": (4, lambda: sample_conditioned_unitary(4, 51)),
    "conditioned-6": (6, lambda: sample_conditioned_unitary(6, 52)),
    "permutation-2": (2, lambda: CircuitMatrix(np.eye(6)[[3, 0, 5, 1, 2, 4]])),
    "zero-column-3": (3, lambda: _zero_column_subunitary(7, 53)),
    "zero-column-6": (6, lambda: _zero_column_subunitary(10, 54)),
}


@pytest.mark.parametrize("case", sorted(TWO_MODE_CASES))
def test_two_mode_scan_matches_the_whole_alphabet_cascade(case):
    n_a, make = TWO_MODE_CASES[case]
    u = make()
    bunched = _bunched_indices(n_a)
    want = transfer._cascade(u.entries[None], n_a)[2][0].T[bunched]
    outcomes = bunched_two_mode_outcomes(n_a)
    verdicts = scan_bunched_two_mode(u, n_a)
    assert np.max(np.abs(verdicts.amplitudes - want)) <= 1e-12
    reference = clause_verdicts(outcomes, want, _bosonic_factor_array(n_a + 2, n_a + 4)[bunched])
    for name in ("outcomes", "clause", "ambiguous", "sign"):
        assert np.array_equal(getattr(verdicts, name), getattr(reference, name)), name
    assert verdicts.prob_mass.tolist() == pytest.approx(
        reference.prob_mass.tolist(), rel=0, abs=1e-12)


def test_scan_never_builds_the_alphabet_and_bounds_its_peak(monkeypatch):
    # The scan cascades column pairs, whose alphabets have two modes; any
    # wider enumeration, through _insertion_sources too, is the whole alphabet's.
    def two_modes_at_most(enumerate_outcomes):
        def guarded(n_photons, n_modes):
            if n_modes > 2:
                raise AssertionError("the bunched scan reached the whole alphabet")
            return enumerate_outcomes(n_photons, n_modes)
        return guarded

    for module in (transfer, conditions):
        monkeypatch.setattr(module, "enumerate_outcomes",
                            two_modes_at_most(module.enumerate_outcomes))
    u = sample_conditioned_unitary(8, 1)
    # Twelve single modes, 132 ordered pairs for each of 9+1, 8+2, 7+3, 6+4, 66 for 5+5.
    assert len(scan_bunched_two_mode(u, 8)) == 12 + 4 * 132 + 66  # and warms the caches
    tracemalloc.start()
    try:
        scan_bunched_two_mode(u, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A warm N_a = 8 scan through the whole-alphabet cascade peaked at 31 MB.
    assert peak < 8e6


@pytest.mark.parametrize("n_a", range(7))
def test_scan_has_one_row_per_bunched_outcome(n_a):
    verdicts = scan_bunched_two_mode(haar_random_unitary(n_a + 4, 90 + n_a), n_a)
    assert len(verdicts) == len(bunched_two_mode_outcomes(n_a))
    for column in (verdicts.outcomes, verdicts.clause, verdicts.amplitudes,
                   verdicts.ambiguous, verdicts.sign, verdicts.prob_mass):
        assert len(column) == len(verdicts)


@pytest.mark.parametrize(
    "n_a, make",
    [
        (0, lambda: CircuitMatrix(np.eye(4))),
        (0, standard_bsm),
        (0, lambda: haar_random_unitary(4, 31)),
        (2, lambda: haar_random_unitary(6, 32)),
        (4, lambda: sample_conditioned_unitary(4, 33)),
        (4, lambda: haar_random_unitary(8, 34)),
    ],
    ids=["identity-0", "bsm-0", "haar-0", "haar-2", "conditioned-4", "haar-4"],
)
def test_scan_matches_permanent_reference(n_a, make):
    """The cascade-backed scan agrees with classifying each outcome by permanents."""
    u = make()
    verdicts = scan_bunched_two_mode(u, n_a)
    assert np.array_equal(verdicts.outcomes, bunched_two_mode_outcomes(n_a))
    for i, outcome in enumerate(map(tuple, verdicts.outcomes.tolist())):
        ref = classify_outcome(u, outcome, n_a)
        assert verdicts.clause[i] == ref.clause.item()
        assert verdicts.sign[i] == ref.sign.item()
        assert verdicts.ambiguous[i] == ref.ambiguous.item()
        assert np.allclose(verdicts.amplitudes[i], ref.amplitudes[0], rtol=0, atol=1e-12)
        assert verdicts.prob_mass[i] == pytest.approx(ref.prob_mass.item(), rel=0, abs=1e-12)


def test_scan_identity_all_clause_a():
    for n_a in (0, 2):
        verdicts = scan_bunched_two_mode(CircuitMatrix(np.eye(n_a + 4)), n_a)
        bunched_only = verdicts.outcomes.max(axis=1) >= 2
        assert (verdicts.clause[bunched_only] == Clause.A.value).all()
        assert not verdicts.ambiguous[bunched_only].any()


def test_scan_conditioned_unitary_all_clause_a():
    u = sample_conditioned_unitary(6, 5)
    verdicts = scan_bunched_two_mode(u, 6)
    assert (verdicts.clause == Clause.A.value).all()
    assert (verdicts.prob_mass < 1e-18).all()


def test_scan_haar_typically_ambiguous():
    hits = 0
    for seed in range(10):
        u = haar_random_unitary(6, 600 + seed)
        verdicts = scan_bunched_two_mode(u, 2)
        if verdicts.ambiguous.any():
            hits += 1
    assert hits >= 8


def test_no_go_witness_bounds_information():
    for seed in range(5):
        u = haar_random_unitary(6, 700 + seed)
        if scan_bunched_two_mode(u, 2).ambiguous.any():
            h = mutual_information(outcome_table(u, 2)).h_mutual
            assert h < 2.0 - 1e-6


def test_column_conditions_identity_satisfies_iv():
    u = CircuitMatrix(np.eye(8))
    verdicts = check_column_conditions(u, 4)
    # Ancilla columns have every qubit row zero plus spare ancilla zeros.
    for verdict in verdicts[:4]:
        assert "IV" in verdict.satisfied
    # Qubit columns keep their own unit entry, so only one pair vanishes.
    for verdict in verdicts[4:]:
        assert verdict.satisfied
        assert "IV" not in verdict.satisfied


def test_column_conditions_conditioned_unitary():
    for n_a in (4, 6):
        u = sample_conditioned_unitary(n_a, 77)
        verdicts = check_column_conditions(u, n_a)
        assert all(verdict.satisfied for verdict in verdicts)
        assert all(verdict.satisfied <= {"I", "II", "III", "IV"} for verdict in verdicts)


def test_column_conditions_block_roles_for_documented_pattern():
    # Block columns satisfy the conditions they were designed for.
    u = sample_conditioned_unitary(6, 3)
    verdicts = {v.column: v.satisfied for v in check_column_conditions(u, 6)}
    for col in (1, 2, 3):
        assert "IV" in verdicts[col]
    for col in (4, 5, 6):
        assert "III" in verdicts[col]
    for col in (7, 8, 9, 10):
        assert "II" in verdicts[col]


@pytest.mark.parametrize("n_a", [4, 6])
def test_the_conditioned_class_is_capped_at_one_bit(n_a):
    # Qubit A's rows and qubit B's rows reach disjoint output columns, so the
    # circuit measures each qubit on its own, which learns at most 1 bit.
    for seed in range(10):
        table = outcome_table(sample_conditioned_unitary(n_a, seed), n_a)
        assert mutual_information(table).h_mutual <= 1.0 + 1e-12
    # The permutation that maps each block's rows, in order, onto its columns
    # reaches the cap and passes check.
    perm = np.zeros((n_a + 4, n_a + 4))
    for rows, cols in conditioned_block_pattern(n_a):
        perm[rows, cols] = 1.0
    u = CircuitMatrix(perm)
    assert mutual_information(outcome_table(u, n_a)).h_mutual == pytest.approx(1.0, abs=1e-12)
    assert all(verdict.satisfied for verdict in check_column_conditions(u, n_a))
    assert not scan_bunched_two_mode(u, n_a).ambiguous.any()


def test_column_conditions_haar_fails():
    u = haar_random_unitary(8, 4)
    verdicts = check_column_conditions(u, 4)
    assert all(not verdict.satisfied for verdict in verdicts)


def _reference_column(zeros, n_a, col):
    """Conditions I-IV and the witness of one column, one other column at a time."""
    m = zeros.shape[0]
    others = [l for l in range(m) if l != col]
    s_set = [r for r in range(n_a) if zeros[r, col]]

    def q12(l):
        return zeros[n_a, l] and zeros[n_a + 1, l]

    def q34(l):
        return zeros[n_a + 2, l] and zeros[n_a + 3, l]

    def cross_s(l):
        return any(zeros[r, l] for r in s_set)

    satisfied = set()
    if len(s_set) >= 3 and all(cross_s(l) for l in others):
        satisfied.add("I")
    if len(s_set) >= 2 and q12(col) and all(q12(l) or cross_s(l) for l in others):
        satisfied.add("II")
    if len(s_set) >= 2 and q34(col) and all(q34(l) or cross_s(l) for l in others):
        satisfied.add("III")
    if len(s_set) >= 1 and q12(col) and q34(col) and all(
        q12(l) or q34(l) or cross_s(l) for l in others
    ):
        satisfied.add("IV")
    witness_rows = s_set + list(range(n_a, m))
    return (
        satisfied,
        tuple(r + 1 for r in s_set),
        tuple(r + 1 for r in range(n_a, m) if zeros[r, col]),
        {l + 1: tuple(r + 1 for r in witness_rows if zeros[r, l]) for l in others},
    )


def test_column_conditions_match_the_per_column_reference():
    rng = np.random.default_rng(8)
    seen = set()
    for _ in range(150):
        n_a = int(rng.integers(0, 7))
        m = n_a + 4
        entries = haar_random_unitary(m, int(rng.integers(1 << 30))).entries
        entries[rng.uniform(size=(m, m)) < rng.uniform(0.3, 0.9)] = 0.0
        zeros = np.abs(entries) < 1e-10
        for verdict in check_column_conditions(CircuitMatrix(entries), n_a):
            assert (
                set(verdict.satisfied), verdict.ancilla_zero_rows,
                verdict.qubit_zero_rows, verdict.cross_zero_rows,
            ) == _reference_column(zeros, n_a, verdict.column - 1)
            seen.add(verdict.satisfied)
    # Every condition is met on its own somewhere, and none is met somewhere.
    assert {frozenset(), *(frozenset({c}) for c in ("I", "II", "III", "IV"))} <= seen


def test_witness_entries_are_real_zeros():
    u = sample_conditioned_unitary(6, 12)
    tol = 1e-10
    for verdict in check_column_conditions(u, 6, tol=tol):
        col = verdict.column - 1
        for row in verdict.ancilla_zero_rows + verdict.qubit_zero_rows:
            assert abs(u.entries[row - 1, col]) < tol
        for other_col, rows in verdict.cross_zero_rows.items():
            for row in rows:
                assert abs(u.entries[row - 1, other_col - 1]) < tol


def test_check_column_conditions_dimension_guard():
    with pytest.raises(ContractViolationError):
        check_column_conditions(CircuitMatrix(np.eye(4)), 2)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_bad_tol_is_rejected_by_the_library(tol):
    u = sample_conditioned_unitary(4, 1)
    checks = (
        lambda: check_column_conditions(u, 4, tol=tol),
        lambda: scan_bunched_two_mode(u, 4, tol=tol),
        lambda: classify_outcome(u, (2, 1, 1, 1, 0, 0, 0, 1), 4, tol=tol),
        lambda: clause_verdicts([], np.zeros((0, 4)), np.zeros(0), tol),
    )
    for check in checks:
        with pytest.raises(ContractViolationError, match=r"^tol must be finite and > 0, got "):
            check()


def test_experiment_small_run():
    conditioned, unconditioned = conditioned_vs_unconditioned_experiment(4, trials=3, seed=9)
    assert (conditioned.label, unconditioned.label) == ("conditioned", "unconditioned")
    for pop in (conditioned, unconditioned):
        assert len(pop.h_mutual) == len(pop.bunched_mass) == 3
        assert all(h <= 2.0 + 1e-9 for h in pop.h_mutual)
    assert max(conditioned.bunched_mass) < 1e-15
    again = conditioned_vs_unconditioned_experiment(4, trials=3, seed=9)
    assert again == (conditioned, unconditioned)


def test_experiment_rejects_bad_na():
    with pytest.raises(UnsupportedConfigurationError):
        conditioned_vs_unconditioned_experiment(3, trials=2, seed=0)
    with pytest.raises(ContractViolationError):
        conditioned_vs_unconditioned_experiment(4, trials=0, seed=0)
