import concurrent.futures
import math
import os
import weakref
from functools import partial

import numpy as np
import pytest

from reference import _gradient_vector, _objective_vectors, one_at_a_time
from bellopt import optimizer, transfer
from bellopt.errors import ContractViolationError
from bellopt.infometrics import conditional_bits_pullback, mutual_information
from bellopt.optimizer import (
    OptimizerConfig,
    RestartRecord,
    _bfgs_descent,
    _lockstep,
    _value_and_pullback,
    _values_and_pullbacks,
    gradient,
    initial_vector,
    objective,
    optimize,
)
from bellopt.transfer import bell_probability_pullback, outcome_table
from bellopt.unitary import (
    CircuitParams,
    haar_random_unitary,
    matrix_distance_to_unitary,
    matrix_entries_from_vectors,
    matrix_entries_pullback,
    params_to_matrix,
)


def descend(x0: np.ndarray, n_a: int, max_iterations: int):
    """One descent from x0, answered by the production ``(f, grad)`` replies: (x, f, stats)."""
    return _lockstep([_bfgs_descent(x0, max_iterations)],
                     partial(_values_and_pullbacks, n_a=n_a))[0]


def test_objective_identity_is_one_bit():
    p = CircuitParams(np.zeros(16))
    assert objective(p, 0) == pytest.approx(1.0)


def test_objective_dead_circuit_is_two_bits():
    # exp(iH) never loses light, so the dead circuit enters below the
    # parametrization, at the stages the objective chains after it.
    dead = np.diag(np.full(4, math.exp(-64.0)))
    u = haar_random_unitary(4, 1).entries @ dead @ haar_random_unitary(4, 2).entries
    p, garbage, _ = bell_probability_pullback(u, 0)
    assert conditional_bits_pullback(p.T, garbage)[0] == pytest.approx(2.0)


def test_objective_dimension_guard():
    p = CircuitParams(np.zeros(16))
    with pytest.raises(ContractViolationError):
        objective(p, 2)
    with pytest.raises(ContractViolationError):
        gradient(p, 2)


def test_gradient_matches_forward_difference():
    rng = np.random.default_rng(12)
    x = rng.uniform(-0.5, 0.5, 16)
    g_central = _gradient_vector(x, 0, 1e-6)
    f0 = float(_objective_vectors(x, 0))
    h = 1e-7
    for idx in rng.choice(16, size=8, replace=False):
        step = np.zeros(16)
        step[idx] = h
        forward = (float(_objective_vectors(x + step, 0)) - f0) / h
        assert g_central[idx] == pytest.approx(forward, rel=1e-4, abs=1e-7)


def _gradient_point(n_a: int, kind: str) -> np.ndarray:
    """A random generator, or the all-zero one whose eigenvalues all coincide.

    exp(iH) is lossless; the cascade's pullback on lossy matrices is checked
    in tests/test_transfer.py.
    """
    m = n_a + 4
    if kind == "zero":
        return np.zeros(m * m)
    return np.random.default_rng(100 + n_a).uniform(-0.5, 0.5, m * m)


@pytest.mark.parametrize("kind", ["lossless", "zero"])
@pytest.mark.parametrize("n_a", [0, 2, 4])
def test_reverse_gradient_matches_finite_differences(n_a, kind):
    x = _gradient_point(n_a, kind)
    f, grad = _value_and_pullback(x, n_a)
    g = grad()
    reference = _gradient_vector(x, n_a, 1e-6)
    assert f == pytest.approx(float(_objective_vectors(x, n_a)), abs=1e-12)
    assert np.all(np.isfinite(g))
    assert np.linalg.norm(g - reference) <= 1e-6 * np.linalg.norm(reference) + 1e-12


@pytest.mark.parametrize("n_a", [0, 2])
def test_no_gradient_coordinate_is_identically_zero(n_a):
    # Every coordinate moves the circuit: at a random start none is dead.
    for seed in range(5):
        x = initial_vector(n_a, 0.5, np.random.default_rng(seed))
        g = _value_and_pullback(x, n_a)[1]()
        assert np.all(np.abs(g) > 1e-9 * np.linalg.norm(g))


@pytest.mark.parametrize("kind", ["lossless", "zero"])
def test_unitary_pullback_matches_finite_differences(kind):
    # Pull back a fixed complex cotangent C through U(x): the gradient of
    # Re sum(conj(C) * U(x)).
    n_a, m = 2, 6
    x = _gradient_point(n_a, kind)
    rng = np.random.default_rng(5)
    c = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    u, pullback = matrix_entries_pullback(x, m)
    assert np.array_equal(u, matrix_entries_from_vectors(x, m))
    g = pullback(c)
    step = 1e-6
    points = np.repeat(x[None, :], 2 * x.size, axis=0)
    idx = np.arange(x.size)
    points[idx, idx] += step
    points[x.size + idx, idx] -= step
    values = np.real(np.conj(c) * matrix_entries_from_vectors(points, m)).sum(axis=(-1, -2))
    reference = (values[: x.size] - values[x.size :]) / (2.0 * step)
    assert np.linalg.norm(g - reference) <= 1e-8 * np.linalg.norm(reference)


def test_gradient_is_the_reverse_pass():
    x = _gradient_point(0, "lossless")
    params = CircuitParams.from_vector(x, 4)
    assert np.array_equal(gradient(params, 0), _value_and_pullback(x, 0)[1]())


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n_a", [0, 2, 4])
def test_objective_is_the_value_the_descent_minimizes(n_a, seed):
    x0 = initial_vector(n_a, 0.5, np.random.default_rng(seed))
    x, f, _ = descend(x0, n_a, 30)
    assert objective(CircuitParams(x), n_a) == f
    table = outcome_table(params_to_matrix(CircuitParams(x)), n_a)
    assert mutual_information(table).h_mutual == 2 - f


def test_steepest_descent_direction_decreases_objective():
    rng = np.random.default_rng(7)
    wins = 0
    for _ in range(20):
        x = rng.uniform(-0.8, 0.8, 16)
        g = _value_and_pullback(x, 0)[1]()
        f0 = float(_objective_vectors(x, 0))
        f1 = float(_objective_vectors(x - 1e-4 * g / max(np.linalg.norm(g), 1e-12), 0))
        wins += f1 < f0
    assert wins == 20


def test_config_validation():
    with pytest.raises(ContractViolationError):
        OptimizerConfig(n_a=0, restarts=0)
    with pytest.raises(ContractViolationError):
        OptimizerConfig(n_a=-1)
    with pytest.raises(ContractViolationError):
        OptimizerConfig(n_a=0, parallelism=0)
    with pytest.raises(ContractViolationError):
        OptimizerConfig(n_a=0, seed=-1)


def _small_run(parallelism: int = 1, restarts: int = 4, seed: int = 5):
    cfg = OptimizerConfig(
        n_a=0, restarts=restarts, seed=seed, parallelism=parallelism, max_iterations=400
    )
    return optimize(cfg)


def test_optimize_reaches_known_value_at_na0():
    result = _small_run(restarts=8, seed=7)
    assert result.report.h_mutual >= 1.5 - 1e-3


def test_optimize_result_is_self_verifying():
    result = _small_run()
    re_eval = mutual_information(outcome_table(result.best_matrix, 0)).h_mutual
    assert abs(result.report.h_mutual - re_eval) < 1e-9
    best = max(r.h_mutual for r in result.per_restart)
    assert abs(best - result.report.h_mutual) < 1e-9


def test_optimize_deterministic_and_parallelism_independent():
    a = _small_run(parallelism=1)
    b = _small_run(parallelism=1)
    c = _small_run(parallelism=2)
    for other in (b, c):
        # Whole records: every counter, the stop reason and the objective trace.
        assert other.per_restart == a.per_restart
        assert np.array_equal(other.best_params.h_gen, a.best_params.h_gen)
        assert other.report == a.report


def test_objective_trace_is_monotone_at_accepted_steps():
    result = _small_run()
    for record in result.per_restart:
        trace = np.asarray(record.objective_trace)
        assert trace.size >= 1
        assert np.all(np.diff(trace) <= 0.0)


def test_restart_records_explain_the_stop():
    cfg = OptimizerConfig(n_a=0, restarts=4, seed=5, parallelism=1, max_iterations=25)
    for record in optimize(cfg).per_restart:
        assert record.stop in ("gradient_tol", "line_search_floor", "iteration_cap")
        assert record.converged == (record.stop == "gradient_tol")
        assert (record.iterations == cfg.max_iterations) == (record.stop == "iteration_cap")
        # One value-and-gradient pass per accepted step, plus the start; every
        # line-search trial is either the accepted one or a backtrack.
        assert record.grad_evals == record.iterations + 1
        assert record.f_evals - record.backtracks == record.iterations
        # Every accepted step lowers the objective strictly.
        assert np.all(np.diff(record.objective_trace) < 0.0)
        assert record.steepest_fallbacks >= 0
        if record.stop == "gradient_tol":
            assert record.grad_norm < optimizer._GRADIENT_TOL


@pytest.mark.parametrize("n_a", [0, 2])
def test_descent_runs_one_forward_per_trial(monkeypatch, n_a):
    calls = {"forward": 0, "reverse": 0}
    cascade = transfer._cascade
    probability_pullback = optimizer.bell_probability_pullback

    def counting_cascade(u, n):
        calls["forward"] += 1
        return cascade(u, n)

    def counting_pullback(u, n):
        p, garbage, pullback = probability_pullback(u, n)

        def counted(*args):
            calls["reverse"] += 1
            return pullback(*args)

        return p, garbage, counted

    monkeypatch.setattr(transfer, "_cascade", counting_cascade)
    monkeypatch.setattr(optimizer, "bell_probability_pullback", counting_pullback)
    x0 = initial_vector(n_a, 0.5, np.random.default_rng(3))
    _, _, stats = descend(x0, n_a, 20)
    # Backtracks happened, so trials and gradients differ in number.
    assert stats["backtracks"] > 0
    # The start plus one forward per trial; the accepted trial's forward
    # feeds the gradient.
    assert calls["forward"] == stats["f_evals"] + 1
    assert calls["reverse"] == stats["grad_evals"]


@pytest.mark.parametrize("n_a", [0, 2])
def test_lockstep_round_runs_one_forward_and_at_most_one_pull(n_a, monkeypatch):
    rounds = []  # per round, the rows of each reverse pass it ran

    def counting_pullback(u, n_a):
        p, garbage, pullback = bell_probability_pullback(u, n_a)

        def counted(p_bar, g_bar):
            rounds[-1].append(len(p_bar))
            return pullback(p_bar, g_bar)

        return p, garbage, counted

    def counting(points):
        rounds.append([])
        return _values_and_pullbacks(points, n_a)

    monkeypatch.setattr(optimizer, "bell_probability_pullback", counting_pullback)
    starts = [initial_vector(n_a, 0.5, np.random.default_rng(20 + i)) for i in range(6)]
    ends = _lockstep([_bfgs_descent(x0, 30) for x0 in starts], counting)
    stats = [end[2] for end in ends]
    # Every live descent evaluates one point a round: its start, then its trials.
    assert len(rounds) == max(s["f_evals"] for s in stats) + 1
    assert all(len(pulled) <= 1 for pulled in rounds)
    # A pull covers every live row; the rows of rejected trials are discarded.
    live = [sum(s["f_evals"] + 1 > r for s in stats) for r in range(len(rounds))]
    assert all(pulled in ([], [n]) for pulled, n in zip(rounds, live))
    assert sum(s["grad_evals"] for s in stats) <= sum(map(sum, rounds))
    assert max(map(sum, rounds)) > 1  # some pull serves several descents


def test_best_restart_is_stationary_or_capped():
    cfg = OptimizerConfig(n_a=0, restarts=4, seed=11, parallelism=1, max_iterations=400)
    result = optimize(cfg)
    best = result.best_restart
    assert best.grad_norm < 10 * optimizer._GRADIENT_TOL or best.iterations == cfg.max_iterations


def _stub_restart(cfg, index):
    """A restart that does no descent; restarts 3 and 7 tie for the best value."""
    record = RestartRecord(restart=index, h_mutual=1.5 if index in (3, 7) else 1.0,
                           iterations=0, stop="gradient_tol", grad_norm=0.0, f_evals=0,
                           grad_evals=1, backtracks=0, steepest_fallbacks=0)
    return record, np.full(cfg.m * cfg.m, 1e-3 * index)


def _stub_group(cfg, indices):
    return [_stub_restart(cfg, index) for index in indices]


def recording_pool(sizes: list):
    """A stand-in for ProcessPoolExecutor that appends its size to ``sizes`` and maps serially."""

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    return RecordingPool


@pytest.mark.parametrize(("parallelism", "restarts", "workers"), [
    pytest.param(5000, 5000, [3], id="cpus-bound"),
    pytest.param(5000, 8, [3], id="cpus-bound-few-restarts"),
    pytest.param(2, 5000, [2], id="parallelism-bound"),
    pytest.param(8, 2, [2], id="restarts-bound"),
    pytest.param(3, 4, [2], id="groups-bound"),  # groups of ceil(4 / 3) = 2
    pytest.param(1, 8, [], id="serial"),  # one worker runs in this process
])
def test_pool_is_bounded_by_restarts_and_usable_cpus(monkeypatch, parallelism, restarts,
                                                     workers):
    sizes = []
    # No process is started: the pool is a serial recorder and restarts are stubs.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool(sizes))
    monkeypatch.setattr(optimizer, "_run_group", _stub_group)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    cfg = OptimizerConfig(n_a=0, restarts=restarts, parallelism=parallelism)
    result = optimize(cfg)
    assert sizes == workers
    assert [r.restart for r in result.per_restart] == list(range(restarts))
    # Ties break toward the lowest index, and the winner's vector is the result.
    best = 3 if restarts > 3 else 0
    assert result.best_restart is result.per_restart[best]
    assert np.array_equal(result.best_params.h_gen, np.full(16, 1e-3 * best))


@pytest.mark.parametrize("n_a", [0, 2])
def test_records_do_not_depend_on_the_groups(monkeypatch, n_a):
    # One group of 8, groups of one, and two groups of 4 mapped by a serial
    # stand-in for the pool: the same records, traces and end points, and
    # heartbeats in restart-index order. No process is started.
    run_group = optimizer._run_group

    def run(parallelism, **patches):
        groups, heartbeats, ends = [], [], []

        def recording_group(cfg, indices):
            groups.append(list(indices))
            pairs = run_group(cfg, indices)
            ends.extend(x for _, x in pairs)
            return pairs

        with monkeypatch.context() as patch:
            patch.setattr(optimizer, "_run_group", recording_group)
            for name, value in patches.items():
                patch.setattr(optimizer, name, value)
            cfg = OptimizerConfig(n_a=n_a, restarts=8, seed=3, max_iterations=40,
                                  parallelism=parallelism)
            result = optimize(cfg, progress=lambda record, done, total: heartbeats.append(
                (record.restart, done, total)))
        assert heartbeats == [(i, i + 1, 8) for i in range(8)]
        return groups, (result.per_restart, ends)

    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool(sizes))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    groups, together = run(1)
    assert groups == [list(range(8))]
    groups, alone = run(1, _LOCKSTEP_OUTCOMES=1)
    assert groups == [[i] for i in range(8)]
    groups, split = run(2)
    assert groups == [[0, 1, 2, 3], [4, 5, 6, 7]] and sizes == [2]
    for records, ends in (alone, split):
        assert records == together[0]
        assert all(np.array_equal(x, y) for x, y in zip(ends, together[1], strict=True))


def test_descents_keep_no_thunk_past_its_round():
    # A thunk holds its round's forward alive. When a round is evaluated,
    # only the last round's replies may still be held, not the start's
    # thunk nor an accepted trial's.
    rounds = []

    def evaluate(points):
        assert all(ref() is None for old in rounds[:-1] for ref in old)
        replies = _values_and_pullbacks(points, 0)
        rounds.append([weakref.ref(grad) for _, grad in replies])
        return replies

    starts = [initial_vector(0, 0.5, np.random.default_rng(30 + i)) for i in range(2)]
    ends = _lockstep([_bfgs_descent(x0, 30) for x0 in starts], evaluate)
    assert all(end[2]["iterations"] > 1 and end[2]["backtracks"] > 0 for end in ends)


def test_failed_steepest_search_is_not_repeated():
    # Every trial is worse than the start, so the first search along -g
    # fails; searching -g again could only fail the same way.
    pulled = []  # the point of each reverse pass

    def rising(x):
        def grad():
            pulled.append(x)
            return np.ones_like(x)

        return 1.0 + float(np.abs(x).sum()), grad

    _, _, stats = _lockstep([_bfgs_descent(np.zeros(16), 20)], one_at_a_time(rising))[0]
    # No trial is accepted, so the only pull is the start's.
    assert len(pulled) == 1 and np.array_equal(pulled[0], np.zeros(16))
    assert stats["stop"] == "line_search_floor"
    assert stats["iterations"] == 0
    assert stats["f_evals"] == stats["backtracks"] == optimizer._MAX_BACKTRACKS
    assert stats["steepest_fallbacks"] == 0


def test_backtracking_lands_on_the_quadratic_minimizer():
    # f = 1.5 |x|^2 from x = 1: step 1 overshoots to x = -2 and is rejected;
    # the quadratic through f, the slope and that trial is f itself, so the
    # second trial (step 1/3) lands on its minimizer x = 0.
    quadratic = one_at_a_time(lambda x: (1.5 * x @ x, lambda: 3 * x))
    _, _, stats = _lockstep([_bfgs_descent(np.ones(16), 20)], quadratic)[0]
    assert stats["stop"] == "gradient_tol"
    assert stats["iterations"] == 1
    assert stats["f_evals"] == 2
    assert stats["backtracks"] == 1


def test_optimum_is_nearly_unitary_at_na0():
    result = _small_run(restarts=6, seed=3)
    assert result.report.h_mutual >= 1.5 - 1e-3
    assert matrix_distance_to_unitary(result.best_matrix) < 1e-3


def test_initial_vector_shape_and_spread():
    rng = np.random.default_rng(0)
    vec = initial_vector(2, 0.5, rng)
    m = 6
    assert vec.shape == (m * m,)
    assert np.all(np.abs(vec) <= 0.5)


def test_progress_callback_fires():
    seen = []
    cfg = OptimizerConfig(n_a=0, restarts=3, seed=2, parallelism=1, max_iterations=200)
    optimize(cfg, progress=lambda record, done, total: seen.append((record.restart, done, total)))
    assert len(seen) == 3
    assert seen[-1][1:] == (3, 3)
