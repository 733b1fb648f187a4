"""Quasi-Newton maximization of Bell-analyzer mutual information.

The objective minimized is the garbage-corrected conditional information of
the four-way Bell ensemble under the circuit induced by an unconstrained
parameter vector; maximized mutual information is 2 minus its minimum.
Descent is BFGS with Armijo backtracking by quadratic interpolation: a
rejected trial, still counted as a backtrack, sets the next step to the
minimizer of the quadratic through the current value, the slope and that
trial's value, kept within 0.1-0.5 of the rejected step, and a trial is
accepted only if it also lowers the objective strictly. Every line-search
trial runs one forward that keeps what the reverse pass reads; the accepted
trial's reverse pass chains the pullbacks of the entropy
(:mod:`bellopt.infometrics`), the amplitude cascade (:mod:`bellopt.transfer`)
and the ``eigh`` exponential (:mod:`bellopt.unitary`) into the gradient, so
no second forward runs there. :func:`objective` and :func:`gradient` read
that same forward, one vector as a stack of one. Central finite
differences, over a batched forward of their own, stay as the test
reference.

Global search is seeded multi-start with a deterministic reduction. The
descent is a coroutine: it yields each point it needs evaluated and is sent
the value there, then, at its start and after each accepted trial, yields a
gradient request and is sent the gradient at that point. Restarts run in
lockstep groups of consecutive indices, and each round has two phases: one
forward over a leading batch axis for every live restart's pending trial
point, then one reverse pass for the restarts that ask for a gradient, over
their slices of the kept levels. A group holds
``max(1, _LOCKSTEP_OUTCOMES // K)`` restarts for K outcomes, at most an even
share of the restarts per worker, so small alphabets share a forward and a
reverse pass and N_a >= 4 runs one restart per group. Every product of both
passes runs per matrix, and exp(iH) at a descent's points has no exact
zeros for the cascade to skip, so a restart's numbers do not depend on its
group; heartbeats arrive in restart-index order.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from bellopt.errors import ContractViolationError
from bellopt.fock import outcome_count
from bellopt.infometrics import (
    H_X_BITS,
    InfoReport,
    conditional_bits,
    conditional_bits_pullback,
    mutual_information,
)
from bellopt.transfer import (
    CircuitMatrix,
    bell_probability_parts,
    bell_probability_pullback,
    outcome_table,
    require_modes,
)
from bellopt.unitary import (
    CircuitParams,
    matrix_entries_from_vectors,
    matrix_entries_pullback,
    params_to_matrix,
)

#: A descent stops at ``gradient_tol`` once the gradient norm is below this.
_GRADIENT_TOL = 1e-5
#: Armijo sufficient-decrease coefficient and the most trials one search runs.
_ARMIJO_C1 = 1e-4
_MAX_BACKTRACKS = 50
#: A restart's generator reals are drawn uniform in [-_INIT_SCALE, _INIT_SCALE].
_INIT_SCALE = 0.5
#: Outcomes one lockstep group's forward covers, K per restart. Stacking
#: restarts pays where a forward is mostly numpy-call overhead: K = 10 and
#: 126 (N_a = 0 and 2) get groups of 102 and 8. The bound is memory: the
#: kept levels grow with the group, and at K = 1,716 (N_a = 4) two restarts
#: × 10 iterations peaked at 4.1 MB traced in a group against 1.4 MB alone,
#: 8 × 30 at 17.7 MB against 1.4 MB. So from N_a = 4 on each restart runs
#: alone, at the memory of one forward. The known cost: a group of one
#: pays for the batch axis, so an N_a = 4 descent runs 7-9 % slower than
#: one without it, while one group of 8 ran about 9 % faster than that.
_LOCKSTEP_OUTCOMES = 1024


@dataclass
class OptimizerConfig:
    """Knobs for one multi-start optimization run."""

    n_a: int
    restarts: int = 20
    max_iterations: int = 2000
    seed: int = 0
    parallelism: int = 1

    def __post_init__(self):
        if self.n_a < 0:
            raise ContractViolationError(f"ancilla count must be >= 0, got {self.n_a}")
        if self.restarts < 1:
            raise ContractViolationError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iterations < 1:
            raise ContractViolationError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if self.parallelism < 1:
            raise ContractViolationError(f"parallelism must be >= 1, got {self.parallelism}")
        if self.seed < 0:
            raise ContractViolationError(f"seed must be >= 0, got {self.seed}")

    @property
    def m(self) -> int:
        return self.n_a + 4


@dataclass
class RestartRecord:
    """Outcome of one seeded descent and what it spent.

    ``stop`` is why the descent ended: ``gradient_tol`` (gradient norm below
    ``_GRADIENT_TOL``), ``line_search_floor`` (no step along the quasi-Newton or
    the steepest-descent direction gave a representable decrease) or
    ``iteration_cap``. ``f_evals`` counts line-search trials (one forward
    each), ``grad_evals`` reverse passes (the start and each accepted trial),
    ``backtracks`` rejected line-search trials and ``steepest_fallbacks``
    resets of the inverse Hessian to steepest descent. The line search is
    Armijo backtracking by quadratic interpolation; a trial it rejects still
    counts as one backtrack, so ``f_evals - backtracks == iterations``.
    """

    restart: int
    h_mutual: float
    iterations: int
    stop: str
    grad_norm: float
    f_evals: int
    grad_evals: int
    backtracks: int
    steepest_fallbacks: int
    objective_trace: list[float] = field(default_factory=list, repr=False)

    @property
    def converged(self) -> bool:
        return self.stop == "gradient_tol"


@dataclass
class OptimizationResult:
    best_params: CircuitParams
    best_matrix: CircuitMatrix
    report: InfoReport
    per_restart: list[RestartRecord]
    best_restart: RestartRecord
    wall_time: float


def _objective_vectors(vectors: np.ndarray, n_a: int) -> np.ndarray:
    """The objective at a batch of parameter vectors (..., dim): the FD reference's forward."""
    vectors = np.asarray(vectors, dtype=np.float64)
    m = n_a + 4
    u = matrix_entries_from_vectors(vectors, m).reshape((-1, m, m))
    # Batch-major parts layout; conditional_bits reads the transposed views.
    p, garbage = bell_probability_parts(u, n_a)
    return conditional_bits(p.transpose(2, 1, 0), garbage.T).reshape(vectors.shape[:-1])


def objective(params: CircuitParams, n_a: int) -> float:
    """Garbage-corrected conditional information at ``params``: the value BFGS minimizes."""
    require_modes((params.m, params.m), n_a)
    return float(_value_and_pullback(params.to_vector(), n_a)[0])


def _gradient_vector(x: np.ndarray, n_a: int, step: float) -> np.ndarray:
    """Central finite-difference gradient: the test reference for the reverse pass."""
    dim = x.shape[0]
    points = np.repeat(x[None, :], 2 * dim, axis=0)
    idx = np.arange(dim)
    points[idx, idx] += step
    points[dim + idx, idx] -= step
    values = _objective_vectors(points, n_a)
    return (values[:dim] - values[dim:]) / (2.0 * step)


def _values_and_pullbacks(vectors: np.ndarray, n_a: int):
    """The objective at each row of a stack (B, dim), plus ``pull`` for the gradients of any rows.

    Returns ``(values, pull)``: B floats, and ``pull(items)``, which maps
    row indices (n,), in any order and with repeats, to their gradients
    (n, dim). One forward runs for the whole stack and keeps every level
    the reverse pass reads, and one call of ``pull`` runs one reverse pass
    over the picked rows' slices, with no second forward. Every product of
    both passes runs per row, so a row whose circuit has no exact zeros, as
    at any seeded point, gets the numbers it would get alone, however it
    is stacked and pulled.
    """
    u, u_pullback = matrix_entries_pullback(vectors, n_a + 4)
    p, garbage, p_pullback = bell_probability_pullback(u, n_a)
    f, p_bar, g_bar = conditional_bits_pullback(p.swapaxes(-1, -2), garbage)

    def pull(items) -> np.ndarray:
        items = np.asarray(items, dtype=np.intp)
        return u_pullback(p_pullback(p_bar[items].swapaxes(-1, -2), g_bar[items], items), items)

    return f.tolist(), pull


def _value_and_pullback(x: np.ndarray, n_a: int):
    """Objective at one parameter vector, plus a thunk that returns its gradient: a stack of one."""
    values, pull = _values_and_pullbacks(x[None], n_a)
    return values[0], lambda: pull([0])[0]


def gradient(params: CircuitParams, n_a: int) -> np.ndarray:
    """Gradient of :func:`objective`, one value per parameter."""
    require_modes((params.m, params.m), n_a)
    return _value_and_pullback(params.to_vector(), n_a)[1]()


#: What :func:`_bfgs_descent` yields to ask for the gradient at the point
#: whose value it was just sent.
_GRADIENT = object()


def _bfgs_descent(x0: np.ndarray, max_iterations: int):
    """Minimize an objective from x0: a coroutine that asks for every evaluation.

    It yields each point it needs evaluated and must be sent the value
    ``f`` there. At its start and after each accepted trial it then yields
    :data:`_GRADIENT` and must be sent the gradient at that same point.
    :func:`_lockstep` answers these requests. It returns (x, f, stats) with
    stats holding the :class:`RestartRecord` fields other than ``restart``
    and ``h_mutual``.
    """
    x = np.array(x0, dtype=np.float64)
    f = yield x
    g = yield _GRADIENT
    trace = [f]
    h_inv = None  # inverse-Hessian estimate; None means steepest descent
    iterations = 0
    stop = "iteration_cap"
    counts = {"f_evals": 0, "grad_evals": 1, "backtracks": 0, "steepest_fallbacks": 0}

    def backtrack(direction: np.ndarray):
        """(x, f) of the first Armijo trial, or None."""
        slope = float(g @ direction)
        if slope >= 0.0:
            return None
        step_size = 1.0
        for _ in range(_MAX_BACKTRACKS):
            x_try = x + step_size * direction
            f_try = yield x_try
            counts["f_evals"] += 1
            if f_try < f and f_try <= f + _ARMIJO_C1 * step_size * slope:
                return x_try, f_try
            counts["backtracks"] += 1
            # Minimizer of the quadratic through f, the slope and f_try (a
            # rejected trial makes its denominator positive), kept in [0.1, 0.5]
            # of the step.
            quadratic = -slope * step_size * step_size / (2.0 * (f_try - f - slope * step_size))
            step_size = min(0.5 * step_size, max(0.1 * step_size, quadratic))
        return None

    for _ in range(max_iterations):
        if math.sqrt(g @ g) < _GRADIENT_TOL:
            stop = "gradient_tol"
            break
        accepted = yield from backtrack(-g if h_inv is None else -(h_inv @ g))
        if accepted is None and h_inv is not None:
            # The quasi-Newton direction is uphill or poorly scaled: drop the
            # curvature information and search along -g instead.
            h_inv = None
            counts["steepest_fallbacks"] += 1
            accepted = yield from backtrack(-g)
        if accepted is None:
            # No representable decrease: objective is at its numerical floor.
            stop = "line_search_floor"
            break
        x_new, f_new = accepted

        g_new = yield _GRADIENT
        counts["grad_evals"] += 1
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        yy = float(y @ y)
        if sy > 1e-12 * (math.sqrt(s @ s) * math.sqrt(yy) + 1e-300):
            if h_inv is None:
                h_inv = (sy / yy) * np.eye(x.shape[0])
            # (I - rho s y^T) H (I - rho y s^T) + rho s s^T, in rank-two form;
            # hy_s.T is the outer product of s with hy.
            rho = 1.0 / sy
            hy = h_inv @ y
            hy_s = hy[:, None] * s
            h_inv = (h_inv - rho * (hy_s + hy_s.T)
                     + (rho * rho * float(y @ hy) + rho) * (s[:, None] * s))
        x, f, g = x_new, f_new, g_new
        iterations += 1
        trace.append(f)

    stats = {"iterations": iterations, "stop": stop, "grad_norm": math.sqrt(g @ g),
             **counts, "objective_trace": trace}
    return x, f, stats


def _lockstep(descents: list, evaluate) -> list[tuple[np.ndarray, float, dict]]:
    """Run :func:`_bfgs_descent` coroutines side by side; each one's (x, f, stats), in order.

    A round has two phases. First every live descent's pending point goes
    into one call of ``evaluate``, which maps a (B, dim) stack to
    ``(values, pull)`` as :func:`_values_and_pullbacks` does, and each
    descent is sent its value. Then the rows of the descents that ask for a
    gradient go into one call of ``pull``, and each is sent its row. So a
    round runs one forward and at most one reverse pass, and a descent's
    numbers do not depend on which others share its rounds.
    """
    ends: list = [None] * len(descents)

    def answer(k: int, reply):
        """Descent k's next request, or None once it has returned."""
        try:
            return descents[k].send(reply)
        except StopIteration as end:
            ends[k] = end.value
            return None

    pending = {k: next(descent) for k, descent in enumerate(descents)}
    while pending:
        live = list(pending)
        values, pull = evaluate(np.array(list(pending.values())))
        requests = [answer(k, f) for k, f in zip(live, values)]
        asking = [row for row, request in enumerate(requests) if request is _GRADIENT]
        if asking:
            for row, g in zip(asking, pull(asking)):
                requests[row] = answer(live[row], g)
        pending = {k: request for k, request in zip(live, requests) if request is not None}
    return ends


def initial_vector(n_a: int, init_scale: float, rng: np.random.Generator) -> np.ndarray:
    """Random start: the M^2 generator reals uniform in [-scale, scale]."""
    m = n_a + 4
    return rng.uniform(-init_scale, init_scale, m * m)


def _run_group(cfg: OptimizerConfig, indices: range) -> list[tuple[RestartRecord, np.ndarray]]:
    """Restarts ``indices`` of ``cfg`` in lockstep: each one's record and end point, in order.

    Restart i starts from ``SeedSequence(seed, spawn_key=(i,))``, the i-th
    child of ``SeedSequence(seed).spawn(...)``, built without its siblings.
    """
    starts = [initial_vector(cfg.n_a, _INIT_SCALE, np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(index,)))) for index in indices]
    ends = _lockstep([_bfgs_descent(x0, cfg.max_iterations) for x0 in starts],
                     partial(_values_and_pullbacks, n_a=cfg.n_a))
    return [(RestartRecord(restart=index, h_mutual=H_X_BITS - f, **stats), x)
            for index, (x, f, stats) in zip(indices, ends)]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def optimize(cfg: OptimizerConfig, progress=None) -> OptimizationResult:
    """Multi-start quasi-Newton run; returns the best analyzer found.

    Restart i draws its start from the i-th spawn of SeedSequence(cfg.seed),
    so results do not depend on the level of parallelism or on the groups,
    and ties between restarts break toward the lowest index. Restarts run
    in groups of consecutive indices, each group in lockstep through one
    batched forward and at most one batched reverse pass per round
    (:func:`_lockstep`). A group holds
    ``max(1, _LOCKSTEP_OUTCOMES // K)`` restarts, K the outcome count, but
    no more than an even share of the restarts per worker. The groups run
    in this process or in a process pool, with at most one worker per group
    and per usable CPU, whatever ``cfg.parallelism`` asks for.
    ``progress``, if given, is called with (record, done_count, total) as
    each group finishes, once per restart, in restart-index order.
    """
    t0 = time.perf_counter()
    workers = min(cfg.parallelism, cfg.restarts, _usable_cpus())
    size = min(max(1, _LOCKSTEP_OUTCOMES // outcome_count(cfg.n_a + 2, cfg.m)),
               math.ceil(cfg.restarts / workers))
    groups = [range(start, min(start + size, cfg.restarts))
              for start in range(0, cfg.restarts, size)]
    workers = min(workers, len(groups))
    records: list[RestartRecord] = []
    vectors: list[np.ndarray] = []
    if workers > 1:
        # Imported on use: the pool module and multiprocessing cost a fresh
        # interpreter about 20 ms, which a serial run need not pay.
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        for group in run(partial(_run_group, cfg), groups):
            for record, x in group:
                records.append(record)
                vectors.append(x)
                if progress is not None:
                    progress(record, len(records), cfg.restarts)

    best = min(records, key=lambda r: (-r.h_mutual, r.restart))
    best_params = CircuitParams.from_vector(vectors[best.restart], cfg.m)
    best_matrix = params_to_matrix(best_params)
    report = mutual_information(outcome_table(best_matrix, cfg.n_a))
    return OptimizationResult(
        best_params=best_params,
        best_matrix=best_matrix,
        report=report,
        per_restart=records,
        best_restart=best,
        wall_time=time.perf_counter() - t0,
    )
