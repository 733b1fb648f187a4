"""Quasi-Newton maximization of Bell-analyzer mutual information.

The objective minimized is the garbage-corrected conditional information of
the four-way Bell ensemble under the circuit induced by an unconstrained
parameter vector; maximized mutual information is 2 minus its minimum.
Descent is BFGS with Armijo backtracking. Every line-search trial runs one
forward that keeps what the reverse pass reads; the accepted trial's reverse
pass chains the pullbacks of the entropy (:mod:`bellopt.infometrics`), the
amplitude cascade (:mod:`bellopt.transfer`) and the ``eigh`` exponential
(:mod:`bellopt.unitary`) into the gradient, so no second forward runs there.
Central finite differences stay as the test reference. Global search is
seeded multi-start with a deterministic reduction.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from bellopt.errors import ContractViolationError
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
)
from bellopt.unitary import (
    CircuitParams,
    matrix_entries_from_vectors,
    matrix_entries_pullback,
    params_to_matrix,
)

#: A descent stops at ``gradient_tol`` once the gradient norm is below this.
_GRADIENT_TOL = 1e-5
#: Armijo sufficient-decrease coefficient and backtracking shrink factor.
_ARMIJO_C1 = 1e-4
_BACKTRACK_SHRINK = 0.5
_MAX_BACKTRACKS = 50
#: A restart's generator reals are drawn uniform in [-_INIT_SCALE, _INIT_SCALE].
_INIT_SCALE = 0.5


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
    resets of the inverse Hessian to steepest descent.
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
    wall_time: float

    @property
    def best_restart(self) -> RestartRecord:
        best = min(self.per_restart, key=lambda r: (-r.h_mutual, r.restart))
        return best


def _objective_vectors(vectors: np.ndarray, n_a: int) -> np.ndarray:
    """Garbage-corrected conditional information for parameter vectors (..., dim)."""
    vectors = np.asarray(vectors, dtype=np.float64)
    m = n_a + 4
    u = matrix_entries_from_vectors(vectors, m).reshape((-1, m, m))
    # Batch-major parts layout; conditional_bits reads the transposed views.
    p, garbage = bell_probability_parts(u, n_a)
    return conditional_bits(p.transpose(2, 1, 0), garbage.T).reshape(vectors.shape[:-1])


def objective(params: CircuitParams, n_a: int) -> float:
    """Garbage-corrected conditional information of the analyzer at ``params``."""
    if params.m != n_a + 4:
        raise ContractViolationError(
            f"params describe {params.m} modes but n_a={n_a} needs {n_a + 4}"
        )
    return float(_objective_vectors(params.to_vector(), n_a))


def _gradient_vector(x: np.ndarray, n_a: int, step: float) -> np.ndarray:
    """Central finite-difference gradient: the test reference for the reverse pass."""
    dim = x.shape[0]
    points = np.repeat(x[None, :], 2 * dim, axis=0)
    idx = np.arange(dim)
    points[idx, idx] += step
    points[dim + idx, idx] -= step
    values = _objective_vectors(points, n_a)
    return (values[:dim] - values[dim:]) / (2.0 * step)


def _value_and_pullback(x: np.ndarray, n_a: int):
    """Objective at one parameter vector, plus a thunk that returns its gradient.

    The forward keeps every level the reverse pass reads, so the gradient at
    an accepted line-search trial costs one reverse pass and no second forward.
    """
    u, u_pullback = matrix_entries_pullback(x, n_a + 4)
    p, garbage, p_pullback = bell_probability_pullback(u, n_a)
    f, p_bar, g_bar = conditional_bits_pullback(p.T, garbage)
    return f, lambda: u_pullback(p_pullback(p_bar.T, g_bar))


def gradient(params: CircuitParams, n_a: int) -> np.ndarray:
    """Gradient of :func:`objective`, one value per parameter."""
    if params.m != n_a + 4:
        raise ContractViolationError(
            f"params describe {params.m} modes but n_a={n_a} needs {n_a + 4}"
        )
    return _value_and_pullback(params.to_vector(), n_a)[1]()


def _bfgs_descent(
    x0: np.ndarray, n_a: int, max_iterations: int
) -> tuple[np.ndarray, float, dict]:
    """Minimize the objective from x0.

    Returns (x, f, stats) with stats holding the :class:`RestartRecord`
    fields other than ``restart`` and ``h_mutual``.
    """
    x = np.array(x0, dtype=np.float64)
    f, grad = _value_and_pullback(x, n_a)
    g = grad()
    trace = [f]
    h_inv = None  # inverse-Hessian estimate; None means steepest descent
    iterations = 0
    stop = "iteration_cap"
    counts = {"f_evals": 0, "grad_evals": 1, "backtracks": 0, "steepest_fallbacks": 0}

    def backtrack(direction: np.ndarray):
        """(x, f, gradient thunk) of the first Armijo trial, or None."""
        slope = float(g @ direction)
        if slope >= 0.0:
            return None
        step_size = 1.0
        for _ in range(_MAX_BACKTRACKS):
            x_try = x + step_size * direction
            f_try, grad_try = _value_and_pullback(x_try, n_a)
            counts["f_evals"] += 1
            if f_try <= f + _ARMIJO_C1 * step_size * slope:
                return x_try, f_try, grad_try
            counts["backtracks"] += 1
            step_size *= _BACKTRACK_SHRINK
        return None

    for _ in range(max_iterations):
        if float(np.linalg.norm(g)) < _GRADIENT_TOL:
            stop = "gradient_tol"
            break
        accepted = backtrack(-g if h_inv is None else -h_inv @ g)
        if accepted is None and h_inv is not None:
            # The quasi-Newton direction is uphill or poorly scaled: drop the
            # curvature information and search along -g instead.
            h_inv = None
            counts["steepest_fallbacks"] += 1
            accepted = backtrack(-g)
        if accepted is None:
            # No representable decrease: objective is at its numerical floor.
            stop = "line_search_floor"
            break
        x_new, f_new, grad_new = accepted

        g_new = grad_new()
        counts["grad_evals"] += 1
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(y) + 1e-300):
            if h_inv is None:
                h_inv = (sy / float(y @ y)) * np.eye(x.shape[0])
            # (I - rho s y^T) H (I - rho y s^T) + rho s s^T, in rank-two form.
            rho = 1.0 / sy
            hy = h_inv @ y
            h_inv = (h_inv - rho * (np.outer(hy, s) + np.outer(s, hy))
                     + (rho * rho * float(y @ hy) + rho) * np.outer(s, s))
        x, f, g = x_new, f_new, g_new
        iterations += 1
        trace.append(f)

    stats = {"iterations": iterations, "stop": stop, "grad_norm": float(np.linalg.norm(g)),
             **counts, "objective_trace": trace}
    return x, f, stats


def initial_vector(n_a: int, init_scale: float, rng: np.random.Generator) -> np.ndarray:
    """Random start: the M^2 generator reals uniform in [-scale, scale]."""
    m = n_a + 4
    return rng.uniform(-init_scale, init_scale, m * m)


def _run_restart(cfg: OptimizerConfig, index: int) -> tuple[RestartRecord, np.ndarray]:
    """One seeded descent: restart ``index`` of ``cfg``, and where it ended.

    ``SeedSequence(seed, spawn_key=(index,))`` is the ``index``-th child of
    ``SeedSequence(seed).spawn(...)``, built without its siblings.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(index,)))
    x0 = initial_vector(cfg.n_a, _INIT_SCALE, rng)
    x, f, stats = _bfgs_descent(x0, cfg.n_a, cfg.max_iterations)
    return RestartRecord(restart=index, h_mutual=H_X_BITS - f, **stats), x


def optimize(cfg: OptimizerConfig, progress=None) -> OptimizationResult:
    """Multi-start quasi-Newton run; returns the best analyzer found.

    Restart i draws its start from the i-th spawn of SeedSequence(cfg.seed),
    so results do not depend on the level of parallelism, and ties between
    restarts break toward the lowest index. ``progress``, if given, is called
    with (record, done_count, total) as restarts finish.
    """
    t0 = time.perf_counter()
    workers = min(cfg.parallelism, cfg.restarts)
    records: list[RestartRecord] = []
    vectors: list[np.ndarray] = []
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        for record, x in run(partial(_run_restart, cfg), range(cfg.restarts)):
            records.append(record)
            vectors.append(x)
            if progress is not None:
                progress(record, len(records), cfg.restarts)

    best_index = min(range(cfg.restarts), key=lambda i: (-records[i].h_mutual, i))
    best_params = CircuitParams.from_vector(vectors[best_index], cfg.m)
    best_matrix = params_to_matrix(best_params)
    report = mutual_information(outcome_table(best_matrix, cfg.n_a))
    return OptimizationResult(
        best_params=best_params,
        best_matrix=best_matrix,
        report=report,
        per_restart=records,
        wall_time=time.perf_counter() - t0,
    )
