"""ADMM engine for chain-coupled objectives.

Solves

    minimize  sum_i Phi_i(x_i) + sum_i Psi_i(r_i)
    subject to  r_i = x_{i+1} - x_i,

by alternating the 2N-1 independent prox updates of Phi and Psi, a
single projection onto the chain subspace, and the scaled dual updates,
with optional over-relaxation. Termination follows the standard
absolute-plus-relative test on the primal and dual residual norms.

One iteration is a fixed sequence of whole-array operations: the two
batch prox maps, one LDL^T tridiagonal solve in
:func:`~tvadmm.projection.project`, and in-place relaxation, dual update
and residual norms on preallocated (2N-1, d) arrays that stack each
block part over its difference part. A single block (N = 1) runs the
same loop, with zero difference rows.
"""

from dataclasses import dataclass, field
from functools import lru_cache
import math
from typing import Callable, Optional

import numpy as np

from .exceptions import NumericalFailureError, UnboundedProblemError
from .projection import chain_factor, project

HISTORY_DTYPE = np.dtype(
    [
        ("iter", np.int64),
        ("primal", np.float64),
        ("dual", np.float64),
        ("eps_pri", np.float64),
        ("eps_dual", np.float64),
    ]
)


@dataclass
class SolverConfig:
    """Penalty, relaxation, tolerances and the iteration cap.

    ``rho=None`` defers to the problem's preferred penalty (the filters
    use their regularization weight when it is positive, else 1).
    """

    rho: Optional[float] = None
    alpha: float = 1.8
    eps_abs: float = 1e-4
    eps_rel: float = 1e-3
    max_iter: int = 10000

    def __post_init__(self):
        if self.rho is not None and not self.rho > 0.0:
            raise ValueError("rho must be positive, got %g" % self.rho)
        if not 1.0 <= self.alpha < 2.0:
            raise ValueError("alpha must lie in [1, 2), got %g" % self.alpha)
        if not self.eps_abs > 0.0:
            raise ValueError("eps_abs must be positive")
        if not self.eps_rel > 0.0:
            raise ValueError("eps_rel must be positive")
        if int(self.max_iter) < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class ChainProblem:
    """A chain-coupled problem instance given through its batch prox maps.

    ``phi_prox_batch(targets, rho)`` takes an (n_blocks, block_dim) array
    and returns one of the same shape whose row i minimizes
    Phi_i(x) + (rho/2)||x - targets[i]||^2. ``psi_prox_batch(targets,
    rho)`` does the same for the difference costs Psi_i over an
    (n_blocks - 1, block_dim) array, which has no rows when n_blocks is
    1. A result of the wrong size raises ``ValueError``.

    Optional pieces: an objective callback ``objective(x_blocks,
    r_blocks)`` used for the report's objective trace, and
    ``divergence_floor`` below which the objective trace triggers an
    unbounded-problem error.
    """

    n_blocks: int
    block_dim: int
    phi_prox_batch: Callable[[np.ndarray, float], np.ndarray]
    psi_prox_batch: Callable[[np.ndarray, float], np.ndarray]
    objective: Optional[Callable[[np.ndarray, np.ndarray], float]] = None
    divergence_floor: Optional[float] = None
    default_rho: float = 1.0

    def __post_init__(self):
        if int(self.n_blocks) < 1:
            raise ValueError("n_blocks must be >= 1")
        if int(self.block_dim) < 1:
            raise ValueError("block_dim must be >= 1")


@dataclass
class SolverState:
    """Consensus and dual iterates; pass back to ``solve`` to warm start.

    ``s`` and ``t`` have no rows when there is a single block.
    """

    z: np.ndarray
    s: np.ndarray
    u: np.ndarray
    t: np.ndarray


@dataclass
class SolverReport:
    """Outcome of a solve: solution, convergence flag and residual history.

    When present, ``objective_trace[-1]`` is the objective at ``x_star``.
    ``polished`` is True when a post-processing step replaced the
    iterate with an exact optimum it certified (the mean filter does
    this); the trace then ends with one extra entry for the polished
    estimate, while ``history``, ``iterations``, ``converged`` and
    ``state`` keep describing the iteration itself, so warm starts
    resume the iteration unchanged. ``certificate_gap`` is the largest
    violation of the optimality conditions found by that check (None
    when no check ran).
    """

    x_star: np.ndarray
    r_star: np.ndarray
    iterations: int
    converged: bool
    history: np.ndarray
    objective_trace: Optional[np.ndarray] = None
    state: Optional[SolverState] = field(default=None, repr=False)
    polished: bool = False
    certificate_gap: Optional[float] = None


@lru_cache(maxsize=64)
def _cached_chain_factor(n_blocks):
    return chain_factor(n_blocks)


def _norm(a):
    return math.sqrt(float(np.vdot(a, a)))


def residuals(xr, zs, zs_prev, ut, rho, eps_abs, eps_rel):
    """Residual norms and tolerances for the stacked iterate at one step.

    Each array stacks a block part over its difference part, (2N - 1, d):
    ``xr`` = (x, r), ``zs`` = (z, s), ``zs_prev`` the previous (z, s)
    and ``ut`` = (u, t). Returns ``(primal, dual, eps_pri, eps_dual)``
    where primal is ||xr - zs||_2, dual is rho * ||zs - zs_prev||_2, and
    the tolerances use the square root of the stacked dimension
    (2N - 1) * d.
    """
    root_dim = math.sqrt(xr.size)
    primal = _norm(xr - zs)
    dual = rho * _norm(zs - zs_prev)
    eps_pri = root_dim * eps_abs + eps_rel * max(_norm(xr), _norm(zs))
    eps_dual = root_dim * eps_abs + eps_rel * rho * _norm(ut)
    return primal, dual, eps_pri, eps_dual


def _check_finite(blocks, iteration, which):
    if np.isfinite(blocks).all():
        return
    bad = int(np.argwhere(~np.isfinite(blocks).all(axis=1))[0, 0])
    raise NumericalFailureError(
        "%s prox returned non-finite values at iteration %d, block %d"
        % (which, iteration, bad),
        iteration=iteration,
        block_index=bad,
    )


def solve(problem, config=None, initial=None, callback=None):
    """Run the splitting iteration on ``problem``.

    Every problem, a single block included, runs the same loop: the two
    batch prox maps, the projection, relaxation and the dual update.
    With one block the difference arrays have no rows, the projection is
    the identity and the dual stays zero, so the loop is the relaxed
    fixed-point iteration of the block prox.

    Parameters
    ----------
    problem : ChainProblem
    config : SolverConfig, optional
        Defaults to ``SolverConfig()``.
    initial : SolverState, optional
        Warm start; all-zero state otherwise. Its arrays are copied, never
        modified.
    callback : callable, optional
        ``callback(k, info)`` invoked after each iteration with a dict
        holding the current ``x, r, z, s, u, t`` arrays. They are views of
        the engine's working buffers, valid only during the call: read
        them, or copy what must outlive it, but do not modify them.

    Returns
    -------
    SolverReport
        The solution is reported from the projected (feasible) side, so
        ``r_star`` equals the exact consecutive differences of ``x_star``
        (no rows for a single block). Its arrays are copies, independent
        of any later solve.
    """
    if config is None:
        config = SolverConfig()
    rho = config.rho if config.rho is not None else problem.default_rho
    if not rho > 0.0:
        raise ValueError("resolved rho must be positive, got %g" % rho)
    return _solve_chain(problem, config, rho, initial, callback)


def _solve_chain(problem, config, rho, initial, callback):
    # Each pair -- (x, r), (z, s), (u, t) and the previous (z, s) -- lives
    # in one (2N - 1, d) array with the N block rows first, so relaxation,
    # the dual update and the residual norms act on whole arrays in place.
    n, d = problem.n_blocks, problem.block_dim
    chol = _cached_chain_factor(n)
    alpha = config.alpha
    stacked = (2 * n - 1, d)

    xr = np.empty(stacked)
    zs = np.zeros(stacked)
    ut = np.zeros(stacked)
    zs_prev = np.empty(stacked)
    targets = np.empty(stacked)
    relaxed = np.empty(stacked)
    scratch = np.empty(stacked)
    if initial is not None:
        zs[:n] = np.reshape(initial.z, (n, d))
        zs[n:] = np.reshape(initial.s, (n - 1, d))
        ut[:n] = np.reshape(initial.u, (n, d))
        ut[n:] = np.reshape(initial.t, (n - 1, d))
    x, r = xr[:n], xr[n:]

    phi, psi = problem.phi_prox_batch, problem.psi_prox_batch
    history = []
    obj_trace = [] if problem.objective is not None else None
    converged = False
    iterations = 0

    for k in range(1, int(config.max_iter) + 1):
        np.subtract(zs, ut, out=targets)
        # The reshape raises on a batch map result of the wrong size,
        # which a plain broadcast into the buffer would spread instead.
        x[...] = np.reshape(phi(targets[:n], rho), (n, d))
        r[...] = np.reshape(psi(targets[n:], rho), (n - 1, d))
        # A finite sum of squares proves every entry finite. Otherwise
        # (a non-finite entry, or overflow) the exact check names the block.
        if not math.isfinite(np.vdot(xr, xr)):
            _check_finite(x, k, "block")
            _check_finite(r, k, "difference")

        # Over-relaxation blends the fresh iterate with the previous
        # consensus before the projection and dual steps.
        np.multiply(xr, alpha, out=relaxed)
        np.multiply(zs, 1.0 - alpha, out=scratch)
        relaxed += scratch
        zs, zs_prev = zs_prev, zs
        np.add(relaxed, ut, out=targets)
        z, s = project(chol, targets[:n], targets[n:])
        zs[:n] = z
        zs[n:] = s
        ut += relaxed
        ut -= zs

        primal, dual, eps_pri, eps_dual = residuals(
            xr, zs, zs_prev, ut, rho, config.eps_abs, config.eps_rel
        )
        history.append((k, primal, dual, eps_pri, eps_dual))
        iterations = k

        if obj_trace is not None:
            value = float(problem.objective(zs[:n], zs[n:]))
            obj_trace.append(value)
            floor = problem.divergence_floor
            if floor is not None and value < floor:
                raise UnboundedProblemError(
                    "objective fell below %g at iteration %d; the problem "
                    "appears unbounded" % (floor, k)
                )
        if callback is not None:
            callback(k, {"x": x, "r": r, "z": zs[:n], "s": zs[n:],
                         "u": ut[:n], "t": ut[n:]})

        if primal <= eps_pri and dual <= eps_dual:
            converged = True
            break

    z, s = zs[:n].copy(), zs[n:].copy()
    return SolverReport(
        x_star=z,
        r_star=s,
        iterations=iterations,
        converged=converged,
        history=np.array(history, dtype=HISTORY_DTYPE),
        objective_trace=None if obj_trace is None else np.asarray(obj_trace),
        state=SolverState(z=z.copy(), s=s.copy(), u=ut[:n].copy(), t=ut[n:].copy()),
    )
