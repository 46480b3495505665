"""ADMM engine for chain-coupled objectives.

Solves

    minimize  sum_i Phi_i(x_i) + sum_i Psi_i(r_i)
    subject to  r_i = x_{i+1} - x_i,

by alternating the 2N-1 independent prox updates of Phi and Psi, a
single projection onto the chain subspace, and the scaled dual updates,
with optional over-relaxation. Termination follows the standard
absolute-plus-relative test on the primal and dual residual norms.

One iteration is a fixed sequence of whole-array operations: the two
batched prox maps (the per-block maps are looped over only for problems
that lack them), one LDL^T tridiagonal solve in
:func:`~tvadmm.projection.project`, and in-place relaxation, dual update
and residual norms on preallocated (2N-1, d) arrays that stack each
block part over its difference part.
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
    """A chain-coupled problem instance given through its prox maps.

    ``phi_prox(i, target, rho)`` returns the minimizer of
    Phi_i(x) + (rho/2)||x - target||^2 for block i in 0..n_blocks-1;
    ``psi_prox(i, target, rho)`` the analogue for the difference costs,
    i in 0..n_blocks-2. Both must return length-``block_dim`` vectors.

    Optional pieces: vectorized prox maps over all blocks at once, taking
    and returning (n_blocks, block_dim) and (n_blocks - 1, block_dim)
    arrays (used by the engine when present, in place of the per-block
    maps; they must match the per-block maps exactly, and a result of
    the wrong size raises ``ValueError``), an objective
    callback ``objective(x_blocks, r_blocks)``
    used for the report's objective trace, and ``divergence_floor``
    below which the objective trace triggers an unbounded-problem error.
    """

    n_blocks: int
    block_dim: int
    phi_prox: Callable[[int, np.ndarray, float], np.ndarray]
    psi_prox: Optional[Callable[[int, np.ndarray, float], np.ndarray]] = None
    phi_prox_batch: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    psi_prox_batch: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    objective: Optional[Callable[[np.ndarray, np.ndarray], float]] = None
    divergence_floor: Optional[float] = None
    default_rho: float = 1.0

    def __post_init__(self):
        if int(self.n_blocks) < 1:
            raise ValueError("n_blocks must be >= 1")
        if int(self.block_dim) < 1:
            raise ValueError("block_dim must be >= 1")
        if self.n_blocks > 1 and self.psi_prox is None:
            raise ValueError("psi_prox is required when n_blocks > 1")


@dataclass
class SolverState:
    """Consensus and dual iterates; pass back to ``solve`` to warm start."""

    z: np.ndarray
    s: Optional[np.ndarray]
    u: np.ndarray
    t: Optional[np.ndarray]


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
    r_star: Optional[np.ndarray]
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


def _stacked_norm(a, b):
    total = float(np.vdot(a, a))
    if b is not None:
        total += float(np.vdot(b, b))
    return math.sqrt(total)


def residuals(x, r, z, s, z_prev, s_prev, u, t, rho, eps_abs, eps_rel):
    """Residual norms and tolerances for the stacked iterate at one step.

    Returns ``(primal, dual, eps_pri, eps_dual)`` where primal is
    ||(x - z, r - s)||_2, dual is rho * ||(z, s) - (z_prev, s_prev)||_2,
    and the tolerances use the square root of the full stacked dimension
    (2N - 1) * d.
    """
    dim = x.size + (r.size if r is not None else 0)
    root_dim = math.sqrt(dim)
    primal = _stacked_norm(x - z, None if r is None else r - s)
    dual = rho * _stacked_norm(z - z_prev, None if s is None else s - s_prev)
    eps_pri = root_dim * eps_abs + eps_rel * max(
        _stacked_norm(x, r), _stacked_norm(z, s)
    )
    eps_dual = root_dim * eps_abs + eps_rel * rho * _stacked_norm(u, t)
    return primal, dual, eps_pri, eps_dual


def _batched(prox):
    # The per-block map looped over the rows, for problems without a
    # batch map.
    def batch(targets, rho):
        out = np.empty_like(targets)
        for i in range(targets.shape[0]):
            out[i] = prox(i, targets[i], rho)
        return out

    return batch


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
        ``r_star`` equals the exact consecutive differences of ``x_star``.
        Its arrays are copies, independent of any later solve.
    """
    if config is None:
        config = SolverConfig()
    rho = config.rho if config.rho is not None else problem.default_rho
    if not rho > 0.0:
        raise ValueError("resolved rho must be positive, got %g" % rho)
    if problem.n_blocks == 1:
        return _solve_single_block(problem, config, rho, initial, callback)
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

    phi = problem.phi_prox_batch or _batched(problem.phi_prox)
    psi = problem.psi_prox_batch or _batched(problem.psi_prox)
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
            xr, None, zs, None, zs_prev, None, ut, None,
            rho, config.eps_abs, config.eps_rel,
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


def _solve_single_block(problem, config, rho, initial, callback):
    # With one block there are no difference terms; iterate the prox map
    # to its fixed point, which is the unconstrained minimizer of Phi_1.
    d = problem.block_dim
    if initial is not None:
        x = np.array(initial.z, dtype=float).reshape(d)
    else:
        x = np.zeros(d)
    root_dim = math.sqrt(d)
    history = []
    obj_trace = [] if problem.objective is not None else None
    converged = False
    iterations = 0
    empty_r = np.zeros((0, d))

    for k in range(1, int(config.max_iter) + 1):
        x_new = np.asarray(problem.phi_prox(0, x, rho), dtype=float).reshape(d)
        _check_finite(x_new[None, :], k, "block")
        step = float(np.linalg.norm(x_new - x))
        eps_pri = config.eps_abs * root_dim + config.eps_rel * max(
            float(np.linalg.norm(x_new)), float(np.linalg.norm(x))
        )
        eps_dual = config.eps_abs * root_dim
        primal, dual = step, rho * step
        history.append((k, primal, dual, eps_pri, eps_dual))
        x = x_new
        iterations = k

        if obj_trace is not None:
            value = float(problem.objective(x[None, :], empty_r))
            obj_trace.append(value)
            floor = problem.divergence_floor
            if floor is not None and value < floor:
                raise UnboundedProblemError(
                    "objective fell below %g at iteration %d; the problem "
                    "appears unbounded" % (floor, k)
                )
        if callback is not None:
            callback(k, {"x": x[None, :], "r": empty_r, "z": x[None, :],
                         "s": empty_r, "u": np.zeros((1, d)), "t": empty_r})
        if primal <= eps_pri and dual <= eps_dual:
            converged = True
            break

    return SolverReport(
        x_star=x[None, :].copy(),
        r_star=empty_r,
        iterations=iterations,
        converged=converged,
        history=np.array(history, dtype=HISTORY_DTYPE),
        objective_trace=None if obj_trace is None else np.asarray(obj_trace),
        state=SolverState(z=x[None, :].copy(), s=None, u=np.zeros((1, d)), t=None),
    )
