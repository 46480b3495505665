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
:func:`~tvadmm.projection.project` written into the consensus buffer,
and in-place relaxation, dual update and residual norms on preallocated
(2N-1, d) arrays that stack each block part over its difference part.
A single block (N = 1) runs the same loop, with zero difference rows.
The objective, when the problem has one, is evaluated only on a
power-of-two schedule (see :class:`SolverReport`).
"""

from dataclasses import dataclass, field
import math
from typing import Callable, Optional

import numpy as np

from .exceptions import NumericalFailureError, positive_finite, whole_count
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

    ``rho=None`` lets the caller pick the penalty: ``solve`` uses 1, and
    the filters use their regularization weight when it is positive,
    else 1. ``max_iter`` is stored as an int, ``rho`` and the eps as floats.
    """

    rho: Optional[float] = None
    alpha: float = 1.8
    eps_abs: float = 1e-4
    eps_rel: float = 1e-3
    max_iter: int = 10000

    def __post_init__(self):
        if self.rho is not None:
            self.rho = positive_finite("rho", self.rho)
        if not 1.0 <= self.alpha < 2.0:
            raise ValueError("alpha must lie in [1, 2), got %g" % self.alpha)
        self.eps_abs = positive_finite("eps_abs", self.eps_abs)
        self.eps_rel = positive_finite("eps_rel", self.eps_rel)
        self.max_iter = whole_count("max_iter", self.max_iter)


@dataclass
class ChainProblem:
    """A chain-coupled problem instance given through its batch prox maps.

    ``phi_prox_batch(targets, rho)`` takes an (n_blocks, block_dim) array
    and returns one of the same shape whose row i minimizes
    Phi_i(x) + (rho/2)||x - targets[i]||^2. ``psi_prox_batch(targets,
    rho)`` does the same for the difference costs Psi_i over an
    (n_blocks - 1, block_dim) array, which has no rows when n_blocks is
    1. A result of the wrong size raises ``ValueError``. Both maps are
    called with the ``rho`` of the solve's config (1 when it is None).
    ``n_blocks`` and ``block_dim`` are stored as ints.

    Optional: an objective callback ``objective(x_blocks, r_blocks)``
    used for the report's objective trace. The engine calls it on the
    consensus iterate (z, s) at iterations 1, 2, 4, 8, ... and at the
    final iteration only.
    """

    n_blocks: int
    block_dim: int
    phi_prox_batch: Callable[[np.ndarray, float], np.ndarray]
    psi_prox_batch: Callable[[np.ndarray, float], np.ndarray]
    objective: Optional[Callable[[np.ndarray, np.ndarray], float]] = None

    def __post_init__(self):
        self.n_blocks = whole_count("n_blocks", self.n_blocks)
        self.block_dim = whole_count("block_dim", self.block_dim)


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

    ``history`` has one row per iteration. When the problem has an
    objective, ``objective_trace`` holds its value at iterations 1, 2,
    4, 8, ... and at the final iteration (None otherwise), and
    ``objective_trace[-1]`` is the objective at ``x_star``.
    ``polished`` is True when a post-processing step replaced the
    iterate with an exact optimum it certified (the mean filter does
    this); the trace then ends with one extra entry for the polished
    estimate, while ``history``, ``iterations``, ``converged`` and
    ``state`` describe the iteration that ran, so warm starts resume it.
    A filter that starts the iteration at the exact fixed point of an
    optimum it certified beforehand (the mean filter does) reports one
    iteration and one ``history`` row: that iteration only verified the
    optimum. ``certificate_gap`` is the largest
    violation of the optimality conditions found by that check (None
    when no check ran). ``r_star`` and ``objective_iters`` are derived
    from these fields.
    """

    x_star: np.ndarray
    iterations: int
    converged: bool
    history: np.ndarray
    objective_trace: Optional[np.ndarray] = None
    state: Optional[SolverState] = field(default=None, repr=False)
    polished: bool = False
    certificate_gap: Optional[float] = None

    @property
    def r_star(self):
        """The consecutive differences of ``x_star`` (no rows for one block)."""
        return np.diff(self.x_star, axis=0)

    @property
    def objective_iters(self):
        """The iteration number of each ``objective_trace`` entry, as int64
        (``[1, 2, 4, 6]`` for a solve that stops at iteration 6; a polished
        estimate's entry repeats the final iteration), or None."""
        if self.objective_trace is None:
            return None
        last = self.iterations
        iters = [1 << j for j in range(last.bit_length())]
        # Nonzero unless last is a power of two, already in the list.
        if last & (last - 1):
            iters.append(last)
        if self.polished:
            iters.append(last)
        return np.array(iters, dtype=np.int64)


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
        Defaults to ``SolverConfig()``. Its ``rho`` is handed to both prox
        maps; None means 1.
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
        its consecutive differences ``r_star`` are exact. Its arrays are
        copies, independent of any later solve.
    """
    if config is None:
        config = SolverConfig()
    rho = 1.0 if config.rho is None else config.rho

    # Each pair -- (x, r), (z, s), (u, t) and the previous (z, s) -- lives
    # in one (2N - 1, d) array with the N block rows first, so relaxation,
    # the dual update and the residual norms act on whole arrays in place.
    n, d = problem.n_blocks, problem.block_dim
    chol = chain_factor(n)
    alpha, max_iter = config.alpha, config.max_iter
    stacked = (2 * n - 1, d)

    xr = np.empty(stacked)
    zs = np.zeros(stacked)
    ut = np.zeros(stacked)
    zs_prev = np.empty(stacked)
    targets = np.empty(stacked)
    scratch = np.empty(stacked)
    if initial is not None:
        zs[:n] = np.asarray(initial.z).reshape(n, d)
        zs[n:] = np.asarray(initial.s).reshape(n - 1, d)
        ut[:n] = np.asarray(initial.u).reshape(n, d)
        ut[n:] = np.asarray(initial.t).reshape(n - 1, d)
    x, r = xr[:n], xr[n:]

    phi, psi = problem.phi_prox_batch, problem.psi_prox_batch
    objective = problem.objective
    history = []
    obj_trace = []
    converged = False
    iterations = 0

    for k in range(1, max_iter + 1):
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
        # consensus; the projection target is that blend plus the dual,
        # so the dual update (u, t) += blend - (z, s) is targets - (z, s).
        np.multiply(xr, alpha, out=targets)
        np.multiply(zs, 1.0 - alpha, out=scratch)
        targets += scratch
        targets += ut
        zs, zs_prev = zs_prev, zs
        # out= by keyword: callers that wrap project read (chol, w, v)
        # from the positional arguments.
        project(chol, targets[:n], targets[n:], out=zs)
        np.subtract(targets, zs, out=ut)

        primal, dual, eps_pri, eps_dual = residuals(
            xr, zs, zs_prev, ut, rho, config.eps_abs, config.eps_rel
        )
        history.append((k, primal, dual, eps_pri, eps_dual))
        iterations = k
        # Overflowed norms compare inf <= inf; only finite ones may stop.
        converged = (primal <= eps_pri < math.inf
                     and dual <= eps_dual < math.inf)

        # k & (k - 1) is 0 exactly at the powers of two.
        if objective is not None and (k & (k - 1) == 0 or converged
                                      or k == max_iter):
            obj_trace.append(float(objective(zs[:n], zs[n:])))
        if callback is not None:
            callback(k, {"x": x, "r": r, "z": zs[:n], "s": zs[n:],
                         "u": ut[:n], "t": ut[n:]})

        if converged:
            break

    return SolverReport(
        x_star=zs[:n].copy(),
        iterations=iterations,
        converged=converged,
        history=np.array(history, dtype=HISTORY_DTYPE),
        objective_trace=None if objective is None else np.asarray(obj_trace),
        state=SolverState(z=zs[:n].copy(), s=zs[n:].copy(), u=ut[:n].copy(),
                          t=ut[n:].copy()),
    )
