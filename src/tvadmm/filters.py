"""Piecewise-constant mean and variance estimation via the chain solver.

The mean filter fits one Gaussian mean per time step under a total
variation penalty on consecutive differences, producing piecewise
constant estimates and hence a segmentation of the series. The variance
filter does the same for a zero-mean process, estimating one inverse
covariance per step with a penalty on consecutive inverse-covariance
differences.
"""

from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg.lapack import dpbsv

from . import linalg, prox
from .admm import ChainProblem, SolverConfig, solve, whole_count
from .exceptions import NumericalFailureError, UnboundedProblemError


class Penalty(str, Enum):
    """Shape of the coupling penalty on consecutive differences.

    GROUP penalizes the l2 norm of each whole difference block (the
    Frobenius norm for matrix-valued blocks) and zeroes differences as a
    unit. ELEMENTWISE penalizes each component separately, allowing
    individual components to stay constant.
    """

    GROUP = "group"
    ELEMENTWISE = "elementwise"


@dataclass
class MeanFilterSpec:
    """Regularization weight, penalty shape and noise covariance.

    ``sigma=None`` means identity noise covariance.
    """

    lam: float
    penalty: Penalty = Penalty.GROUP
    sigma: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 0.0 <= self.lam < np.inf:
            raise ValueError("lam must be finite and nonnegative, got %g" % self.lam)
        self.penalty = Penalty(self.penalty)


@dataclass
class VarianceFilterSpec:
    """Regularization weight and penalty shape for variance filtering.

    ``window`` averages that many trailing sample outer products into
    each block's data matrix (1 keeps the plain per-sample products;
    values above 1 help when the dimension exceeds 1, since a single
    outer product is rank one); it is stored as an int.
    """

    lam: float
    penalty: Penalty = Penalty.GROUP
    window: int = 1

    def __post_init__(self):
        if not 0.0 <= self.lam < np.inf:
            raise ValueError("lam must be finite and nonnegative, got %g" % self.lam)
        self.window = whole_count("window", self.window)
        self.penalty = Penalty(self.penalty)


@dataclass
class VarianceEstimate:
    """Per-step inverse covariances and their inverses (the covariances)."""

    precision: np.ndarray
    covariance: np.ndarray


class Segment(NamedTuple):
    """Maximal constant run: 1-based inclusive sample range and its level."""

    start: int
    end: int
    level: object


def _as_series(data):
    arr = np.asarray(data, dtype=float)
    was_1d = arr.ndim == 1
    if was_1d:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError("expected a (N,) or (N, n) array of samples")
    if not np.isfinite(arr).all():
        raise ValueError("samples contain non-finite values")
    return arr, was_1d


def _resolve_rho(config, lam):
    if config.rho is not None:
        return float(config.rho)
    return float(lam) if lam > 0.0 else 1.0


def mean_filter(data, spec, config=None):
    """Estimate a piecewise-constant mean sequence.

    After the iteration stops, the estimate is polished: the segment
    partition and jump signs read off the iterate (per component, with
    the :func:`segments` default tolerance) define an equality-constrained
    quadratic problem. Its solution, exact on that partition, comes from
    one banded LAPACK solve for the optimality multipliers, whatever the
    noise covariance. The polished estimate replaces the iterate only
    when it satisfies the optimality conditions (see ``report.polished``
    and ``report.certificate_gap``, which is inf when the solve fails);
    otherwise the iterate is returned unchanged. The group penalty with
    n > 1 is not polished.

    Parameters
    ----------
    data : (N,) or (N, n) array_like
        Observed samples, one row per time step.
    spec : MeanFilterSpec
    config : SolverConfig, optional

    Returns
    -------
    estimates : ndarray
        Mean estimates, shaped like ``data``.
    report : SolverReport
    """
    if config is None:
        config = SolverConfig()
    samples, was_1d = _as_series(data)
    n_samples, dim = samples.shape
    sigma = np.eye(dim) if spec.sigma is None else linalg.symmetrize(spec.sigma)
    if sigma.shape[0] != dim:
        raise ValueError(
            "sigma dimension %d does not match data dimension %d"
            % (sigma.shape[0], dim)
        )
    rho = _resolve_rho(config, spec.lam)
    cache = prox.gaussian_prox_cache(sigma, samples, rho)
    problem = _build_mean_problem(samples, cache, spec.lam, spec.penalty)
    report = solve(problem, replace(config, rho=rho))
    if spec.penalty is Penalty.ELEMENTWISE or dim == 1:
        report = _polish_mean(report, problem, samples, sigma, cache.sigma_inv,
                              spec.lam)
    estimates = report.x_star[:, 0] if was_1d else report.x_star
    return estimates, report


def _polish_mean(report, problem, samples, sigma, sigma_inv, lam):
    # Elementwise penalty (any penalty when n = 1): optimal x satisfy
    # P_k = sum_{j<=k} sigma^{-1} (x_j - y_j) in lam * sign(x_{k+1} - x_k)
    # componentwise (anything in [-lam, lam] where the jump is zero), with
    # P_N = 0. Fixing the partition and the jump signs fixes P at the
    # jumps, and the other multipliers solve one linear system.
    candidate = _solve_on_partition(report.x_star, samples, sigma, lam)
    if candidate is None:
        return replace(report, certificate_gap=np.inf)
    gap, slack = _mean_certificate(candidate, samples, sigma_inv, lam)
    if not gap <= slack:
        return replace(report, certificate_gap=gap)
    trace = np.append(report.objective_trace,
                      problem.objective(candidate, np.diff(candidate, axis=0)))
    return replace(report, x_star=candidate, objective_trace=trace,
                   polished=True, certificate_gap=gap)


def _solve_on_partition(x, samples, sigma, lam):
    # The candidate on each component's segments of x. Its multipliers P
    # (one row per difference) give x = y + (P_j - P_{j-1}) sigma, with
    # P_0 = P_N = 0. P is fixed to lam * sign(r) at the jumps of x (A);
    # the free ones (I) make r vanish inside the segments:
    #     ((D D^T) (x) sigma)_II P_I = (Dy)_I - (((D D^T) (x) sigma) P_A)_I.
    # In (k, c) row-major order this is banded SPD with half-bandwidth
    # 2n - 1; rows and columns of A become identity rows holding P_A.
    # Returns None when LAPACK finds the system not positive definite.
    n_samples, dim = x.shape
    jumps = np.empty((n_samples - 1, dim), dtype=bool)
    for c in range(dim):
        col = x[:, c:c + 1]
        jumps[:, c] = _jumps(col, _default_segment_tol(col))
    edge = np.zeros((1, dim))

    def estimate(multipliers):
        steps = np.diff(multipliers, axis=0, prepend=edge, append=edge)
        return samples + steps @ sigma

    fixed = np.where(jumps, lam * np.sign(np.diff(x, axis=0)), 0.0)
    # The differences of the estimate from P_A alone are Dy - K P_A.
    rhs = np.where(jumps, fixed, np.diff(estimate(fixed), axis=0)).ravel()

    # Lower band storage: band[u, j] = K[j + u, j] for K = (D D^T) (x) sigma,
    # whose entry at (k, c), (k', c') is (D D^T)[k, k'] sigma[c, c'].
    offsets = np.arange(2 * dim)[:, None] + np.arange(dim)
    pattern = np.select([offsets < dim, offsets < 2 * dim], [2.0, -1.0])
    pattern = pattern * sigma[offsets % dim, np.arange(dim)]
    band = np.tile(pattern, (1, n_samples - 1))
    # Keep band[u, j] only where multipliers j and j + u are both free.
    free = ~jumps.ravel()
    reach = np.concatenate((free, np.zeros(2 * dim, dtype=bool)))
    for u in range(2 * dim):
        band[u] *= free & reach[u:u + free.size]
    band[0, ~free] = 1.0
    _, multipliers, info = dpbsv(band, rhs, lower=True)
    if info != 0:
        return None
    multipliers = multipliers.reshape(n_samples - 1, dim)

    # Averaging each component over its segments makes r exactly 0 there.
    labels = np.concatenate((np.zeros((1, dim), dtype=np.int64),
                             np.cumsum(jumps, axis=0)))
    labels += np.concatenate(([0], np.cumsum(labels[-1] + 1)[:-1]))
    flat = labels.ravel()
    solved = estimate(multipliers).ravel()
    levels = np.bincount(flat, weights=solved) / np.bincount(flat)
    return levels[labels]


def _mean_certificate(x, samples, sigma_inv, lam):
    # Largest violation of the elementwise optimality conditions at x, and
    # the slack it is held to: a small multiple of the textbook rounding
    # bound N * eps * sum|terms| for the partial sums being checked.
    grad = (x - samples) @ sigma_inv
    partial = np.cumsum(grad, axis=0)
    inner = partial[:-1]
    r = x[1:] - x[:-1]
    violation = np.where(
        r != 0.0,
        np.abs(inner - lam * np.sign(r)),
        np.maximum(np.abs(inner) - lam, 0.0),
    )
    gap = float(max(np.abs(partial[-1]).max(),
                    violation.max() if violation.size else 0.0))
    scale = lam + float(np.abs(grad).sum()) + float(np.abs(samples @ sigma_inv).sum())
    return gap, 16.0 * x.shape[0] * np.finfo(float).eps * scale


def _build_mean_problem(samples, cache, lam, penalty):
    n_samples, dim = samples.shape
    sigma_inv = cache.sigma_inv

    def phi(targets, rho_k):
        if rho_k != cache.rho:
            raise ValueError("prox cache was built for rho=%g" % cache.rho)
        return prox.prox_gaussian(cache, targets)

    def objective(x_blocks, r_blocks):
        # np.dot, unlike @, hands the (N, 1) x (1, 1) product of a scalar
        # series to BLAS, which makes it several times faster.
        resid = samples - x_blocks
        quad = 0.5 * float(np.vdot(resid, np.dot(resid, sigma_inv)))
        return quad + lam * _penalty(r_blocks, penalty)

    return ChainProblem(
        n_blocks=n_samples,
        block_dim=dim,
        phi_prox_batch=phi,
        psi_prox_batch=_difference_prox(lam, penalty, dim),
        objective=objective,
    )


def _difference_prox(lam, penalty, dim):
    # The batch prox of lam times the penalty, one row per difference.
    # With one component the group threshold is the scalar one, which
    # costs fewer array passes.
    if penalty is Penalty.GROUP and dim > 1:
        threshold = prox.soft_threshold_group
    else:
        threshold = prox.soft_threshold_scalar

    def psi(targets, rho_k):
        return threshold(targets, lam / rho_k)

    return psi


def _penalty(r_blocks, penalty):
    # Sum of the penalty over the difference rows (0 when there are none).
    if penalty is Penalty.GROUP:
        return float(np.sqrt((r_blocks * r_blocks).sum(axis=1)).sum())
    return float(np.abs(r_blocks).sum())


def _trailing_gram_average(samples, window):
    # Mean of the outer products of samples max(0, i-window+1)..i: a
    # running mean over the first window samples, then prefix-sum
    # differences.
    outers = np.einsum("ij,ik->ijk", samples, samples)
    if window == 1:
        return outers
    csum = np.cumsum(outers, axis=0)
    grams = np.empty_like(outers)
    head = min(window, samples.shape[0])
    grams[:head] = csum[:head] / np.arange(1.0, head + 1.0)[:, None, None]
    grams[window:] = (csum[window:] - csum[:-window]) / window
    return grams


def _check_variance_bounded(grams, lam):
    # A direction of unboundedness exists exactly when the relevant data
    # matrix is singular: per block for lam = 0 (blocks decouple), or the
    # pooled matrix for lam > 0 (grow every block along a common null
    # direction at zero coupling cost).
    def singular(mats):
        evals = np.linalg.eigvalsh(mats)
        top = evals[..., -1]
        return (top <= 0.0) | (evals[..., 0] <= 1e-10 * top)

    if lam == 0.0:
        bad = np.flatnonzero(singular(grams))
        if bad.size:
            raise UnboundedProblemError(
                "data matrix at sample %d is singular, so its block "
                "subproblem is unbounded below with lambda = 0; "
                "increase lambda or use a window > 1" % bad[0]
            )
    elif singular(grams.mean(axis=0)):
        raise UnboundedProblemError(
            "pooled data matrix is singular, so the objective is "
            "unbounded below for every lambda; use a window > 1 or "
            "more samples"
        )


def variance_filter(data, spec, config=None):
    """Estimate a piecewise-constant covariance sequence.

    Works in the inverse-covariance parametrization (one SPD matrix per
    step) and reports both the precision and covariance sequences.

    Returns
    -------
    estimate : VarianceEstimate
    report : SolverReport
    """
    if config is None:
        config = SolverConfig()
    samples, _ = _as_series(data)
    n_samples, dim = samples.shape
    grams = _trailing_gram_average(samples, spec.window)
    _check_variance_bounded(grams, spec.lam)
    problem = _build_variance_problem(grams, spec)
    report = solve(problem, replace(config, rho=_resolve_rho(config, spec.lam)))

    # tol=inf folds away whatever rounding asymmetry the solve left;
    # only non-finite entries are rejected.
    precision = linalg.symmetrize(report.x_star.reshape(n_samples, dim, dim),
                                  tol=np.inf)
    try:
        np.linalg.cholesky(precision)
    except np.linalg.LinAlgError as exc:
        bad = _first_not_positive_definite(precision)
        raise NumericalFailureError(
            "inverse-covariance estimate at block %d is not positive "
            "definite; tighten tolerances" % bad,
            block_index=bad,
        ) from exc
    covariance = linalg.symmetrize(np.linalg.inv(precision), tol=np.inf)
    return VarianceEstimate(precision=precision, covariance=covariance), report


def _first_not_positive_definite(mats):
    # The batched factorization only reports that some matrix failed.
    for i, mat in enumerate(mats):
        try:
            np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            return i


def _build_variance_problem(grams, spec):
    n_samples, dim = grams.shape[0], grams.shape[1]
    flat_dim = dim * dim

    def phi(targets, rho_k):
        x = prox.prox_neg_logdet_gram(targets.reshape(n_samples, dim, dim), grams, rho_k)
        return x.reshape(n_samples, flat_dim)

    def objective(x_blocks, r_blocks):
        mats = x_blocks.reshape(n_samples, dim, dim)
        try:
            factor = np.linalg.cholesky(linalg.symmetrize(mats, tol=np.inf))
        except (ValueError, np.linalg.LinAlgError):
            return np.inf
        quad = float((mats * grams).sum())
        logdet = linalg.spd_logdet(factor)
        return quad - logdet + spec.lam * _penalty(r_blocks, spec.penalty)

    return ChainProblem(
        n_blocks=n_samples,
        block_dim=flat_dim,
        phi_prox_batch=phi,
        psi_prox_batch=_difference_prox(spec.lam, spec.penalty, flat_dim),
        objective=objective,
        # A backstop only: _check_variance_bounded is the exact test for
        # an unbounded problem, run before the solve.
        divergence_floor=-1e8,
    )


def lambda_max_mean(data, sigma=None, penalty=Penalty.GROUP):
    """Smallest penalty weight at which the mean filter output is constant.

    From the optimality conditions of the constant solution: with
    weighted residual partial sums P_k = sum_{j<=k} sigma^{-1} (y_j - mean),
    the constant solution is optimal exactly when every ||P_k|| is at
    most lambda, in the norm dual to the penalty (l2 for GROUP, max-abs
    for ELEMENTWISE).
    """
    penalty = Penalty(penalty)
    samples, _ = _as_series(data)
    n_samples, dim = samples.shape
    if n_samples < 2:
        raise ValueError("lambda_max needs at least 2 samples")
    sigma = np.eye(dim) if sigma is None else linalg.symmetrize(sigma)
    if sigma.shape[0] != dim:
        raise ValueError(
            "sigma dimension %d does not match data dimension %d"
            % (sigma.shape[0], dim)
        )
    sigma_inv = linalg.spd_inverse(sigma)
    centered = samples - samples.mean(axis=0)
    partial = np.cumsum(centered, axis=0)[:-1] @ sigma_inv
    if penalty is Penalty.GROUP:
        norms = np.sqrt((partial * partial).sum(axis=1))
    else:
        norms = np.abs(partial).max(axis=1)
    return float(norms.max())


def segments(estimates, tol=None):
    """Split a piecewise-constant estimate into maximal constant runs.

    Consecutive blocks whose difference stays within ``tol`` in max-abs
    norm belong to the same run. ``tol`` defaults to 1e-3 times the
    overall value spread plus a small absolute floor, absorbing solver
    ripple. Returns a list of :class:`Segment` with 1-based inclusive
    sample ranges; levels are per-segment means (scalars for
    one-dimensional blocks).

    Segments partition 1..N.
    """
    est, was_1d = _as_series(estimates)
    n_samples = est.shape[0]
    if tol is None:
        tol = _default_segment_tol(est)
    if not tol > 0.0:
        raise ValueError("tol must be positive, got %g" % tol)

    bounds = np.concatenate(([0], np.flatnonzero(_jumps(est, tol)) + 1,
                             [n_samples]))
    out = []
    for start, end in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        level = est[start:end].mean(axis=0)
        out.append(
            Segment(start + 1, end, float(level[0]) if was_1d or est.shape[1] == 1
                    else level)
        )
    return out


def _default_segment_tol(est):
    spread = float(est.max() - est.min())
    return 1e-3 * spread + 1e-9 * (1.0 + float(np.abs(est).max()))


def _jumps(est, tol):
    # True where consecutive rows differ by more than tol in max-abs norm.
    return np.abs(est[1:] - est[:-1]).max(axis=1) > tol
