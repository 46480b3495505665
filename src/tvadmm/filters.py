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

from . import linalg, prox
from ._lapack import dpbsv
from .admm import ChainProblem, SolverConfig, SolverState, solve
from .exceptions import (NumericalFailureError, UnboundedProblemError,
                         nonnegative_finite, whole_count)

# Sign patterns each active-set attempt tries before it gives up.
_MAX_PATTERNS = 50

# Steps the TV pass takes one sample at a time in each open segment
# before it carries the segment on with array scans.
_STEP_LIMIT = 128


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
        self.lam = nonnegative_finite("lam", self.lam)
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
        self.lam = nonnegative_finite("lam", self.lam)
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

    The estimate comes from one active-set loop: a segment partition and
    jump signs define an equality-constrained quadratic problem, solved
    exactly (in closed form per segment when sigma is diagonal, by one
    banded LAPACK solve when it is correlated), and each candidate that
    fails the optimality conditions picks the next partition from its
    own violations (a primal-dual active-set step), until one
    certifies, a partition repeats or 50 have been tried. The loop runs
    before the iteration and, when that finds nothing, once more after
    it:

    - the start takes each component's exact 1-D total variation
      partition with weight ``sigma[c, c] * lam`` (Condat's direct
      algorithm, stepping one sample at a time through short segments
      and scanning long ones with array operations), which is the
      optimum's partition when sigma is diagonal and a first guess
      otherwise. A certified optimum x* with multipliers P starts the
      iteration at its exact fixed point, z = x*, s = Dx*,
      u = sigma^{-1} (y - x*) / rho and t = -P / rho, and exactly one
      iteration verifies it (``report.iterations == 1``,
      one ``history`` row). That iteration meets the unchanged residual
      test unless rounding at an extreme data scale breaks it, in which
      case ``report.converged`` is False; x* is returned either way;
    - the polish, only when the start fails, runs after a cold iteration
      from zero, from the exact zeros of the difference prox at the
      final iterate.

    A certified candidate is returned with ``report.polished`` and its
    objective appended to ``report.objective_trace``; otherwise the
    iterate is returned. ``report.certificate_gap`` is the certified
    candidate's gap, else the polish's first candidate's (inf when its
    solve fails).

    The group penalty with n > 1 runs neither loop.

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
    dim = samples.shape[1]
    sigma = prox.noise_covariance(spec.sigma, dim)
    lam = spec.lam
    config = replace(config, rho=_resolve_rho(config, lam))
    cache = prox.gaussian_prox_cache(sigma, samples, config.rho)
    problem = _build_mean_problem(samples, cache, lam, spec.penalty)
    polishable = spec.penalty is Penalty.ELEMENTWISE or dim == 1
    candidate = gap = None
    if polishable:
        candidate, multipliers, gap = _active_set(
            _tv_partition(samples, sigma, lam), samples, sigma, cache.sigma_inv, lam)
    if candidate is not None:
        # One iteration verifies the certified start, whatever it reports.
        report = solve(problem, replace(config, max_iter=1),
                       initial=_fixed_point(candidate, multipliers, samples, cache))
    else:
        report = solve(problem, config)
        if polishable:
            state = report.state
            signs = np.sign(problem.psi_prox_batch(state.s - state.t, config.rho))
            candidate, _, gap = _active_set(signs, samples, sigma, cache.sigma_inv, lam)

    report.certificate_gap = gap
    if candidate is not None:
        report.x_star = candidate
        report.polished = True
        report.objective_trace = np.append(report.objective_trace, problem.objective(
            candidate, np.diff(candidate, axis=0)))
    estimates = report.x_star[:, 0] if was_1d else report.x_star
    return estimates, report


def _fixed_point(candidate, multipliers, samples, cache):
    # The engine's exact fixed point at a certified x* with multipliers P:
    # z = x*, s = Dx*, u = sigma^{-1} (y - x*) / rho and t = -P / rho.
    # Then u + D^T t = 0, so the projection returns (z, s), and P in
    # lam * sign(Dx*) makes both prox maps return (z, s) too: one
    # iteration meets the residual test.
    return SolverState(z=candidate, s=np.diff(candidate, axis=0),
                       u=(samples - candidate) @ cache.sigma_inv / cache.rho,
                       t=-multipliers / cache.rho)


def _tv_partition(samples, sigma, lam):
    # The (N - 1, n) jump signs of each component's exact 1-D total
    # variation denoising with weight sigma[c, c] * lam (Condat, IEEE SPL
    # 2013): the optimum's partition when sigma is diagonal, a first
    # guess otherwise. The direct algorithm walks the series once. It
    # keeps the range [vmin, vmax] of levels the open segment can still
    # take and the dual's value (umin, umax) at each bound; when one
    # leaves [-w, w] the segment closes at that bound, at the last sample
    # where its dual was tight. Only each segment's end and level are
    # recorded. The loop takes the first _STEP_LIMIT steps of each open
    # segment one sample at a time, which is cheapest for short
    # segments; a longer one is carried by _scan_open_segment to the
    # sample before it closes, and the loop takes the closing step.
    signs = np.zeros_like(samples[1:])
    limit = _STEP_LIMIT
    for c in range(samples.shape[1]):
        column = samples[:, c]
        y = column.tolist()
        w = float(sigma[c, c]) * lam
        last = len(y) - 1
        ends, levels = [], []
        k = k0 = kminus = kplus = 0
        umin, umax = w, -w
        vmin, vmax = y[0] - w, y[0] + w
        stop = min(last, limit)
        while True:
            while k < stop:
                following = y[k + 1]
                umin += following - vmin
                if umin < -w:
                    ends.append(kminus)
                    levels.append(vmin)
                    k = k0 = kminus = kplus = kminus + 1
                    vmin = y[k]
                    vmax = vmin + 2.0 * w
                    umin, umax = w, -w
                    stop = min(last, k0 + limit)
                    continue
                umax += following - vmax
                if umax > w:
                    ends.append(kplus)
                    levels.append(vmax)
                    k = k0 = kminus = kplus = kplus + 1
                    vmax = y[k]
                    vmin = vmax - 2.0 * w
                    umin, umax = w, -w
                    stop = min(last, k0 + limit)
                    continue
                k += 1
                if umin >= w:
                    kminus = k
                    vmin += (umin - w) / (k - k0 + 1)
                    umin = w
                if umax <= -w:
                    kplus = k
                    vmax += (umax + w) / (k - k0 + 1)
                    umax = -w
            if k < last:
                k, umin, umax, vmin, vmax, kminus, kplus = _scan_open_segment(
                    column, w, k, k0, umin, vmin, vmax, kminus, kplus)
                stop = min(last, k + 1)
                continue
            # The right end: the open segment's dual must end at 0.
            if umin < 0.0:
                ends.append(kminus)
                levels.append(vmin)
                k = k0 = kminus = kminus + 1
                vmin, umin = y[k], w
                umax = vmin + w - vmax
            elif umax > 0.0:
                ends.append(kplus)
                levels.append(vmax)
                k = k0 = kplus = kplus + 1
                vmax, umax = y[k], -w
                umin = vmax - w - vmin
            else:
                ends.append(k)
                levels.append(vmin + umin / (k - k0 + 1))
                break
            stop = min(last, k0 + limit)
        signs[ends[:-1], c] = np.sign(np.diff(levels))
    return signs


def _scan_open_segment(y, w, k, k0, umin, vmin, vmax, kminus, kplus):
    # _tv_partition's loop over the open segment y[k0..k], run as array
    # scans. Returns the loop's state (k, umin, umax, vmin, vmax, kminus,
    # kplus) after the last step that leaves the segment open, which is
    # at the series end when no step closes it. With n = j - k0 + 1
    # samples at sample j, T = umin + n * vmin = umax + n * vmax is the
    # segment's sum plus the dual it started with. The loop's updates
    # set vmin = max(vmin, (T - w) / n) and vmax = min(vmax, (T + w) / n),
    # moving kminus or kplus to j where the new term is the bound (ties
    # go to the later sample). A step closes the segment when the bound
    # before it lies beyond the other side, vmin > (T + w) / n or
    # vmax < (T - w) / n, which holds exactly when the updated bound
    # does. The first chunk covers twice the segment so far (at least
    # _STEP_LIMIT samples); each further one is four times longer.
    last = y.size - 1
    n = k - k0 + 1
    total = umin + n * vmin
    size = max(_STEP_LIMIT, 2 * n)
    while k < last:
        sums = np.cumsum(y[k + 1:min(last, k + size) + 1])
        counts = np.arange(n + 1.0, n + 1.0 + sums.size)
        cmin = (sums + (total - w)) / counts
        cmax = (sums + (total + w)) / counts
        lower = np.maximum.accumulate(cmin)
        np.maximum(lower, vmin, out=lower)
        upper = np.minimum.accumulate(cmax)
        np.minimum(upper, vmax, out=upper)
        closes = (lower > cmax) | (upper < cmin)
        steps = int(closes.argmax()) if closes.any() else sums.size
        if steps:
            # The last sample where each bound took its final value.
            tight = cmin[steps - 1::-1] == lower[steps - 1]
            if tight.any():
                kminus = k + steps - int(tight.argmax())
            tight = cmax[steps - 1::-1] == upper[steps - 1]
            if tight.any():
                kplus = k + steps - int(tight.argmax())
            k += steps
            n += steps
            total += float(sums[steps - 1])
            vmin = float(lower[steps - 1])
            vmax = float(upper[steps - 1])
        if steps < sums.size:
            break
        size *= 4
    return k, total - n * vmin, total - n * vmax, vmin, vmax, kminus, kplus


def _active_set(signs, samples, sigma, sigma_inv, lam):
    # Elementwise penalty (any penalty when n = 1): optimal x satisfy
    # P_k = sum_{j<=k} sigma^{-1} (x_j - y_j) in lam * sign(x_{k+1} - x_k)
    # componentwise (anything in [-lam, lam] where the jump is zero), with
    # P_N = 0. Fixing the partition and the jump signs fixes P at the
    # jumps, and the other multipliers solve one linear system. Each
    # rejected candidate picks the next signs by a primal-dual active-set
    # step: a jump whose height is zero or has the wrong sign is dropped,
    # and a free multiplier outside [-lam, lam] becomes a jump of its
    # sign. The candidate's free differences are exactly 0 and its jump
    # multipliers exactly +-lam, so the step needs no scaling constant.
    # Stops on a certificate, a repeated pattern, a failed solve or
    # _MAX_PATTERNS patterns. Returns (candidate, P, gap) on a
    # certificate, else (None, None, the first candidate's gap), the gap
    # inf when that solve failed.
    tried = set()
    gaps = []
    while len(tried) < _MAX_PATTERNS:
        pattern = signs.tobytes()
        if pattern in tried:
            break
        tried.add(pattern)
        candidate = _solve_on_partition(signs, samples, sigma, lam)
        if candidate is None:
            gaps.append(np.inf)
            break
        gap, slack, multipliers = _mean_certificate(candidate, samples,
                                                    sigma_inv, lam)
        if gap <= slack:
            return candidate, multipliers, gap
        gaps.append(gap)
        heights = signs * np.diff(candidate, axis=0)
        signs = np.where(heights > 0.0, signs, np.where(
            (signs == 0.0) & (np.abs(multipliers) > lam), np.sign(multipliers), 0.0))
    return None, None, gaps[0]


def _solve_on_partition(signs, samples, sigma, lam):
    # The candidate whose differences are zero wherever signs, the
    # (N - 1, n) jump signs, is 0. Its multipliers P (one row per
    # difference) give x = y + (P_j - P_{j-1}) sigma, with P_0 = P_N = 0,
    # and P is fixed to lam * signs at the jumps (A).
    #
    # A diagonal sigma (the only kind with one component) decouples the
    # components: summing x over a segment telescopes to its sum of y
    # plus sigma[c, c] * lam * (s_out - s_in) (its turn), with s_out and
    # s_in the signs of the jumps leaving and entering it (0 at the
    # series ends), so each level is that over the segment's length.
    #
    # Otherwise the free multipliers (I) make r vanish inside the
    # segments:
    #     ((D D^T) (x) sigma)_II P_I = (Dy)_I - (((D D^T) (x) sigma) P_A)_I.
    # In (k, c) row-major order this is banded SPD with half-bandwidth
    # 2n - 1; rows and columns of A become identity rows holding P_A.
    # Returns None when LAPACK finds the system not positive definite.
    n_samples, dim = samples.shape
    if np.count_nonzero(sigma) == dim:
        candidate = np.empty_like(samples)
        for c in range(dim):
            cuts = np.flatnonzero(signs[:, c])
            starts = np.concatenate(([0], cuts + 1))
            lengths = np.diff(starts, append=n_samples)
            turns = np.diff(signs[cuts, c], prepend=0.0, append=0.0)
            levels = (np.add.reduceat(samples[:, c], starts)
                      + sigma[c, c] * lam * turns) / lengths
            candidate[:, c] = np.repeat(levels, lengths)
        return candidate

    jumps = signs != 0.0
    edge = np.zeros((1, dim))

    def estimate(multipliers):
        steps = np.diff(multipliers, axis=0, prepend=edge, append=edge)
        return samples + steps @ sigma

    fixed = lam * signs
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
    # Largest violation of the elementwise optimality conditions at x, the
    # slack it is held to (a small multiple of the textbook rounding bound
    # N * eps * sum|terms| for the partial sums being checked), and the
    # multipliers P_1..P_{N-1}, one row per difference.
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
    return gap, 16.0 * x.shape[0] * np.finfo(float).eps * scale, inner


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
    bad = np.flatnonzero(np.linalg.eigvalsh(precision)[:, 0] <= 0.0)
    if bad.size:
        raise NumericalFailureError(
            "inverse-covariance estimate at block %d is not positive "
            "definite; tighten tolerances" % bad[0],
            block_index=int(bad[0]),
        )
    covariance = linalg.symmetrize(np.linalg.inv(precision), tol=np.inf)
    return VarianceEstimate(precision=precision, covariance=covariance), report


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
    # One work array, overwritten in place; the identity sigma skips
    # its product.
    partial = samples - samples.mean(axis=0)
    np.cumsum(partial, axis=0, out=partial)
    partial = partial[:-1]
    if sigma is not None:
        partial = partial @ linalg.spd_inverse(prox.noise_covariance(sigma, dim))
    if penalty is Penalty.GROUP:
        np.square(partial, out=partial)
        # sqrt is monotone and correctly rounded: the root of the largest
        # sum is the largest root.
        return float(np.sqrt(partial.sum(axis=1).max()))
    np.abs(partial, out=partial)
    return float(partial.max())


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
        tol = 1e-3 * (est.max() - est.min()) + 1e-9 * (1.0 + np.abs(est).max())
    if not tol > 0.0:
        raise ValueError("tol must be positive, got %g" % tol)

    jumps = np.abs(est[1:] - est[:-1]).max(axis=1) > tol
    bounds = np.concatenate(([0], np.flatnonzero(jumps) + 1, [n_samples]))
    out = []
    for start, end in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        level = est[start:end].mean(axis=0)
        out.append(
            Segment(start + 1, end, float(level[0]) if was_1d or est.shape[1] == 1
                    else level)
        )
    return out
