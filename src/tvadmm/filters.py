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
from ._lapack import dpbtrf, dpbtrs
from .admm import ChainProblem, SolverConfig, SolverState, solve
from .exceptions import (NumericalFailureError, UnboundedProblemError,
                         nonnegative_finite, whole_count)

# Sign patterns each active-set attempt tries before it gives up.
_MAX_PATTERNS = 50

# Steps the TV pass takes one sample at a time in an open segment before
# it hands the segment to the array scan. Segments the pass predicts to
# be long skip the loop (see _tv_partition); a limit of 1 scans nearly
# everything, one of N or more scans nothing.
_STEP_LIMIT = 64

# Level differences the TV pass counts as ties, relative to the largest
# level: a jump that small is rounding, not a sign.
_TIE = 8 * np.finfo(float).eps


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
    exactly (in closed form per segment when sigma is diagonal, by a
    banded LAPACK solve when it is correlated), and each candidate that
    fails the optimality conditions picks the next partition from its
    own violations (a primal-dual active-set step), until one certifies
    or a partition repeats or 50 have been tried (a correlated sigma then
    re-solves the last with one refinement step). The loop runs before
    the iteration and, when that finds nothing, once more after it:

    - the start takes each component's exact 1-D total variation
      partition with weight ``sigma[c, c] * lam`` (Condat's direct
      algorithm), the optimum's partition when sigma is diagonal and a
      first guess otherwise. A certified optimum x* with multipliers P
      starts the iteration at its exact fixed point, z = x*, s = Dx*,
      u = sigma^{-1} (y - x*) / rho and t = -P / rho, and exactly one
      iteration verifies it (``report.iterations == 1``, one ``history``
      row). That iteration meets the unchanged residual test unless
      rounding at an extreme data scale breaks it, in which case
      ``report.converged`` is False; x* is returned either way;
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
    lam = spec.lam
    rho = _resolve_rho(config, lam)
    cache = prox.gaussian_prox_cache(spec.sigma, samples, rho)
    sigma = cache.sigma
    problem = _build_mean_problem(samples, cache, lam, spec.penalty)
    polishable = spec.penalty is Penalty.ELEMENTWISE or samples.shape[1] == 1
    candidate = gap = None
    if polishable:
        candidate, multipliers, gap = _active_set(
            _tv_partition(samples, sigma, lam), samples, sigma, cache.sigma_inv, lam)
    if candidate is not None:
        # One iteration verifies the certified start, whatever it reports.
        report = solve(problem, replace(config, rho=rho, max_iter=1),
                       initial=_fixed_point(candidate, multipliers, samples, cache))
    else:
        report = solve(problem, replace(config, rho=rho))
        if polishable:
            state = report.state
            signs = np.sign(problem.psi_prox_batch(state.s - state.t, rho))
            candidate, _, gap = _active_set(signs, samples, sigma, cache.sigma_inv, lam)

    report.certificate_gap = gap
    if candidate is not None:
        report.x_star = candidate
        report.polished = True
        report.objective_trace = np.concatenate((report.objective_trace, [problem.objective(
            candidate, candidate[1:] - candidate[:-1])]))
    estimates = report.x_star[:, 0] if was_1d else report.x_star
    return estimates, report


def _fixed_point(candidate, multipliers, samples, cache):
    # The engine's exact fixed point at a certified x* with multipliers P
    # (see mean_filter): u + D^T t = 0, so the projection returns (z, s),
    # and P in lam * sign(Dx*) makes both prox maps return (z, s) too.
    return SolverState(z=candidate, s=candidate[1:] - candidate[:-1],
                       u=np.dot(samples - candidate, cache.sigma_inv) / cache.rho,
                       t=-multipliers / cache.rho)


def _tv_partition(samples, sigma, lam):
    # The (N - 1, n) jump signs of each component's exact 1-D total
    # variation denoising with weight sigma[c, c] * lam (Condat, IEEE SPL
    # 2013): the optimum's partition when sigma is diagonal, a first
    # guess otherwise. The direct algorithm keeps the range [vmin, vmax]
    # of levels the open segment can still take and the dual's value
    # (umin, umax) at each bound; when one leaves [-w, w] the segment
    # closes at that bound, at the last sample where its dual was tight,
    # and the next one restarts just after it. The samples from there to
    # the step that closed it, the restart region, are walked again; in
    # practice the next segment does not close before that step either.
    #
    # The loop walks an open segment one sample at a time for at most
    # _STEP_LIMIT steps, cheapest for short segments, and hands one still
    # open to _scan_open_segment, which carries it to its close. The
    # first segment of a series longer than the limit, and one whose
    # restart region after a scanned close is longer than a quarter of
    # the limit (long walks follow long regions), are scanned from their
    # first sample (stop = -1). Only samples a walk can reach, up to
    # `edge`, become Python floats. Jumps within rounding of the largest
    # level count as ties; only each segment's end and level are kept.
    counts = np.arange(1.0, samples.shape[0] + 1.0)
    limit = _STEP_LIMIT
    last = samples.shape[0] - 1
    ends, levels, firsts = [], [], []
    for c in range(samples.shape[1]):
        firsts.append(len(levels))
        column = samples[:, c]
        y = [float(column[0])] + [None] * last
        w = float(sigma[c, c]) * lam
        minus_w = -w
        k = k0 = kminus = kplus = edge = 0
        umin, umax = w, minus_w
        vmin, vmax = y[0] - w, y[0] + w
        # Scan the first segment of a long series; its dual starts at 0.
        stop, dual, region = -1 if limit < last else last, 0.0, 0
        while True:
            if k < stop > edge:
                begin, edge = max(k, edge) + 1, min(last, stop + limit)
                y[begin:edge + 1] = column[begin:edge + 1].tolist()
            while k < stop:
                k += 1
                following = y[k]
                umin += following - vmin
                if umin < minus_w:
                    ends.append(kminus)
                    levels.append(vmin)
                    k = k0 = kminus = kplus = kminus + 1
                    vmin = y[k]
                    vmax = vmin + 2.0 * w
                    umin, umax = w, minus_w
                    stop = min(edge, k0 + limit)
                    continue
                umax += following - vmax
                if umax > w:
                    ends.append(kplus)
                    levels.append(vmax)
                    k = k0 = kminus = kplus = kplus + 1
                    vmax = y[k]
                    vmin = vmax - 2.0 * w
                    umin, umax = w, minus_w
                    stop = min(edge, k0 + limit)
                    continue
                if umin >= w:
                    kminus = k
                    vmin += (umin - w) / (k - k0 + 1)
                    umin = w
                if umax <= minus_w:
                    kplus = k
                    vmax += (umax + w) / (k - k0 + 1)
                    umax = minus_w
            if stop == edge < last and stop < k0 + limit:
                stop = min(last, k0 + limit)  # more samples to convert
                continue
            if k < last:
                if k == k0:
                    # A fresh segment: no sample yet bounds its level, and
                    # its dual starts at `dual`.
                    k, umin, umax, vmin, vmax, kminus, kplus, side = _scan_open_segment(
                        column, counts, w, k0 - 1, k0, dual, -np.inf, np.inf,
                        k0, k0, max(4 * limit, 2 * region))
                else:
                    k, umin, umax, vmin, vmax, kminus, kplus, side = _scan_open_segment(
                        column, counts, w, k, k0, umin + (k - k0 + 1) * vmin, vmin,
                        vmax, kminus, kplus, 4 * limit)
                if side:
                    # The scan closed the segment at kminus (side -1) or
                    # kplus (1); k + 1 is the closing step.
                    end = kplus if side > 0 else kminus
                    ends.append(end)
                    levels.append(vmax if side > 0 else vmin)
                    region = k + 1 - end
                    k = k0 = kminus = kplus = end + 1
                    value = float(column[k])
                    vmin, vmax = ((value - 2.0 * w, value) if side > 0
                                  else (value, value + 2.0 * w))
                    dual = -side * w
                    umin, umax = w, minus_w
                    stop = -1 if 4 * region > limit else min(last, k0 + limit)
                    continue
            # The right end: the open segment's dual must end at 0.
            if umin < 0.0:
                ends.append(kminus)
                levels.append(vmin)
                k = k0 = kminus = kminus + 1
                vmin, umin = float(column[k]), w
                umax = vmin + w - vmax
            elif umax > 0.0:
                ends.append(kplus)
                levels.append(vmax)
                k = k0 = kplus = kplus + 1
                vmax, umax = float(column[k]), minus_w
                umin = vmax - w - vmin
            else:
                ends.append(k)
                levels.append(vmin + umin / (k - k0 + 1))
                break
            stop = min(last, k0 + limit)
    # A column's last segment ends at N - 1: its jump lands in a spare row.
    levels = np.array(levels)
    columns = np.add.accumulate(np.bincount(firsts[1:], minlength=levels.size))[:-1]
    jumps = levels[1:] - levels[:-1]
    tops = np.maximum.reduceat(np.abs(levels), firsts)
    jumps[np.abs(jumps) <= _TIE * tops[columns]] = 0.0
    signs = np.zeros_like(samples)
    signs[ends[:-1], columns] = np.sign(jumps)
    return signs[:-1]


def _scan_open_segment(y, counts, w, k, k0, total, vmin, vmax, kminus, kplus, size):
    # _tv_partition's loop over the open segment y[k0..k], run as array
    # scans in chunks of `size` samples, doubling, until the segment
    # closes or the series ends (k = k0 - 1 scans a fresh segment). With
    # n = j - k0 + 1 samples at sample j, T = umin + n * vmin =
    # umax + n * vmax is the segment's sum plus the dual it started with
    # (`total` at k). The loop's updates set vmin = max(vmin, (T - w) / n)
    # and vmax = min(vmax, (T + w) / n), moving kminus or kplus to j
    # where the new term is the bound (ties go to the later sample). A
    # step closes the segment exactly when the updated bounds cross,
    # vmin > vmax; the bound that stayed put is the closing side. Each
    # chunk sums its own samples from zero, so a fresh segment's sums are
    # its own. Returns the loop's state (k, umin, umax, vmin, vmax,
    # kminus, kplus) after the last step that leaves the segment open,
    # and the closing side: -1 at kminus with level vmin, 1 at kplus with
    # level vmax, 0 when the series ends first.
    last = y.size - 1
    n = k - k0 + 1
    side = 0
    while True:
        sums = np.add.accumulate(y[k + 1:k + 1 + size])
        steps = sums.size
        scale = counts[n:n + steps]
        cmin = (sums + (total - w)) / scale
        cmax = (sums + (total + w)) / scale
        # The bounds before the chunk enter through its first terms.
        low = cmin[0] < vmin
        if low:
            cmin[0] = vmin
        high = cmax[0] > vmax
        if high:
            cmax[0] = vmax
        lower = np.maximum.accumulate(cmin)
        upper = np.minimum.accumulate(cmax)
        # lower rises and upper falls, so the open steps come first.
        opened = int(np.count_nonzero(lower <= upper))
        if opened < steps:
            before = lower[opened - 1] if opened else vmin
            side = 1 if lower[opened] > before else -1
        if opened:
            j = opened - 1
            # The last sample where the bound took its final value, but
            # not a first term that only carried the bound in.
            if side <= 0:
                i = int(cmin[j::-1].argmax())
                if i < j or not low:
                    kminus = k + opened - i
            if side >= 0:
                i = int(cmax[j::-1].argmin())
                if i < j or not high:
                    kplus = k + opened - i
            k += opened
            n += opened
            total += float(sums[j])
            vmin = float(lower[j])
            vmax = float(upper[j])
        if side or k == last:
            return k, total - n * vmin, total - n * vmax, vmin, vmax, kminus, kplus, side
        size *= 2


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
    # Stops on a certificate, a failed solve or a stall (a repeated
    # pattern or _MAX_PATTERNS patterns); a correlated sigma's solve may
    # leave P inexact, so its stall first re-solves the last tried signs
    # with one correction. Returns (candidate, P, gap) on a certificate,
    # else (None, None, the first candidate's gap), the gap inf when that
    # solve failed.
    tried = set()
    gaps = []
    weighted = float(np.abs(np.dot(samples, sigma_inv)).sum())
    refined = ()  # (1,), one correction, once a stall asks for it
    while True:
        pattern = signs.tobytes()
        if pattern in tried or len(tried) == _MAX_PATTERNS:
            if np.count_nonzero(sigma) == sigma.shape[0]:
                break
            signs, refined = last, (1,)
        tried.add(pattern)
        candidate = _solve_on_partition(signs, samples, sigma, lam, *refined)
        if candidate is None:
            gaps.append(np.inf)
            break
        gap, slack, multipliers = _mean_certificate(candidate, samples,
                                                    sigma_inv, lam, weighted)
        if gap <= slack:
            return candidate, multipliers, gap
        gaps.append(gap)
        if refined:
            break
        last = signs
        heights = signs * (candidate[1:] - candidate[:-1])
        signs = np.where(heights > 0.0, signs, np.where(
            (signs == 0.0) & (np.abs(multipliers) > lam), np.sign(multipliers), 0.0))
    return None, None, gaps[0]


def _solve_on_partition(signs, samples, sigma, lam, corrections=0):
    # The candidate whose differences are zero wherever signs, the
    # (N - 1, n) jump signs, is 0. Its multipliers P (one row per
    # difference) give x = y + (P_j - P_{j-1}) sigma, with P_0 = P_N = 0,
    # and P is fixed to lam * signs at the jumps (A). Each level is its
    # segment's total of x over its length, all components in one pass,
    # flattened column by column; `entering` (0 at each column's start
    # and in a trailing slot) holds the sign s_in of the jump entering
    # each segment at its start, and so s_out at the next one's.
    # A diagonal sigma (the only kind with one component) decouples the
    # components: a segment's total telescopes to its sum of y plus
    # sigma[c, c] * lam * (s_out - s_in) (s = 0 at the series ends).
    # Otherwise the free multipliers (I) zero x's differences inside the
    # segments: r(P)_I = (Dy - K P)_I = 0, K = (D D^T) (x) sigma. From
    # P = lam * signs each step adds the solution of K_II dP_I = r(P)_I,
    # the first solving the system and `corrections` more refining it.
    # K_II, banded SPD in (k, c) row-major order with half-bandwidth
    # 2n - 1, is factored once, with identity rows and columns on A.
    # Returns None when LAPACK finds it not positive definite.
    n_samples, dim = samples.shape
    entering = np.zeros(dim * n_samples + 1)
    entering[:-1].reshape(dim, n_samples)[:, 1:] = signs.T
    cut = entering != 0.0
    cut[::n_samples] = True
    bounds = np.flatnonzero(cut)
    starts = bounds[:-1]
    lengths = bounds[1:] - starts
    if np.count_nonzero(sigma) == dim:
        edge = entering[bounds]
        totals = (np.add.reduceat(samples.T.ravel(), starts)
                  + (np.diagonal(sigma) * lam)[starts // n_samples]
                  * (edge[1:] - edge[:-1]))
    else:
        jumps = signs != 0.0

        def estimate(multipliers):  # P_0 .. P_N, both ends 0
            return samples + np.diff(multipliers, axis=0) @ sigma

        def residual(multipliers):  # r(P), 0 on the jumps
            return np.where(jumps, 0.0, np.diff(estimate(multipliers), axis=0)).ravel()

        # Lower band storage: band[u, j] = K[j + u, j], whose entry at
        # (k, c), (k', c') is (D D^T)[k, k'] sigma[c, c'].
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
        factor, info = dpbtrf(band, lower=True)
        if info != 0:
            return None
        multipliers = np.zeros((n_samples + 1, dim))
        multipliers[1:-1] = lam * signs
        for _ in range(1 + corrections):
            step = dpbtrs(factor, residual(multipliers), lower=True)[0]
            multipliers[1:-1] += step.reshape(n_samples - 1, dim)
        totals = np.add.reduceat(estimate(multipliers).T.ravel(), starts)
    return np.ascontiguousarray(
        np.repeat(totals / lengths, lengths).reshape(dim, n_samples).T)


def _mean_certificate(x, samples, sigma_inv, lam, weighted):
    # Largest violation of the elementwise optimality conditions at x, the
    # slack it is held to (a small multiple of the textbook rounding bound
    # N * eps * sum|terms| for the partial sums being checked, with
    # weighted = sum |samples sigma^{-1}|), and the multipliers
    # P_1..P_{N-1}, one row per difference. A free multiplier's violation
    # |P| - lam may be negative: the gap is at least |P_N| anyway.
    grad = np.dot(x - samples, sigma_inv)
    partial = np.add.accumulate(grad, axis=0)
    inner = partial[:-1]
    r = x[1:] - x[:-1]
    violation = np.abs(inner - lam * np.sign(r))
    np.subtract(violation, lam, out=violation, where=r == 0.0)
    gap = float(max(np.abs(partial[-1]).max(),
                    violation.max() if violation.size else 0.0))
    scale = lam + float(np.abs(grad).sum()) + weighted
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
