"""Closed-form proximal operators for the per-block subproblems.

Each operator returns the exact minimizer of its cost plus
(rho/2) * ||x - target||^2; these are the parallel first-step updates of
the splitting scheme. Every operator takes all blocks at once, one row
(or one matrix of a stack) per block.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import NumericalFailureError, positive_finite


@dataclass(frozen=True)
class GaussianProxCache:
    """Precomputed pieces of the quadratic (Gaussian likelihood) prox.

    For fixed noise covariance ``sigma``, samples y_1..y_N and penalty
    ``rho``, the prox of (1/2)(y_i - x)^T sigma^{-1} (y_i - x) is

        x = (sigma^{-1} + rho I)^{-1} (sigma^{-1} y_i + rho * target)
          = offset_i + gain @ target,

    with the symmetric ``gain`` = rho (sigma^{-1} + rho I)^{-1} and row i
    of ``offset`` = M y_i for the n x n M = (sigma^{-1} + rho I)^{-1}
    sigma^{-1}. So the prox of all blocks is one matrix multiply and one
    add. ``sigma`` is the checked, symmetrized covariance.
    """

    rho: float
    sigma_inv: np.ndarray
    gain: np.ndarray
    offset: np.ndarray
    sigma: np.ndarray


def noise_covariance(sigma, dim):
    """The identity for ``sigma=None``, else ``sigma`` symmetrized after
    checking that it is finite, symmetric and ``dim`` x ``dim``."""
    sigma = np.eye(dim) if sigma is None else linalg.symmetrize(sigma)
    if sigma.shape[0] != dim:
        raise ValueError("sigma dimension %d does not match data dimension %d"
                         % (sigma.shape[0], dim))
    return sigma


def gaussian_prox_cache(sigma, samples, rho):
    """Build a :class:`GaussianProxCache` for the given problem data.

    Every LAPACK solve has an n x n right-hand side; the offset is one
    product of the (N, n) samples with M^T, the only cost that grows with N.

    Parameters
    ----------
    sigma : (n, n) array_like or None
        SPD noise covariance, checked by :func:`noise_covariance`.
    samples : (N, n) array_like
        Observed samples, one per block.
    rho : float
        Penalty parameter, positive and finite.
    """
    rho = positive_finite("rho", rho)
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    n = samples.shape[1]
    sigma = noise_covariance(sigma, n)
    eye = np.eye(n)
    sigma_inv = linalg.spd_solve(linalg.spd_factor(sigma), eye)
    sigma_inv = 0.5 * (sigma_inv + sigma_inv.T)
    system_factor = linalg.spd_factor(sigma_inv + rho * eye)
    gain = linalg.spd_solve(system_factor, rho * eye)
    shrink = linalg.spd_solve(system_factor, sigma_inv)
    return GaussianProxCache(rho=rho, sigma_inv=sigma_inv,
                             gain=0.5 * (gain + gain.T),
                             offset=np.dot(samples, shrink.T), sigma=sigma)


def prox_gaussian(cache, targets):
    """Quadratic prox of every block at once.

    Row i of the result minimizes the Gaussian fit term of sample i plus
    (rho/2)||x - targets[i]||^2. ``targets`` must have the shape (N, n)
    of ``cache.offset``.
    """
    targets = np.asarray(targets, dtype=float)
    if targets.shape != cache.offset.shape:
        raise ValueError(
            "targets shape %s does not match the cache's %s"
            % (targets.shape, cache.offset.shape)
        )
    # np.dot, unlike @, hands the (N, 1) x (1, 1) product of a scalar
    # series to BLAS. The gain is symmetric, so row i is gain @ targets[i].
    out = np.dot(targets, cache.gain)
    out += cache.offset
    return out


def soft_threshold_group(a, kappa):
    """Group (l2-norm) soft thresholding: (1 - kappa/||a||_2)_+ a.

    Applies to a vector, or to each row of an (M, d) array. A row whose
    norm is at most ``kappa`` (a zero row included) maps to zero. This is
    the prox of kappa * ||.||_2; applied to a flattened matrix it is
    Frobenius-norm thresholding.
    """
    if not kappa >= 0.0:
        raise ValueError("kappa must be nonnegative, got %g" % kappa)
    a = np.asarray(a, dtype=float)
    norms = np.sqrt((a * a).sum(axis=-1, keepdims=True))
    if kappa == 0.0:
        # Not a copy: a row whose squares underflow to a zero norm maps
        # to zero, as the kappa > 0 branch does.
        return a * (norms > 0.0)
    # kappa / max(norm, kappa) is exactly 1 where the norm is at most
    # kappa, so the factor there is exactly 0; fmax maps a NaN norm to
    # kappa, which zeroes that row's finite entries as well.
    factor = kappa / np.fmax(norms, kappa)
    np.subtract(1.0, factor, out=factor)
    return factor * a


def soft_threshold_scalar(a, kappa):
    """Componentwise soft thresholding: sign(a_j) * max(|a_j| - kappa, 0).

    Computed as a - clip(a, -kappa, kappa), which gives the same values.
    The clip is spelled maximum(minimum(a, kappa), -kappa) in one
    buffer: this skips np.clip's Python-level wrapper and keeps its
    bits, where the other nesting order gives -0.0 for a = -0.0 at
    kappa = 0.
    """
    if not kappa >= 0.0:
        raise ValueError("kappa must be nonnegative, got %g" % kappa)
    a = np.asarray(a, dtype=float)
    clipped = np.minimum(a, kappa, out=np.empty_like(a))
    np.maximum(clipped, -kappa, out=clipped)
    return np.subtract(a, clipped, out=clipped)


def _mu_from_eigenvalues(lam, rho):
    # Positive root of rho*mu^2 - lam*mu - 1 = 0. The conjugate form is
    # used for negative lam to avoid cancellation.
    lam = np.asarray(lam, dtype=float)
    root = np.sqrt(lam * lam + 4.0 * rho)
    return np.where(lam >= 0.0, (lam + root) / (2.0 * rho), 2.0 / (root - lam))


def prox_neg_logdet(v, y, rho):
    """Prox of Tr(X y y^T) - log det X over symmetric positive definite X.

    Minimizes the cost plus (rho/2)||X - v||_F^2 in closed form via one
    eigendecomposition of rho*v - y y^T; the result is always SPD.

    Parameters
    ----------
    v : (n, n) array_like
        Symmetric prox target.
    y : (n,) array_like
        Data vector whose outer product enters the trace term.
    rho : float
        Penalty parameter, positive and finite.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("y must be a vector")
    return prox_neg_logdet_gram(v, np.outer(y, y), rho)


def prox_neg_logdet_gram(v, gram, rho):
    """Same as :func:`prox_neg_logdet` with the trace term Tr(X * gram).

    ``gram`` may be any symmetric positive semidefinite matrix (for
    instance an average of sample outer products). ``v`` and ``gram`` may
    also be stacks (N, n, n) of targets and data matrices; every matrix
    is then handled independently, with one LAPACK eigendecomposition
    call over the whole stack, and the result is stacked the same way.
    """
    rho = positive_finite("rho", rho)
    v = linalg.symmetrize(v)
    gram = linalg.symmetrize(gram)
    if gram.shape != v.shape:
        raise ValueError(
            "gram shape %s does not match target shape %s" % (gram.shape, v.shape)
        )
    shifted = rho * v - gram
    if shifted.shape[-1] == 1:
        # 1x1 blocks (scalar series) are their own eigenvalues: skip LAPACK.
        return _mu_from_eigenvalues(shifted, rho)
    try:
        lam, q = np.linalg.eigh(shifted)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            "LAPACK eigensolver did not converge: %s" % exc
        ) from exc
    x = (q * _mu_from_eigenvalues(lam, rho)[..., None, :]) @ np.swapaxes(q, -1, -2)
    return 0.5 * (x + np.swapaxes(x, -1, -2))
