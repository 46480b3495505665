"""Closed-form proximal operators for the per-block subproblems.

Each operator returns the exact minimizer of its cost plus
(rho/2) * ||x - target||^2; these are the parallel first-step updates of
the splitting scheme.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import NumericalFailureError


@dataclass(frozen=True)
class GaussianProxCache:
    """Precomputed pieces of the quadratic (Gaussian likelihood) prox.

    For fixed noise covariance ``sigma``, samples y_1..y_N and penalty
    ``rho``, the prox of (1/2)(y_i - x)^T sigma^{-1} (y_i - x) is

        x = (sigma^{-1} + rho I)^{-1} (sigma^{-1} y_i + rho * target)
          = offset_i + gain @ target,

    with the symmetric ``gain`` = rho (sigma^{-1} + rho I)^{-1} and row i
    of ``offset`` = (sigma^{-1} + rho I)^{-1} sigma^{-1} y_i. So the prox
    is one multiply-add per block.
    """

    rho: float
    sigma_inv: np.ndarray
    gain: np.ndarray
    offset: np.ndarray

    @property
    def n_samples(self):
        return self.offset.shape[0]

    @property
    def dim(self):
        return self.sigma_inv.shape[0]


def gaussian_prox_cache(sigma, samples, rho):
    """Build a :class:`GaussianProxCache` for the given problem data.

    Parameters
    ----------
    sigma : (n, n) array_like
        Noise covariance; must be symmetric positive definite.
    samples : (N, n) array_like
        Observed samples, one per block.
    rho : float
        Penalty parameter, > 0.
    """
    rho = float(rho)
    if rho <= 0.0:
        raise ValueError("rho must be positive, got %g" % rho)
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    sigma = linalg.symmetrize(sigma)
    n = sigma.shape[0]
    if samples.shape[1] != n:
        raise ValueError(
            "sample dimension %d does not match sigma dimension %d"
            % (samples.shape[1], n)
        )
    sigma_factor = linalg.spd_factor(sigma)
    sigma_inv = linalg.spd_solve(sigma_factor, np.eye(n))
    sigma_inv = 0.5 * (sigma_inv + sigma_inv.T)
    sigma_inv_y = linalg.spd_solve(sigma_factor, samples.T)
    system_factor = linalg.spd_factor(sigma_inv + rho * np.eye(n))
    gain = linalg.spd_solve(system_factor, rho * np.eye(n))
    gain = 0.5 * (gain + gain.T)
    offset = linalg.spd_solve(system_factor, sigma_inv_y).T
    return GaussianProxCache(
        rho=rho,
        sigma_inv=sigma_inv,
        gain=gain,
        offset=np.ascontiguousarray(offset),
    )


def prox_gaussian(cache, i, target):
    """Quadratic prox for block ``i``: minimize the Gaussian fit term
    plus (rho/2)||x - target||^2."""
    target = np.asarray(target, dtype=float)
    if target.shape != (cache.dim,):
        raise ValueError(
            "target shape %s does not match dimension %d" % (target.shape, cache.dim)
        )
    return _gaussian_map(cache, cache.offset[i:i + 1], target[None, :])[0]


def prox_gaussian_batch(cache, targets):
    """Vectorized :func:`prox_gaussian` over all blocks at once.

    ``targets`` has shape (N, n); returns the same shape, equal bit for
    bit to the per-block calls.
    """
    return _gaussian_map(cache, cache.offset, np.asarray(targets, dtype=float))


def _gaussian_map(cache, offset, targets):
    # offset + targets @ gain on the transposed (n, rows) layout, adding
    # one column of targets at a time: every entry is summed in the same
    # order whatever the number of rows (a BLAS matmul is not), so the
    # batch and per-block maps agree exactly.
    gain = cache.gain
    acc = np.multiply.outer(gain[0], targets[:, 0])
    for j in range(1, cache.dim):
        acc += np.multiply.outer(gain[j], targets[:, j])
    acc += offset.T
    return acc.T


def soft_threshold_group(a, kappa):
    """Group (l2-norm) soft thresholding: (1 - kappa/||a||_2)_+ a.

    Returns the zero vector when ``a`` is zero. This is the prox of
    kappa * ||.||_2; applied to a flattened matrix it is Frobenius-norm
    thresholding.
    """
    if kappa < 0.0:
        raise ValueError("kappa must be nonnegative, got %g" % kappa)
    a = np.asarray(a, dtype=float)
    norm = np.sqrt((a * a).sum())
    if norm <= kappa:
        return np.zeros_like(a)
    return (1.0 - kappa / norm) * a


def soft_threshold_group_rows(a, kappa):
    """Row-wise group soft thresholding of an (M, d) array."""
    if kappa < 0.0:
        raise ValueError("kappa must be nonnegative, got %g" % kappa)
    a = np.asarray(a, dtype=float)
    norms = np.sqrt((a * a).sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(norms > kappa, 1.0 - kappa / norms, 0.0)
    return factor[:, None] * a


def soft_threshold_scalar(a, kappa):
    """Componentwise soft thresholding: sign(a_j) * max(|a_j| - kappa, 0)."""
    if kappa < 0.0:
        raise ValueError("kappa must be nonnegative, got %g" % kappa)
    a = np.asarray(a, dtype=float)
    return np.sign(a) * np.maximum(np.abs(a) - kappa, 0.0)


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
        Penalty parameter, > 0.
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
    rho = float(rho)
    if rho <= 0.0:
        raise ValueError("rho must be positive, got %g" % rho)
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
