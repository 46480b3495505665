"""Small dense symmetric linear algebra: eigendecomposition and SPD solves.

``sym_eig`` and ``symmetrize`` take one matrix or a stack (..., n, n) and
hand the work to LAPACK through :mod:`numpy.linalg`, so a whole sequence
of per-block matrices costs one call. ``spd_factor`` and ``spd_solve``
are LAPACK's Cholesky factorization and solve (``dpotrf``, ``dpotrs``)
for one small matrix; the factorization reports the pivot that failed.
"""

from dataclasses import dataclass

import numpy as np

from ._lapack import dpotrf, dpotrs
from .exceptions import NotPositiveDefiniteError, NumericalFailureError

# Inputs with max |A - A^T| above this are rejected rather than silently
# symmetrized.
_ASYM_TOL = 1e-12


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigendecomposition of a symmetric matrix (or of each matrix of a stack).

    ``eigenvalues`` are sorted ascending; column k of ``eigenvectors``
    pairs with ``eigenvalues[k]``. Each eigenvector is normalized so its
    first nonzero component is nonnegative.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def symmetrize(a, tol=_ASYM_TOL):
    """Return (A + A^T)/2 after checking A is square, finite and symmetric.

    ``a`` may be one (n, n) matrix or a stack (..., n, n); the checks
    cover every matrix of the stack. Asymmetry up to ``tol`` (max absolute
    entry of A - A^T) is folded away; anything larger raises
    ``ValueError`` instead of being silently fixed.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("expected a square matrix, got shape %s" % (a.shape,))
    if a.shape[-1] < 1:
        raise ValueError("matrix dimension must be >= 1")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    a_t = np.swapaxes(a, -1, -2)
    asym = np.abs(a - a_t).max() if a.size else 0.0
    if asym > tol:
        raise ValueError(
            "matrix is not symmetric: max |A - A^T| = %.3g exceeds %.3g" % (asym, tol)
        )
    return 0.5 * (a + a_t)


def sym_eig(a):
    """Eigendecomposition of a symmetric matrix (LAPACK ``syevd`` via
    :func:`numpy.linalg.eigh`).

    Parameters
    ----------
    a : (n, n) or (..., n, n) array_like
        Symmetric matrix, or a stack of them, with finite entries.

    Returns
    -------
    EigenDecomposition
        Ascending eigenvalues and the orthogonal matrix of eigenvectors
        (stacked like the input).

    Raises
    ------
    ValueError
        If the input is not square, finite and symmetric.
    NumericalFailureError
        If LAPACK reports that the eigensolver did not converge.
    """
    work = symmetrize(a)
    try:
        eigvals, vecs = np.linalg.eigh(work)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError("LAPACK eigensolver did not converge: %s" % exc) \
            from exc
    _fix_signs(vecs)
    return EigenDecomposition(eigenvalues=eigvals, eigenvectors=vecs)


def _fix_signs(vecs, tol=1e-12):
    """Flip eigenvector columns so the first component above ``tol`` in
    magnitude is positive."""
    first = np.argmax(np.abs(vecs) > tol, axis=-2)
    lead = np.take_along_axis(vecs, first[..., None, :], axis=-2)
    vecs *= np.where(lead < 0.0, -1.0, 1.0)


def spd_factor(a):
    """Cholesky factor L (lower triangular, LL^T = A) of an SPD matrix.

    Raises
    ------
    NotPositiveDefiniteError
        If ``dpotrf`` meets a non-positive pivot; the error records its
        zero-based index and the value ``dpotrf`` left on the diagonal.
    """
    a = symmetrize(a)
    if a.ndim != 2:
        raise ValueError("expected a square matrix, got shape %s" % (a.shape,))
    lower, info = dpotrf(a, lower=True, clean=True)
    if info > 0:
        raise NotPositiveDefiniteError(info - 1, lower[info - 1, info - 1])
    if info < 0:
        raise ValueError("dpotrf rejected argument %d" % -info)
    return lower


def spd_solve(factor, b):
    """Solve LL^T x = b given a Cholesky factor from ``spd_factor``.

    ``b`` may be a vector of length n or an (n, m) matrix of stacked
    right-hand sides; the result has the same shape.
    """
    factor = np.asarray(factor, dtype=float)
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != factor.shape[0]:
        raise ValueError(
            "right-hand side shape %s does not match factor dimension %d"
            % (b.shape, factor.shape[0])
        )
    x, info = dpotrs(factor, b, lower=True)
    if info != 0:
        raise ValueError("dpotrs rejected argument %d" % -info)
    return x


def spd_inverse(a):
    """Inverse of an SPD matrix via its Cholesky factor, symmetrized."""
    factor = spd_factor(a)
    inv = spd_solve(factor, np.eye(factor.shape[0]))
    return 0.5 * (inv + inv.T)


def spd_logdet(factor):
    """log det A from the Cholesky factor of A.

    For a stack of factors (..., n, n) this is the sum of the stack's
    log-determinants.
    """
    return 2.0 * float(np.log(np.diagonal(factor, axis1=-2, axis2=-1)).sum())
