"""Euclidean projection onto the chain constraint set.

The constraint couples a sequence of N blocks x_1..x_N to the sequence of
consecutive differences r_i = x_{i+1} - x_i. Projecting a pair (w, v)
onto that subspace reduces to the normal equations

    (I + D^T D) z = w + D^T v,      s = D z,

where D is the forward difference operator. I + D^T D is symmetric
positive definite and tridiagonal (per column of the blocks), with a
Cholesky factor whose scalar coefficients follow a short recursion. The
factor is cached once as LAPACK's LDL^T form of a tridiagonal matrix, so
each projection is one LDL^T tridiagonal solve (``dpttrs``) over all d
columns, O(N d) time.
"""

from dataclasses import dataclass
import math

import numpy as np
from scipy.linalg.lapack import dpttrs


@dataclass(frozen=True)
class ChainCholesky:
    """Scalar Cholesky coefficients of I + D^T D for ``n_blocks`` blocks.

    ``diag`` holds the N diagonal coefficients l_ii and ``subdiag`` the
    N-1 subdiagonal ones l_{i+1,i}. ``band`` holds the same factor as
    LDL^T with L unit lower bidiagonal, the form LAPACK's ``dpttrs``
    consumes: row 0 is D (d_i = l_ii^2), row 1 the subdiagonal of L
    (e_i = l_{i+1,i} / l_ii) padded with a trailing zero.
    """

    n_blocks: int
    diag: np.ndarray
    subdiag: np.ndarray
    band: np.ndarray


def chain_factor(n_blocks):
    """Compute the chain Cholesky coefficients for ``n_blocks`` >= 1.

    The coefficients start at sqrt(2), interior rows satisfy
    l_{i+1,i} = -1/l_{i,i} and l_{i+1,i+1} = sqrt(3 - l_{i+1,i}^2), and
    the last row closes with l_{N,N} = sqrt(2 - l_{N,N-1}^2). A single
    block has no differences, so its factor is the 1x1 identity. The
    coefficients depend only on N, so the result can be computed once
    and reused for every projection of that length.
    """
    n_blocks = int(n_blocks)
    if n_blocks < 1:
        raise ValueError("chain_factor requires at least 1 block; got %d" % n_blocks)
    if n_blocks == 1:
        return ChainCholesky(n_blocks=1, diag=np.ones(1), subdiag=np.empty(0),
                             band=np.array([[1.0], [0.0]]))
    diag = np.empty(n_blocks)
    subdiag = np.empty(n_blocks - 1)
    diag[0] = math.sqrt(2.0)
    for i in range(n_blocks - 2):
        subdiag[i] = -1.0 / diag[i]
        diag[i + 1] = math.sqrt(3.0 - subdiag[i] * subdiag[i])
    subdiag[n_blocks - 2] = -1.0 / diag[n_blocks - 2]
    diag[n_blocks - 1] = math.sqrt(2.0 - subdiag[n_blocks - 2] ** 2)
    band = np.zeros((2, n_blocks))
    band[0] = diag * diag
    band[1, :-1] = subdiag / diag[:-1]
    return ChainCholesky(n_blocks=n_blocks, diag=diag, subdiag=subdiag, band=band)


def project(chol, w, v):
    """Project (w, v) onto the chain subspace {(z, s) : s = Dz}.

    Parameters
    ----------
    chol : ChainCholesky
        Coefficients from :func:`chain_factor` for N = ``chol.n_blocks``.
    w : (N, d) array_like
        Block-vector part paired with z.
    v : (N-1, d) array_like
        Difference part paired with s; no rows when N = 1, where the
        projection returns w.

    Returns
    -------
    z : (N, d) ndarray
    s : (N-1, d) ndarray
        ``s`` is formed as the exact consecutive differences of ``z``.
    """
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    n = chol.n_blocks
    if w.ndim != 2 or v.ndim != 2:
        raise ValueError("w and v must be 2-d arrays of shape (blocks, dim)")
    if w.shape[0] != n or v.shape[0] != n - 1:
        raise ValueError(
            "block counts (%d, %d) do not match factor for N=%d"
            % (w.shape[0], v.shape[0], n)
        )
    if w.shape[1] != v.shape[1]:
        raise ValueError(
            "block dimensions differ: w has %d, v has %d" % (w.shape[1], v.shape[1])
        )

    # b = w + D^T v: b_i = (w_i + v_{i-1}) - v_i, without the missing ends.
    b = w.copy()
    b[1:] += v
    b[:-1] -= v
    # dpttrs wants max(N - 1, 1) subdiagonal entries, even for N = 1.
    z, info = dpttrs(chol.band[0], chol.band[1, :max(n - 1, 1)], b,
                     overwrite_b=True)
    if info != 0:
        raise ValueError("dpttrs rejected argument %d" % -info)
    s = z[1:] - z[:-1]
    return z, s
