"""Euclidean projection onto the chain constraint set.

The constraint couples a sequence of N blocks x_1..x_N to the sequence of
consecutive differences r_i = x_{i+1} - x_i. Projecting a pair (w, v)
onto that subspace reduces to the normal equations

    (I + D^T D) z = w + D^T v,      s = D z,

where D is the forward difference operator. I + D^T D is symmetric
positive definite and tridiagonal (per column of the blocks):
tridiag(-1, [2, 3, ..., 3, 2], -1). LAPACK's ``dpttrf`` factors it once
as LDL^T, and each projection is one ``dpttrs`` solve with that factor
over all d columns, O(N d) time.
"""

from dataclasses import dataclass

import numpy as np

from ._lapack import dpttrf, dpttrs
from .exceptions import whole_count


@dataclass(frozen=True)
class ChainCholesky:
    """Factor of I + D^T D for ``n_blocks`` blocks.

    ``band`` holds it as LDL^T with L unit lower bidiagonal, the form
    LAPACK's ``dpttrf`` returns and ``dpttrs`` consumes: row 0 is D, row
    1 the subdiagonal of L padded with a trailing zero.
    """

    n_blocks: int
    band: np.ndarray

    @property
    def diag(self):
        """The N diagonal coefficients l_ii of the Cholesky factor LL^T."""
        return np.sqrt(self.band[0])

    @property
    def subdiag(self):
        """The N - 1 subdiagonal coefficients l_{i+1,i} of the Cholesky factor."""
        return self.band[1, :-1] * self.diag[:-1]


def chain_factor(n_blocks):
    """Factor I + D^T D for a whole number ``n_blocks`` >= 1 with one
    ``dpttrf`` call.

    A single block has no differences, so its factor is the 1x1
    identity.
    """
    n_blocks = whole_count("n_blocks", n_blocks)
    # Each diagonal entry is 1 plus the block's number of neighbours.
    band = np.zeros((2, n_blocks))
    band[0] = 3.0
    band[0, 0] -= 1.0
    band[0, -1] -= 1.0
    band[1, :-1] = -1.0
    # dpttrf, like dpttrs, wants max(N - 1, 1) subdiagonal entries; it
    # factors the contiguous rows in place.
    sub = max(n_blocks - 1, 1)
    band[0], band[1, :sub], info = dpttrf(band[0], band[1, :sub],
                                          overwrite_d=True, overwrite_e=True)
    if info != 0:
        raise ValueError("dpttrf failed with info %d" % info)
    return ChainCholesky(n_blocks=n_blocks, band=band)


def project(chol, w, v, out=None):
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
    out : (2N-1, d) float64 ndarray, optional
        Buffer that receives z in its first N rows and s in the other
        N - 1; it must not share memory with ``w`` or ``v``. A new one
        is allocated when omitted. With d = 1 the tridiagonal solve runs
        in place in ``out``. An ``out`` of another shape or dtype raises
        ``ValueError``.

    Returns
    -------
    z : (N, d) ndarray
    s : (N-1, d) ndarray
        Views of the first N and the last N - 1 rows of ``out``. ``s``
        is formed as the exact consecutive differences of ``z``.
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
    stacked = (2 * n - 1, w.shape[1])
    if out is None:
        out = np.empty(stacked)
    elif (not isinstance(out, np.ndarray) or out.shape != stacked
          or out.dtype != np.float64):
        raise ValueError("out must be a float64 array of shape %s" % (stacked,))
    z, s = out[:n], out[n:]

    # b = w + D^T v: b_i = (w_i + v_{i-1}) - v_i, without the missing ends.
    np.copyto(z, w)
    z[1:] += v
    z[:-1] -= v
    # dpttrs wants max(N - 1, 1) subdiagonal entries, even for N = 1. It
    # solves in place when z is Fortran-contiguous (so for d = 1 and a
    # contiguous out); otherwise it returns a Fortran-ordered copy.
    solved, info = dpttrs(chol.band[0], chol.band[1, :max(n - 1, 1)], z,
                          overwrite_b=True)
    if info != 0:
        raise ValueError("dpttrs rejected argument %d" % -info)
    if solved is not z:
        z[...] = solved
    np.subtract(z[1:], z[:-1], out=s)
    return z, s
