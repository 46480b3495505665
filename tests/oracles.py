"""Independent reference implementations used to cross-check the library.

Everything here is coded directly from the defining optimization
problems with dense numpy linear algebra, deliberately sharing no code
with the package internals.
"""

import numpy as np


def difference_operator(n_blocks, dim):
    """Dense forward difference operator mapping (N*d,) to ((N-1)*d,)."""
    d = np.zeros(((n_blocks - 1) * dim, n_blocks * dim))
    eye = np.eye(dim)
    for i in range(n_blocks - 1):
        d[i * dim:(i + 1) * dim, i * dim:(i + 1) * dim] = -eye
        d[i * dim:(i + 1) * dim, (i + 1) * dim:(i + 2) * dim] = eye
    return d


def dense_project(w, v):
    """Projection onto {(z, s): s = Dz} by solving the normal equations
    densely with numpy."""
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    n, dim = w.shape
    d = difference_operator(n, dim)
    m = np.eye(n * dim) + d.T @ d
    z = np.linalg.solve(m, w.ravel() + d.T @ v.ravel())
    return z.reshape(n, dim), (d @ z).reshape(n - 1, dim)


def group_soft(a, kappa):
    norm = np.linalg.norm(a)
    if norm <= kappa:
        return np.zeros_like(a)
    return (1.0 - kappa / norm) * a


def textbook_chain_admm(samples, sigma, lam, rho, n_iter, alpha=1.0):
    """Two-block ADMM for the group-penalized mean problem, with every
    update written out densely.

    ``alpha`` is the over-relaxation: the projection and the dual update
    use alpha * (x, r) + (1 - alpha) * (previous z, s) in place of
    (x, r). The default 1.0 is plain ADMM.

    Returns the lists of x- and z-iterates (raveled), one entry per
    iteration.
    """
    samples = np.asarray(samples, dtype=float)
    n, dim = samples.shape
    sigma_inv = np.linalg.inv(sigma)
    system = sigma_inv + rho * np.eye(dim)
    d = difference_operator(n, dim)
    m = np.eye(n * dim) + d.T @ d

    z = np.zeros(n * dim)
    s = np.zeros((n - 1) * dim)
    u = np.zeros(n * dim)
    t = np.zeros((n - 1) * dim)
    xs, zs = [], []
    kappa = lam / rho
    for _ in range(n_iter):
        targets = (z - u).reshape(n, dim)
        x = np.linalg.solve(system, sigma_inv @ samples.T + rho * targets.T).T.ravel()
        r = np.concatenate(
            [group_soft((s - t).reshape(n - 1, dim)[i], kappa) for i in range(n - 1)]
        )
        x_hat = alpha * x + (1.0 - alpha) * z
        r_hat = alpha * r + (1.0 - alpha) * s
        z = np.linalg.solve(m, (x_hat + u) + d.T @ (r_hat + t))
        s_new = d @ z
        u = u + x_hat - z
        t = t + r_hat - s_new
        s = s_new
        xs.append(x.copy())
        zs.append(z.copy())
    return xs, zs


def objective_schedule(iterations):
    """Iterations at which the solver evaluates the objective in a solve
    of ``iterations`` steps: the powers of two up to it, then the final
    iteration itself."""
    out = [2 ** j for j in range(iterations.bit_length())]
    if out[-1] != iterations:
        out.append(iterations)
    return out


def bisect_lambda_max(solve_constant, lo, hi, rel_tol=1e-4):
    """Bisection for the smallest weight making ``solve_constant`` true.

    ``solve_constant(lam)`` must return True when the filter output at
    ``lam`` is constant. ``lo`` must test non-constant and ``hi``
    constant.
    """
    assert not solve_constant(lo)
    assert solve_constant(hi)
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if solve_constant(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def fused_lasso_dual(samples, lam):
    """Scalar fused lasso min 0.5||y - x||^2 + lam * ||Dx||_1 via its dual.

    The dual is the box-constrained least squares problem
    w = argmin ||y - D^T w|| subject to |w| <= lam, solved with scipy's
    bounded-variable least squares; the primal solution is x = y - D^T w.
    """
    from scipy.optimize import lsq_linear

    y = np.asarray(samples, dtype=float).ravel()
    dt = difference_operator(y.size, 1).T
    dual = lsq_linear(dt, y, bounds=(-lam, lam), method="bvls", tol=1e-14)
    return y - dt @ dual.x


def partition_optimum(samples, sigma, lam, jumps, signs):
    """Minimizer of the mean objective over estimates that may jump only at
    ``jumps``, with the penalty linearized at the jump ``signs``.

    Minimizes 0.5 sum_j (x_j - y_j)^T sigma^{-1} (x_j - y_j)
    + lam * sum_{(k, c) in jumps} signs[k, c] (x_{k+1, c} - x_{k, c})
    subject to x_{k+1, c} = x_{k, c} wherever ``jumps`` is False, by one
    dense solve of the KKT system.
    """
    y = np.asarray(samples, dtype=float)
    n, dim = y.shape
    weight = np.kron(np.eye(n), np.linalg.inv(sigma))
    d = difference_operator(n, dim)
    active = np.asarray(jumps, dtype=bool).ravel()
    fixed = d[~active]
    linear = lam * d[active].T @ np.asarray(signs, dtype=float).ravel()[active]
    m = fixed.shape[0]
    kkt = np.block([[weight, fixed.T], [fixed, np.zeros((m, m))]])
    rhs = np.concatenate((weight @ y.ravel() - linear, np.zeros(m)))
    return np.linalg.solve(kkt, rhs)[:n * dim].reshape(n, dim)


def variance_objective(precisions, grams, lam, penalty):
    """The variance filter's objective written out directly:
    sum_i [tr(X_i G_i) - log det X_i] + lam * sum_i pen(X_{i+1} - X_i),
    with pen the Frobenius norm ("group") or the sum of absolute entries
    ("elementwise"). inf when some X_i has an eigenvalue <= 0.
    """
    x = np.asarray(precisions, dtype=float)
    g = np.asarray(grams, dtype=float)
    total = 0.0
    for xi, gi in zip(x, g):
        evals = np.linalg.eigvalsh(xi)
        if evals.min() <= 0.0:
            return np.inf
        total += np.trace(xi @ gi) - np.log(evals).sum()
    diffs = x[1:] - x[:-1]
    if penalty == "group":
        coupling = sum(np.sqrt((d * d).sum()) for d in diffs)
    else:
        coupling = np.abs(diffs).sum()
    return total + lam * coupling
