"""Reference computations the benchmark checks the program against.

Nothing here imports ``tvadmm``: every value is computed from the
defining formulas with numpy, so a fault in the package cannot hide in
its own check.

- :func:`tv_denoise` is Condat's direct algorithm for 1-D total
  variation denoising (L. Condat, "A direct algorithm for 1-D total
  variation denoising", IEEE Signal Processing Letters 20(11), 2013).
  It returns the exact minimizer of 0.5*||y - x||^2 + w*||Dx||_1 up to
  rounding, in O(N) typical time.
- :func:`mean_oracle` applies it per component, which solves the
  elementwise mean filter with a diagonal noise covariance.
- :func:`check_variance` tests the optimality conditions of the group
  (Frobenius) variance filter directly from the window-averaged data.
"""

import math

import numpy as np


def tv_denoise(y, weight):
    """Exact minimizer of 0.5*||y - x||^2 + weight * sum |x[k+1] - x[k]|."""
    y = [float(v) for v in np.asarray(y, dtype=float).ravel()]
    n = len(y)
    x = [0.0] * n
    if n == 0:
        return np.asarray(x)
    lam = float(weight)
    k = k0 = kminus = kplus = 0
    umin, umax = lam, -lam
    vmin, vmax = y[0] - lam, y[0] + lam
    while True:
        while k == n - 1:
            # Right boundary: the last segment's level must make the dual
            # end at zero, unless a jump is still required.
            if umin < 0.0:
                while True:
                    x[k0] = vmin
                    k0 += 1
                    if k0 > kminus:
                        break
                kminus = k = k0
                vmin = y[k0]
                umin = lam
                umax = vmin + umin - vmax
            elif umax > 0.0:
                while True:
                    x[k0] = vmax
                    k0 += 1
                    if k0 > kplus:
                        break
                kplus = k = k0
                vmax = y[k0]
                umax = -lam
                umin = vmax + umax - vmin
            else:
                vmin += umin / (k - k0 + 1)
                while True:
                    x[k0] = vmin
                    k0 += 1
                    if k0 > k:
                        break
                return np.asarray(x)
        umin += y[k + 1] - vmin
        if umin < -lam:
            while True:
                x[k0] = vmin
                k0 += 1
                if k0 > kminus:
                    break
            kplus = kminus = k = k0
            vmin = y[k0]
            vmax = vmin + 2.0 * lam
            umin, umax = lam, -lam
            continue
        umax += y[k + 1] - vmax
        if umax > lam:
            while True:
                x[k0] = vmax
                k0 += 1
                if k0 > kplus:
                    break
            kplus = kminus = k = k0
            vmax = y[k0]
            vmin = vmax - 2.0 * lam
            umin, umax = lam, -lam
            continue
        k += 1
        if umin >= lam:
            kminus = k
            vmin += (umin - lam) / (kminus - k0 + 1)
            umin = lam
        if umax <= -lam:
            kplus = k
            vmax += (umax + lam) / (kplus - k0 + 1)
            umax = -lam


def mean_oracle(samples, sigma_diag, lam):
    """Optimal elementwise mean-filter estimate for a diagonal covariance.

    With Sigma = diag(s), the objective separates into one scalar TV
    problem per component, 0.5/s_c ||y_c - x_c||^2 + lam ||D x_c||_1,
    whose minimizer is the TV denoising of y_c with weight s_c * lam.
    """
    samples = np.asarray(samples, dtype=float)
    return np.column_stack([
        tv_denoise(samples[:, c], sigma_diag[c] * lam)
        for c in range(samples.shape[1])
    ])


def mean_objective(x, samples, sigma_diag, lam):
    """0.5 * sum_i (y_i - x_i)^T Sigma^-1 (y_i - x_i) + lam * sum |x_{i+1} - x_i|."""
    resid = np.asarray(samples, dtype=float) - np.asarray(x, dtype=float)
    quad = 0.5 * float((resid * resid / np.asarray(sigma_diag)).sum())
    return quad + lam * float(np.abs(np.diff(x, axis=0)).sum())


def lambda_max_elementwise(samples, sigma_diag):
    """Smallest elementwise weight whose optimal estimate is constant:
    the largest |partial sum of Sigma^-1 (y - mean)| over steps and components."""
    samples = np.asarray(samples, dtype=float)
    partial = np.cumsum(samples - samples.mean(axis=0), axis=0)[:-1]
    return float(np.abs(partial / np.asarray(sigma_diag)).max())


def lambda_max_group(samples):
    """Smallest group weight giving a constant estimate, identity covariance:
    the largest l2 norm of a partial sum of (y - mean)."""
    samples = np.asarray(samples, dtype=float)
    partial = np.cumsum(samples - samples.mean(axis=0), axis=0)[:-1]
    return float(np.sqrt((partial * partial).sum(axis=1)).max())


def check_mean(estimate, samples, sigma_diag, lam, reference, polished,
               obj_tol=1e-3, polish_tol=1e-7):
    """Accuracy of one mean-filter estimate against the oracle optimum.

    Returns ``(ok, gap)``: ``gap`` is the relative objective excess over
    ``reference`` (the oracle estimate). The estimate passes when the gap
    is at most ``obj_tol``, it is not below the optimum by more than
    rounding, and, if the program reports it as polished, it lies within
    ``polish_tol`` max-abs of the oracle.
    """
    estimate = np.asarray(estimate, dtype=float).reshape(np.shape(samples))
    if not np.isfinite(estimate).all():
        return False, math.inf
    best = mean_objective(reference, samples, sigma_diag, lam)
    value = mean_objective(estimate, samples, sigma_diag, lam)
    gap = (value - best) / abs(best)
    ok = -1e-9 <= gap <= obj_tol
    if polished:
        ok = ok and float(np.abs(estimate - reference).max()) <= polish_tol
    return ok, gap


def trailing_grams(samples, window):
    """G_i: the mean of y_j y_j^T over the last ``window`` samples up to i
    (fewer at the start of the series)."""
    samples = np.asarray(samples, dtype=float)
    n, dim = samples.shape
    grams = np.empty((n, dim, dim))
    for i in range(n):
        block = samples[max(0, i - window + 1):i + 1]
        grams[i] = block.T @ block / block.shape[0]
    return grams


def check_variance(precision, covariance, grams, lam, tau):
    """Optimality of a group-penalized variance filter estimate.

    The objective is sum_i Tr(X_i G_i) - log det X_i + lam sum ||X_{i+1} - X_i||_F.
    With W_k = sum_{j<=k} (G_j - X_j^-1), an optimum has ||W_k||_F <= lam,
    W_k = lam (X_{k+1} - X_k)/||X_{k+1} - X_k||_F where X jumps, and
    W_N = 0. An approximate solution passes with ``tau * lam`` of slack.
    Every X_i must be SPD and ``covariance[i] @ precision[i]`` the identity.

    Returns ``(ok, worst)``, ``worst`` being the largest violation as a
    share of lam.
    """
    precision = np.asarray(precision, dtype=float)
    covariance = np.asarray(covariance, dtype=float)
    dim = precision.shape[1]
    if not (np.isfinite(precision).all() and np.isfinite(covariance).all()):
        return False, math.inf
    if not np.allclose(precision, precision.transpose(0, 2, 1), rtol=0.0, atol=1e-12):
        return False, math.inf
    if float(np.linalg.eigvalsh(precision).min()) <= 0.0:
        return False, math.inf
    eye = np.eye(dim)
    scale = np.abs(precision).max() * np.abs(covariance).max()
    if float(np.abs(covariance @ precision - eye).max()) > 1e-10 * max(1.0, scale):
        return False, math.inf

    walk = np.cumsum(grams - np.linalg.inv(precision), axis=0)
    norms = np.sqrt((walk * walk).sum(axis=(1, 2)))
    worst = max(float(norms[:-1].max(initial=0.0)) / lam - 1.0,
                float(norms[-1]) / lam)
    jumps = precision[1:] - precision[:-1]
    jump_norms = np.sqrt((jumps * jumps).sum(axis=(1, 2)))
    # Steps under 1% of the largest entry are the iterate's ripple, whose
    # direction is arbitrary; only real jumps are tested for alignment.
    moving = jump_norms > 1e-2 * float(np.abs(precision).max())
    if moving.any():
        direction = jumps[moving] / jump_norms[moving, None, None]
        misfit = walk[:-1][moving] - lam * direction
        worst = max(worst, float(np.sqrt((misfit * misfit).sum(axis=(1, 2))).max()) / lam)
    return worst <= tau, worst


def check_lambda_max(value, samples, rel_tol=1e-12):
    """The reported group lambda-max equals the one recomputed from the data."""
    expected = lambda_max_group(samples)
    return abs(float(value) - expected) <= rel_tol * expected


def check_synth(data, truth, n_samples, dim, n_segments, level_bound=5.0):
    """Properties the ``synth`` generator states for its output.

    The truth has exactly ``n_segments`` constant runs, each at least
    n_samples/(4*n_segments) long, with levels in [-level_bound, level_bound];
    the noise data - truth has the mean and variance of unit Gaussians
    to within six standard errors.
    """
    if data.shape != (n_samples, dim) or truth.shape != data.shape:
        return False
    starts = np.flatnonzero((truth[1:] != truth[:-1]).any(axis=1)) + 1
    lengths = np.diff(np.concatenate(([0], starts, [n_samples])))
    levels = truth[np.concatenate(([0], starts))]
    noise = (data - truth).ravel()
    m = noise.size
    return bool(len(lengths) == n_segments
                and lengths.min() >= n_samples / (4.0 * n_segments)
                and np.abs(levels).max() <= level_bound
                and abs(noise.mean()) <= 6.0 / math.sqrt(m)
                and abs(noise.var() - 1.0) <= 6.0 * math.sqrt(2.0 / m))


def exact_text(text):
    """Every value in the CSV text is written with 17 significant digits,
    so it parses back to the double it came from and prints back the same."""
    tokens = text.replace("\n", ",").split(",")
    return all("%.17g" % float(tok) == tok for tok in tokens if tok)
