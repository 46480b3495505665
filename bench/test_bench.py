"""Tests of the benchmark's own oracle and checks (no timing).

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from pathlib import Path
import sys

import numpy as np
import pytest
from scipy.optimize import lsq_linear

sys.path[:0] = [str(Path(__file__).resolve().parent),
                str(Path(__file__).resolve().parent.parent / "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402


def fused_lasso_by_dual(y, lam):
    # min 0.5||y - x||^2 + lam ||Dx||_1 through its dual, the box-constrained
    # least squares w = argmin ||y - D^T w|| with |w| <= lam; x = y - D^T w.
    n = y.size
    dt = np.zeros((n, n - 1))
    dt[np.arange(n - 1), np.arange(n - 1)] = -1.0
    dt[np.arange(1, n), np.arange(n - 1)] = 1.0
    dual = lsq_linear(dt, y, bounds=(-lam, lam), method="bvls", tol=1e-14)
    return y - dt @ dual.x


@pytest.mark.parametrize("n, seed", [(400, 63), (250, 5), (2, 1), (1, 0)])
def test_condat_matches_fused_lasso_dual(n, seed):
    truth, rng = workloads.piecewise_truth(seed, max(n, 4), 1, 3)
    y = (truth + rng.standard_normal(truth.shape))[:n, 0]
    lam = 0.1 * oracle.lambda_max_group(y[:, None]) if n > 1 else 1.0
    exact = oracle.tv_denoise(y, lam)
    if n == 1:
        assert exact.tolist() == y.tolist()
        return
    assert np.abs(exact - fused_lasso_by_dual(y, lam)).max() <= 1e-9


def test_condat_extremes():
    y = np.array([3.0, -1.0, 4.0, 1.0, -5.0])
    # Above lambda-max the optimum is the constant mean.
    big = oracle.lambda_max_group(y[:, None]) * 1.01
    assert np.allclose(oracle.tv_denoise(y, big), y.mean(), rtol=0, atol=1e-14)
    # With no penalty the data are optimal.
    assert np.array_equal(oracle.tv_denoise(y, 0.0), y)


def small_case():
    data, variances, _ = workloads.small_instances(3)[2]
    lam = 0.1 * oracle.lambda_max_elementwise(data, variances)
    return data, variances, lam, oracle.mean_oracle(data, variances, lam)


def test_mean_check_accepts_optimum_and_rejects_perturbation():
    data, variances, lam, reference = small_case()
    assert oracle.check_mean(reference, data, variances, lam, reference, True)[0]
    moved = reference.copy()
    moved[len(moved) // 2:] += 0.05
    ok, gap = oracle.check_mean(moved, data, variances, lam, reference, False)
    assert not ok and gap > 1e-3
    # A tiny perturbation passes the objective target but not the 1e-7
    # bound that applies to an estimate reported as polished.
    nudged = reference + 1e-6
    assert oracle.check_mean(nudged, data, variances, lam, reference, False)[0]
    assert not oracle.check_mean(nudged, data, variances, lam, reference, True)[0]


def test_lambda_max_check_rejects_wrong_value():
    truth, rng = workloads.piecewise_truth(9, 500, 2, 5)
    data = truth + rng.standard_normal(truth.shape)
    value = oracle.lambda_max_group(data)
    assert oracle.check_lambda_max("%.17g" % value, data)
    assert not oracle.check_lambda_max("%.17g" % (value * (1 + 1e-9)), data)


def test_synth_check_properties():
    truth, rng = workloads.piecewise_truth(4, 20_000, 2, 5)
    data = truth + rng.standard_normal(truth.shape)
    assert oracle.check_synth(data, truth, 20_000, 2, 5)
    assert not oracle.check_synth(data, truth, 20_000, 2, 4)
    assert not oracle.check_synth(truth + 1.2 * (data - truth), truth, 20_000, 2, 5)
    assert oracle.exact_text("%.17g,%.17g\n" % (0.1, -2.5e-300))
    assert not oracle.exact_text("%.6g\n" % (1.0 / 3.0))


def variance_case():
    import tvadmm

    data = workloads.variance_series(0)[:40]
    grams = oracle.trailing_grams(data, workloads.VAR_WINDOW)
    spec = tvadmm.VarianceFilterSpec(lam=workloads.VAR_LAMBDA,
                                     window=workloads.VAR_WINDOW)
    estimate, _ = tvadmm.variance_filter(
        data, spec, tvadmm.SolverConfig(eps_abs=1e-8, eps_rel=1e-7))
    return estimate.precision, estimate.covariance, grams


def test_variance_check_rejects_non_spd_and_perturbed():
    precision, covariance, grams = variance_case()
    lam = workloads.VAR_LAMBDA
    ok, worst = oracle.check_variance(precision, covariance, grams, lam, 0.01)
    assert ok and worst < 1e-3
    broken = precision.copy()
    broken[7] = -broken[7]
    assert not oracle.check_variance(broken, np.linalg.inv(broken), grams, lam, 0.1)[0]
    scaled = precision * 1.05
    assert not oracle.check_variance(scaled, np.linalg.inv(scaled), grams, lam, 0.1)[0]
    # Covariances that are not the inverses of the precisions fail too.
    assert not oracle.check_variance(precision, covariance * 1.001, grams, lam, 0.1)[0]


def test_trailing_grams_match_definition():
    data = workloads.variance_series(1)[:12]
    grams = oracle.trailing_grams(data, 5)
    assert np.allclose(grams[0], np.outer(data[0], data[0]))
    expected = sum(np.outer(y, y) for y in data[7:12]) / 5
    assert np.allclose(grams[11], expected, rtol=1e-14, atol=1e-14)
