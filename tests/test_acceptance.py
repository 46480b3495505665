"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run pytest with ``-s`` to see
them alongside the verdicts) and asserts the criterion at its stated
tolerance. The protocol run's polish step is checked at the end against
an offline dual oracle.
"""

import math
import time

import numpy as np
import pytest

from oracles import dense_project, difference_operator, fused_lasso_dual, \
    textbook_chain_admm
from tvadmm import (
    MeanFilterSpec,
    SolverConfig,
    chain_factor,
    lambda_max_mean,
    mean_filter,
    project,
    segments,
    variance_filter,
)
from tvadmm import admm, filters, prox
from tvadmm.cli import generate_piecewise_data
from tvadmm.filters import Penalty, VarianceFilterSpec, _build_mean_problem

PROTOCOL_SEED = 63


def verdict(criterion, ok, detail):
    print("criterion %d: %s - %s" % (criterion, "PASS" if ok else "FAIL", detail))
    return ok


@pytest.fixture(scope="module")
def protocol_instance():
    """Synthetic run mirroring the published experiment's shape:
    N=400 scalar samples, unit noise, 5 segments, weight at 10% of the
    constancy threshold, rho equal to the weight, relaxation 1.8."""
    data, truth, cuts = generate_piecewise_data(
        seed=PROTOCOL_SEED, n_samples=400, dim=1, n_segments=5
    )
    lam = 0.1 * lambda_max_mean(data)
    config = SolverConfig(rho=lam, alpha=1.8, eps_abs=1e-4, eps_rel=1e-3,
                          max_iter=10000)
    spec = MeanFilterSpec(lam=lam, penalty=Penalty.ELEMENTWISE)
    estimates, report = mean_filter(data, spec, config)
    return {
        "data": data,
        "truth": truth,
        "cuts": cuts,
        "lam": lam,
        "spec": spec,
        "config": config,
        "estimates": estimates,
        "report": report,
    }


def test_criterion_1_projection_oracle_equivalence():
    rng = np.random.default_rng(20260809)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 61))
        d = int(rng.integers(1, 6))
        w = rng.standard_normal((n, d))
        v = rng.standard_normal((n - 1, d))
        z, s = project(chain_factor(n), w, v)
        z_ref, s_ref = dense_project(w, v)
        worst = max(worst, np.abs(z - z_ref).max(), np.abs(s - s_ref).max())
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    assert verdict(1, ok, "200 instances, max dev %.2e, %.2fs" % (worst, elapsed))


def test_criterion_2_cholesky_recursion():
    worst = 0.0
    exact_head = True
    for n in range(2, 101):
        chol = chain_factor(n)
        exact_head &= chol.diag[0] == math.sqrt(2.0)
        dop = difference_operator(n, 1)
        dense = np.linalg.cholesky(np.eye(n) + dop.T @ dop)
        worst = max(
            worst,
            np.abs(np.diag(dense) - chol.diag).max(),
            np.abs(np.diag(dense, -1) - chol.subdiag).max(),
        )
    ok = worst <= 1e-12 and exact_head
    assert verdict(
        2, ok, "N=2..100 max dev %.2e, leading coefficient exact=%s"
        % (worst, exact_head)
    )


def test_criterion_3_prox_stationarity_suites():
    rng = np.random.default_rng(314159)
    worst_gauss = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 7))
        m = rng.normal(size=(n, n))
        sigma = m.T @ m + np.eye(n)
        rho = float(rng.uniform(0.1, 5.0))
        y = rng.normal(size=(1, n)) * rng.uniform(0.5, 4.0)
        target = rng.normal(size=n)
        cache = prox.gaussian_prox_cache(sigma, y, rho)
        x = prox.prox_gaussian(cache, target[None, :])[0]
        sigma_inv = np.linalg.inv(sigma)
        resid = np.abs(sigma_inv @ (x - y[0]) + rho * (x - target)).max()
        worst_gauss = max(worst_gauss, resid / (1.0 + np.abs(y).max()))
    ok_gauss = worst_gauss <= 1e-9

    ok_group = True
    ok_scalar = True
    for _ in range(500):
        d = int(rng.integers(1, 7))
        a = rng.normal(size=d) * rng.uniform(0.1, 5.0)
        kappa = float(rng.uniform(0.0, 3.0))
        r = prox.soft_threshold_group(a, kappa)
        if np.linalg.norm(r) > 0.0:
            ok_group &= np.abs((a - r) - kappa * r / np.linalg.norm(r)).max() < 1e-10
        else:
            ok_group &= np.linalg.norm(a) <= kappa + 1e-12
        rs = prox.soft_threshold_scalar(a, kappa)
        ok_scalar &= bool(
            np.abs(rs - np.sign(a) * np.maximum(np.abs(a) - kappa, 0.0)).max()
            == 0.0
        )

    worst_logdet = 0.0
    all_spd = True
    for _ in range(500):
        n = int(rng.integers(1, 6))
        v = rng.normal(size=(n, n)) * rng.uniform(0.2, 3.0)
        v = 0.5 * (v + v.T)
        y = rng.normal(size=n)
        rho = float(rng.uniform(0.1, 5.0))
        x = prox.prox_neg_logdet(v, y, rho)
        all_spd &= np.linalg.eigvalsh(x).min() > 0.0
        resid = np.linalg.norm(np.outer(y, y) - np.linalg.inv(x) + rho * (x - v))
        worst_logdet = max(worst_logdet,
                           resid / (1e-7 * (1.0 + rho * np.linalg.norm(v))))
    ok_logdet = worst_logdet <= 1.0 and all_spd

    ok = ok_gauss and ok_group and ok_scalar and ok_logdet
    assert verdict(
        3,
        ok,
        "gaussian worst %.2e, group=%s scalar=%s, logdet worst ratio %.2f, "
        "SPD=%s" % (worst_gauss, ok_group, ok_scalar, worst_logdet, all_spd),
    )


def test_criterion_4_protocol_convergence(protocol_instance):
    report = protocol_instance["report"]
    history = report.history
    ok = (
        report.converged
        and report.iterations <= 1000
        and history["primal"][-1] <= history["eps_pri"][-1]
        and history["dual"][-1] <= history["eps_dual"][-1]
    )
    assert verdict(
        4,
        ok,
        "converged=%s in %d iterations; final residuals (%.3g, %.3g) vs "
        "tolerances (%.3g, %.3g)"
        % (
            report.converged,
            report.iterations,
            history["primal"][-1],
            history["dual"][-1],
            history["eps_pri"][-1],
            history["eps_dual"][-1],
        ),
    )


def test_criterion_5_solution_quality(protocol_instance):
    data = protocol_instance["data"]
    lam = protocol_instance["lam"]
    tight = SolverConfig(rho=lam, alpha=1.8, eps_abs=1e-10, eps_rel=1e-10,
                         max_iter=200000)
    ref_estimates, ref_report = mean_filter(data, protocol_instance["spec"], tight)
    run_report = protocol_instance["report"]
    obj = run_report.objective_trace[-1]
    obj_ref = ref_report.objective_trace[-1]
    rel = abs(obj - obj_ref) / abs(obj_ref)
    dev = np.abs(protocol_instance["estimates"] - ref_estimates).max()
    ok = rel <= 1e-3 and dev <= 1e-3
    assert verdict(
        5,
        ok,
        "objective rel dev %.3e (bound 1e-3), estimate max-abs dev %.3e "
        "(bound 1e-3)" % (rel, dev),
    )


def test_criterion_6_segment_recovery(protocol_instance):
    segs = segments(protocol_instance["estimates"])
    true_starts = protocol_instance["cuts"] + 1
    detected = np.array([s.start for s in segs[1:]])
    localized = len(detected) > 0 and all(
        np.abs(detected - t).min() <= 5 for t in true_starts
    )
    ok = 4 <= len(segs) <= 7 and localized
    assert verdict(
        6,
        ok,
        "%d segments (want 4..7), change points localized within 5: %s"
        % (len(segs), localized),
    )


def test_criterion_7_constancy_threshold():
    rng = np.random.default_rng(777)
    cfg = SolverConfig(eps_abs=1e-6, eps_rel=1e-6, max_iter=100000)
    ok = True
    worst_hi = 0.0
    worst_lo = np.inf
    for _ in range(20):
        n = int(rng.integers(10, 80))
        d = int(rng.integers(1, 3))
        data = rng.normal(size=(n, d)) * rng.uniform(0.5, 3) + rng.uniform(-3, 3)
        data[n // 2:] += rng.uniform(1, 4, size=d)
        lam_max = lambda_max_mean(data)
        hi, _ = mean_filter(data, MeanFilterSpec(lam=1.01 * lam_max), cfg)
        lo, _ = mean_filter(data, MeanFilterSpec(lam=0.99 * lam_max), cfg)
        spread_hi = np.abs(np.diff(hi.reshape(n, -1), axis=0)).max()
        spread_lo = np.abs(np.diff(lo.reshape(n, -1), axis=0)).max()
        worst_hi = max(worst_hi, spread_hi)
        worst_lo = min(worst_lo, spread_lo)
        ok &= spread_hi <= 1e-4 and spread_lo > 1e-4
    assert verdict(
        7,
        ok,
        "20 instances: above-threshold spread <= %.2e, below-threshold "
        "spread >= %.2e" % (worst_hi, worst_lo),
    )


def test_criterion_8_variance_two_regime():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    data = np.concatenate([rng.normal(0, 1.0, 200),
                           rng.normal(0, np.sqrt(10.0), 200)])
    found = None
    for lam in np.geomspace(2.0, 60.0, 8):
        est, _ = variance_filter(data, VarianceFilterSpec(lam=lam),
                                 SolverConfig(max_iter=50000))
        prec = est.precision[:, 0, 0]
        segs = segments(prec, tol=0.25 * (prec.max() - prec.min()))
        if len(segs) == 2:
            found = (est, segs)
            break
    elapsed = time.perf_counter() - start
    if found is None:
        assert verdict(8, False, "no grid weight produced two segments")
    est, segs = found
    cov = est.covariance[:, 0, 0]
    level_low = cov[segs[0].start - 1:segs[0].end].mean()
    level_high = cov[segs[1].start - 1:segs[1].end].mean()
    err_low = abs(level_low - 1.0) / 1.0
    err_high = abs(level_high - 10.0) / 10.0
    cp_err = abs(segs[1].start - 201)
    ok = err_low <= 0.3 and err_high <= 0.3 and cp_err <= 10 and elapsed < 10.0
    assert verdict(
        8,
        ok,
        "levels (%.3g, %.3g) errors (%.0f%%, %.0f%%), change point off by %d, "
        "%.1fs" % (level_low, level_high, 100 * err_low, 100 * err_high,
                   cp_err, elapsed),
    )


# Iterations per timed solve. Each solve also pays fixed costs (buffer
# set-up, the scheduled objective evaluations, the final copies); over a
# few iterations they dominate and make the doubling ratio noisy.
_TIMED_ITERATIONS = 32


def _per_iteration_times(sizes, repeats=5):
    # Solves of the sizes alternate, so a slow spell of the machine hits
    # each size alike; the median drops a single slow solve.
    config = SolverConfig(rho=1.0, eps_abs=1e-14, eps_rel=1e-14,
                          max_iter=_TIMED_ITERATIONS)
    problems = []
    for n_samples in sizes:
        data = np.random.default_rng(n_samples).normal(size=(n_samples, 1))
        problems.append(
            _build_mean_problem(data, prox.gaussian_prox_cache(np.eye(1), data, 1.0),
                                1.0, Penalty.GROUP))
        admm.solve(problems[-1], config)  # warm-up (allocator and caches)
    times = [[] for _ in sizes]
    for _ in range(repeats):
        for problem, samples in zip(problems, times):
            begin = time.perf_counter()
            report = admm.solve(problem, config)
            samples.append((time.perf_counter() - begin) / report.iterations)
            assert report.iterations == _TIMED_ITERATIONS
    return [float(np.median(samples)) for samples in times]


def test_criterion_9_performance_scaling(protocol_instance):
    t_half, t_full = _per_iteration_times((100_000, 200_000))
    ratio = t_full / t_half

    data = protocol_instance["data"]
    spec = protocol_instance["spec"]
    config = protocol_instance["config"]
    mean_filter(data, spec, config)  # warm-up
    best = np.inf
    for _ in range(3):
        begin = time.perf_counter()
        mean_filter(data, spec, config)
        best = min(best, time.perf_counter() - begin)
    ok = 1.6 <= ratio <= 2.8 and best <= 0.1
    assert verdict(
        9,
        ok,
        "doubling ratio %.2f (want 1.6..2.8); full N=400 solve %.1f ms "
        "(want <= 100 ms)" % (ratio, best * 1e3),
    )


def test_criterion_10_plain_admm_equivalence():
    rng = np.random.default_rng(60)
    n, dim = 5, 2
    samples = rng.normal(size=(n, dim))
    m = rng.normal(size=(dim, dim))
    sigma = m.T @ m + np.eye(dim)
    lam, rho = 0.6, 0.9
    n_iter = 50

    xs_ref, zs_ref = textbook_chain_admm(samples, sigma, lam, rho, n_iter)
    captured = []
    cache = prox.gaussian_prox_cache(sigma, samples, rho)
    problem = _build_mean_problem(samples, cache, lam, Penalty.GROUP)
    admm.solve(
        problem,
        SolverConfig(rho=rho, alpha=1.0, eps_abs=1e-300, eps_rel=1e-300,
                     max_iter=n_iter),
        callback=lambda k, info: captured.append((info["x"].copy(),
                                                  info["z"].copy())),
    )
    worst = 0.0
    for (x_mine, z_mine), x_ref, z_ref in zip(captured, xs_ref, zs_ref):
        worst = max(worst, np.abs(x_mine.ravel() - x_ref).max(),
                    np.abs(z_mine.ravel() - z_ref).max())
    ok = len(captured) == n_iter and worst <= 1e-12
    assert verdict(
        10, ok, "50 iterations, max iterate deviation %.2e (bound 1e-12)"
        % worst
    )


def _protocol_problem(instance):
    data = np.asarray(instance["data"], dtype=float).reshape(-1, 1)
    lam = instance["lam"]
    cache = prox.gaussian_prox_cache(np.eye(1), data, lam)
    return _build_mean_problem(data, cache, lam, Penalty.ELEMENTWISE)


def _unpolished_protocol_solve(instance):
    return admm.solve(_protocol_problem(instance), instance["config"])


def test_polished_protocol_matches_dual_oracle(protocol_instance):
    report = protocol_instance["report"]
    oracle = fused_lasso_dual(protocol_instance["data"], protocol_instance["lam"])
    dev = np.abs(protocol_instance["estimates"].ravel() - oracle).max()
    assert report.polished
    assert report.certificate_gap is not None and report.certificate_gap <= 1e-9
    assert dev <= 1e-7

    # The certified start is the engine's fixed point: one iteration
    # verifies it, the trace holds that iteration's objective and the
    # polished estimate's, and the state resumes at its fixed point.
    (row,) = report.history
    assert report.iterations == 1 and report.converged
    assert row["primal"] <= row["eps_pri"] and row["dual"] <= row["eps_dual"]
    raw = _unpolished_protocol_solve(protocol_instance)
    assert len(report.objective_trace) == 2
    assert report.objective_trace[-1] <= raw.objective_trace[-1]
    resumed = admm.solve(_protocol_problem(protocol_instance),
                         protocol_instance["config"], initial=report.state)
    assert resumed.converged and resumed.iterations == 1
    assert np.abs(resumed.state.z.ravel()
                  - protocol_instance["estimates"].ravel()).max() <= 1e-12


def test_rejected_certificate_keeps_iterate(protocol_instance, monkeypatch):
    # One spurious jump, at the first difference the start's first
    # partition (the exact TV partition) leaves free, added to every
    # partition either attempt (the start, then the polish) tries; the
    # certificate must refuse every candidate, so the solve runs cold and
    # keeps its iterate.
    solve_on_partition = filters._solve_on_partition
    active_set = filters._active_set
    spurious = []
    attempts = []

    def with_spurious_jump(signs, samples, sigma, lam):
        if not spurious:
            spurious.append(np.flatnonzero(signs == 0.0)[0])
        signs = signs.copy()
        signs.flat[spurious[0]] = 1.0
        attempts[-1].append(signs)
        return solve_on_partition(signs, samples, sigma, lam)

    def recorded_attempt(*args):
        attempts.append([])
        return active_set(*args)

    monkeypatch.setattr(filters, "_solve_on_partition", with_spurious_jump)
    monkeypatch.setattr(filters, "_active_set", recorded_attempt)
    estimates, report = mean_filter(protocol_instance["data"],
                                    protocol_instance["spec"],
                                    protocol_instance["config"])
    raw = _unpolished_protocol_solve(protocol_instance)
    assert len(attempts) == 2
    assert all(1 <= len(tried) <= filters._MAX_PATTERNS for tried in attempts)
    assert all(signs.flat[spurious[0]] == 1.0
               for tried in attempts for signs in tried)
    assert not report.polished
    assert report.certificate_gap > 1e-6
    assert np.array_equal(report.x_star, raw.x_star)
    assert np.array_equal(report.r_star, raw.r_star)
    assert np.array_equal(estimates, raw.x_star)
    assert np.array_equal(report.objective_trace, raw.objective_trace)
