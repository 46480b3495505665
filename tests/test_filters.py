import numpy as np
import pytest

from dataclasses import replace

from oracles import (bisect_lambda_max, objective_schedule, partition_optimum,
                     variance_objective)
from tvadmm import SolverConfig, filters
from tvadmm.exceptions import NumericalFailureError, UnboundedProblemError
from tvadmm.filters import (
    MeanFilterSpec,
    Penalty,
    VarianceFilterSpec,
    lambda_max_mean,
    mean_filter,
    segments,
    variance_filter,
    _build_variance_problem,
    _mean_certificate,
    _solve_on_partition,
    _trailing_gram_average,
)

TIGHT = SolverConfig(eps_abs=1e-10, eps_rel=1e-10, max_iter=200000)


def tight(rho=None):
    return SolverConfig(rho=rho, eps_abs=1e-10, eps_rel=1e-10, max_iter=200000)


def capture_rho(monkeypatch):
    # The rho values the filters' prox maps receive, through a wrapped
    # filters.solve.
    seen = set()
    solve = filters.solve

    def recorded(prox_map):
        def wrapped(targets, rho):
            seen.add(rho)
            return prox_map(targets, rho)
        return wrapped

    def solve_recording_rho(problem, *args, **kwargs):
        problem = replace(problem, phi_prox_batch=recorded(problem.phi_prox_batch),
                          psi_prox_batch=recorded(problem.psi_prox_batch))
        return solve(problem, *args, **kwargs)

    monkeypatch.setattr(filters, "solve", solve_recording_rho)
    return seen


class TestDefaultRho:
    """rho=None hands the filter's weight to both prox maps, or 1 when the
    weight is 0; an explicit rho is used as given."""

    @pytest.mark.parametrize("lam, rho, expected", [
        (2.5, None, 2.5), (0.0, None, 1.0), (2.5, 0.7, 0.7)])
    def test_mean_filter(self, monkeypatch, lam, rho, expected):
        seen = capture_rho(monkeypatch)
        data = np.array([0.1, -0.3, 2.0, 2.2, 1.9])
        mean_filter(data, MeanFilterSpec(lam=lam), SolverConfig(rho=rho, max_iter=3))
        assert seen == {expected}

    @pytest.mark.parametrize("lam, rho, expected", [
        (2.5, None, 2.5), (0.0, None, 1.0), (2.5, 0.7, 0.7)])
    def test_variance_filter(self, monkeypatch, lam, rho, expected):
        seen = capture_rho(monkeypatch)
        data = np.array([0.5, -1.0, 2.0, 1.5, -0.8])
        variance_filter(data, VarianceFilterSpec(lam=lam), SolverConfig(rho=rho))
        assert seen == {expected}


class TestMeanFilter:
    def test_constant_data_recovered(self):
        data = np.full(12, 2.5)
        estimates, report = mean_filter(data, MeanFilterSpec(lam=1.0), tight())
        assert report.converged
        assert np.abs(estimates - 2.5).max() < 1e-6

    def test_two_point_kink(self):
        estimates, _ = mean_filter(np.array([0.0, 2.0]), MeanFilterSpec(lam=0.5),
                                   SolverConfig(rho=1.0))
        assert np.abs(estimates - [0.5, 1.5]).max() < 1e-3

    def test_lambda_zero_returns_data(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=9)
        estimates, report = mean_filter(data, MeanFilterSpec(lam=0.0), tight())
        assert report.converged
        assert np.abs(estimates - data).max() < 1e-6

    def test_sigma_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mean_filter(np.zeros((4, 2)), MeanFilterSpec(lam=1.0, sigma=np.eye(3)))

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            MeanFilterSpec(lam=-0.1)

    @pytest.mark.parametrize("spec_type", [MeanFilterSpec, VarianceFilterSpec])
    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lambda_rejected(self, spec_type, lam):
        with pytest.raises(ValueError, match="^lam must be finite"):
            spec_type(lam=lam)

    def test_constant_above_lambda_max(self):
        # At the shipped default tolerances the stopping rule leaves ~1e-3
        # of ripple, so the 1e-4 constancy bound is checked at a tolerance
        # that can express it.
        rng = np.random.default_rng(2)
        data = np.concatenate([rng.normal(0, 1, 15), rng.normal(3, 1, 15)])
        lam_max = lambda_max_mean(data)
        estimates, report = mean_filter(
            data, MeanFilterSpec(lam=1.05 * lam_max),
            SolverConfig(eps_abs=1e-6, eps_rel=1e-6, max_iter=100000),
        )
        assert report.converged
        assert np.abs(np.diff(estimates)).max() <= 1e-4

    def test_kkt_cumulative_subgradients(self):
        rng = np.random.default_rng(3)
        data = np.concatenate([rng.normal(-1, 0.5, 10), rng.normal(2, 0.5, 10)])
        lam = 0.3 * lambda_max_mean(data)
        estimates, report = mean_filter(data, MeanFilterSpec(lam=lam),
                                        SolverConfig(rho=lam))
        cum = np.cumsum(estimates - data)[:-1]
        jumps = np.diff(estimates)
        eps_pri = report.history["eps_pri"][-1]
        # |cumulative gradient| <= lam everywhere, with equality (signed)
        # at active jumps.
        assert (np.abs(cum) <= lam + 5 * eps_pri).all()
        for k in np.nonzero(np.abs(jumps) > 1e-3)[0]:
            assert abs(cum[k] - lam * np.sign(jumps[k])) <= 5 * eps_pri

    def test_penalty_monotone_total_variation(self):
        rng = np.random.default_rng(4)
        data = np.concatenate([rng.normal(0, 1, 12), rng.normal(4, 1, 12)])
        lam_max = lambda_max_mean(data)
        tv_prev = np.inf
        for lam in np.linspace(0.05, 1.1, 10) * lam_max:
            estimates, _ = mean_filter(
                data, MeanFilterSpec(lam=lam),
                SolverConfig(rho=lam, eps_abs=1e-8, eps_rel=1e-8, max_iter=100000),
            )
            tv = np.abs(np.diff(estimates)).sum()
            assert tv <= tv_prev + 1e-6
            tv_prev = tv

    def test_elementwise_equals_group_for_dim_one(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=14)
        a, _ = mean_filter(data, MeanFilterSpec(lam=0.7, penalty=Penalty.GROUP),
                           tight(rho=0.7))
        b, _ = mean_filter(data,
                           MeanFilterSpec(lam=0.7, penalty=Penalty.ELEMENTWISE),
                           tight(rho=0.7))
        assert np.abs(a - b).max() <= 1e-9

    def test_multivariate_group_penalty(self):
        rng = np.random.default_rng(6)
        data = np.vstack([rng.normal((0, 0), 0.3, size=(10, 2)),
                          rng.normal((3, -2), 0.3, size=(10, 2))])
        estimates, report = mean_filter(data, MeanFilterSpec(lam=2.0),
                                        SolverConfig(rho=2.0))
        assert report.converged
        assert estimates.shape == (20, 2)
        # the jump may leave a one-sample transition segment
        segs = segments(estimates)
        assert len(segs) in (2, 3)
        boundaries = [s.start for s in segs[1:]]
        assert any(abs(b - 11) <= 1 for b in boundaries)


class TestPolish:
    def test_multivariate_elementwise_certified(self):
        rng = np.random.default_rng(11)
        levels = np.array([[0.0, 1.0], [2.0, 1.0], [2.0, -1.5]])
        data = np.repeat(levels, 20, axis=0) + 0.3 * rng.normal(size=(60, 2))
        sigma = np.array([[1.0, 0.6], [0.6, 2.0]])
        lam = 0.2 * lambda_max_mean(data, sigma=sigma, penalty=Penalty.ELEMENTWISE)
        estimates, report = mean_filter(
            data, MeanFilterSpec(lam=lam, penalty=Penalty.ELEMENTWISE, sigma=sigma),
            SolverConfig(rho=lam, eps_abs=1e-8, eps_rel=1e-8, max_iter=100000),
        )
        assert report.polished
        # The scheduled evaluations, then the polished estimate's entry.
        assert report.objective_iters.tolist() == (
            objective_schedule(report.iterations) + [report.iterations])
        assert report.objective_trace.size == report.objective_iters.size
        # Optimality conditions, recomputed here: weighted residual
        # partial sums bounded by lam, equal to lam * sign at jumps, zero
        # at the end.
        partial = np.cumsum((estimates - data) @ np.linalg.inv(sigma), axis=0)
        jumps = np.diff(estimates, axis=0)
        assert np.abs(partial[-1]).max() <= 1e-9
        assert (np.abs(partial[:-1]) <= lam + 1e-9).all()
        active = jumps != 0.0
        assert active.any()
        assert np.abs(partial[:-1][active]
                      - lam * np.sign(jumps[active])).max() <= 1e-9

    def test_scalar_group_penalty_polished(self):
        rng = np.random.default_rng(12)
        data = np.concatenate([rng.normal(0, 0.5, 15), rng.normal(3, 0.5, 15)])
        lam = 0.3 * lambda_max_mean(data)
        estimates, report = mean_filter(data, MeanFilterSpec(lam=lam),
                                        SolverConfig(rho=lam))
        assert report.polished
        assert report.certificate_gap <= 1e-9
        assert report.objective_trace[-1] <= report.objective_trace[-2]
        assert len(segments(estimates)) == 2

    def test_certificate_requires_zero_total_residual(self):
        # Far above lambda_max the constant mean is optimal; shifting it
        # keeps every partial sum within lam, so only the condition
        # P_N = 0 can expose the shifted estimate.
        data = np.random.default_rng(13).normal(size=(30, 1))
        lam = 10.0 * lambda_max_mean(data)
        best = np.full_like(data, data.mean())
        gap, slack = _mean_certificate(best, data, np.eye(1), lam)
        assert gap <= slack
        gap, slack = _mean_certificate(best + 0.1, data, np.eye(1), lam)
        assert gap == pytest.approx(3.0) and gap > slack

    @pytest.mark.parametrize("dim, sigma_kind", [
        (1, "scalar"), (2, "scalar"), (2, "diagonal"), (2, "correlated"),
        (3, "diagonal"), (3, "correlated"),
    ])
    @pytest.mark.parametrize("n_samples, partition", [
        (1, "random"), (2, "none"), (2, "all"), (9, "none"), (9, "all"),
        (9, "random"), (40, "random"),
    ])
    def test_partition_solve_matches_dense_kkt(self, dim, sigma_kind,
                                               n_samples, partition):
        # With a scalar or diagonal sigma a segment's average depends only
        # on the multipliers fixed at its ends; the correlated cases with a
        # random partition are the ones that exercise the banded solve.
        rng = np.random.default_rng(100 * dim + n_samples)
        m = rng.normal(size=(dim, dim))
        sigma = {
            "scalar": 1.7 * np.eye(dim),
            "diagonal": np.diag(rng.uniform(0.5, 2.0, size=dim)),
            "correlated": m @ m.T + 0.5 * np.eye(dim),
        }[sigma_kind]
        samples = rng.normal(size=(n_samples, dim))
        jumps = {
            "none": np.zeros((n_samples - 1, dim), dtype=bool),
            "all": np.ones((n_samples - 1, dim), dtype=bool),
            "random": rng.uniform(size=(n_samples - 1, dim)) < 0.2,
        }[partition]
        signs = np.where(rng.uniform(size=jumps.shape) < 0.5, -1.0, 1.0)
        # Unit steps with those signs: the polish reads exactly this
        # partition off the iterate.
        iterate = np.concatenate((np.zeros((1, dim)),
                                  np.cumsum(np.where(jumps, signs, 0.0), axis=0)))
        lam = 0.8
        candidate = _solve_on_partition(iterate, samples, sigma, lam)
        expected = partition_optimum(samples, sigma, lam, jumps, signs)
        assert np.abs(candidate - expected).max() <= 1e-10
        assert (np.diff(candidate, axis=0)[~jumps] == 0.0).all()

    def test_multivariate_group_penalty_not_polished(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(20, 2))
        _, report = mean_filter(data, MeanFilterSpec(lam=2.0), SolverConfig())
        assert not report.polished
        assert report.certificate_gap is None
        assert report.objective_iters.tolist() == objective_schedule(
            report.iterations)
        assert report.objective_trace.size == report.objective_iters.size

    def test_variance_filter_not_polished(self):
        _, report = variance_filter(np.array([1.0, 2.0, 1.5]),
                                    VarianceFilterSpec(lam=5.0))
        assert not report.polished
        assert report.certificate_gap is None


class TestLambdaMax:
    def test_two_point(self):
        assert abs(lambda_max_mean(np.array([0.0, 2.0])) - 1.0) < 1e-14

    def test_constant_data(self):
        assert lambda_max_mean(np.full(7, 3.3)) <= 1e-12

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            lambda_max_mean(np.array([1.0]))

    def test_threshold_behavior_two_point(self):
        data = np.array([0.0, 2.0])
        hi, _ = mean_filter(data, MeanFilterSpec(lam=1.01), tight())
        lo, _ = mean_filter(data, MeanFilterSpec(lam=0.99), tight())
        assert np.abs(np.diff(hi)).max() <= 1e-6
        assert np.abs(np.diff(lo)).max() > 1e-4

    @pytest.mark.parametrize("penalty", [Penalty.GROUP, Penalty.ELEMENTWISE])
    def test_matches_bisection_oracle(self, penalty):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(18, 2)) + np.repeat(
            rng.uniform(-2, 2, size=(3, 2)), 6, axis=0
        )
        reported = lambda_max_mean(data, penalty=penalty)

        def is_constant(lam):
            est, _ = mean_filter(
                data, MeanFilterSpec(lam=lam, penalty=penalty),
                SolverConfig(eps_abs=1e-9, eps_rel=1e-9, max_iter=200000),
            )
            return np.abs(np.diff(est, axis=0)).max() <= 1e-5

        oracle = bisect_lambda_max(is_constant, 0.5 * reported, 2.0 * reported,
                                   rel_tol=1e-4)
        assert abs(oracle - reported) <= 1e-3 * reported

    def test_weighted_by_sigma(self):
        data = np.array([0.0, 2.0])
        # Doubling the noise variance halves every weighted residual.
        strong = lambda_max_mean(data, sigma=np.array([[2.0]]))
        assert abs(strong - 0.5) < 1e-14


class TestSegments:
    def test_two_levels(self):
        segs = segments(np.array([1.0, 1.0, 5.0, 5.0]), tol=1e-6)
        assert [(s.start, s.end) for s in segs] == [(1, 2), (3, 4)]
        assert segs[0].level == pytest.approx(1.0)
        assert segs[1].level == pytest.approx(5.0)

    def test_constant(self):
        segs = segments(np.full(5, 2.0), tol=1e-6)
        assert [(s.start, s.end) for s in segs] == [(1, 5)]

    def test_sub_tolerance_ripple_merges(self):
        segs = segments(np.array([0.0, 1e-9, 1.0]), tol=1e-6)
        assert [(s.start, s.end) for s in segs] == [(1, 2), (3, 3)]
        assert segs[0].level == pytest.approx(5e-10)

    def test_partition(self):
        rng = np.random.default_rng(8)
        values = np.repeat(rng.normal(size=5), rng.integers(1, 6, size=5))
        segs = segments(values, tol=1e-9)
        spans = [(s.start, s.end) for s in segs]
        assert spans[0][0] == 1
        assert spans[-1][1] == len(values)
        for (a, b), (c, d) in zip(spans, spans[1:]):
            assert c == b + 1

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            segments(np.arange(3.0), tol=0.0)


class TestVarianceFilter:
    def test_single_sample_unit(self):
        est, report = variance_filter(np.array([1.0]), VarianceFilterSpec(lam=1.0))
        assert report.converged
        assert abs(est.precision[0, 0, 0] - 1.0) < 1e-3
        assert abs(est.covariance[0, 0, 0] - 1.0) < 1e-3

    def test_single_sample_scaled(self):
        est, _ = variance_filter(np.array([2.0]), VarianceFilterSpec(lam=1.0))
        assert abs(est.precision[0, 0, 0] - 0.25) < 1e-3
        assert abs(est.covariance[0, 0, 0] - 4.0) < 1e-3

    def test_pooled_when_lambda_large(self):
        est, report = variance_filter(np.array([1.0, 1.0, 1.0]),
                                      VarianceFilterSpec(lam=50.0))
        assert report.converged
        assert np.abs(est.covariance[:, 0, 0] - 1.0).max() < 1e-3

    def test_inverse_consistency(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(12, 2))
        est, _ = variance_filter(data, VarianceFilterSpec(lam=5.0, window=6))
        for x, cov in zip(est.precision, est.covariance):
            assert np.abs(x @ cov - np.eye(2)).max() < 1e-8
            assert np.linalg.eigvalsh(x).min() > 0.0

    def test_unbounded_lambda_zero_rank_one(self):
        data = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(UnboundedProblemError):
            variance_filter(data, VarianceFilterSpec(lam=0.0))

    def test_unbounded_common_null_direction(self):
        # Every sample lies on the same line, so the pooled data matrix is
        # singular and no lambda can bound the problem.
        data = np.array([[1.0, 1.0], [2.0, 2.0], [-1.0, -1.0]])
        with pytest.raises(UnboundedProblemError):
            variance_filter(data, VarianceFilterSpec(lam=3.0))

    def test_unbounded_reports_first_singular_sample(self):
        data = np.array([1.0, 2.0, 0.0, 3.0, 0.0])
        with pytest.raises(UnboundedProblemError, match="at sample 2 "):
            variance_filter(data, VarianceFilterSpec(lam=0.0))

    @pytest.mark.parametrize("window", [1, 3, 11])
    def test_trailing_gram_average_matches_windows(self, window):
        rng = np.random.default_rng(12)
        samples = rng.normal(size=(11, 3))
        grams = _trailing_gram_average(samples, window)
        for i in range(11):
            block = samples[max(0, i - window + 1):i + 1]
            direct = block.T @ block / block.shape[0]
            assert np.abs(grams[i] - direct).max() <= 1e-12

    def test_output_not_positive_definite_names_first_block(self, monkeypatch):
        solve = filters.solve

        def solve_then_break(problem, *args, **kwargs):
            report = solve(problem, *args, **kwargs)
            x_star = report.x_star.copy()
            x_star[[2, 4]] = [1.0, 2.0, 2.0, 1.0]
            return replace(report, x_star=x_star)

        monkeypatch.setattr(filters, "solve", solve_then_break)
        data = np.random.default_rng(13).normal(size=(6, 2))
        with pytest.raises(NumericalFailureError) as err:
            variance_filter(data, VarianceFilterSpec(lam=1.0, window=3))
        assert err.value.block_index == 2

    def test_window_bounds_rank_one_case(self):
        rng = np.random.default_rng(10)
        data = rng.normal(size=(30, 2))
        spec = VarianceFilterSpec(lam=2.0, window=5)
        est, report = variance_filter(data, spec,
                                      SolverConfig(max_iter=50000))
        assert report.converged
        assert est.precision.shape == (30, 2, 2)

    def test_lambda_zero_scalar_matches_per_sample(self):
        data = np.array([1.0, 2.0])
        est, report = variance_filter(data, VarianceFilterSpec(lam=0.0),
                                      tight(rho=1.0))
        assert report.converged
        assert np.abs(est.precision[:, 0, 0] - [1.0, 0.25]).max() < 1e-6

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("penalty", ["group", "elementwise"])
    def test_objective_matches_direct_formula(self, dim, penalty):
        rng = np.random.default_rng(40 + dim)
        n_samples = 7
        grams = _trailing_gram_average(rng.normal(size=(n_samples + 2, dim)), 3)[2:]
        factors = rng.normal(size=(n_samples, dim, dim))
        precisions = factors @ np.swapaxes(factors, 1, 2) + 0.5 * np.eye(dim)
        objective = _build_variance_problem(
            grams, VarianceFilterSpec(lam=1.7, penalty=penalty)).objective
        x_blocks = precisions.reshape(n_samples, dim * dim)
        value = objective(x_blocks, np.diff(x_blocks, axis=0))
        expected = variance_objective(precisions, grams, 1.7, penalty)
        assert abs(value - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("block", [
        [[0.0]], [[-0.5]], [[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.0], [0.0, -1e-3]]])
    def test_objective_infinite_off_positive_definite(self, block):
        block = np.array(block)
        dim = block.shape[0]
        precisions = np.repeat(np.eye(dim)[None], 4, axis=0)
        precisions[2] = block
        grams = np.repeat(np.eye(dim)[None], 4, axis=0)
        objective = _build_variance_problem(grams, VarianceFilterSpec(lam=1.0)).objective
        x_blocks = precisions.reshape(4, dim * dim)
        assert variance_objective(precisions, grams, 1.0, "group") == np.inf
        assert objective(x_blocks, np.diff(x_blocks, axis=0)) == np.inf

    def test_window_rejects_bad_value(self):
        with pytest.raises(ValueError):
            VarianceFilterSpec(lam=1.0, window=0)

    def test_two_regime_recovery(self):
        # Scalar series with variance 1 then 10; grid-search the penalty
        # weight and require the detected structure to match the truth.
        rng = np.random.default_rng(3)
        data = np.concatenate([rng.normal(0, 1.0, 200),
                               rng.normal(0, np.sqrt(10.0), 200)])
        found = None
        for lam in np.geomspace(2.0, 60.0, 8):
            est, report = variance_filter(data, VarianceFilterSpec(lam=lam),
                                          SolverConfig(max_iter=50000))
            prec = est.precision[:, 0, 0]
            segs = segments(prec, tol=0.25 * (prec.max() - prec.min()))
            if len(segs) == 2:
                found = (est, segs)
                break
        assert found is not None
        est, segs = found
        cov = est.covariance[:, 0, 0]
        level_low = cov[segs[0].start - 1:segs[0].end].mean()
        level_high = cov[segs[1].start - 1:segs[1].end].mean()
        assert abs(segs[1].start - 201) <= 10
        assert abs(level_low - 1.0) / 1.0 <= 0.3
        assert abs(level_high - 10.0) / 10.0 <= 0.3
