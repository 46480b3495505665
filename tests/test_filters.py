import numpy as np
import pytest

from dataclasses import replace

from oracles import (bisect_lambda_max, diagonal_partition_levels,
                     fused_lasso_dual, objective_schedule, partition_optimum,
                     variance_objective)
from tvadmm import SolverConfig, admm, filters, linalg, prox
from tvadmm.cli import generate_piecewise_data
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


def count_partition_solves(monkeypatch):
    # The partitions filters._solve_on_partition is asked to solve.
    solve_on_partition = filters._solve_on_partition
    tried = []

    def counted(*args):
        tried.append(args[0])
        return solve_on_partition(*args)

    monkeypatch.setattr(filters, "_solve_on_partition", counted)
    return tried


def fail_start(monkeypatch):
    # The mean filter's first filters._active_set run, the start, returns
    # no candidate without solving a partition, so the solve iterates
    # from zero and the polish runs as it would after a failed start.
    active_set = filters._active_set
    calls = []

    def failing_first(*args):
        calls.append(args)
        if len(calls) == 1:
            return None, None, np.inf
        return active_set(*args)

    monkeypatch.setattr(filters, "_active_set", failing_first)


def capture_starts(monkeypatch):
    # The initial state of each filters.solve call (None for a cold solve).
    solve = filters.solve
    starts = []

    def recorded(problem, config=None, initial=None, **kwargs):
        starts.append(initial)
        return solve(problem, config, initial=initial, **kwargs)

    monkeypatch.setattr(filters, "solve", recorded)
    return starts


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

    @staticmethod
    def check_diagonal_polish(seed, max_samples):
        # Piecewise-constant data with diagonal noise covariance and an
        # elementwise weight between 0.05 and 0.3 of lambda_max, solved at
        # default tolerances: the estimate must be polished.
        rng = np.random.default_rng(seed)
        n_samples = int(rng.integers(20, max_samples + 1))
        dim = int(rng.integers(1, 4))
        n_segments = int(rng.integers(2, 6))
        cuts = np.sort(rng.choice(np.arange(1, n_samples), size=n_segments - 1,
                                  replace=False))
        lengths = np.diff(np.concatenate(([0], cuts, [n_samples])))
        truth = np.repeat(rng.uniform(-3, 3, size=(n_segments, dim)), lengths,
                          axis=0)
        variances = rng.uniform(0.5, 2.0, size=dim)
        data = truth + rng.standard_normal((n_samples, dim)) * np.sqrt(variances)
        sigma = np.diag(variances)
        lam = rng.uniform(0.05, 0.3) * lambda_max_mean(data, sigma,
                                                       Penalty.ELEMENTWISE)
        estimates, report = mean_filter(
            data, MeanFilterSpec(lam=lam, penalty=Penalty.ELEMENTWISE, sigma=sigma),
            SolverConfig(max_iter=1500))
        assert report.converged and report.polished
        # With a diagonal sigma each component is scalar TV denoising with
        # weight variance * lam.
        for c in range(dim):
            oracle = fused_lasso_dual(data[:, c], variances[c] * lam)
            assert np.abs(estimates[:, c] - oracle).max() <= 1e-7
        return estimates, report

    def test_prox_zeros_certify_a_jump_the_threshold_misses(self, monkeypatch):
        # At default tolerances one genuine jump of about 0.014 in the
        # optimum sits below a per-component threshold reading of the
        # iterate (the segments() default tolerance); the difference
        # prox's exact zeros, the polish's first partition, keep it. The
        # start finds nothing, so the solve iterates from zero.
        fail_start(monkeypatch)
        estimates, report = self.check_diagonal_polish(59, 120)
        iterate = report.state.z
        spread = iterate.max(axis=0) - iterate.min(axis=0)
        tol = 1e-3 * spread + 1e-9 * (1.0 + np.abs(iterate).max(axis=0))
        unread = ((np.diff(estimates, axis=0) != 0.0)
                  & (np.abs(np.diff(iterate, axis=0)) <= tol))
        assert unread.any()

    def test_active_set_steps_certify_a_wrong_first_partition(self, monkeypatch):
        # Converged at default tolerances, but the difference prox's zeros
        # give a partition whose candidate fails the certificate; the
        # candidates' violations pick partitions until one certifies. The
        # start finds nothing, so the solve iterates from zero.
        fail_start(monkeypatch)
        tried = count_partition_solves(monkeypatch)
        self.check_diagonal_polish(5, 200)
        assert len(tried) > 1

    def test_correlated_sigma_certified(self):
        # The CLI smoke's correlated-sigma run at default tolerances,
        # against the iterate of a solve at 1e-10.
        data, _, _ = generate_piecewise_data(63, n_samples=400, dim=2)
        sigma = np.array([[1.0, 0.5], [0.5, 2.0]])
        lam = 0.1 * lambda_max_mean(data, sigma, Penalty.ELEMENTWISE)
        spec = MeanFilterSpec(lam=lam, penalty=Penalty.ELEMENTWISE, sigma=sigma)
        estimates, report = mean_filter(data, spec)
        assert report.polished
        tight = mean_filter(data, spec, TIGHT)[1]
        assert tight.converged
        reference = tight.state.z
        assert np.abs(estimates - reference).max() <= 1e-6

        def objective(x):
            resid = x - data
            return (0.5 * float(np.sum(resid * (resid @ np.linalg.inv(sigma))))
                    + lam * float(np.abs(np.diff(x, axis=0)).sum()))

        assert objective(estimates) <= objective(reference) * (1.0 + 1e-12)

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
        weighted = float(np.abs(data).sum())
        gap, slack, _ = _mean_certificate(best, data, np.eye(1), lam, weighted)
        assert gap <= slack
        gap, slack, _ = _mean_certificate(best + 0.1, data, np.eye(1), lam, weighted)
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
        lam = 0.8
        candidate = _solve_on_partition(np.where(jumps, signs, 0.0), samples,
                                        sigma, lam)
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


def random_mean_case(seed, kind):
    # Piecewise-constant data with 1 to 6 segments, noise of the kind's
    # covariance and a weight from 0.01 to 0.9 of lambda_max. "scalar
    # group" is a scalar series under the group penalty; the other kinds
    # name the covariance of an elementwise problem with n = 1 to 3.
    rng = np.random.default_rng(seed)
    n_samples = int(rng.integers(20, 401))
    dim = 1 if kind == "scalar group" else int(rng.integers(1, 4))
    n_segments = int(rng.integers(1, 7))
    cuts = np.sort(rng.choice(np.arange(1, n_samples), size=n_segments - 1,
                              replace=False))
    lengths = np.diff(np.concatenate(([0], cuts, [n_samples])))
    truth = np.repeat(rng.uniform(-3, 3, size=(n_segments, dim)), lengths, axis=0)
    m = rng.normal(size=(dim, dim))
    sigma = {
        "identity": np.eye(dim),
        "diagonal": np.diag(rng.uniform(0.5, 2.0, size=dim)),
        "correlated": m @ m.T + 0.5 * np.eye(dim),
        "scalar group": np.eye(1),
    }[kind]
    data = truth + rng.standard_normal((n_samples, dim)) @ np.linalg.cholesky(sigma).T
    penalty = Penalty.GROUP if kind == "scalar group" else Penalty.ELEMENTWISE
    lam = rng.uniform(0.01, 0.9) * lambda_max_mean(data, sigma, penalty)
    return data, MeanFilterSpec(lam=lam, penalty=penalty, sigma=sigma)


class TestCertifiedStart:
    @pytest.mark.parametrize("kind", ["identity", "diagonal", "correlated",
                                      "scalar group"])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_instances_verified_in_one_iteration(self, monkeypatch,
                                                        kind, seed):
        data, spec = random_mean_case(seed, kind)
        tried = count_partition_solves(monkeypatch)
        estimates, report = mean_filter(data, spec)
        assert report.polished and report.converged
        assert report.iterations == 1
        if kind != "correlated":
            # The components decouple, so each one's exact TV partition
            # is the optimum's: one banded solve, certified.
            assert len(tried) == 1
            for c in range(data.shape[1]):
                oracle = fused_lasso_dual(data[:, c], spec.sigma[c, c] * spec.lam)
                assert np.abs(estimates[:, c] - oracle).max() <= 1e-7

    @pytest.mark.parametrize("kind", ["identity", "diagonal", "correlated"])
    @pytest.mark.parametrize("seed", range(3))
    def test_prox_cache_solves_n_columns(self, monkeypatch, kind, seed):
        # The prox cache's LAPACK solves take n x n right-hand sides; the
        # offset is one product, so no solve grows with N.
        data, spec = random_mean_case(seed, kind)
        spd_solve = linalg.spd_solve
        columns = []

        def counted(factor, b):
            columns.append(np.shape(b)[1] if np.ndim(b) == 2 else 1)
            return spd_solve(factor, b)

        monkeypatch.setattr(linalg, "spd_solve", counted)
        _, report = mean_filter(data, spec)
        assert report.polished and report.iterations == 1
        assert columns and max(columns) <= data.shape[1] < data.shape[0]

    @pytest.mark.parametrize("kind", ["identity", "correlated", "scalar group"])
    def test_start_is_an_engine_fixed_point(self, monkeypatch, kind):
        # One iteration with tolerances it cannot meet moves no array of
        # the start by more than rounding.
        data, spec = random_mean_case(7, kind)
        starts = capture_starts(monkeypatch)
        mean_filter(data, spec)
        start = starts[0]
        assert start is not None
        cache = prox.gaussian_prox_cache(spec.sigma, data, spec.lam)
        problem = filters._build_mean_problem(data, cache, spec.lam, spec.penalty)
        config = SolverConfig(rho=spec.lam, eps_abs=1e-300, eps_rel=1e-300,
                              max_iter=1)
        state = admm.solve(problem, config, initial=start).state
        for name in ("z", "s", "u", "t"):
            before, after = getattr(start, name), getattr(state, name)
            assert np.abs(after - before).max() <= 1e-12 * (1.0 + np.abs(before).max()), name

    @pytest.mark.parametrize("kind", ["diagonal", "correlated", "scalar group"])
    def test_failed_start_is_the_cold_solve_and_polish(self, monkeypatch, kind):
        # The expected report: the cold solve, then the active set from the
        # difference prox's signs at its final iterate, whose certified
        # candidate replaces the iterate.
        data, spec = random_mean_case(8, kind)
        cache = prox.gaussian_prox_cache(spec.sigma, data, spec.lam)
        problem = filters._build_mean_problem(data, cache, spec.lam, spec.penalty)
        cold = admm.solve(problem, SolverConfig(rho=spec.lam))
        signs = np.sign(problem.psi_prox_batch(cold.state.s - cold.state.t,
                                               cache.rho))
        candidate, _, gap = filters._active_set(signs, data, spec.sigma,
                                                cache.sigma_inv, spec.lam)
        assert candidate is not None
        trace = np.append(cold.objective_trace, problem.objective(
            candidate, np.diff(candidate, axis=0)))
        fail_start(monkeypatch)
        _, report = mean_filter(data, spec)
        assert cold.iterations > 1
        assert (report.iterations, report.converged, report.polished,
                report.certificate_gap) == (
            cold.iterations, cold.converged, True, gap)
        assert np.array_equal(report.history, cold.history)
        assert np.array_equal(report.objective_trace, trace)
        assert np.array_equal(report.x_star, candidate)
        for name in ("z", "s", "u", "t"):
            assert np.array_equal(getattr(report.state, name),
                                  getattr(cold.state, name)), name

    def test_verified_by_exactly_one_iteration(self):
        # At this scale rounding makes the verifying iteration fail the
        # dual residual test. The certified optimum is still returned
        # after that one iteration, not iterated from to max_iter.
        data = 1e12 * generate_piecewise_data(63)[0]
        lam = 0.1 * lambda_max_mean(data, penalty=Penalty.ELEMENTWISE)
        estimates, report = mean_filter(
            data, MeanFilterSpec(lam=lam, penalty=Penalty.ELEMENTWISE))
        assert report.iterations == 1 and report.history.size == 1
        assert report.polished and not report.converged
        oracle = fused_lasso_dual(data[:, 0], lam)
        assert np.abs(estimates[:, 0] - oracle).max() <= 1e-7 * np.abs(data).max()


EDGE_CASES = pytest.mark.parametrize("data, lam_frac", [
    (np.array([1.5]), 0.5),
    (np.array([0.0, 2.0]), 0.5),
    (np.array([0.0, 2.0]), 1.5),
    (np.random.default_rng(30).normal(size=40), 0.0),
    (np.random.default_rng(31).normal(size=40), 1.0),
    (np.random.default_rng(32).normal(size=40), 3.0),
    (np.full(12, 2.5), 0.5),
    (np.repeat([1.0, 3.0, 1.0, 2.0], 5), 0.0),
    (np.repeat([1.0, 3.0, 1.0, 2.0], 5), 0.1),
    (1e8 * np.random.default_rng(33).normal(size=40), 0.1),
], ids=["N=1", "N=2", "N=2 above", "lambda=0", "at lambda_max",
        "above lambda_max", "constant", "ties lambda=0", "ties",
        "scale 1e8"])


class TestFirstPartition:
    """The start's first partition is each component's exact 1-D TV
    partition, so a scalar or diagonal-sigma problem certifies on the one
    solve of that partition."""

    @EDGE_CASES
    def test_edge_cases(self, monkeypatch, data, lam_frac):
        # lam_frac scales lambda_max, or 1 when that is 0 (one sample or
        # constant data).
        lam_max = lambda_max_mean(data) if data.size > 1 else 0.0
        lam = lam_frac * (lam_max if lam_max > 0.0 else 1.0)
        tried = count_partition_solves(monkeypatch)
        estimates, report = mean_filter(data, MeanFilterSpec(lam=lam))
        assert len(tried) == 1
        assert report.polished and report.iterations == 1
        if lam_frac > 1.0:
            # Above lambda_max the optimum is constant: no jump to solve.
            assert not tried[0].any()
        scale = 1.0 + np.abs(data).max()
        # With one sample or lam = 0 the optimum is the data itself.
        expected = data if data.size == 1 or lam == 0.0 else fused_lasso_dual(data, lam)
        assert np.abs(estimates - expected).max() <= 1e-7 * scale

    @EDGE_CASES
    def test_edge_cases_scanned(self, monkeypatch, data, lam_frac):
        # The same cases with every open segment carried by the array
        # scan after its first step.
        monkeypatch.setattr(filters, "_STEP_LIMIT", 1)
        self.test_edge_cases(monkeypatch, data, lam_frac)

    def test_empty_first_partition_is_the_plain_active_set(self, monkeypatch):
        data, spec = random_mean_case(9, "diagonal")
        cache = prox.gaussian_prox_cache(spec.sigma, data, spec.lam)
        empty = np.zeros_like(data[1:])
        candidate, multipliers, expected_gap = filters._active_set(
            empty, data, spec.sigma, cache.sigma_inv, spec.lam)
        monkeypatch.setattr(filters, "_tv_partition", lambda *args: empty)
        starts = capture_starts(monkeypatch)
        _, report = mean_filter(data, spec)
        start, gap = starts[0], report.certificate_gap
        assert candidate is not None and gap == expected_gap
        assert np.array_equal(start.z, candidate)
        assert np.array_equal(start.t, -multipliers / cache.rho)

    def test_flipped_sign_still_certifies(self, monkeypatch):
        data, spec = random_mean_case(9, "diagonal")
        exact = filters._tv_partition(data, spec.sigma, spec.lam)
        (first, *_), (component, *_) = np.nonzero(exact)
        flipped = exact.copy()
        flipped[first, component] *= -1.0
        monkeypatch.setattr(filters, "_tv_partition", lambda *args: flipped)
        tried = count_partition_solves(monkeypatch)
        starts = capture_starts(monkeypatch)
        mean_filter(data, spec)
        start = starts[0]
        assert len(tried) > 1
        assert np.array_equal(np.sign(np.diff(start.z, axis=0)), exact)


def tv_signs(monkeypatch, data, lam, step_limit):
    # filters._tv_partition of a scalar series with at most step_limit
    # loop steps in each open segment before the array scan takes over.
    monkeypatch.setattr(filters, "_STEP_LIMIT", step_limit)
    return filters._tv_partition(np.asarray(data, dtype=float)[:, None],
                                 np.eye(1), lam)


class TestTvScan:
    """The TV pass continues each segment longer than _STEP_LIMIT with
    array scans; they run the same algorithm as the one-sample loop."""

    @pytest.mark.parametrize("n_samples, lam_fracs", [
        (2000, (0.001, 0.01, 0.1, 0.5, 0.9, 1.1)),
        (20000, (0.001, 0.01, 0.1, 0.5, 1.1)),
        (200000, (0.001, 0.1)),
    ])
    @pytest.mark.parametrize("seed", [63, 64])
    def test_scan_matches_loop(self, monkeypatch, n_samples, lam_fracs, seed):
        # Five segments of at least N / 20 samples each, so the scan
        # carries long segments and, at small weights, the loop many
        # short ones; a step limit of 1 scans every segment, one of N
        # scans none.
        data = generate_piecewise_data(seed, n_samples=n_samples)[0][:, 0]
        lam_max = lambda_max_mean(data)
        for lam_frac in lam_fracs:
            lam = lam_frac * lam_max
            looped = tv_signs(monkeypatch, data, lam, n_samples)
            assert looped.any() == (lam_frac < 1.0)
            assert np.array_equal(tv_signs(monkeypatch, data, lam, 1), looped), lam_frac

    @pytest.mark.parametrize("data, lam", [
        (np.random.default_rng(34).normal(size=500), 0.0),
        (np.repeat([1.0, 3.0, 1.0, 2.0], 300), 0.0),
        (np.full(700, 2.5), 0.0),
        (np.full(700, 2.5), 1.0),
        (np.array([1.5]), 1.0),
        (np.array([0.0, 2.0]), 0.5),
        (np.array([0.0, 2.0]), 1.5),
        (np.array([2.0, 0.0]), 0.5),
        (np.array([2.0, 2.0]), 0.5),
    ], ids=["lambda=0", "ties lambda=0", "constant lambda=0", "constant",
            "N=1", "N=2", "N=2 above", "N=2 down", "N=2 tie"])
    def test_edge_cases_match_loop(self, monkeypatch, data, lam):
        looped = tv_signs(monkeypatch, data, lam, data.size)
        for step_limit in (1, 2):
            assert np.array_equal(tv_signs(monkeypatch, data, lam, step_limit),
                                  looped)

    @pytest.mark.parametrize("scale", [1e-8, 1e-3, 1.0, 1e4, 1e8, 1e12])
    @pytest.mark.parametrize("lam_frac", [0.001, 0.1, 0.7])
    def test_rounded_data_certifies(self, monkeypatch, scale, lam_frac):
        # Data rounded to 0.1 before scaling is full of ties, where the
        # scan's and the loop's rounding may pick different partitions;
        # the scanned start must still certify within a few solves.
        data = scale * np.round(generate_piecewise_data(65, n_samples=3000)[0], 1)
        lam = lam_frac * lambda_max_mean(data)
        monkeypatch.setattr(filters, "_STEP_LIMIT", 1)
        tried = count_partition_solves(monkeypatch)
        estimates, report = mean_filter(data, MeanFilterSpec(lam=lam))
        assert report.polished and report.iterations == 1
        assert len(tried) <= 4

    @pytest.mark.parametrize("lam", [0.01, 0.1, 0.5])
    def test_pure_noise_matches_loop(self, monkeypatch, lam):
        # Segments of one or two samples: the default hand-off keeps them
        # in the loop, and scanning every one gives the same signs.
        data = np.random.default_rng(36).normal(size=2000)
        default = filters._STEP_LIMIT
        looped = tv_signs(monkeypatch, data, lam, data.size)
        for step_limit in (1, default):
            assert np.array_equal(tv_signs(monkeypatch, data, lam, step_limit),
                                  looped), step_limit

    @pytest.mark.parametrize("lam", [0.2, 1.0, 5.0])
    @pytest.mark.parametrize("seed", [35, 36])
    def test_long_and_short_segments_match_loop(self, monkeypatch, seed, lam):
        # Runs of 1000-4000 samples alternate with spikes of 1-3, so the
        # pass hands segments from the loop to the scan and back.
        rng = np.random.default_rng(seed)
        lengths = np.ravel(np.column_stack((rng.integers(1000, 4000, size=6),
                                            rng.integers(1, 4, size=6))))
        levels = np.ravel(np.column_stack((rng.uniform(-1.0, 1.0, size=6),
                                           rng.choice([-50.0, 50.0], size=6))))
        data = np.repeat(levels, lengths) + 0.01 * rng.normal(size=lengths.sum())
        default = filters._STEP_LIMIT
        looped = tv_signs(monkeypatch, data, lam, data.size)
        runs = np.diff(np.flatnonzero(np.concatenate(([1.0], looped[:, 0], [1.0]))))
        assert runs.max() >= 1000 and runs.min() <= 3
        for step_limit in (1, default):
            assert np.array_equal(tv_signs(monkeypatch, data, lam, step_limit),
                                  looped), step_limit

    def test_pure_noise_stays_in_the_loop(self, monkeypatch):
        # Scanning each of thousands of one-sample segments costs an
        # array pass apiece; at the default hand-off almost none is.
        data = np.random.default_rng(37).normal(size=10000)
        scan = filters._scan_open_segment
        calls = []

        def counted(*args):
            calls.append(args)
            return scan(*args)

        monkeypatch.setattr(filters, "_scan_open_segment", counted)
        signs = filters._tv_partition(data[:, None], np.eye(1), 0.1)
        assert np.count_nonzero(signs) > data.size // 2
        assert len(calls) <= data.size // 100


def census_series():
    # 300 seeded scalar series: N from 2 to 3000, 1 to 10 segments with
    # N(0, 9) levels plus unit noise, lambda log-uniform in [1e-3, 1e2];
    # every fourth series is rounded to 0.1, which makes ties. Yields
    # (data, lam, rounded).
    rng = np.random.default_rng(5)
    for i in range(300):
        n_samples = int(rng.integers(2, 3001))
        n_segments = int(rng.integers(1, min(n_samples, 10) + 1))
        cuts = np.sort(rng.choice(np.arange(1, n_samples), size=n_segments - 1,
                                  replace=False))
        lengths = np.diff(np.concatenate(([0], cuts, [n_samples])))
        data = (np.repeat(rng.normal(0.0, 3.0, size=n_segments), lengths)
                + rng.normal(size=n_samples))
        lam = 10.0 ** rng.uniform(-3.0, 2.0)
        rounded = i % 4 == 0
        yield (np.round(data, 1) if rounded else data), lam, rounded


class TestFirstPartitionCensus:
    """Over a seeded census of scalar series, ties included, every start
    certifies, and the first partition certifies at least as often as
    with the earlier pass, which walked 128 loop steps of every segment
    before its scan and took each closing step in the loop."""

    # Series certified on the first partition by that earlier pass.
    EARLIER = {1.0: 300, 1e-8: 300, 1e12: 300}

    @pytest.mark.parametrize("scale", [1.0, 1e-8, 1e12])
    def test_census(self, monkeypatch, scale):
        default = filters._STEP_LIMIT
        tried = count_partition_solves(monkeypatch)
        first = 0
        for data, lam, rounded in census_series():
            data, lam = scale * data, scale * lam
            if not rounded:
                # Without ties the pass gives the loop's signs exactly.
                looped = tv_signs(monkeypatch, data, lam, data.size)
                assert np.array_equal(tv_signs(monkeypatch, data, lam, default),
                                      looped)
            monkeypatch.setattr(filters, "_STEP_LIMIT", default)
            tried.clear()
            _, report = mean_filter(data, MeanFilterSpec(lam=lam))
            assert report.polished
            first += len(tried) == 1
        assert first >= self.EARLIER[scale]


def diagonal_case(pattern, dim, scale, n_samples):
    # A diagonal sigma, samples at the given scale and a sign pattern
    # that need not be optimal: random jumps, jumps at the first and
    # last difference only, every difference a jump, and no jump.
    rng = np.random.default_rng(dim)
    sigma = np.diag(rng.uniform(0.5, 2.0, size=dim))
    samples = scale * rng.normal(size=(n_samples, dim))
    shape = (n_samples - 1, dim)
    jumps = {
        "random": rng.uniform(size=shape) < 0.3,
        "ends": np.isin(np.arange(n_samples - 1), [0, n_samples - 2])[:, None]
                & np.ones(shape, dtype=bool),
        "all": np.ones(shape, dtype=bool),
        "none": np.zeros(shape, dtype=bool),
    }[pattern]
    signs = np.where(rng.uniform(size=shape) < 0.5, -1.0, 1.0)
    return samples, sigma, jumps, signs


class TestDiagonalLevels:
    """With a diagonal sigma the partition solve takes each segment's
    level in closed form; a correlated sigma keeps the banded solve."""

    @pytest.mark.parametrize("scale", [1e-8, 1e-3, 1.0, 1e3, 1e8])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("pattern", ["random", "ends", "all", "none"])
    def test_levels_match_dense_kkt(self, pattern, dim, scale):
        samples, sigma, jumps, signs = diagonal_case(pattern, dim, scale, 30)
        lam = 0.3 * scale
        candidate = _solve_on_partition(np.where(jumps, signs, 0.0), samples,
                                        sigma, lam)
        expected = partition_optimum(samples, sigma, lam, jumps, signs)
        assert np.abs(candidate - expected).max() <= 1e-12 * np.abs(expected).max()
        assert (np.diff(candidate, axis=0)[~jumps] == 0.0).all()

    @pytest.mark.parametrize("n_samples", [1, 2, 30, 1000])
    @pytest.mark.parametrize("scale", [1e-8, 1e-3, 1.0, 1e3, 1e8])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("pattern", ["random", "ends", "all", "none"])
    def test_levels_match_per_component_closed_form(self, pattern, dim, scale,
                                                    n_samples):
        # All components are solved in one pass; each level must be the
        # per-component closed form's, bit for bit, in a C-ordered array.
        samples, sigma, jumps, signs = diagonal_case(pattern, dim, scale, n_samples)
        signs = np.where(jumps, signs, 0.0)
        candidate = _solve_on_partition(signs, samples, sigma, 0.3 * scale)
        expected = diagonal_partition_levels(signs, samples, sigma, 0.3 * scale)
        assert candidate.flags.c_contiguous
        assert np.array_equal(candidate.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("sigma, banded_solves", [
        (np.diag([1.0, 2.0]), 0),
        (np.array([[1.0, 0.5], [0.5, 2.0]]), 1),
    ], ids=["diagonal", "correlated"])
    def test_only_correlated_sigma_runs_the_banded_solve(self, monkeypatch,
                                                         sigma, banded_solves):
        calls = []
        dpbsv = filters.dpbsv

        def counted(*args, **kwargs):
            calls.append(args)
            return dpbsv(*args, **kwargs)

        monkeypatch.setattr(filters, "dpbsv", counted)
        rng = np.random.default_rng(35)
        signs = np.where(rng.uniform(size=(19, 2)) < 0.2, 1.0, 0.0)
        assert _solve_on_partition(signs, rng.normal(size=(20, 2)), sigma,
                                   0.5) is not None
        assert len(calls) == banded_solves


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

    @pytest.mark.parametrize("penalty", [Penalty.GROUP, Penalty.ELEMENTWISE])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("sigma_kind", ["none", "diagonal", "correlated"])
    def test_matches_the_full_size_formula(self, penalty, dim, sigma_kind):
        # The in-place work array gives the values of the formula that
        # kept every temporary.
        rng = np.random.default_rng(dim)
        data = rng.normal(size=(300, dim)) + np.repeat(
            rng.uniform(-5, 5, size=(3, dim)), 100, axis=0)
        root = rng.normal(size=(dim, dim))
        sigma = {"none": None,
                 "diagonal": np.diag(rng.uniform(0.5, 2.0, dim)),
                 "correlated": root @ root.T + dim * np.eye(dim)}[sigma_kind]
        sigma_inv = filters.linalg.spd_inverse(prox.noise_covariance(sigma, dim))
        partial = np.cumsum(data - data.mean(axis=0), axis=0)[:-1] @ sigma_inv
        if penalty is Penalty.GROUP:
            norms = np.sqrt((partial * partial).sum(axis=1))
        else:
            norms = np.abs(partial).max(axis=1)
        assert lambda_max_mean(data, sigma, penalty) == float(norms.max())


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
