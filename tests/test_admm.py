import numpy as np
import pytest

from oracles import textbook_chain_admm
from tvadmm import admm
from tvadmm.exceptions import NumericalFailureError, UnboundedProblemError
from tvadmm.filters import (MeanFilterSpec, Penalty, VarianceFilterSpec,
                            _build_mean_problem, _build_variance_problem,
                            mean_filter)


def mean_problem(samples, lam, rho, sigma=None, penalty=Penalty.GROUP):
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[0] == 1 and samples.shape[1] > 1:
        samples = samples.T
    dim = samples.shape[1]
    sigma = np.eye(dim) if sigma is None else sigma
    return _build_mean_problem(samples, sigma, lam, penalty, rho)


class TestSolverConfig:
    def test_defaults(self):
        cfg = admm.SolverConfig()
        assert cfg.alpha == 1.8
        assert cfg.eps_abs == 1e-4
        assert cfg.eps_rel == 1e-3
        assert cfg.max_iter == 10000
        assert cfg.rho is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rho": 0.0},
            {"rho": -1.0},
            {"alpha": 0.9},
            {"alpha": 2.0},
            {"eps_abs": 0.0},
            {"eps_rel": -1e-3},
            {"max_iter": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            admm.SolverConfig(**kwargs)


class TestResiduals:
    def test_zero_state(self):
        xr = np.array([[1.0], [1.0], [0.0]])
        primal, dual, eps_pri, eps_dual = admm.residuals(
            xr, xr, xr, np.zeros((3, 1)), rho=1.0, eps_abs=1e-4, eps_rel=1e-3,
        )
        assert primal == 0.0
        assert dual == 0.0
        assert eps_pri > 0.0
        assert eps_dual > 0.0

    def test_primal_stack_norm(self):
        xr = np.array([[0.3], [0.4], [0.0]])
        zs = np.zeros((3, 1))
        primal, _, _, _ = admm.residuals(
            xr, zs, zs, zs, rho=1.0, eps_abs=1e-4, eps_rel=1e-3
        )
        assert abs(primal - 0.5) < 1e-15

    def test_dual_scaling(self):
        zs_prev = np.zeros((3, 1))
        zs = np.array([[0.1], [0.0], [0.0]])
        _, dual, _, _ = admm.residuals(
            zs, zs, zs_prev, zs, rho=2.0, eps_abs=1e-4, eps_rel=1e-3
        )
        assert abs(dual - 0.2) < 1e-15


class TestSolve:
    def test_single_block_reaches_minimum(self):
        estimates, report = mean_filter(
            np.array([[1.5, -2.0]]), MeanFilterSpec(lam=3.0),
            admm.SolverConfig(eps_abs=1e-10, eps_rel=1e-10),
        )
        assert report.converged
        assert np.abs(estimates - np.array([[1.5, -2.0]])).max() < 1e-8

    def test_single_block_closed_forms(self):
        # One block has no differences, so the optimum is the minimizer of
        # Phi alone: the sample for the mean filter, G^{-1} for the
        # variance filter with data matrix G.
        tight = admm.SolverConfig(rho=0.7, eps_abs=1e-12, eps_rel=1e-12)
        y = np.array([[0.8, -1.3, 2.5]])
        problem = _build_mean_problem(y, np.eye(3), 2.0, Penalty.GROUP, 0.7)
        report = admm.solve(problem, tight)
        assert report.converged
        assert report.r_star.shape == (0, 3)
        assert np.abs(report.x_star - y).max() < 1e-9

        gram = np.array([[[2.0, 0.6], [0.6, 1.5]]])
        problem = _build_variance_problem(gram, VarianceFilterSpec(lam=1.0), 0.7)
        report = admm.solve(problem, tight)
        assert report.converged
        assert report.state.s.shape == report.state.t.shape == (0, 4)
        expected = np.linalg.inv(gram[0]).ravel()
        assert np.abs(report.x_star[0] - expected).max() < 1e-9

    def test_two_point_kink(self):
        estimates, report = mean_filter(
            np.array([0.0, 2.0]), MeanFilterSpec(lam=0.5), admm.SolverConfig(rho=1.0)
        )
        assert report.converged
        assert np.abs(estimates - [0.5, 1.5]).max() < 1e-3

    def test_two_point_constant(self):
        estimates, report = mean_filter(
            np.array([0.0, 2.0]), MeanFilterSpec(lam=2.0), admm.SolverConfig(rho=1.0)
        )
        assert report.converged
        assert np.abs(estimates - [1.0, 1.0]).max() < 1e-3

    def test_history_shape_and_exit_condition(self):
        problem = mean_problem(np.array([0.0, 2.0, -1.0]), lam=0.4, rho=0.7)
        report = admm.solve(problem, admm.SolverConfig(rho=0.7))
        assert report.converged
        assert len(report.history) == report.iterations
        assert report.history["iter"][0] == 1
        last = report.history[-1]
        assert last["primal"] <= last["eps_pri"]
        assert last["dual"] <= last["eps_dual"]

    def test_feasible_output(self):
        problem = mean_problem(np.array([0.0, 3.0, 3.0, -1.0]), lam=0.4, rho=0.4)
        report = admm.solve(problem, admm.SolverConfig(rho=0.4))
        assert np.array_equal(report.r_star,
                              report.x_star[1:] - report.x_star[:-1])

    def test_max_iter_cap(self):
        problem = mean_problem(np.arange(6.0), lam=1.0, rho=1.0)
        report = admm.solve(
            problem, admm.SolverConfig(rho=1.0, eps_abs=1e-12, eps_rel=1e-12,
                                       max_iter=5)
        )
        assert not report.converged
        assert report.iterations == 5
        assert len(report.history) == 5

    def test_warm_start_consistency(self):
        problem = mean_problem(np.array([0.0, 1.0, 5.0, 5.2]), lam=0.8, rho=0.8)
        cfg = admm.SolverConfig(rho=0.8)
        first = admm.solve(problem, cfg)
        assert first.converged
        second = admm.solve(problem, cfg, initial=first.state)
        assert second.converged
        assert second.iterations <= 2

    def test_determinism(self):
        problem = mean_problem(np.array([0.0, 1.0, 5.0, 5.2, -3.0]), lam=0.8,
                               rho=0.8)
        cfg = admm.SolverConfig(rho=0.8)
        a = admm.solve(problem, cfg)
        b = admm.solve(problem, cfg)
        assert np.array_equal(a.x_star, b.x_star)
        assert np.array_equal(a.r_star, b.r_star)
        assert a.history.tobytes() == b.history.tobytes()

    def test_non_finite_prox_reported(self):
        def bad_phi(targets, rho):
            out = targets.copy()
            out[2] = np.nan
            return out

        def psi(targets, rho):
            return targets

        problem = admm.ChainProblem(
            n_blocks=4, block_dim=1, phi_prox_batch=bad_phi, psi_prox_batch=psi
        )
        with pytest.raises(NumericalFailureError) as err:
            admm.solve(problem, admm.SolverConfig(rho=1.0))
        assert err.value.block_index == 2
        assert err.value.iteration == 1

    @pytest.mark.parametrize("which", ["phi", "psi"])
    @pytest.mark.parametrize("bad", [
        lambda targets: targets[:1],
        lambda targets: targets[0],
        lambda targets: 0.5,
    ], ids=["row", "vector", "scalar"])
    def test_wrong_size_batch_result_raises(self, which, bad):
        rng = np.random.default_rng(57)
        problem = mean_problem(rng.normal(size=(6, 2)), lam=0.5, rho=0.5)
        name = which + "_prox_batch"
        good = getattr(problem, name)
        setattr(problem, name, lambda targets, rho: bad(good(targets, rho)))
        with pytest.raises(ValueError):
            admm.solve(problem, admm.SolverConfig(rho=0.5, max_iter=3))

    def test_divergence_guard(self):
        def drifting_phi(targets, rho):
            return targets + 10.0

        def psi(targets, rho):
            return targets

        problem = admm.ChainProblem(
            n_blocks=3,
            block_dim=1,
            phi_prox_batch=drifting_phi,
            psi_prox_batch=psi,
            objective=lambda x, r: -1e6 * float((x * x).sum()),
            divergence_floor=-1e8,
        )
        with pytest.raises(UnboundedProblemError):
            admm.solve(problem, admm.SolverConfig(rho=1.0, max_iter=2000))


class TestEngineState:
    """The engine updates its working arrays in place; nothing it returns
    or was given may alias them."""

    @staticmethod
    def problem():
        rng = np.random.default_rng(57)
        samples = np.repeat(rng.normal(size=(4, 2)), 6, axis=0)
        samples += 0.2 * rng.normal(size=samples.shape)
        return mean_problem(samples, lam=0.4, rho=0.4, penalty=Penalty.ELEMENTWISE)

    @staticmethod
    def config(max_iter):
        # Tolerances no iterate meets, so every solve runs max_iter steps.
        return admm.SolverConfig(rho=0.4, eps_abs=1e-300, eps_rel=1e-300,
                                 max_iter=max_iter)

    @staticmethod
    def state_arrays(state):
        return [state.z.copy(), state.s.copy(), state.u.copy(), state.t.copy()]

    def test_resumed_solve_matches_one_solve(self):
        problem = self.problem()
        first = admm.solve(problem, self.config(20))
        resumed = admm.solve(problem, self.config(30), initial=first.state)
        whole = admm.solve(problem, self.config(50))
        assert resumed.iterations == 30 and whole.iterations == 50
        assert np.array_equal(resumed.x_star, whole.x_star)
        assert np.array_equal(resumed.r_star, whole.r_star)
        for a, b in zip(self.state_arrays(resumed.state),
                        self.state_arrays(whole.state)):
            assert np.array_equal(a, b)

    def test_initial_state_unmodified(self):
        problem = self.problem()
        initial = admm.solve(problem, self.config(20)).state
        before = self.state_arrays(initial)
        admm.solve(problem, self.config(20), initial=initial)
        for a, b in zip(before, self.state_arrays(initial)):
            assert np.array_equal(a, b)

    def test_later_solve_leaves_earlier_report_alone(self):
        problem = self.problem()
        first = admm.solve(problem, self.config(20))
        x_star, r_star = first.x_star.copy(), first.r_star.copy()
        state = self.state_arrays(first.state)
        admm.solve(problem, self.config(20))
        admm.solve(problem, self.config(20), initial=first.state)
        assert np.array_equal(first.x_star, x_star)
        assert np.array_equal(first.r_star, r_star)
        for a, b in zip(state, self.state_arrays(first.state)):
            assert np.array_equal(a, b)
        assert not np.shares_memory(first.x_star, first.state.z)


class TestPlainAdmmEquivalence:
    def test_alpha_one_matches_textbook_loop(self):
        rng = np.random.default_rng(60)
        n, dim = 5, 2
        samples = rng.normal(size=(n, dim))
        m = rng.normal(size=(dim, dim))
        sigma = m.T @ m + np.eye(dim)
        lam, rho = 0.6, 0.9
        n_iter = 50

        xs_ref, zs_ref = textbook_chain_admm(samples, sigma, lam, rho, n_iter)

        captured = []
        problem = _build_mean_problem(samples, sigma, lam, Penalty.GROUP, rho)
        admm.solve(
            problem,
            admm.SolverConfig(rho=rho, alpha=1.0, eps_abs=1e-300, eps_rel=1e-300,
                              max_iter=n_iter),
            callback=lambda k, info: captured.append(
                (info["x"].copy(), info["z"].copy())
            ),
        )
        assert len(captured) == n_iter
        for (x_mine, z_mine), x_ref, z_ref in zip(captured, xs_ref, zs_ref):
            assert np.abs(x_mine.ravel() - x_ref).max() < 1e-12
            assert np.abs(z_mine.ravel() - z_ref).max() < 1e-12

    def test_objective_approaches_reference_optimum(self):
        rng = np.random.default_rng(61)
        data = np.repeat(rng.uniform(-2, 2, 4), 10) + 0.3 * rng.normal(size=40)
        lam = 0.1 * np.abs(np.cumsum(data - data.mean())).max()
        spec = MeanFilterSpec(lam=lam)
        _, run = mean_filter(
            data, spec, admm.SolverConfig(rho=lam, eps_abs=1e-6, eps_rel=1e-6)
        )
        _, ref = mean_filter(
            data, spec,
            admm.SolverConfig(rho=lam, eps_abs=1e-10, eps_rel=1e-10,
                              max_iter=200000),
        )
        assert run.converged and ref.converged
        rel = abs(run.objective_trace[-1] - ref.objective_trace[-1])
        rel /= abs(ref.objective_trace[-1])
        assert rel <= 1e-3
